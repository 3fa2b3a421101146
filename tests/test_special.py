"""Special-function layer against closed forms and the mpmath oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seltrace.special import (
    PoleError,
    ScatteringScalar,
    c_log_derivative,
    divisor_sigma,
    gamma,
    intertwining_c,
    kbessel,
    kbessel_imag_order,
    xi,
    zeta,
)


class TestZeta:
    def test_basel(self):
        # independent Euler-Maclaurin partial sum as the oracle
        n = np.arange(1, 200)
        oracle = np.sum(1.0 / n**2) + 1.0 / 199 - 0.5 / 199**2
        assert abs(zeta(2.0 + 0j) - oracle) < 1e-6
        assert abs(zeta(2.0 + 0j) - np.pi**2 / 6) < 1e-12

    def test_zero(self):
        assert abs(zeta(0.0 + 0j) + 0.5) < 1e-12

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            zeta(1.0 + 0j)

    @pytest.mark.parametrize(
        "s", [0.3 + 40j, -2.5 + 33j, 2.0 + 59j, 0.5 + 14.1347j, -0.1 + 0.05j, 1.0 + 9.0647j]
    )
    def test_against_mpmath(self, s):
        assert abs(complex(mp.zeta(s)) - zeta(s)) < 1e-10

    def test_vectorized(self):
        s = np.array([2.0 + 0j, 3.0 + 1j, -1.5 + 2j])
        vals = zeta(s)
        for sv, v in zip(s, vals):
            assert abs(v - complex(mp.zeta(complex(sv)))) < 1e-11


class TestGamma:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.3, 4.0),
        st.floats(-8.0, 8.0),
    )
    def test_recursion(self, re, im):
        z = complex(re, im)
        assert abs(gamma(z + 1.0) / (z * gamma(z)) - 1.0) < 1e-12

    def test_half(self):
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-13

    def test_reflection_against_mpmath(self):
        z = -1.3 + 0.7j
        assert abs(gamma(z) - complex(mp.gamma(z))) < 1e-12


class TestXi:
    def test_value_at_two(self):
        assert abs(xi(2.0 + 0j) - np.pi / 6) < 1e-13

    def test_functional_equation_pointwise(self):
        assert abs(xi(0.3 + 2j) - xi(0.7 - 2j)) < 1e-12

    def test_functional_equation_grid(self):
        sig = np.linspace(0.1, 0.9, 9)
        ts = np.linspace(0.0, 40.0, 21)
        S = (sig[:, None] + 1j * ts[None, :]).ravel()
        assert np.max(np.abs(xi(S) - xi(1.0 - S))) < 1e-10

    def test_residue_at_one(self):
        th = 2 * np.pi * np.arange(256) / 256
        ring = 1.0 + 1e-2 * np.exp(1j * th)
        res = np.mean(xi(ring) * (ring - 1.0))
        assert abs(res - 1.0) < 1e-8

    def test_poles_raise(self):
        with pytest.raises(PoleError):
            xi(0.0)
        with pytest.raises(PoleError):
            xi(1.0)


class TestScattering:
    def test_c_at_zero(self):
        assert abs(intertwining_c(0.0) + 1.0) < 1e-10

    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_unitary_on_line(self, t):
        assert abs(abs(intertwining_c(1j * t)) - 1.0) < 1e-10

    def test_functional_equation(self):
        for re in (0.0, 0.3, -0.3):
            tt = np.linspace(0.05, 40.0, 60)
            s = re + 1j * tt
            assert np.max(np.abs(intertwining_c(s) * intertwining_c(-s) - 1.0)) < 1e-9

    def test_residue_at_one(self):
        th = 2 * np.pi * np.arange(256) / 256
        ring = 1.0 + 1e-2 * np.exp(1j * th)
        res = np.mean(intertwining_c(ring) * (ring - 1.0))
        assert abs(res - 6.0 / np.pi) < 1e-8

    def test_real_symmetric(self):
        s = 0.3 + 0.8j
        assert abs(np.conj(intertwining_c(np.conj(s))) - intertwining_c(s)) < 1e-12

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            intertwining_c(1.0)

    def test_as_charged_pole_table(self):
        ch = ScatteringScalar().as_charged()
        assert abs(ch.poles[0].location - 1.0) < 1e-14
        assert abs(ch.poles[0].plus[-1] - 6.0 / np.pi) < 1e-12


class TestCLogDerivative:
    def test_real_on_line(self):
        assert abs(complex(c_log_derivative(1j)).imag) < 1e-8

    def test_two_routes_agree(self):
        v, alt = c_log_derivative(0.3 + 0.7j, cross_check=True)
        assert abs(v - alt) < 1e-6

    def test_even_under_negation(self):
        # differentiating c(s) c(-s) = 1 gives (c'/c)(s) = (c'/c)(-s)
        assert abs(c_log_derivative(0.4j) - c_log_derivative(-0.4j)) < 1e-8


class TestKBessel:
    def test_half_order_closed_form(self):
        assert abs(kbessel(0.5, 1.0) - math.sqrt(math.pi / 2) * math.exp(-1.0)) < 1e-10

    def test_zero_order(self):
        got = kbessel_imag_order(0.0, 1.0)
        assert not got.underflowed
        assert abs(got.value - 0.42102443824070834) < 1e-10

    def test_imag_order_against_mpmath(self):
        got = kbessel_imag_order(1.0, 0.5)
        assert abs(got.value - float(mp.re(mp.besselk(1j, 0.5)))) < 1e-9

    def test_complex_order_against_mpmath(self):
        v = kbessel(0.25 + 1j, 0.7)
        assert abs(v - complex(mp.besselk(mp.mpc(0.25, 1.0), 0.7))) < 1e-10

    @pytest.mark.filterwarnings("ignore::seltrace.special.UnderflowWarning")
    def test_underflow_flag(self):
        got = kbessel_imag_order(1.0, 800.0)
        assert got.underflowed and got.value == 0.0

    def test_refinement_oracle(self):
        # double-resolution direct quadrature of the cosh representation
        u = np.linspace(0.0, 12.0, 48001)
        du = u[1] - u[0]
        vals = np.exp(-0.5 * np.cosh(u)) * np.cos(1.0 * u)
        oracle = (np.sum(vals) - 0.5 * vals[0] - 0.5 * vals[-1]) * du
        assert abs(kbessel_imag_order(1.0, 0.5).value - oracle) < 1e-9


class TestDivisorSigma:
    def test_basic(self):
        assert divisor_sigma(6, 1.0) == pytest.approx(12.0)
        assert divisor_sigma(1, 2.3 + 1j) == pytest.approx(1.0)
        assert abs(divisor_sigma(12, -1.0) - 7.0 / 3.0) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60))
    def test_multiplicative(self, a, b):
        if math.gcd(a, b) != 1:
            return
        w = 0.7 - 0.4j
        lhs = divisor_sigma(a * b, w)
        rhs = divisor_sigma(a, w) * divisor_sigma(b, w)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))
