"""Trace-formula layer: transform chain, Laurent fits, geometric terms."""

import inspect
import math

import numpy as np
import pytest

from seltrace.halfplane import FUNDAMENTAL_DOMAIN_VOLUME, _fd_grids
from seltrace.special import intertwining_c
from seltrace.torus import AsymptoticallyFiniteFunction, ExponentTerm
from seltrace.traceformula import (
    EllipticInputError,
    FitError,
    MEASURE_LEDGER,
    convolve_test_functions,
    gaussian_test_function,
    identity_term,
    kernel_diagonal_sum,
    kernel_constant_terms,
    spectral_side,
    tate_zeta_term,
    tf_minus1_geometric,
    tf_minus1_spectral,
    two_term_laurent,
    unit_hecke_global_factor,
    weight_v,
    weighted_orbital_integral,
)
from seltrace.util import DecayError, gl_nodes, panel_gl_nodes, trap_grid


class TestTransformChain:
    def test_g_of_gaussian(self, gauss_T1):
        # h(it) = e^{-t^2/4}  ->  g(u) = e^{-u^2}/sqrt(pi)
        assert abs(complex(gauss_T1.g(0.0)) - 1.0 / math.sqrt(math.pi)) < 1e-10
        us = np.linspace(-3, 3, 13)
        assert np.max(np.abs(gauss_T1.g(us) - np.exp(-(us**2)) / math.sqrt(math.pi))) < 1e-10

    def test_g_to_h_roundtrip(self, gauss_T1):
        from seltrace.util import trap_grid

        u, uw = trap_grid(30.0, 0.01)
        gu = np.asarray(gauss_T1.g(u))
        ts = np.linspace(-10, 10, 41)
        h_back = np.exp(1j * np.multiply.outer(ts, u)) @ (gu * uw)
        assert np.max(np.abs(h_back - gauss_T1.h(1j * ts))) < 1e-6

    def test_k_to_g_roundtrip(self, gauss_T1):
        rho = np.linspace(0.0, 4.0, 9)
        v = 4 * np.sinh(rho / 2) ** 2
        x1, w1 = gl_nodes(0.0, 8.0, 800)
        l, lw = panel_gl_nodes(np.linspace(math.log(8.0), 7.0, 24), 10)
        xn = np.concatenate([x1, np.exp(l)])
        xw = np.concatenate([w1, np.exp(l) * lw])
        Q = np.array([2 * np.sum(np.asarray(gauss_T1.k(vv + xn**2)) * xw) for vv in v])
        gcl = 0.5 * np.asarray(gauss_T1.g(rho / 2)).real
        assert np.max(np.abs(Q - gcl)) < 1e-6

    def test_zero_multiplier(self):
        from seltrace.traceformula import spherical_from_h

        T0 = spherical_from_h(lambda s: np.zeros_like(np.asarray(s, dtype=complex)))
        assert abs(complex(T0.g(0.3))) < 1e-14
        assert abs(float(np.asarray(T0.k(0.5)))) < 1e-14


class TestLazyAbelTables:
    def test_slow_multiplier_fails_at_construction(self):
        from seltrace.traceformula import spherical_from_h

        with pytest.raises(DecayError):
            spherical_from_h(lambda s: np.ones_like(np.asarray(s, dtype=complex)))

    @pytest.mark.parametrize("chunk", [None, 5000])
    def test_k_skips_dead_rows_bitwise(self, chunk, monkeypatch):
        from seltrace import traceformula

        if chunk is not None:
            monkeypatch.setattr(traceformula, "_ABEL_CHUNK", chunk)
        T12 = convolve_test_functions(gaussian_test_function(0.47), gaussian_test_function(0.47))
        Qp, v_cut, xi_nodes, xi_weights = inspect.getclosurevars(T12.k).nonlocals["abel"]()
        # the profile grid `tate_zeta_term` evaluates k on in a `tf report`
        u, _ = trap_grid(30.0, 0.01)
        x2 = np.exp(u) ** 2
        assert np.mean(x2 >= v_cut) > 0.2
        want = -(2.0 / np.pi) * (Qp(x2[:, None] + xi_nodes[None, :] ** 2) @ xi_weights)
        want[x2 >= v_cut] = 0.0
        assert np.array_equal(T12.k(x2), want)

    def test_report_builds_one_g_cl_table(self, monkeypatch, tmp_path):
        # only the convolved triple's k is used; the Gaussian's table is never
        # built.  The width is one no other test builds, so both triples are new.
        from seltrace import cli, traceformula

        calls = []
        build = traceformula._g_cl_derivative

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(traceformula, "_g_cl_derivative", counting)
        assert cli.main(["tf", "report", "--width", "0.4917", "--out", str(tmp_path / "tf.json")]) == 0
        assert len(calls) == 1


class TestMemo:
    def test_gaussian_triple_built_once(self, gauss_T05):
        assert gaussian_test_function(0.5) is gauss_T05

    def test_convolution_built_once(self, gauss_T05):
        assert convolve_test_functions(gauss_T05, gauss_T05) is convolve_test_functions(gauss_T05, gauss_T05)


def _brute_force_kernel_sum(k, z: complex, u_max: float = np.inf) -> float:
    """sum over PSL2(Z) of k(u(z, gamma z)) over |c| < 40, |d| <= 120,
    |m| <= 60: translations (1, m; 0, 1), then (a0 + m c, b0 + m d; c, d).
    Only terms with u <= u_max are added."""

    def k_live(u):
        return np.where(u <= u_max, k(u), 0.0)

    m = np.arange(-60, 61)
    total = float(np.sum(k_live((m / z.imag) ** 2)))
    cs, ds = np.meshgrid(np.arange(1, 40), np.arange(-120, 121), indexing="ij")
    keep = np.gcd(cs, ds) == 1
    c, d = cs[keep], ds[keep]
    a0 = np.array([pow(int(dj), -1, int(cj)) if cj > 1 else 0 for cj, dj in zip(c, d)])
    b0 = (a0 * d - 1) // c
    a = a0 + m[:, None] * c
    b = b0 + m[:, None] * d
    gz = (a * z + b) / (c * z + d)
    u = np.abs(z - gz) ** 2 / (z.imag * gz.imag)
    return total + float(np.sum(k_live(u)))


class TestKernelDiagonalSum:
    def test_matches_brute_force_off_center(self):
        # points whose x-range is not symmetric about 0, on either side
        def k(u):
            u = np.asarray(u, dtype=float)
            return np.where(u <= 30.0, np.exp(-u / 4.0), 0.0)

        for sign in (1.0, -1.0):
            z = np.array([0.45 + 0.2j, 0.4 + 0.3j, 0.35 + 0.25j])
            z = sign * z.real + 1j * z.imag
            got = kernel_diagonal_sum(k, z, u_max=30.0)
            want = np.array([_brute_force_kernel_sum(k, complex(zj)) for zj in z])
            assert np.max(np.abs(got - want)) < 1e-10 * np.max(want)

    def test_unmasked_kernel_adds_only_live_terms(self):
        # k does not vanish past u_max: every term with u > u_max must add 0,
        # not k at some clipped u; y = 5 has the widest translation window
        def k(u):
            return np.exp(-np.asarray(u, dtype=float) / 4.0)

        z = np.array([0.45 + 0.2j, -0.3 + 0.9j, 0.1 + 1.0j, -0.5 + 1.3j, 0.2 + 5.0j])
        got = kernel_diagonal_sum(k, z, u_max=30.0)
        want = np.array([_brute_force_kernel_sum(k, complex(zj), u_max=30.0) for zj in z])
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(want)

    def test_mirror_grid_is_bitwise_equal(self):
        def k(u):
            return np.exp(-np.asarray(u, dtype=float) / 4.0)

        Z1, _, Z2, _ = _fd_grids(16.0, 40, 40)
        z = np.concatenate([Z1, Z2])
        assert np.array_equal(kernel_diagonal_sum(k, z, 30.0), kernel_diagonal_sum(k, -z.conj(), 30.0))

    def test_chunking_does_not_change_the_sum(self, monkeypatch):
        from seltrace import traceformula

        def k(u):
            return np.exp(-np.asarray(u, dtype=float) / 4.0)

        x, y = np.meshgrid(np.linspace(-0.5, 0.5, 7), np.geomspace(0.3, 6.0, 9))
        z = (x + 1j * y).ravel()
        whole = kernel_diagonal_sum(k, z, u_max=30.0)
        monkeypatch.setattr(traceformula, "_KERNEL_CHUNK", 10)
        pieces = kernel_diagonal_sum(k, z, u_max=30.0)
        assert np.max(np.abs(whole - pieces)) < 1e-13 * np.max(whole)


class TestKernelConstantTerms:
    def test_relations_on_line(self, gauss_T08):
        diag, adiag = kernel_constant_terms(gauss_T08)
        ts = np.linspace(0.05, 12.0, 30)
        s = 1j * ts
        cm, cp = intertwining_c(-s), intertwining_c(s)
        assert np.max(np.abs(diag(s) - cm * cp * diag(-s))) < 1e-10
        assert np.max(np.abs(adiag(s) - cm**2 * adiag(-s))) < 1e-8
        assert np.max(np.abs(adiag(s) - cm * diag(-s))) < 1e-8

    def test_zero_function(self):
        from seltrace.traceformula import spherical_from_h

        T0 = spherical_from_h(lambda s: np.zeros_like(np.asarray(s, dtype=complex)))
        diag, adiag = kernel_constant_terms(T0)
        assert abs(complex(diag(np.array([0.3j]))[0])) < 1e-14
        assert abs(complex(adiag(np.array([0.3j]))[0])) < 1e-14


class TestSpectralMinusOne:
    def test_gaussian_value(self, gauss_T1):
        v = tf_minus1_spectral(gauss_T1, gauss_T1)
        assert abs(v + 1.0 / math.sqrt(2 * math.pi)) < 1e-10
        assert abs(v + 0.3989423) < 1e-6

    def test_zero(self, gauss_T1):
        zero = lambda s: np.zeros_like(np.asarray(s, dtype=complex))
        assert tf_minus1_spectral(gauss_T1.h, zero) == 0.0

    def test_sigma_shift(self, gauss_T1):
        v0 = tf_minus1_spectral(gauss_T1, gauss_T1)
        v1 = tf_minus1_spectral(gauss_T1, gauss_T1, sigma=0.2)
        assert abs(v0 - v1) < 1e-8


class TestModelTruncationFit:
    def test_indicator_pair(self):
        ind = AsymptoticallyFiniteFunction(terms=(ExponentTerm(0.0, side="infinity"),))
        lau = two_term_laurent(ind, ind)
        assert abs(lau.a_minus1 + 1.0) < 1e-10
        assert abs(lau.a_0) < 1e-10

    def test_exponential_tail_pair(self):
        ind = AsymptoticallyFiniteFunction(terms=(ExponentTerm(0.0, side="infinity"),))

        def tail(x):
            x = np.asarray(x, dtype=float)
            return np.where(x >= 1.0, np.exp(-x), 0.0)

        f2 = AsymptoticallyFiniteFunction(core=tail, terms=(ExponentTerm(0.0, side="infinity"),))
        lau = two_term_laurent(ind, f2)
        assert abs(lau.a_minus1 + 1.0) < 1e-8
        # int_1^inf e^-x dx/x = E_1(1)
        assert abs(lau.a_0 - 0.21938393439552062) < 1e-8

    def test_fit_error_on_growth(self):
        grow = AsymptoticallyFiniteFunction(
            core=lambda x: np.sqrt(np.asarray(x)) * (np.asarray(x) >= 1.0),
            terms=(),
        )
        ind = AsymptoticallyFiniteFunction(terms=(ExponentTerm(0.0, side="infinity"),))
        with pytest.raises(FitError):
            two_term_laurent(grow, ind)


class TestGeometricTerms:
    def test_weight_values(self):
        assert weight_v(0.0) == 0.0
        assert abs(weight_v(1.0) - 0.5 * math.log(2.0)) < 1e-14

    def test_unit_hecke_factors(self):
        assert unit_hecke_global_factor(1) == 1.0
        assert unit_hecke_global_factor(-1) == 1.0
        for t in (2, -2, 3, "3/2", "1/2"):
            assert unit_hecke_global_factor(t) == 0.0

    def test_orbital_vanishing_off_units(self, gauss_T08):
        assert weighted_orbital_integral(gauss_T08, 2) == 0.0

    def test_orbital_geodesic_polar_oracle(self, gauss_T08):
        direct = weighted_orbital_integral(gauss_T08, -1, weighted=False)
        d, dw = gl_nodes(0.0, 9.0, 2400)
        polar = 4.0 * np.sum(np.asarray(gauss_T08.k(4.0 * np.sinh(d) ** 2)) * np.cosh(d) * dw)
        assert abs(direct - polar) < 1e-4

    def test_orbital_linearity(self, gauss_T08):
        base = weighted_orbital_integral(gauss_T08, -1)

        class Doubled:
            h = gauss_T08.h
            g = gauss_T08.g
            k_fast = gauss_T08.k_fast

            @staticmethod
            def k(u):
                return 2.0 * np.asarray(gauss_T08.k(u))

        assert abs(weighted_orbital_integral(Doubled, -1) - 2.0 * base) < 1e-12

    def test_elliptic_input(self, gauss_T08):
        with pytest.raises(EllipticInputError):
            weighted_orbital_integral(gauss_T08, 1)
        with pytest.raises(EllipticInputError):
            weighted_orbital_integral(gauss_T08, 0)

    def test_identity_term(self, gauss_T08):
        k0 = float(np.asarray(gauss_T08.k(0.0)))
        assert abs(identity_term(gauss_T08) - math.pi / 3.0 * k0) < 1e-14

    def test_config_ledger_attached(self):
        assert FUNDAMENTAL_DOMAIN_VOLUME == pytest.approx(math.pi / 3.0)
        assert set(MEASURE_LEDGER) == {"measure", "boundary", "volumes", "alpha_insertion"}
        assert "Vol(F) = pi/3" in MEASURE_LEDGER["measure"]
        assert "Vol([A]^1) = Vol([M]^1) = Vol([Gm]^1) = 1" in MEASURE_LEDGER["volumes"]


class TestTateZeta:
    def test_gaussian_is_xi(self):
        from seltrace.special import xi

        lau, Z = tate_zeta_term(lambda x: np.exp(-np.pi * np.asarray(x) ** 2))
        for w in (1.5, 2.0, 3.0):
            assert abs(Z(w) - xi(complex(w))) < 1e-10
        assert abs(lau.a_minus1 + 2.0) < 1e-8

    def test_zero_profile(self):
        lau, _ = tate_zeta_term(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        assert lau.a_minus1 == 0.0 and lau.a_0 == 0.0


class TestTriangle:
    def test_geometric_equals_spectral(self, gauss_T1):
        v_spec = tf_minus1_spectral(gauss_T1, gauss_T1)
        v_geo = tf_minus1_geometric(gauss_T1, gauss_T1)
        assert abs(v_spec - v_geo) < 1e-6

    def test_geometric_first_coefficient_where_dt_does_not_divide_t_max(self):
        # W = 0.45 builds its triple on t_max = 12/W = 26.67, which the
        # Fourier steps do not divide; the rules must weight by true spacing
        W = 0.45
        T = gaussian_test_function(W)
        assert abs(tf_minus1_geometric(T, T) + 1.0 / (W * math.sqrt(2.0 * math.pi))) < 1e-6

    def test_unipotent_slice_matches_tate(self, gauss_T05):
        # the alpha = 1 slice of the geometric sum equals the Tate residue
        T12 = convolve_test_functions(gauss_T05, gauss_T05)
        lau, _ = tate_zeta_term(lambda x: np.asarray(T12.k(np.asarray(x) ** 2)))
        from seltrace.traceformula import _arch_orbital_nodes

        x, w = _arch_orbital_nodes()
        slice_val = -2.0 * 2.0 * np.sum(np.asarray(T12.k(x**2)) * w)
        assert abs(lau.a_minus1 - slice_val) < 1e-4


class TestSpectralSide:
    def test_terms(self, gauss_T05):
        sp = spectral_side(gauss_T05, gauss_T05)
        h0 = complex(np.asarray(gauss_T05.h(np.zeros(1, complex)))[0])
        h1 = complex(np.asarray(gauss_T05.h(np.ones(1, complex)))[0])
        assert abs(sp["M0_term"] + 0.25 * h0 * h0) < 1e-12
        assert abs(sp["residual_term"] - h1 * h1) < 1e-12
        assert abs(sp["continuous_term"].imag) < 1e-8
        assert abs(sp["residual_defdiscrete_scalar"] - (6 / math.pi) * h1 * h1) < 1e-12

    def test_residual_off(self, gauss_T05):
        sp = spectral_side(gauss_T05, gauss_T05, residual_on=False)
        assert sp["residual_term"] == 0.0

    def test_zero_function(self, gauss_T05):
        from seltrace.traceformula import spherical_from_h

        T0 = spherical_from_h(lambda s: np.zeros_like(np.asarray(s, dtype=complex)))
        sp = spectral_side(T0, gauss_T05)
        assert abs(sp["computable_sum"]) < 1e-12

    def test_residual_line_oracle(self, gauss_T05):
        # pi * int_0^inf k(u) du recovers the multiplier at the residual point
        x1, w1 = gl_nodes(0.0, 8.0, 800)
        l, lw = panel_gl_nodes(np.linspace(math.log(8.0), 14.0, 30), 10)
        un = np.concatenate([x1, np.exp(l)])
        uw = np.concatenate([w1, np.exp(l) * lw])
        val = math.pi * float(np.sum(np.asarray(gauss_T05.k(un)) * uw))
        h1 = complex(np.asarray(gauss_T05.h(np.ones(1, complex)))[0])
        assert abs(val - h1) < 1e-6

    def test_cusp_display(self, gauss_T05):
        sp = spectral_side(gauss_T05, gauss_T05, cusp_eigenvalues=[19.07, 25.05])
        assert abs(sp["cusp_display_sum"]) < 1e-12
