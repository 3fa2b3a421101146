"""Automorphic layer: pseudo-Eisenstein, Radon, Eisenstein, truncation."""

import math

import numpy as np
import pytest

from seltrace import halfplane
from seltrace.halfplane import (
    AutomorphicFunction,
    DegenerateParameterError,
    EisensteinSeries,
    HalfPlanePoint,
    TailMissingError,
    boundary_from_model,
    constant_term,
    coprime_rows,
    eisenstein,
    eisenstein_grid_values,
    fd_integrate,
    lattice_eisenstein,
    maass_selberg,
    pseudo_eisenstein,
    pseudo_eisenstein_function,
    radon_mellin,
    radon_transform,
    schwartz_boundary,
    truncate,
)
from seltrace.special import PoleError, divisor_sigma, intertwining_c, kbessel, xi
from seltrace.torus import AsymptoticallyFiniteFunction, ExponentTerm, log_gaussian_core
from seltrace.util import DecayError, reduce_to_fundamental_domain

F_STD = schwartz_boundary(0.0, 0.5)
PSI_STD = pseudo_eisenstein_function(F_STD)


class TestHalfPlanePoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            HalfPlanePoint(0.0, -1.0)
        assert HalfPlanePoint(0.25, 2.0).z == 0.25 + 2.0j


class TestPseudoEisenstein:
    def test_gamma_invariance(self):
        z0 = 0.13 + 0.9j
        v = PSI_STD(z0)
        assert abs(v - PSI_STD(z0 + 1.0)) < 1e-8
        assert abs(v - PSI_STD(-1.0 / z0)) < 1e-8

    def test_slow_funnel_profile_warns_or_converges(self):
        # y^2 e^-y decays only quadratically toward the funnel; with an
        # explicit small coset bound the tail estimate must warn
        def fy_model(x):
            x = np.asarray(x, dtype=float)
            y = x**2
            return np.where(y > 0, y**2 * np.exp(-y), 0.0) / np.where(x > 0, x, 1.0)

        f = boundary_from_model(AsymptoticallyFiniteFunction(core=fy_model, tail_decay_hint=2.0))
        from seltrace.halfplane import TruncationWarning

        phi = pseudo_eisenstein_function(f, coset_bound=6)
        with pytest.warns(TruncationWarning):
            phi(0.1 + 1.1j)

    def test_zero_function(self):
        zf = boundary_from_model(AsymptoticallyFiniteFunction())
        assert pseudo_eisenstein(zf, 0.3 + 1.2j) == 0.0

    def test_cusp_asymptote_preserved(self):
        # germ at the cusp passes through the sum unchanged
        m = AsymptoticallyFiniteFunction(
            core=log_gaussian_core(0.0, 0.5, 0.4),
            terms=(ExponentTerm(-0.5, (1.0,), side="infinity", carrier="smooth"),),
        )
        f = boundary_from_model(m)
        phi = pseudo_eisenstein_function(f)
        y = math.exp(6.0)
        coeff = complex(constant_term(phi, y)) / y ** 0.25
        assert abs(coeff - 1.0) < 1e-6
        assert phi.asymptote is not None and abs(phi.asymptote[0] + 0.5) < 1e-12


class TestCoprimeRows:
    def test_matches_brute_force_window(self):
        # every coprime (c, d) with (c x + d)^2 <= radius2[c - 1] for some x
        # in [x_lo, x_hi], in order of c then d; c = 3 has no rows
        x_lo, x_hi, radius2 = -0.2, 0.45, [9.0, 4.0, 0.0, 2.5]
        cs, ds = coprime_rows(x_lo, x_hi, radius2)
        got = list(zip(cs.tolist(), ds.tolist()))
        assert got == sorted(got)
        assert all(math.gcd(c, abs(d)) == 1 for c, d in got)
        assert 3 not in cs
        want = {
            (c, d)
            for c, r2 in enumerate(radius2, start=1)
            for d in range(-50, 51)
            if r2 > 0 and math.gcd(c, abs(d)) == 1
            and min((c * x + d) ** 2 for x in np.linspace(x_lo, x_hi, 401)) <= r2
        }
        assert want <= set(got)

    def test_empty(self):
        cs, ds = coprime_rows(-0.5, 0.5, [0.0, -1.0])
        assert cs.size == 0 and ds.size == 0


def _psi_unfolded(f, z):
    """Psi f on every point separately (no mirror folding), over the row
    window `_psi_values` enumerates for the grid."""
    y, x = z.imag, z.real
    out = np.asarray(f(y), dtype=complex)
    h_min = halfplane._funnel_threshold(f, halfplane._PSI_TOL * 1e-3)
    y_lo = float(np.min(y))
    c_max = int(math.floor(1.0 / math.sqrt(h_min * y_lo))) + 1
    ys = np.linspace(y_lo, float(np.max(y)), 16)
    x_hi = float(np.max(np.abs(x)))
    cs, ds = coprime_rows(-x_hi, x_hi, [np.max(ys / h_min - c * c * ys * ys) for c in range(1, c_max + 1)])
    for c, d in zip(cs, ds):
        out = out + f(y / ((c * x + d) ** 2 + (c * y) ** 2))
    return out


def _fd_points(Ymax, nx, ny):
    Z1, _, Z2, _ = halfplane._fd_grids(Ymax, nx, ny)
    return np.concatenate([Z1, Z2])


class TestPsiFolding:
    @pytest.mark.parametrize("nx", [140, 160, 200])
    def test_fd_abscissae_are_antisymmetric(self, nx):
        _, _, Z2, _ = halfplane._fd_grids(16.0, nx, nx)
        xs = Z2[:nx].real
        assert np.array_equal(xs, -xs[::-1])

    def test_mirror_image_is_bitwise_equal(self):
        z = _fd_points(16.0, 40, 40)
        assert np.array_equal(PSI_STD.on_grid(z), PSI_STD.on_grid(-z.conj()))

    def test_matches_unfolded_sum(self):
        # an off-grid sample: abscissae of both signs, some shared |x|
        rng = np.random.default_rng(5)
        x = rng.choice([-0.41, -0.2, 0.0, 0.2, 0.33, 0.41], size=60)
        z = x + 1j * rng.uniform(0.9, 6.0, size=60)
        got = PSI_STD.on_grid(z)
        want = _psi_unfolded(F_STD, z)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_chunking_does_not_change_the_sum(self, monkeypatch):
        z = _fd_points(16.0, 40, 40)
        whole = PSI_STD.on_grid(z)
        monkeypatch.setattr(halfplane, "_PSI_CHUNK", 1000)
        pieces = PSI_STD.on_grid(z)
        assert np.max(np.abs(whole - pieces)) < 1e-13 * np.max(np.abs(whole))


class TestConstantTerm:
    def test_constant_function(self):
        one = AutomorphicFunction(evaluator=lambda z: np.ones_like(z, dtype=complex))
        assert abs(constant_term(one, 2.3) - 1.0) < 1e-14

    def test_psi_constant_term_is_f_plus_Rf(self):
        y = 1.7
        quad = constant_term(AutomorphicFunction(evaluator=PSI_STD.on_grid), y, n_x=128)
        series = complex(F_STD(y)) + complex(radon_transform(F_STD, y))
        assert abs(quad - series) < 1e-8


class TestRadon:
    def test_rapid_decay_at_cusp(self):
        ys = np.exp(np.array([6.0, 8.0, 10.0, 12.0]))
        vals = np.abs(radon_transform(F_STD, ys)) * ys**5
        assert np.all(np.diff(vals) <= 1e-12) and vals[-1] < 1e-4

    def test_spectral_identity_on_line(self):
        F = F_STD.transform()
        for t in (1.0, 3.0):
            lhs = radon_mellin(F_STD, 1j * t)
            rhs = intertwining_c(-1j * t) * complex(F(-1j * t))
            assert abs(lhs - rhs) < 1e-4

    def test_spectral_identity_convergent_region(self):
        F = F_STD.transform()
        s = -2.0 + 0.3j
        assert abs(radon_mellin(F_STD, s) - intertwining_c(-s) * complex(F(-s))) < 1e-8

    def test_funnel_constant_is_scattering_residue(self):
        # Rf(y -> 0) tends to (6/pi) Fhat(1): the Eisenstein-pole leak
        F = F_STD.transform()
        expect = 6.0 / np.pi * complex(F(1.0))
        got = complex(radon_transform(F_STD, 1e-5))
        assert abs(got - expect) < 1e-8

    def test_zero(self):
        zf = boundary_from_model(AsymptoticallyFiniteFunction())
        assert abs(radon_transform(zf, 2.0)) == 0.0

    def test_totient_sieve(self):
        def euler_phi(n):
            # trial-division reference
            out, m, p = n, n, 2
            while p * p <= m:
                if m % p == 0:
                    while m % p == 0:
                        m //= p
                    out -= out // p
                p += 1
            return out - out // m if m > 1 else out

        assert halfplane._totients(1000).tolist() == [euler_phi(c) for c in range(1, 1001)]
        assert halfplane._totients(1).tolist() == [1]


class TestFunnelGuard:
    def test_threshold_of_fast_funnel(self):
        hs = np.exp(-np.linspace(0.0, 45.0, 200))
        h_min = halfplane._funnel_threshold(F_STD, 1e-12)
        assert h_min > hs[-1]
        assert np.all(np.abs(F_STD(hs[hs <= h_min])) < 1e-12)

    def test_slow_funnel_raises(self):
        # |f| reads 3.2e-12 at the lowest probe height e^-45
        with pytest.raises(DecayError, match="decays too slowly"):
            halfplane._funnel_threshold(schwartz_boundary(0.0, 8.0), 1e-12)

    def test_radon_refuses_huge_coset_range(self):
        # the funnel threshold exists, but y = 1 needs about 5.7e7 cosets
        with pytest.raises(DecayError, match="cosets"):
            radon_transform(schwartz_boundary(0.0, 4.0), 1.0)

    def test_radon_budget_counts_heights(self, monkeypatch):
        h_min = halfplane._funnel_threshold(F_STD, 1e-12)
        c_max = int(math.floor(1.0 / math.sqrt(h_min))) + 1
        monkeypatch.setattr(halfplane, "_RADON_BUDGET", 5 * c_max)
        assert np.all(np.isfinite(radon_transform(F_STD, np.ones(5))))
        with pytest.raises(DecayError):
            radon_transform(F_STD, np.ones(6))

    def test_cli_exit_3(self, capsys):
        from seltrace import cli

        assert cli.main(["auto", "ct", "--y", "1.0", "--sigma", "8.0"]) == 3
        assert capsys.readouterr().err.startswith("error: DecayError:")


class TestEisenstein:
    def test_fourier_vs_lattice(self):
        z = 0.2 + 1.3j
        for s in (3.0 + 0j, 2.0 + 0.7j, 4.0 - 1.3j):
            assert abs(eisenstein(s, z) - lattice_eisenstein(s, z)) < 1e-8

    def test_constant_term_formula(self):
        s = 0.4 + 2.0j
        E = EisensteinSeries(s)
        w = 0.5 * (1 + s)
        for y in (1.4, 2.2):
            ct = complex(constant_term(E, y))
            expect = y**w + intertwining_c(s) * y ** (1 - w)
            assert abs(ct - expect) < 1e-6

    def test_functional_equation(self):
        s = 0.3j
        z = 0.17 + 1.05j
        lhs = eisenstein(s, z)
        rhs = intertwining_c(s) * eisenstein(-s, z)
        assert abs(lhs - rhs) < 1e-6

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            eisenstein(1.0, 1j)

    def test_vanishes_at_zero_parameter(self):
        assert eisenstein(0.0, 0.3 + 1.4j) == 0.0

    def test_grid_values_match_dense_evaluation(self):
        # the fundamental-domain grid repeats heights and abscissae; values
        # taken once per distinct height and abscissa are the dense ones
        s = 0.2 + 1.7j
        z = _fd_points(math.exp(3.0), 60, 60)
        assert np.unique(z.imag).size < z.size // 4
        w = 0.5 * (1.0 + s)
        y, x = z.imag, z.real
        want = y**w + complex(intertwining_c(s)) * y ** (1.0 - w)
        pref = 4.0 / complex(xi(1.0 + s))
        for n in range(1, int(np.ceil(48.0 / (2.0 * np.pi * np.min(y)))) + 1):
            an = n ** (w - 0.5) * divisor_sigma(n, 1.0 - 2.0 * w)
            kv = kbessel(w - 0.5, 2.0 * np.pi * n * y)
            want = want + pref * an * np.sqrt(y) * kv * np.cos(2.0 * np.pi * n * x)
        assert np.array_equal(eisenstein_grid_values(s, z), want)


class TestTruncate:
    def test_below_height_identity(self):
        E = EisensteinSeries(2j)
        z = 0.2 + 1.1j
        assert abs(truncate(E, 1.0, z) - complex(E(z))) < 1e-12

    def test_above_height_subtracts_ct(self):
        s = 2j
        E = EisensteinSeries(s)
        T = 0.5
        z = 0.1 + 1j * (math.exp(2 * T) + 1.0)
        w = 0.5 * (1 + s)
        y = z.imag
        expect = complex(E(z)) - (y**w + intertwining_c(s) * y ** (1 - w))
        assert abs(truncate(E, T, z) - expect) < 1e-10

    def test_ms_growth_linear_in_T(self):
        # the truncated norm grows linearly in T per the closed-form relation
        l1, r1, _ = maass_selberg(2j, -2j + 1e-3, 1.0, nx=80, ny=80)
        l2, r2, _ = maass_selberg(2j, -2j + 1e-3, 1.5, nx=80, ny=80)
        assert abs(l1 - r1) < 1e-4 and abs(l2 - r2) < 1e-4
        assert l2.real > l1.real > 0


class TestFdIntegrate:
    def test_volume(self):
        v = fd_integrate(lambda z: np.ones_like(z, dtype=complex), Ymax=50.0, tail=lambda Y: 1.0 / Y)
        assert abs(v - math.pi / 3.0) < 1e-10

    def test_zero(self):
        v = fd_integrate(lambda z: np.zeros_like(z), Ymax=10.0, tail=0.0)
        assert v == 0.0

    def test_tail_missing(self):
        with pytest.raises(TailMissingError):
            fd_integrate(lambda z: np.ones_like(z), Ymax=10.0)


class TestMaassSelberg:
    def test_pure_imaginary_pair(self):
        lhs, rhs, dev = maass_selberg(2j, 3j, 1.5, nx=120, ny=120)
        assert dev < 1e-6

    def test_conjugate_pair_positive(self):
        lhs, rhs, dev = maass_selberg(0.5 + 2j, 0.5 - 2j, 1.0, nx=120, ny=120)
        assert dev < 1e-6
        assert lhs.real >= 0.0 and abs(lhs.imag) < 1e-10

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateParameterError):
            maass_selberg(0.7j, -0.7j, 1.0)


class TestModularReduction:
    def test_reduction(self):
        z = reduce_to_fundamental_domain(0.7 + 0.2j)
        assert abs(z.real) <= 0.5 + 1e-12 and abs(z) >= 1.0 - 1e-12

    def test_invariance_of_psi_under_reduction(self):
        z0 = 3.7 + 0.11j
        zr = reduce_to_fundamental_domain(z0)
        assert abs(PSI_STD(z0) - PSI_STD(zr)) < 1e-8
