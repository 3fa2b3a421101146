"""Automorphic layer: pseudo-Eisenstein, Radon, Eisenstein, truncation."""

import math
from functools import partial

import numpy as np
import pytest

from seltrace import halfplane, traceformula, util
from seltrace.halfplane import (
    DegenerateParameterError,
    EisensteinSeries,
    boundary_from_model,
    constant_term,
    coprime_rows,
    eisenstein,
    eisenstein_grid_values,
    fd_integrate,
    lattice_eisenstein,
    maass_selberg,
    pseudo_eisenstein_function,
    radon_mellin,
    radon_transform,
    rank_one_plancherel,
    schwartz_boundary,
)
from seltrace.special import PoleError, divisor_sigma, intertwining_c, kbessel, xi
from seltrace.suites import _ms_pairs
from seltrace.torus import AsymptoticallyFiniteFunction, ExponentTerm, log_gaussian_core
from seltrace.util import DecayError, gl_nodes

F_STD = schwartz_boundary(0.0, 0.5)
PSI_STD = pseudo_eisenstein_function(F_STD)


@pytest.mark.parametrize("amp", [1.0, 0.8 - 0.3j])
@pytest.mark.parametrize("shape", ["array", "0-d"])
def test_boundary_values_are_the_model_formula(amp, shape):
    # computed in place on the model's values, bit for bit x * model(x)
    y = np.random.default_rng(29).uniform(1e-6, 50.0, 5000)
    y = y if shape == "array" else np.asarray(y[11])
    f = schwartz_boundary(0.2, 0.45, amp)
    x = np.sqrt(y)
    got = f(y)
    assert np.shape(got) == np.shape(y)
    assert np.array_equal(got, x * f.model(x))


class TestPseudoEisenstein:
    def test_gamma_invariance(self):
        z0 = 0.13 + 0.9j
        v, v_shift, v_inv = (PSI_STD.on_grid(np.array([z]))[0] for z in (z0, z0 + 1.0, -1.0 / z0))
        assert abs(v - v_shift) < 1e-8
        assert abs(v - v_inv) < 1e-8

    def test_slow_funnel_profile_refused_past_budget(self, monkeypatch):
        # y^2 e^-y decays only quadratically toward the funnel: its cosets
        # below height h drop about (3/pi) h, so at 0.1+1.1i the coset sum
        # (cut at 3e-12, h_c = 3.08e-12) needs c up to 542990; past the
        # budget it is refused before any row is built
        f = _slow_funnel_profile()
        built = []
        monkeypatch.setattr(halfplane, "coprime_rows", lambda *a: built.append(a))
        monkeypatch.setattr(halfplane, "_PSI_BUDGET", 1e5)
        with pytest.raises(DecayError, match="542990 values of c"):
            pseudo_eisenstein_function(f).on_grid(np.array([0.1 + 1.1j]))
        assert not built

    def test_slow_funnel_profile_refused_at_default_budget(self, monkeypatch):
        # its row windows hold about 1e12 entries
        built = []
        monkeypatch.setattr(halfplane, "coprime_rows", lambda *a: built.append(a))
        with pytest.raises(DecayError, match="entries"):
            pseudo_eisenstein_function(_slow_funnel_profile()).on_grid(np.array([0.1 + 1.1j]))
        assert not built

    def test_budget_counts_window_entries(self, monkeypatch):
        # the estimate counts the (row, point) entries of the band windows:
        # at least the entries the sum evaluates, and less than twice them
        z = _fd_points(16.0, 40, 40)
        points = np.unique(np.abs(z.real) + 1j * z.imag).size
        band = halfplane._COSET_BAND
        sizes = [min(band, points - i) for i in range(0, points, band)]
        rows, estimates = [], []
        real_rows = halfplane.coprime_rows
        real_check = halfplane._check_psi_budget

        def spy_rows(*a):
            cs, ds = real_rows(*a)
            rows.append(cs.size)
            return cs, ds

        def spy_check(entries, c_max):
            estimates.append(entries)
            real_check(entries, c_max)

        monkeypatch.setattr(halfplane, "coprime_rows", spy_rows)
        monkeypatch.setattr(halfplane, "_check_psi_budget", spy_check)
        want = PSI_STD.on_grid(z)
        assert len(rows) == len(sizes) > 1
        evaluated = sum(r * n for r, n in zip(rows, sizes))
        estimate = estimates[-1]
        assert evaluated <= estimate < 2 * evaluated
        monkeypatch.setattr(halfplane, "_PSI_BUDGET", estimate)
        assert np.array_equal(PSI_STD.on_grid(z), want)
        monkeypatch.setattr(halfplane, "_PSI_BUDGET", estimate - 1)
        with pytest.raises(DecayError, match="entries"):
            PSI_STD.on_grid(z)

    def test_zero_function(self):
        zf = boundary_from_model(AsymptoticallyFiniteFunction())
        assert pseudo_eisenstein_function(zf).on_grid(np.array([0.3 + 1.2j]))[0] == 0.0

    def test_empty_grid(self):
        out = PSI_STD.on_grid(np.zeros(0, dtype=complex))
        assert out.shape == (0,) and out.dtype == complex

    def test_empty_constant_term(self):
        out = PSI_STD.ct(np.zeros(0))
        assert out.shape == (0,) and out.dtype == complex

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

    @pytest.mark.parametrize("rule", ["funnel", "kernel"])
    def test_bands_miss_no_live_row(self, rule):
        # 300 folded points of an off-center sample, two bands: each band's
        # rows hold every coprime (c, d), found by brute force, that lifts one
        # of its points to h_min or above (funnel) or has |cz + d|^2 <= t_max
        # (kernel)
        rng = np.random.default_rng(11)
        z = rng.uniform(-0.2, 0.45, 300) + 1j * rng.uniform(0.3, 3.0, 300)
        folded, _ = halfplane.fold_mirror(z)
        x, y = folded.real, folded.imag
        if rule == "funnel":
            h_min = 2e-3
            radius2 = partial(halfplane._funnel_radius2, h_min)

            def live(c, d, xp, yp):
                return yp / ((c * xp + d) ** 2 + (c * yp) ** 2) >= h_min
        else:
            t_max = 40.0
            radius2 = partial(traceformula._kernel_radius2, t_max)

            def live(c, d, xp, yp):
                return (c * xp + d) ** 2 + (c * yp) ** 2 <= t_max

        windows = halfplane.coset_windows(x, y, radius2)
        assert len(windows) == 2
        rows = {}
        for b, cs, ds in halfplane.coset_blocks(windows):
            rows.setdefault(b.start, set()).update(zip(cs.tolist(), ds.tolist()))
        d = np.arange(-100, 101)
        for b, *_ in windows:
            want = {
                (c, int(dj))
                for c in range(1, 60)
                for dj in d[np.any(live(c, d[:, None], x[b], y[b]), axis=1)]
                if math.gcd(c, abs(int(dj))) == 1
            }
            assert want and want <= rows[b.start]


def _slow_funnel_profile():
    """The boundary function y^2 e^-y."""

    def fy_model(x):
        x = np.asarray(x, dtype=float)
        y = x**2
        return np.where(y > 0, y**2 * np.exp(-y), 0.0) / np.where(x > 0, x, 1.0)

    return boundary_from_model(AsymptoticallyFiniteFunction(core=fy_model))


def _psi_brute(f, z):
    """Psi f on every point separately (no mirror folding, no bands): f(y)
    plus f over every coprime (c, d), c >= 1, whose orbit height
    y / |cz + d|^2 is at least the coset cut h_min, plus the mean m of the
    cosets below it."""
    h_min = halfplane._psi_threshold(f, halfplane._COSET_DROP)
    m = complex(halfplane._coset_mean(f, h_min))
    out = []
    for x, y in zip(z.real, z.imag):
        total = complex(f(y)) + m
        for c in range(1, int(1.0 / math.sqrt(h_min * y)) + 2):
            B = math.sqrt(max(y / h_min - (c * y) ** 2, 0.0))
            d = np.arange(math.floor(-c * x - B) - 1, math.ceil(-c * x + B) + 2)
            d = d[np.gcd(c, np.abs(d)) == 1]
            heights = y / ((c * x + d) ** 2 + (c * y) ** 2)
            total += np.sum(f(heights[heights >= h_min]))
        out.append(total)
    return np.array(out)


def _fd_points(Ymax, nx, ny):
    Z1, _, Z2, _ = halfplane._fd_grids(Ymax, nx, ny, halfplane._FD_STRIP_MX)
    return np.concatenate([Z1, Z2])


class TestPsiFolding:
    @pytest.mark.parametrize("nx", [140, 160, 200])
    def test_fd_abscissae_are_antisymmetric(self, nx):
        # the base region's columns, and one strip height of each caller's rule
        for mx in (halfplane._FD_STRIP_MX, traceformula._KERNEL_STRIP_MX):
            Z1, _, Z2, _ = halfplane._fd_grids(16.0, nx, nx, mx)
            for xs in (Z1[:: max(12, nx // 4)].real, Z2[:mx].real):
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
        want = _psi_brute(F_STD, z)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_value_does_not_depend_on_the_grid(self):
        # a point takes exactly its own live cosets, whichever band it is in
        Z1, _, Z2, _ = halfplane._fd_grids(16.0, 140, 140, halfplane._FD_STRIP_MX)
        z = np.concatenate([Z1, Z2])
        on_grid = PSI_STD.on_grid(z)
        # two points of the base region and two of the strip
        for k in (0, Z1.size // 2, Z1.size + Z2.size // 2, z.size - 1):
            alone = PSI_STD.on_grid(z[k : k + 1])[0]
            assert abs(alone - on_grid[k]) <= 1e-14 * abs(on_grid[k])

    def test_threshold_drops_negligible_mass(self, monkeypatch):
        # the coset cut, with the mean of what it leaves out, against the
        # same sum cut a quarter as deep
        z = np.array([0.0 + 1.0j, 0.31 + 0.96j, -0.2 + 2.5j])
        at_threshold = PSI_STD.on_grid(z)
        real_threshold = halfplane._psi_threshold
        monkeypatch.setattr(halfplane, "_psi_threshold", lambda f, drop: real_threshold(f, drop) / 4)
        deeper = PSI_STD.on_grid(z)
        assert np.max(np.abs(at_threshold - deeper)) <= 2e-12

    def test_chunking_does_not_change_the_sum(self, monkeypatch):
        z = _fd_points(16.0, 40, 40)
        whole = PSI_STD.on_grid(z)
        monkeypatch.setattr(util, "_BLOCK", 1000)
        pieces = PSI_STD.on_grid(z)
        assert np.max(np.abs(whole - pieces)) < 1e-13 * np.max(np.abs(whole))


# the boundary pair of the torus-automorphic bench at seed 9001, round 0
_BENCH_PAIR = ((0.1245, 0.45, 1.0129), (0.0974, 0.55, 1.1479))


class TestCosetMean:
    @pytest.mark.parametrize("which", [0, 1], ids=["sigma0.45", "sigma0.55"])
    def test_mean_stands_for_the_cosets_below_the_cut(self, which, monkeypatch):
        # at the coset cut h_c (3e-12 of |f| left out) plus the mean m of
        # what it leaves out, every point of the 140-grid is within 1e-12 of
        # the plain sum at h_c / 4, which leaves out about 1e-18
        z = _fd_points(16.0, 140, 140)
        psi = pseudo_eisenstein_function(schwartz_boundary(*_BENCH_PAIR[which]))
        at_cut = psi.on_grid(z)
        real_threshold = halfplane._psi_threshold
        monkeypatch.setattr(halfplane, "_psi_threshold", lambda f, drop: real_threshold(f, drop) / 4)
        monkeypatch.setattr(halfplane, "_coset_mean", lambda f, h_c: 0.0)
        monkeypatch.setattr(halfplane, "_PSI_BUDGET", 1e9)
        deeper = psi.on_grid(z)
        assert np.max(np.abs(at_cut - deeper)) <= 1e-12

    def test_mean_is_the_signed_mass(self):
        # m is (3/pi) int_0^h_c f(t) t^-2 dt: a fine trapezoid in log t
        # (whose own error is 5.5e-7 of m), and for a positive f the mass the
        # cut was sized on, to the probe's step
        h_c = halfplane._psi_threshold(F_STD, halfplane._COSET_DROP)
        m = halfplane._coset_mean(F_STD, h_c)
        t = np.exp(np.linspace(-80.0, math.log(h_c), 200_001))
        assert abs(m - 3.0 / math.pi * np.trapezoid(F_STD(t) / t, np.log(t))) <= 1e-6 * abs(m)
        assert 0.5 * halfplane._COSET_DROP <= m <= halfplane._COSET_DROP
        flipped = schwartz_boundary(0.0, 0.5, -1.0)
        assert halfplane._coset_mean(flipped, h_c) == -m

    def test_bench_pair_fd_meets_spectral(self):
        # the bench's rank-one operation: the fundamental-domain integral of
        # Psi f1 Psi f2 on the 140-grid with its constant-term tail, against
        # the spectral side (4.2e-12 apart without the mean)
        p1, p2 = (pseudo_eisenstein_function(schwartz_boundary(*p)) for p in _BENCH_PAIR)
        value, _ = rank_one_plancherel(p1, p2)
        nodes, weights = np.polynomial.legendre.leggauss(240)
        v, w = 4.0 * (nodes + 1.0), 4.0 * weights

        def tail(Y):
            y = Y * np.exp(v)
            return np.sum(p1.ct(y) * p2.ct(y) * w * np.exp(-v)) / Y

        fd = fd_integrate(lambda z: p1.on_grid(z) * p2.on_grid(z), Ymax=16.0, tail=tail, nx=140, ny=140)
        assert abs(fd - value) <= 1e-13


class TestRealValues:
    def test_real_core_stays_real(self):
        x = np.geomspace(1e-3, 1e3, 50)
        term = ExponentTerm(-0.5, (1.0,), side="infinity", carrier="smooth")
        real = AsymptoticallyFiniteFunction(core=log_gaussian_core(0.1, 0.5, 1.2))
        assert real.core_values(x).dtype == float and real(x).dtype == float
        assert schwartz_boundary(0.1, 0.5, 1.2)(x).dtype == float
        assert AsymptoticallyFiniteFunction()(x).dtype == float
        # a complex amp, or any term, makes the values complex
        for f in (
            AsymptoticallyFiniteFunction(core=log_gaussian_core(0.1, 0.5, 1.2 + 0.1j)),
            AsymptoticallyFiniteFunction(core=log_gaussian_core(0.1, 0.5, 1.2), terms=(term,)),
            AsymptoticallyFiniteFunction(terms=(term,)),
        ):
            assert f(x).dtype == complex
        with_term = AsymptoticallyFiniteFunction(core=log_gaussian_core(0.1, 0.5, 1.2), terms=(term,))
        assert np.array_equal(with_term(x), real(x) + term(x))

    def test_psi_matches_the_complex_path(self):
        # the same core cast to complex takes the complex sums of the parent
        # path; the real block sums group terms differently, by rounding only
        mu, sigma, amp = _BENCH_PAIR[0]
        core = log_gaussian_core(mu, sigma, amp)
        as_complex = boundary_from_model(AsymptoticallyFiniteFunction(core=lambda x: core(x).astype(complex)))
        z = _fd_points(16.0, 40, 40)
        got = pseudo_eisenstein_function(schwartz_boundary(mu, sigma, amp)).on_grid(z)
        want = pseudo_eisenstein_function(as_complex).on_grid(z)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


class TestConstantTerm:
    def test_constant_function(self):
        # a plain callable takes the 64-node average in x
        assert abs(constant_term(lambda z: np.ones_like(z, dtype=complex), 2.3) - 1.0) < 1e-14

    @pytest.mark.parametrize("mu,sigma", [(0.0, 0.5), (0.3, 0.6)])
    def test_series_share_one_cut(self, mu, sigma):
        # f + Rf leaves out the cosets below its own cut (at most 1e-12 of
        # |f|), and the coset sums those below theirs less the mean of what
        # they leave out, so the exact constant term and the 64-node midpoint
        # average of the values agree to the pointwise bound
        psi = pseudo_eisenstein_function(schwartz_boundary(mu, sigma))
        y = np.array([0.3, 0.6, 1.0, 2.0])
        quad = constant_term(psi.on_grid, y)
        assert np.max(np.abs(psi.ct(y) - quad)) <= 1e-12

    def test_psi_constant_term_is_f_plus_Rf(self):
        y = 1.7
        quad = constant_term(PSI_STD.on_grid, y)
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

    def test_array_matches_pointwise_calls(self):
        # s = 0 is the limit -Phi_0, which no exponential sum produces
        s = np.array([0.0, 0.5j, -1.3j, -2.0 + 0.3j, 3j, -0.4 - 7j])
        got = radon_mellin(F_STD, s)
        each = np.array([complex(radon_mellin(F_STD, sv)) for sv in s])
        assert got[0] == each[0]
        assert np.max(np.abs(got - each)) <= 1e-14 * np.max(np.abs(each))

    @staticmethod
    def _horocycle_full_grid(f, w):
        # every w on the whole r-grid: the reference for the windowed rule
        r_max = 0.5 * float(np.max(np.abs(np.log(w)))) + 42.0
        r = np.arange(0.0, r_max, halfplane._HOROCYCLE_DR)
        args = np.multiply.outer(1.0 / np.sqrt(w), 1.0 / np.cosh(r))
        vals = f.model_values(args.ravel()).reshape(args.shape)
        return 2.0 * (vals.sum(axis=1) - 0.5 * vals[:, 0]) * halfplane._HOROCYCLE_DR / np.sqrt(w)

    @pytest.mark.parametrize("which", ["schwartz", "exponent_J"])
    def test_horocycle_window_matches_full_grid(self, which, monkeypatch):
        # exponent_J's cusp term keeps G live at the top sample: the window
        # stays open above
        if which == "schwartz":
            f = schwartz_boundary(0.0, 0.5)
        else:
            f = boundary_from_model(
                AsymptoticallyFiniteFunction(
                    core=log_gaussian_core(0.0, 0.5, 0.7),
                    terms=(ExponentTerm(0.5, (1.0,), side="infinity", carrier="smooth"),),
                )
            )
        w = np.geomspace(1e-6, 1e3, 400)
        got = halfplane._horocycle_F(f, w)
        ref = self._horocycle_full_grid(f, w)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        # blocks of a few hundred (w, r) entries give the same sums, bit for bit
        monkeypatch.setattr(util, "_BLOCK", 500)
        assert np.array_equal(halfplane._horocycle_F(f, w), got)

    def test_horocycle_blocks_leave_values_bitwise(self, monkeypatch):
        # a block of `_horocycle_F` holds whole w's, so its size regroups no sum
        ys = np.geomspace(0.05, 5.0, 40)
        whole = radon_transform(F_STD, ys)
        monkeypatch.setattr(util, "_BLOCK", 1000)
        assert np.array_equal(radon_transform(F_STD, ys), whole)

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


def _dropped_mass(f, h):
    """(3/pi) int_0^h |f(t)| t^-2 dt by a fine trapezoid rule in log t."""
    t = np.exp(np.linspace(-80.0, math.log(h), 200_001))
    return 3.0 / math.pi * np.trapezoid(np.abs(f(t)) / t, np.log(t))


class TestFunnelGuard:
    def test_threshold_of_fast_funnel(self):
        # h_min is a probe height whose left-out cosets carry at most 1e-12,
        # and two probe steps up they would carry more
        hs = np.exp(-np.linspace(0.0, 45.0, 2001))
        h_min = halfplane._psi_threshold(F_STD, halfplane._PSI_DROP)
        k = int(np.flatnonzero(hs == h_min)[0])
        assert h_min > hs[-1]
        assert _dropped_mass(F_STD, h_min) <= 1e-12
        assert _dropped_mass(F_STD, hs[k - 2]) > 1e-12

    def test_slow_funnel_raises(self):
        # |f| reads 3.2e-12 at the lowest probe height e^-45, which leaves
        # about 3.5e7 below it
        with pytest.raises(DecayError, match="decays too slowly"):
            halfplane._psi_threshold(schwartz_boundary(0.0, 8.0), halfplane._PSI_DROP)

    def test_radon_refuses_huge_coset_range(self, monkeypatch):
        # y^2 e^-y has a threshold (1.05e-12), but y = 1.1 needs 931774
        # cosets, 6.0e7 entries on 64 heights; refused before any F(w)
        built = []
        monkeypatch.setattr(halfplane, "_horocycle_F", lambda *a: built.append(a))
        with pytest.raises(DecayError, match=r"59633536 \(coset, height\) entries at 64 heights"):
            radon_transform(_slow_funnel_profile(), np.full(64, 1.1))
        assert built == []

    def test_slow_funnel_radon_drops_negligible_mass(self, monkeypatch):
        # the |f| cut it replaced missed here by 2.9e-7
        f = _slow_funnel_profile()
        at_threshold = complex(radon_transform(f, 1.1))
        real_threshold = halfplane._psi_threshold
        monkeypatch.setattr(halfplane, "_psi_threshold", lambda f, drop: real_threshold(f, drop) / 4)
        assert abs(complex(radon_transform(f, 1.1)) - at_threshold) <= 1e-12

    def test_radon_budget_counts_heights(self, monkeypatch):
        h_min = halfplane._psi_threshold(F_STD, halfplane._PSI_DROP)
        c_max = int(math.floor(1.0 / math.sqrt(h_min))) + 1
        monkeypatch.setattr(halfplane, "_RADON_BUDGET", 5 * c_max)
        assert np.all(np.isfinite(radon_transform(F_STD, np.ones(5))))
        with pytest.raises(DecayError):
            radon_transform(F_STD, np.ones(6))

    def test_radon_budget_is_the_sum_of_c_max(self, monkeypatch):
        # the budget counts each height's own c bound, the pairs the series
        # builds, not c_max(min y) at every height
        ys = np.geomspace(0.05, 5.0, 40)
        h_min = halfplane._psi_threshold(F_STD, halfplane._PSI_DROP)
        entries = sum(halfplane._c_max(h_min, y) for y in ys)
        assert entries < halfplane._c_max(h_min, ys[0]) * ys.size / 2
        want = radon_transform(F_STD, ys)
        monkeypatch.setattr(halfplane, "_RADON_BUDGET", entries)
        assert np.array_equal(radon_transform(F_STD, ys), want)
        monkeypatch.setattr(halfplane, "_RADON_BUDGET", entries - 1)
        with pytest.raises(DecayError, match=f"{entries} \\(coset, height\\) entries"):
            radon_transform(F_STD, ys)

    def test_radon_empty_heights(self):
        out = radon_transform(F_STD, np.zeros(0))
        assert out.shape == (0,) and out.dtype == complex

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
        # the fundamental-domain grid repeats heights and abscissae (a strip
        # height carries every midpoint, and a base-region height its
        # mirror); values taken once per distinct height and abscissa are
        # the dense ones
        s = 0.2 + 1.7j
        z = _fd_points(math.exp(3.0), 60, 60)
        assert np.unique(z.imag).size < z.size // 3
        assert np.unique(z.real).size < z.size // 20
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
    def test_ms_growth_linear_in_T(self):
        # the truncated norm grows linearly in T per the closed-form relation
        l1, r1, _ = maass_selberg(2j, -2j + 1e-3, 1.0)
        l2, r2, _ = maass_selberg(2j, -2j + 1e-3, 1.5)
        assert abs(l1 - r1) < 1e-4 and abs(l2 - r2) < 1e-4
        assert l2.real > l1.real > 0


class TestFdIntegrate:
    def test_volume(self):
        v = fd_integrate(lambda z: np.ones_like(z, dtype=complex), Ymax=50.0, tail=lambda Y: 1.0 / Y,
                         nx=200, ny=200)
        assert abs(v - math.pi / 3.0) < 1e-10

    def test_zero(self):
        v = fd_integrate(lambda z: np.zeros_like(z), Ymax=10.0, tail=0.0, nx=200, ny=200)
        assert v == 0.0

    @pytest.mark.parametrize("n", [64, 140, 160, 200])
    def test_base_region_is_the_per_abscissa_rule(self, n):
        # the base region's broadcast is each abscissa's own `gl_nodes` rule
        # on [sqrt(1 - x^2), 1], bit for bit
        Z1, W1, _, _ = halfplane._fd_grids(16.0, n, n, halfplane._FD_STRIP_MX)
        xs, wx = gl_nodes(-0.5, 0.5, n)
        xs = 0.5 * (xs - xs[::-1])
        zs, ws = [], []
        for xv, wxv in zip(xs, wx):
            yv, wy = gl_nodes(math.sqrt(max(1.0 - xv * xv, 0.0)), 1.0, max(12, n // 4))
            zs.append(xv + 1j * yv)
            ws.append(wxv * wy / yv**2)
        assert np.array_equal(Z1, np.concatenate(zs))
        assert np.array_equal(W1, np.concatenate(ws))

    def test_strip_midpoints_match_gauss_legendre(self, monkeypatch, gauss_legendre_strip):
        # Psi f1 Psi f2 is 1-periodic and analytic in x, so the strip's
        # midpoint rule meets the 140-node Gauss-Legendre x-rule to rounding
        p2 = pseudo_eisenstein_function(schwartz_boundary(0.3, 0.6))

        def integrand(z):
            return PSI_STD.on_grid(z) * np.conj(p2.on_grid(z))

        got = fd_integrate(integrand, Ymax=16.0, tail=0.0, nx=140, ny=140)
        monkeypatch.setattr(halfplane, "_fd_grids", gauss_legendre_strip(140))
        want = fd_integrate(integrand, Ymax=16.0, tail=0.0, nx=140, ny=140)
        assert abs(got - want) <= 1e-14 * abs(want)


class TestMaassSelberg:
    def test_pure_imaginary_pair(self):
        lhs, rhs, dev = maass_selberg(2j, 3j, 1.5)
        assert dev < 1e-6

    def test_conjugate_pair_positive(self):
        lhs, rhs, dev = maass_selberg(0.5 + 2j, 0.5 - 2j, 1.0)
        assert dev < 1e-6
        assert lhs.real >= 0.0 and abs(lhs.imag) < 1e-10

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateParameterError):
            maass_selberg(0.7j, -0.7j, 1.0)

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("s1, s2", _ms_pairs())
    def test_base_rule_meets_a_finer_grid(self, s1, s2, T):
        # the library's base rule reads the same, to rounding, as 200 x 200
        E1, E2 = EisensteinSeries(s1), EisensteinSeries(s2)

        def integrand(z):
            return E1.on_grid(z) * E2.on_grid(z)

        fine = fd_integrate(integrand, Ymax=math.exp(2.0 * T), tail=0.0, nx=200, ny=200)
        want = halfplane.PAIRING_HALF * fine
        lhs, _, _ = maass_selberg(s1, s2, T)
        assert abs(lhs - want) <= 1e-14 * abs(want)


class TestRankOnePlancherel:
    @pytest.mark.parametrize("s0, weight", [(0.5, 1.0), (0.3333j, 0.5), (-0.5, None)])
    def test_exponent_term_by_side(self, s0, weight):
        # a cusp exponent's minus residue r enters as 2 r b2(-s0) right of
        # Re s = 0, with half weight on it and not at all left of it
        f1 = boundary_from_model(
            AsymptoticallyFiniteFunction(
                core=log_gaussian_core(0.0, 0.5, 0.7),
                terms=(ExponentTerm(s0, (1.0,), side="infinity", carrier="smooth"),),
            )
        )
        f2 = schwartz_boundary(0.3, 0.6)
        _, breakdown = rank_one_plancherel(pseudo_eisenstein_function(f1), pseudo_eisenstein_function(f2))
        terms = [row for row in breakdown if row["term_kind"].startswith("exponent_J")]
        if weight is None:
            assert terms == []
            return
        b2 = halfplane._boundary_b(f2, f2.transform())
        assert [row["term_kind"] for row in terms] == ["exponent_J_1"]
        assert terms[0]["value"] == 2.0 * weight * complex(b2(np.atleast_1d(-complex(s0)))[0])


class TestModularReduction:
    def test_invariance_of_psi_under_reduction(self):
        # (-3z + 11)/(z - 4) = -3 - 1/(z - 4) maps z0 into F
        z0 = 3.7 + 0.11j
        zr = -3.0 - 1.0 / (z0 - 4.0)
        assert abs(zr.real) <= 0.5 and abs(zr) >= 1.0
        v0, vr = (PSI_STD.on_grid(np.array([z]))[0] for z in (z0, zr))
        assert abs(v0 - vr) < 1e-8
