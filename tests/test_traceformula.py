"""Trace-formula layer: transform chain, Laurent fits, geometric terms."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from seltrace.halfplane import FUNDAMENTAL_DOMAIN_VOLUME, _fd_grids
from seltrace.special import c_log_derivative, intertwining_c
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
    ledger,
    spectral_side,
    tate_kernel_term,
    tate_zeta_term,
    tf_minus1_geometric,
    tf_minus1_spectral,
    two_term_laurent,
    two_term_laurent_kernel,
    unit_hecke_global_factor,
    weight_v,
    weighted_orbital_integral,
)
from seltrace.util import DecayError, panel_gl_nodes


class TestTransformChain:
    def test_k_to_g_roundtrip(self, gauss_T1):
        rho = np.linspace(0.0, 4.0, 9)
        v = 4 * np.sinh(rho / 2) ** 2
        x1, w1 = panel_gl_nodes(np.linspace(0.0, 8.0, 81), 10)
        l, lw = panel_gl_nodes(np.linspace(math.log(8.0), 7.0, 24), 10)
        xn = np.concatenate([x1, np.exp(l)])
        xw = np.concatenate([w1, np.exp(l) * lw])
        Q = np.array([2 * np.sum(np.asarray(gauss_T1.k(vv + xn**2)) * xw) for vv in v])
        # h(it) = e^{-t^2/4}: g(u) = e^{-u^2}/sqrt(pi), so g_cl(rho) = g(rho/2)/2
        gcl = np.exp(-(rho**2) / 4) / (2 * math.sqrt(math.pi))
        assert np.max(np.abs(Q - gcl)) < 1e-6

    def test_zero_multiplier(self):
        from seltrace.traceformula import spherical_from_h

        T0 = spherical_from_h(lambda s: np.zeros_like(np.asarray(s, dtype=complex)), 26.0)
        assert abs(float(np.asarray(T0.k(0.5)))) < 1e-14


class TestLazyAbelTables:
    def test_slow_multiplier_fails_at_construction(self):
        from seltrace.traceformula import spherical_from_h

        with pytest.raises(DecayError):
            spherical_from_h(lambda s: np.ones_like(np.asarray(s, dtype=complex)), 26.0)

    def test_k_at_zero_is_the_first_node(self, gauss_T05_sq):
        T12 = gauss_T05_sq
        _, coef = inspect.getclosurevars(T12.k).nonlocals["table"]()
        assert T12.k(0.0) == coef[0, 0]
        assert T12.k(-1e-15) == coef[0, 0]

    def test_k_against_selberg_inversion(self, gauss_T05_sq):
        # k(rho) = (1/2 pi) int_0^inf r tanh(pi r) e^{-2 W^2 r^2}
        # P_{-1/2+ir}(cosh rho) dr at W = 0.5, by mpmath at 30 digits (P from
        # 2F1(1/2 - ir, 1/2 + ir; 1; -sinh^2(rho/2)), cross-checked at u = 0.5
        # against the Mehler integral); pinned, since it takes about a minute
        ref = {
            0.0: 0.1530384977498246436,
            0.5: 0.1158308694708277114,
            3.0: 0.03726218679164405715,
            20.0: 6.971992635646460438e-4,
        }
        u = np.array(list(ref))
        assert np.max(np.abs(gauss_T05_sq.k(u) - np.array(list(ref.values())))) <= 1e-10 * ref[0.0]

    def test_report_builds_one_g_cl_table(self, monkeypatch, tmp_path):
        # only the convolved triple's k is used: its Q' and k tables are the
        # two cubic tables built, and the Gaussian's are never built
        from seltrace import cli, traceformula

        sizes = []
        build = traceformula._even_cubic

        def counting(values):
            sizes.append(len(values))
            return build(values)

        monkeypatch.setattr(traceformula, "_even_cubic", counting)
        assert cli.main(["tf", "report", "--width", "0.4917", "--out", str(tmp_path / "tf.json")]) == 0
        assert sizes == [traceformula._N_Q_GRID, traceformula._N_K_GRID]

    def test_oversized_fourier_rule_refused_at_construction(self):
        # t_max = 2400.5 would take 240,050 t nodes; h is never evaluated
        from seltrace.traceformula import spherical_from_h

        def h(s):
            raise AssertionError("h evaluated")

        with pytest.raises(DecayError, match="more than 240000"):
            spherical_from_h(h, 2400.5)

    def test_report_convolves_once(self, monkeypatch, tmp_path):
        # every trace-formula term takes the one convolved triple
        from seltrace import cli, traceformula

        calls = []
        convolve = traceformula.convolve_test_functions

        def counting(T1, T2):
            calls.append((T1, T2))
            return convolve(T1, T2)

        monkeypatch.setattr(traceformula, "convolve_test_functions", counting)
        assert cli.main(["tf", "report", "--width", "0.5", "--out", str(tmp_path / "tf.json")]) == 0
        assert len(calls) == 1


def _peaked_multiplier(width, t0):
    """h(it) = e^{-W^2 (t - t0)^2 / 4} + e^{-W^2 (t + t0)^2 / 4}, cut at
    t0 + max(26, 12/W): its Q' oscillates."""

    def h(s):
        s = np.asarray(s, dtype=complex)
        return np.exp(0.25 * width**2 * (s + 1j * t0) ** 2) + np.exp(0.25 * width**2 * (s - 1j * t0) ** 2)

    return h, t0 + max(26.0, 12.0 / width)


def _gaussian_square(width):
    T = gaussian_test_function(width)
    return lambda s: T.h(s) * T.h(s), T.t_max


class TestAbelFloor:
    """The table build evaluates the Abel step only where Q' is above its
    rounding floor; against the whole 6,000 x 591 rule on the uncut Q'."""

    @pytest.mark.parametrize("case, reach", [
        ((_gaussian_square, 0.3), None),
        ((_gaussian_square, 0.5), 249.12148966939284),
        ((_gaussian_square, 1.0), None),
        ((_peaked_multiplier, 0.7, 19.07), None),
    ], ids=["width0.3", "width0.5", "width1", "peaked0.7"])
    def test_cut_table_is_the_whole_rule(self, monkeypatch, case, reach):
        from seltrace import traceformula

        make, *args = case
        h, t_max = make(*args)
        cuts = []
        cut = traceformula._cut_at_floor

        def recording(q):
            cuts.append(cut(q))
            return cuts[-1]

        monkeypatch.setattr(traceformula, "_cut_at_floor", recording)
        T = traceformula.spherical_from_h(h, t_max)
        got = T.reach()
        drho, (k, *_) = inspect.getclosurevars(T.k).nonlocals["table"]()
        (_, v_end), = cuts
        # the table as built before the floor: every node, every xi
        monkeypatch.setattr(traceformula, "_cut_at_floor", lambda q: (q, math.inf))
        T_full = traceformula.spherical_from_h(h, t_max)
        _, (k_full, *_) = inspect.getclosurevars(T_full.k).nonlocals["table"]()

        assert np.max(np.abs(k - k_full)) <= 2.0**-50 * abs(k_full[0])
        u = 4.0 * np.sinh(0.5 * drho * np.arange(k.size)) ** 2
        past = np.searchsorted(u, v_end)
        assert 0 < past < k.size
        assert np.all(k[past:] == 0.0)
        # the cubic reads only zero nodes from the interval after next on
        assert np.all(T.k(np.linspace(u[past + 2], 1.1 * u[-1], 500)) == 0.0)
        assert got == T_full.reach()
        if reach is not None:
            assert got == reach

    def test_skipped_entries_read_zero(self, monkeypatch):
        # cut Q' at rho = 3, where it is still large, so that any skipped
        # entry that read a nonzero node would show far above rounding
        from seltrace import traceformula

        h, t_max = _gaussian_square(0.5)
        cut = traceformula._cut_at_floor

        def early(q):
            return np.where(np.arange(q.size) < 1500, q, 0.0)

        tables = []
        for cutting in (lambda q: cut(early(q)), lambda q: (early(q), math.inf)):
            monkeypatch.setattr(traceformula, "_cut_at_floor", cutting)
            T = traceformula.spherical_from_h(h, t_max)
            tables.append(inspect.getclosurevars(T.k).nonlocals["table"]()[1][0])
        k, k_all = tables
        assert np.max(np.abs(k - k_all)) <= 2.0**-50 * abs(k_all[0])
        # near the end of the cut k is far above rounding
        assert np.max(np.abs(k_all[np.nonzero(k)[0][-1] - 200 :])) > 1e-8 * abs(k_all[0])

    def test_table_build_reads_under_a_million_entries(self, monkeypatch):
        # 794,153 (row, xi) entries of Q' at W = 0.5; the whole rule is
        # 6,000 x 591 = 3,546,000
        from seltrace import traceformula

        read = []
        cubic = traceformula._read_even_cubic

        def counting(coef, x):
            read.append(x.size)
            return cubic(coef, x)

        monkeypatch.setattr(traceformula, "_read_even_cubic", counting)
        T = gaussian_test_function(0.5)
        convolve_test_functions(T, T).reach()
        assert 0 < sum(read) <= 1_000_000


class TestReach:
    def test_width_half_reach(self, gauss_T05_sq):
        reach = gauss_T05_sq.reach()
        assert 245.0 <= reach <= 255.0
        assert abs(gauss_T05_sq.k(reach)) >= 5e-8 * abs(gauss_T05_sq.k(0.0))

    def test_reach_grows_with_width(self):
        reach = []
        for W in (0.45, 0.5, 0.6):
            T = gaussian_test_function(W)
            reach.append(convolve_test_functions(T, T).reach())
        assert reach[0] < reach[1] < reach[2]


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

        Z1, _, Z2, _ = _fd_grids(16.0, 40, 40, 32)
        z = np.concatenate([Z1, Z2])
        assert np.array_equal(kernel_diagonal_sum(k, z, 30.0), kernel_diagonal_sum(k, -z.conj(), 30.0))

    def test_chunking_does_not_change_the_sum(self, monkeypatch):
        # at a block of 16 the shifts of a c = 1 row and the translations of
        # the upper heights pass the block.  Every call of k after k(0) keeps
        # it, except one height whose own translations (y sqrt(30) of them)
        # pass it and go alone; one entry's shifts (at most 2 sqrt(30) + 1)
        # fit it.  The band of 36 folded points takes its rows one at a time
        from seltrace import halfplane, traceformula, util

        sizes = []

        def k(u):
            sizes.append(np.size(u))
            return np.exp(-np.asarray(u, dtype=float) / 4.0)

        x, y = np.meshgrid(np.linspace(-0.5, 0.5, 7), np.geomspace(0.3, 6.0, 9))
        z = (x + 1j * y).ravel()
        whole = kernel_diagonal_sum(k, z, u_max=30.0)
        monkeypatch.setattr(util, "_BLOCK", 16)
        bands = []
        real_blocks = halfplane.coset_blocks

        def spy_blocks(windows):
            for b, c, d in real_blocks(windows):
                bands.append(b.start)
                yield b, c, d

        monkeypatch.setattr(traceformula, "coset_blocks", spy_blocks)
        sizes.clear()
        pieces = kernel_diagonal_sum(k, z, u_max=30.0)
        n_hi = np.floor(np.unique(y) * math.sqrt(30.0)).astype(int)
        alone = set(n_hi[n_hi > 16].tolist())
        assert sizes[0] == 1
        assert alone and alone <= set(sizes) and all(size <= 16 or size in alone for size in sizes[1:])
        assert set(bands) == {0} and len(bands) > 1
        assert np.max(np.abs(whole - pieces)) < 1e-13 * np.max(whole)

    def test_point_alone_matches_fit_grid(self, gauss_T05_sq):
        # a point takes exactly its own live cosets, whichever band of the
        # fit grid (64 x 64 base region, the M = 32 strip up to
        # y0 = sqrt(u_max + 2) and the point i y0) it is in
        from seltrace import traceformula

        T12 = gauss_T05_sq
        u_max = T12.reach()
        y0 = math.sqrt(u_max + 2.0)
        Z1, _, Z2, _ = _fd_grids(y0, traceformula._FD_BASE, traceformula._FD_BASE, traceformula._KERNEL_STRIP_MX)
        z = np.concatenate([Z1, Z2, [1j * y0]])
        on_grid = kernel_diagonal_sum(T12.k, z, u_max)
        # two points of the base region, two of the strip and i y0
        for i in (0, Z1.size // 2 + 3, Z1.size + Z2.size // 3, z.size - 2, z.size - 1):
            alone = kernel_diagonal_sum(T12.k, z[i : i + 1], u_max)[0]
            assert abs(alone - on_grid[i]) <= 1e-14 * abs(on_grid[i])

    def test_only_translations_above_the_last_live_coset(self, gauss_T05_sq):
        # a c >= 1 row gives u >= c^2 y^2 - 2 + 1/(c^2 y^2), so from
        # y0 = sqrt(u_max + 2) on the sum is the bare translation sum
        # sum_m k(m^2 / y^2), whatever x is: the kernel fit rests on this
        T12 = gauss_T05_sq
        u_max = T12.reach()
        y0 = math.sqrt(u_max + 2.0)
        z = np.array([1j * y0, 0.3 + 1.01j * y0, -0.5 + 2j * y0])
        got = kernel_diagonal_sum(T12.k, z, u_max)
        for zj, gj in zip(z, got):
            n = math.floor(zj.imag * math.sqrt(u_max))
            u = (np.arange(-n, n + 1) / zj.imag) ** 2
            want = float(np.sum(T12.k(u[u <= u_max])))
            assert abs(gj - want) <= 1e-13 * abs(want)

    def test_budget_refuses_before_summing(self, monkeypatch):
        from seltrace import traceformula

        seen = []

        def k(u):
            seen.append(np.size(u))
            return np.exp(-np.asarray(u, dtype=float) / 4.0)

        monkeypatch.setattr(traceformula, "_KERNEL_BUDGET", 1e3)
        with pytest.raises(DecayError, match="kernel sum"):
            kernel_diagonal_sum(k, np.array([0.1 + 1.0j, 0.2 + 3.0j]), u_max=200.0)
        # only k(0) was evaluated
        assert seen == [1]


class TestKernelTruncationFit:
    def test_strip_midpoints_match_gauss_legendre(self, monkeypatch, gauss_T05_sq, gauss_legendre_strip):
        # K(z, z) is only as smooth in x as the cubic table of k, so a0 meets
        # the 160-node Gauss-Legendre strip to 1e-9, not to rounding
        from seltrace import traceformula

        got = two_term_laurent_kernel(gauss_T05_sq)
        monkeypatch.setattr(traceformula, "_fd_grids", gauss_legendre_strip(160))
        want = two_term_laurent_kernel(gauss_T05_sq)
        assert abs(got.a_0 - want.a_0) <= 1e-9
        assert abs(got.a_minus1 - want.a_minus1) <= 1e-12

    def test_slope_meets_geometric_at_wide_width(self):
        # at W = 0.7 the c >= 1 cosets are live up to y = sqrt(u_max) = 43;
        # the old fixed window T = 1.5...3 (y <= 403) straddled that height
        # and missed a_{-1} by 3.4e-6, while i y0 above it meets it to 8.4e-8
        T = gaussian_test_function(0.7)
        T12 = convolve_test_functions(T, T)
        assert abs(two_term_laurent_kernel(T12).a_minus1 - tf_minus1_geometric(T12)) <= 2e-7

    @pytest.mark.parametrize("width", [0.5, 0.7])
    def test_base_rule_meets_160(self, width, monkeypatch):
        # the library's base rule moves the fit from the 160 x 160 base region
        # it replaced only by the rounding of the kernel sums
        from seltrace import traceformula

        T = gaussian_test_function(width)
        T12 = convolve_test_functions(T, T)
        got = two_term_laurent_kernel(T12)
        monkeypatch.setattr(traceformula, "_FD_BASE", 160)
        want = two_term_laurent_kernel(T12)
        assert abs(got.a_0 - want.a_0) <= 1e-10
        assert abs(got.a_minus1 - want.a_minus1) <= 1e-13


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

        T0 = spherical_from_h(lambda s: np.zeros_like(np.asarray(s, dtype=complex)), 26.0)
        diag, adiag = kernel_constant_terms(T0)
        assert abs(complex(diag(np.array([0.3j]))[0])) < 1e-14
        assert abs(complex(adiag(np.array([0.3j]))[0])) < 1e-14


class TestSpectralMinusOne:
    def test_gaussian_value(self, gauss_T1):
        v = tf_minus1_spectral(convolve_test_functions(gauss_T1, gauss_T1))
        assert abs(v + 1.0 / math.sqrt(2 * math.pi)) < 1e-10
        assert abs(v + 0.3989423) < 1e-6

    def test_zero(self, gauss_T1):
        from seltrace.traceformula import spherical_from_h

        zero = spherical_from_h(lambda s: np.zeros_like(np.asarray(s, dtype=complex)), 26.0)
        assert tf_minus1_spectral(convolve_test_functions(gauss_T1, zero)) == 0.0

    def test_sigma_shift(self, gauss_T1):
        T11 = convolve_test_functions(gauss_T1, gauss_T1)
        v0 = tf_minus1_spectral(T11)
        v1 = tf_minus1_spectral(T11, sigma=0.2)
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
        d, dw = panel_gl_nodes(np.linspace(0.0, 9.0, 121), 12)
        polar = 4.0 * np.sum(np.asarray(gauss_T08.k(4.0 * np.sinh(d) ** 2)) * np.cosh(d) * dw)
        assert abs(direct - polar) < 1e-4

    def test_orbital_linearity(self, gauss_T08):
        base = weighted_orbital_integral(gauss_T08, -1)

        doubled = dataclasses.replace(gauss_T08, k=lambda u: 2.0 * np.asarray(gauss_T08.k(u)))
        assert abs(weighted_orbital_integral(doubled, -1) - 2.0 * base) < 1e-12

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
        # the constant term of xi at 1
        assert abs(lau.a_0 - 0.5 * (np.euler_gamma - math.log(4.0 * math.pi))) < 1e-11

    def test_zero_profile(self):
        lau, _ = tate_zeta_term(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        assert lau.a_minus1 == 0.0 and lau.a_0 == 0.0


class TestTriangle:
    def test_geometric_equals_spectral(self, gauss_T1):
        T11 = convolve_test_functions(gauss_T1, gauss_T1)
        v_spec = tf_minus1_spectral(T11)
        v_geo = tf_minus1_geometric(T11)
        assert abs(v_spec - v_geo) < 1e-6

    def test_geometric_first_coefficient_where_dt_does_not_divide_t_max(self):
        # W = 0.45 builds its triple on t_max = 12/W = 26.67, which the
        # Fourier steps do not divide; the rules must weight by true spacing
        W = 0.45
        T = gaussian_test_function(W)
        assert abs(tf_minus1_geometric(convolve_test_functions(T, T)) + 1.0 / (W * math.sqrt(2.0 * math.pi))) < 1e-6

    def test_unipotent_slice_matches_tate(self, gauss_T05_sq):
        # the alpha = 1 slice of the geometric sum equals the Tate residue
        T12 = gauss_T05_sq
        lau = tate_kernel_term(T12)
        from seltrace.traceformula import _arch_orbital_nodes

        x, w = _arch_orbital_nodes()
        slice_val = -2.0 * 2.0 * np.sum(np.asarray(T12.k(x**2)) * w)
        assert abs(lau.a_minus1 - slice_val) < 1e-4


class TestSpectralSide:
    def test_terms(self, gauss_T05, gauss_T05_sq):
        sp = spectral_side(gauss_T05_sq)
        h0 = complex(np.asarray(gauss_T05.h(np.zeros(1, complex)))[0])
        h1 = complex(np.asarray(gauss_T05.h(np.ones(1, complex)))[0])
        assert abs(sp["M0_term"] + 0.25 * h0 * h0) < 1e-12
        assert abs(sp["residual_term"] - h1 * h1) < 1e-12
        assert abs(sp["continuous_term"].imag) < 1e-8
        assert abs(sp["residual_defdiscrete_scalar"] - (6 / math.pi) * h1 * h1) < 1e-12

    def test_continuous_term_against_finer_midpoint_rule(self, gauss_T05, gauss_T05_sq):
        # the rule has no node at t = 0; an independent midpoint sum at half
        # the step over the same cut agrees to rounding
        sp = spectral_side(gauss_T05_sq)
        dt = 0.01
        t = np.arange(-gauss_T05.t_max + 0.5 * dt, gauss_T05.t_max, dt)
        clogd = c_log_derivative(1j * t)
        h = np.exp(-((0.5 * t) ** 2) / 4.0)
        want = -dt * np.sum(clogd.real * h * h) / (4.0 * np.pi)
        assert t.size == 5200
        assert abs(sp["continuous_term"] - want) < 1e-11

    def test_zero_function(self, gauss_T05):
        from seltrace.traceformula import spherical_from_h

        T0 = spherical_from_h(lambda s: np.zeros_like(np.asarray(s, dtype=complex)), 26.0)
        sp = spectral_side(convolve_test_functions(T0, gauss_T05))
        assert abs(sp["spectral_computable_sum"]) < 1e-12

    def test_residual_line_oracle(self, gauss_T05):
        # pi * int_0^inf k(u) du recovers the multiplier at the residual point
        x1, w1 = panel_gl_nodes(np.linspace(0.0, 8.0, 81), 10)
        l, lw = panel_gl_nodes(np.linspace(math.log(8.0), 14.0, 30), 10)
        un = np.concatenate([x1, np.exp(l)])
        uw = np.concatenate([w1, np.exp(l) * lw])
        val = math.pi * float(np.sum(np.asarray(gauss_T05.k(un)) * uw))
        h1 = complex(np.asarray(gauss_T05.h(np.ones(1, complex)))[0])
        assert abs(val - h1) < 1e-6

    def test_cusp_display(self, gauss_T05_sq):
        led = ledger(gauss_T05_sq, [19.07, 25.05])
        assert abs(led["cusp_display_sum"]) < 1e-12
