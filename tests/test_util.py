"""util.exp_sum: the factored and the dense evaluation against the plain sum."""

import math
import tracemalloc

import numpy as np
import pytest

from seltrace import torus, util
from seltrace.corpus import default_corpus
from seltrace.torus import AsymptoticallyFiniteFunction, log_gaussian_core, mellin
from seltrace.util import exp_sum, gl_nodes, panel_gl_nodes, trap_grid


def _core_nodes():
    """The Mellin core's node set, weighted by a log-Gaussian core."""
    u_pos, w_pos = panel_gl_nodes(np.linspace(0.0, 36.0, 145), 16)
    u = np.concatenate([-u_pos[::-1], u_pos])
    w = np.concatenate([w_pos[::-1], w_pos])
    c = (0.8 - 0.3j) * np.exp(-((u - 0.2) ** 2) / (2.0 * 0.7**2)) * w
    return u, c


def _check_rows(s, got, u, c, rows, rtol=1e-13):
    """Compare `got` with the plain sum on the given rows, to rtol of the sum
    of the absolute terms."""
    s_rows = s.reshape(-1)[rows]
    dense = np.exp(-np.multiply.outer(s_rows, u)) @ c
    scale = np.exp(-np.multiply.outer(s_rows.real, u)) @ np.abs(c)
    err = np.abs(got.reshape(-1)[rows] - dense)
    assert np.all(err <= rtol * scale), float(np.max(err / scale))


def _sample_rows(n):
    # every point of the first, second and last blocks, plus a stride through
    # the rest
    b = math.isqrt(n - 1) + 1
    return np.unique(np.concatenate([np.arange(0, 2 * b), np.arange(n - b, n), np.arange(0, n, 97)]))


@pytest.mark.parametrize("sigma", [0.0, 1.1])
def test_ascending_line(sigma):
    u, c = _core_nodes()
    t, _ = trap_grid(120.0, 0.01)
    s = sigma + 1j * t
    assert util._progression_step(s) is not None
    got = exp_sum(s, u, c)
    assert got.shape == s.shape
    _check_rows(s, got, u, c, _sample_rows(s.size))


@pytest.mark.parametrize("sigma", [0.0, 1.1])
def test_descending_line(sigma):
    # negate_argument evaluates the core on -(sigma + it): a line run downward
    u, c = _core_nodes()
    t, _ = trap_grid(120.0, 0.01)
    s = -(sigma + 1j * t)
    assert util._progression_step(s) < 0
    got = exp_sum(s, u, c)
    _check_rows(s, got, u, c, _sample_rows(s.size))


def test_non_progression_input():
    u, c = _core_nodes()
    rng = np.random.default_rng(7)
    s = rng.uniform(-1.0, 1.0, 1000) + 1j * rng.uniform(-40.0, 40.0, 1000)
    assert util._progression_step(s) is None
    got = exp_sum(s, u, c)
    _check_rows(s, got, u, c, np.arange(s.size))


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
@pytest.mark.parametrize("n_u", [3, 400])
def test_dense_row_blocks_are_the_one_shot_sum(monkeypatch, block, n_u):
    # the dense formula's row blocks (one row at a time where n_u passes the
    # block, else 2, 81 or all 500 rows) give the one-shot product to rounding
    rng = np.random.default_rng(5)
    s = rng.uniform(0.0, 1.0, 500) + 1j * rng.uniform(-50.0, 50.0, 500)
    u = rng.uniform(0.0, 5.0, n_u)
    c = rng.standard_normal(n_u) + 1j * rng.standard_normal(n_u)
    monkeypatch.setattr(util, "_BLOCK", block)
    got = exp_sum(s, u, c)
    terms = np.exp(-np.multiply.outer(s, u))
    scale = np.abs(terms) @ np.abs(c)
    assert np.all(np.abs(got - terms @ c) <= 1e-15 * scale)


def test_perturbed_line_is_not_factored():
    # one node off the progression by far more than rounding: the factored
    # form would evaluate it at the wrong point
    u, c = _core_nodes()
    t, _ = trap_grid(40.0, 0.01)
    t[500] += 1e-9
    s = 0.4 + 1j * t
    assert util._progression_step(s) is None
    got = exp_sum(s, u, c)
    _check_rows(s, got, u, c, np.arange(400, 600))


def test_short_progression():
    u, c = _core_nodes()
    s = 0.3 + 1j * np.linspace(-5.0, 5.0, util._MIN_PROGRESSION - 1)
    assert util._progression_step(s) is None
    got = exp_sum(s, u, c)
    _check_rows(s, got, u, c, np.arange(s.size))


def test_real_s_and_u_keep_real_exponents():
    # 2000 rows of 4608 nodes span five row blocks of the dense formula; on
    # u in [-1, 1] with |c_j| within a factor of 10 the window keeps every term
    rng = np.random.default_rng(11)
    u = np.linspace(-1.0, 1.0, 4608)
    c = (0.8 - 0.3j) * (1.0 + 9.0 * rng.random(u.size))
    s = np.linspace(-0.5, 3.0, 2000)
    assert util._live_terms(s, u, c) is None
    plain = np.exp(-np.multiply.outer(s, u))
    assert plain.dtype == float
    # complex weights: the same product, bit for bit, in every block
    assert np.array_equal(exp_sum(s, u, c), plain @ c)
    # real weights: a real sum
    got = exp_sum(s, u, c.real)
    assert got.dtype == float
    _check_rows(s, got, u, c.real, np.arange(s.size))
    # the core nodes, most of which the window drops
    u, c = _core_nodes()
    got = exp_sum(s, u, c)
    assert got.dtype == complex
    _check_rows(s, got, u, c, np.arange(s.size))


def _window_rows(case):
    if case == "circle":
        return 0.3 + 0.25 * np.exp(2j * np.pi * np.arange(256) / 256)
    if case == "span":
        rng = np.random.default_rng(5)
        s = rng.uniform(-3.0, 3.0, 1000) + 1j * rng.uniform(-40.0, 40.0, 1000)
        s[:2] = [-3.0, 3.0]
        return s
    t, _ = trap_grid(40.0, 0.01)
    return float(case) + 1j * t


@pytest.mark.parametrize("case", ["-2.5", "0.0", "2.5", "circle", "span"])
def test_window_drops_under_its_bound(case):
    # the dropped terms add up, in absolute value, to at most 2^-60 of every
    # row's absolute sum, and the result still matches the plain product
    u, c = _core_nodes()
    s = _window_rows(case)
    keep = util._live_terms(s, u, c)
    assert keep is not None and np.count_nonzero(keep) < u.size // 4
    rows = _sample_rows(s.size) if s.size > 1000 else np.arange(s.size)
    mag = np.exp(-np.multiply.outer(s[rows].real, u)) * np.abs(c)
    dropped = mag[:, ~keep].sum(axis=1)
    assert np.all(dropped <= util._NEGLIGIBLE * mag.sum(axis=1)), float(np.max(dropped / mag.sum(axis=1)))
    _check_rows(s, exp_sum(s, u, c), u, c, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_propagate(bad):
    # the bad weight sits on a node the window would otherwise drop
    u, c = _core_nodes()
    c = c.copy()
    c[-1] = bad
    for s in (_window_rows("0.0"), _window_rows("circle"), np.linspace(-0.5, 3.0, 300)):
        rows = np.arange(0, s.size, 37)
        with np.errstate(invalid="ignore"):
            got = exp_sum(s, u, c)
            plain = np.exp(-np.multiply.outer(s[rows], u)) @ c
        assert not np.any(np.isfinite(plain))
        assert np.array_equal(np.isfinite(got[rows]), np.isfinite(plain))
        assert np.array_equal(np.isnan(got[rows]), np.isnan(plain))


def test_window_on_a_pairing_line(monkeypatch):
    # gauss_unit's core on the sigma = 0 pairing line sums at most a quarter
    # of its nodes
    seen = []
    live_terms = util._live_terms

    def spy(s, u, c):
        keep = live_terms(s, u, c)
        seen.append((u.size, u.size if keep is None else int(np.count_nonzero(keep))))
        return keep

    monkeypatch.setattr(util, "_live_terms", spy)
    f = default_corpus()["gauss_unit"]
    t, _ = trap_grid(torus._PAIRING_T_MAX, torus._LINE_DT)
    mellin(f).evaluator(1j * t)
    (n_nodes, n_kept), = seen
    assert n_nodes == 4608
    assert n_kept <= n_nodes // 4


def test_two_dimensional_s_through_mellin():
    F = mellin(AsymptoticallyFiniteFunction(core=log_gaussian_core()))
    t = np.linspace(-10.0, 10.0, 401)
    S = np.array([-0.5, 0.0, 0.7])[:, None] + 1j * t[None, :]
    got = F(S)
    assert got.shape == S.shape
    # each row alone is a factored line; the 2-D array as a whole is not
    rows = np.array([F(row) for row in S])
    assert np.max(np.abs(got - rows)) <= 1e-13 * np.max(np.abs(rows))
    closed = math.sqrt(2.0 * math.pi) * np.exp(0.5 * S**2)
    assert np.max(np.abs(got - closed)) < 1e-12


@pytest.mark.parametrize("t_max, dt", [(26.0, 0.01), (12.0 / 0.45, 0.01), (12.0 / 0.47, 0.02)])
def test_trap_grid_weights_follow_the_node_spacing(t_max, dt):
    t, w = trap_grid(t_max, dt)
    assert np.array_equal(t, -t[::-1])
    step = np.diff(t)
    assert np.max(np.abs(w[1:-1] - step.mean())) <= 1e-15
    assert abs(np.sum(w) - 2.0 * t_max) <= 1e-12 * t_max
    if abs(t.size - 1 - 2.0 * t_max / dt) < 1e-9:
        # dt divides 2 t_max: the weights are dt itself
        assert np.all(w[1:-1] == dt)


@pytest.mark.parametrize("edges, n", [
    # the Mellin core rule, `_arch_orbital_nodes`' head and tail, the Abel xi rule
    (np.linspace(0.0, 36.0, 145), 16),
    (np.linspace(0.0, 6.0, 121), 12),
    (np.linspace(math.log(6.0), 9.0, 24), 10),
    (np.linspace(-16.0, math.log(2.0 * math.sinh(13.0)) + 0.5, 60), 10),
], ids=["mellin_core", "arch_head", "arch_tail", "abel_xi"])
def test_panel_nodes_are_the_per_panel_rules(edges, n):
    xs, ws = zip(*(gl_nodes(a, b, n) for a, b in zip(edges[:-1], edges[1:])))
    x, w = panel_gl_nodes(edges, n)
    assert np.array_equal(x, np.concatenate(xs))
    assert np.array_equal(w, np.concatenate(ws))


@pytest.mark.parametrize("block", [100, 1 << 15])
def test_steps_fill_the_block_in_order(monkeypatch, block):
    # ragged sizes, with empty items and items past the block: the slices
    # cover the items in order, each is the longest run within the block, or
    # one item that passes it alone
    monkeypatch.setattr(util, "_BLOCK", block)
    rng = np.random.default_rng(3)
    sizes = rng.integers(0, 3 * block // 2, 400)
    sizes[::7] = 0
    slices = list(util.steps(sizes))
    assert np.array_equal(np.concatenate([np.arange(g.start, g.stop) for g in slices]), np.arange(sizes.size))
    for g, nxt in zip(slices, slices[1:] + [None]):
        total = int(np.sum(sizes[g]))
        assert total <= block or g.stop - g.start == 1
        if nxt is not None:
            assert total + int(sizes[nxt.start]) > block


@pytest.mark.parametrize("width", [0, 1, 7, 591, 1 << 15, (1 << 15) + 1, 1 << 16])
def test_steps_of_fixed_width_rows(width):
    n = 70_000
    slices = list(util.steps(np.full(n, width)))
    per = n if width == 0 else max(1, util._BLOCK // width)
    assert [g.stop - g.start for g in slices[:-1]] == [per] * (len(slices) - 1)
    assert slices[-1].stop == n and 0 < slices[-1].stop - slices[-1].start <= per


def test_inversion_working_set():
    # the inversion's dense rows go one line at a time (24,001 contour nodes
    # pass the block): 50 points peak at 5.6 MB, against 39.6 MB in one
    # 32 MB block of exponentials
    F = mellin(default_corpus()["smooth_log_term"])
    x = np.geomspace(0.2, 5.0, 50)
    tracemalloc.start()
    try:
        torus.mellin_inverse(F, 0.0, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


class _ExpCounter:
    """Stands in for numpy inside `util`, counting the exponentials taken of
    complex arguments: the terms of a sum, not `_live_terms`' real bounds."""

    def __init__(self):
        self.count = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        out = np.exp(x, *args, **kwargs)
        if np.iscomplexobj(out):
            self.count += out.size
        return out


def _count_exponentials(monkeypatch):
    counter = _ExpCounter()
    monkeypatch.setattr(util, "np", counter)
    return counter


# the inversion's contour at 40 points, and Tate's circle |w - 1| = 1/8
_U_ROWS = {
    "inversion": -1j * np.log(np.geomspace(0.2, 5.0, 40)),
    "tate_circle": -(1.0 + 0.125 * np.exp(2j * np.pi * np.arange(16) / 16)),
}


def _u_progression(n_u):
    return trap_grid(120.0, 0.01)[0] if n_u == 24001 else np.linspace(-4.0, 4.0, n_u)


@pytest.mark.parametrize("rows", sorted(_U_ROWS))
@pytest.mark.parametrize("n_u", [256, 257, 24001])
def test_node_progression_is_the_one_shot_sum(monkeypatch, rows, n_u):
    # n_u nodes in blocks of B = 16, 17 and 155, none a multiple of B but
    # 256; Gaussian-weighted, so the far nodes carry little of any row
    rng = np.random.default_rng(n_u)
    s, u = _U_ROWS[rows], _u_progression(n_u)
    c = (rng.standard_normal(n_u) + 1j * rng.standard_normal(n_u)) * np.exp(-(u**2) / 8.0)
    counter = _count_exponentials(monkeypatch)
    got = exp_sum(s, u, c)
    # the window may cut dropped ends off, which only shortens the blocks
    B = math.isqrt(n_u - 1) + 1
    assert 0 < counter.count <= s.size * (B + -(-n_u // B))
    _check_rows(s, got, u, c, np.arange(s.size), 1e-15)


def test_node_progression_keeps_dropped_interior_terms_at_zero():
    # `_live_terms` drops both ends, where the weights fall below 2^-60 of
    # the sum, and the zero weights of |u| < 5 between full-size ones: the
    # kept terms still form one progression
    rng = np.random.default_rng(17)
    u = _u_progression(24001)
    c = (rng.standard_normal(u.size) + 1j * rng.standard_normal(u.size)) * np.exp(-(u**2) / 200.0)
    c[np.abs(u) < 5.0] = 0.0
    s = _U_ROWS["inversion"]
    keep = util._live_terms(s, u, c)
    live = np.flatnonzero(keep)
    assert live[0] > 0 and live[-1] < u.size - 1
    assert not np.all(keep[live[0] : live[-1] + 1])
    _check_rows(s, exp_sum(s, u, c), u, c, np.arange(s.size), 1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_node_progression_propagates_non_finite_weights(bad):
    u = _u_progression(24001)
    c = np.exp(-(u**2) / 8.0).astype(complex)
    c[-1] = bad
    s = _U_ROWS["inversion"]
    with np.errstate(invalid="ignore"):
        got = exp_sum(s, u, c)
        plain = np.exp(-np.multiply.outer(s, u)) @ c
    assert not np.any(np.isfinite(plain))
    assert np.array_equal(np.isfinite(got), np.isfinite(plain))
    assert np.array_equal(np.isnan(got), np.isnan(plain))


def test_short_and_non_uniform_nodes_keep_their_paths(monkeypatch):
    rng = np.random.default_rng(19)
    s = _U_ROWS["inversion"]
    # one node short of a factored axis: the dense formula
    u = np.linspace(-4.0, 4.0, util._MIN_PROGRESSION - 1)
    c = rng.standard_normal(u.size) + 1j * rng.standard_normal(u.size)
    counter = _count_exponentials(monkeypatch)
    _check_rows(s, exp_sum(s, u, c), u, c, np.arange(s.size), 1e-15)
    assert counter.count == s.size * u.size
    # one node off the progression, against a vertical line of 300 points:
    # the line is factored, as when the nodes were never a progression
    u = _u_progression(24001)
    u[5000] += 1e-9
    c = (rng.standard_normal(u.size) + 1j * rng.standard_normal(u.size)) * np.exp(-(u**2) / 8.0)
    s = 0.2 + 1j * np.linspace(-3.0, 3.0, 300)
    assert util._progression_step(u) is None
    n_kept = np.count_nonzero(util._live_terms(s, u, c))
    B = math.isqrt(s.size - 1) + 1
    counter.count = 0
    got = exp_sum(s, u, c)
    assert counter.count == (-(-s.size // B) + B) * n_kept
    _check_rows(s, got, u, c, np.arange(s.size), 1e-15)


def test_inversion_sum_work(monkeypatch):
    # 40 points against the 24,001 contour nodes: 40 (155 + 155) exponentials,
    # where the dense formula takes 960,040
    t, w = trap_grid(torus._INVERSE_T_MAX, torus._LINE_DT)
    c = mellin(default_corpus()["gauss_unit"]).evaluator(1j * t) * w
    counter = _count_exponentials(monkeypatch)
    exp_sum(-1j * np.log(np.geomspace(0.2, 5.0, 40)), t, c)
    assert counter.count <= 12_400
