"""util.exp_sum: the factored and the dense evaluation against the plain sum."""

import math

import numpy as np
import pytest

from seltrace import util
from seltrace.torus import AsymptoticallyFiniteFunction, log_gaussian_core, mellin
from seltrace.util import exp_sum, panel_gl_nodes, trap_grid


def _core_nodes():
    """The Mellin core's node set, weighted by a log-Gaussian core."""
    u_pos, w_pos = panel_gl_nodes(np.linspace(0.0, 36.0, 145), 16)
    u = np.concatenate([-u_pos[::-1], u_pos])
    w = np.concatenate([w_pos[::-1], w_pos])
    c = (0.8 - 0.3j) * np.exp(-((u - 0.2) ** 2) / (2.0 * 0.7**2)) * w
    return u, c


def _check_rows(s, got, u, c, rows):
    """Compare `got` with the plain sum on the given rows, to 1e-13 of the
    sum of the absolute terms."""
    s_rows = s.reshape(-1)[rows]
    dense = np.exp(-np.multiply.outer(s_rows, u)) @ c
    scale = np.exp(-np.multiply.outer(s_rows.real, u)) @ np.abs(c)
    err = np.abs(got.reshape(-1)[rows] - dense)
    assert np.all(err <= 1e-13 * scale), float(np.max(err / scale))


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
    assert util._vertical_step(s) is not None
    got = exp_sum(s, u, c)
    assert got.shape == s.shape
    _check_rows(s, got, u, c, _sample_rows(s.size))


@pytest.mark.parametrize("sigma", [0.0, 1.1])
def test_descending_line(sigma):
    # negate_argument evaluates the core on -(sigma + it): a line run downward
    u, c = _core_nodes()
    t, _ = trap_grid(120.0, 0.01)
    s = -(sigma + 1j * t)
    assert util._vertical_step(s) < 0
    got = exp_sum(s, u, c)
    _check_rows(s, got, u, c, _sample_rows(s.size))


def test_non_progression_input():
    u, c = _core_nodes()
    rng = np.random.default_rng(7)
    s = rng.uniform(-1.0, 1.0, 1000) + 1j * rng.uniform(-40.0, 40.0, 1000)
    assert util._vertical_step(s) is None
    got = exp_sum(s, u, c)
    _check_rows(s, got, u, c, np.arange(s.size))


def test_perturbed_line_is_not_factored():
    # one node off the progression by far more than rounding: the factored
    # form would evaluate it at the wrong point
    u, c = _core_nodes()
    t, _ = trap_grid(40.0, 0.01)
    t[500] += 1e-9
    s = 0.4 + 1j * t
    assert util._vertical_step(s) is None
    got = exp_sum(s, u, c)
    _check_rows(s, got, u, c, np.arange(400, 600))


def test_short_progression():
    u, c = _core_nodes()
    s = 0.3 + 1j * np.linspace(-5.0, 5.0, util._MIN_PROGRESSION - 1)
    assert util._vertical_step(s) is None
    got = exp_sum(s, u, c)
    _check_rows(s, got, u, c, np.arange(s.size))


def test_two_dimensional_s_through_mellin():
    F = mellin(AsymptoticallyFiniteFunction(core=log_gaussian_core(), label="gauss"))
    t = np.linspace(-10.0, 10.0, 401)
    S = np.array([-0.5, 0.0, 0.7])[:, None] + 1j * t[None, :]
    got = F(S)
    assert got.shape == S.shape
    # each row alone is a factored line; the 2-D array as a whole is not
    rows = np.array([F(row) for row in S])
    assert np.max(np.abs(got - rows)) <= 1e-13 * np.max(np.abs(rows))
    closed = math.sqrt(2.0 * math.pi) * np.exp(0.5 * S**2)
    assert np.max(np.abs(got - closed)) < 1e-12
