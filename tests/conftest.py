import numpy as np
import pytest

from seltrace.halfplane import _fd_grids
from seltrace.traceformula import convolve_test_functions, gaussian_test_function
from seltrace.util import gl_nodes


@pytest.fixture(scope="session")
def gauss_T1():
    return gaussian_test_function(1.0)


@pytest.fixture(scope="session")
def gauss_T05():
    return gaussian_test_function(0.5)


@pytest.fixture(scope="session")
def gauss_T08():
    return gaussian_test_function(0.8)


@pytest.fixture(scope="session")
def gauss_T05_sq(gauss_T05):
    """The width-0.5 pair convolved, T12 = T * T: one Abel table per session."""
    return convolve_test_functions(gauss_T05, gauss_T05)


@pytest.fixture
def gauss_legendre_strip():
    """A `_fd_grids` whose strip takes an n-node Gauss-Legendre x-rule at the
    same heights and height weights, as the strip did before its midpoint
    rule: `gauss_legendre_strip(n)`."""

    def with_rule(n):
        def grids(Ymax, nx, ny, mx):
            Z1, W1, Z2, W2 = _fd_grids(Ymax, nx, ny, mx)
            xs, wx = gl_nodes(-0.5, 0.5, n)
            xs = 0.5 * (xs - xs[::-1])
            yv, wv = Z2.imag[::mx], W2[::mx] * mx
            return Z1, W1, (xs[None, :] + 1j * yv[:, None]).ravel(), np.multiply.outer(wv, wx).ravel()

        return grids

    return with_rule
