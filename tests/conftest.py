import pytest

from seltrace.traceformula import gaussian_test_function


@pytest.fixture(scope="session")
def gauss_T1():
    return gaussian_test_function(1.0)


@pytest.fixture(scope="session")
def gauss_T05():
    return gaussian_test_function(0.5)


@pytest.fixture(scope="session")
def gauss_T08():
    return gaussian_test_function(0.8)
