import pytest

from kiss3.bounds import compute_bound_table, refine_h34
from kiss3.certificate import build_certificate


@pytest.fixture(scope="session")
def cert():
    return build_certificate()


@pytest.fixture(scope="session")
def bound_table(cert):
    return compute_bound_table(cert, tol=1e-7)


@pytest.fixture(scope="session")
def refined(cert):
    """The refined (h_3, h_4) estimates at the default grid density; they
    are deterministic, so one run serves every test."""
    return refine_h34(cert, grid_density=256)
