import pytest

from kiss3.bounds import compute_bound_table
from kiss3.certificate import build_certificate


@pytest.fixture(scope="session")
def cert():
    return build_certificate()


@pytest.fixture(scope="session")
def bound_table(cert):
    return compute_bound_table(cert, tol=1e-7)
