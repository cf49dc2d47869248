import pytest

from berezinlab.quadrature import build_rule


@pytest.fixture(scope="session")
def default_rule():
    return build_rule()


@pytest.fixture(scope="session")
def big_rule():
    return build_rule(160, 640)
