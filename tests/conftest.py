import pytest

from berezinlab.diskgeom import disk_value
from berezinlab.quadrature import build_rule


@pytest.fixture(scope="session")
def default_rule():
    return build_rule()


@pytest.fixture(scope="session")
def big_rule():
    return build_rule(160, 640)


def laplacian_fd(fieldfn, z) -> complex:
    """Five-point Laplacian of a field with step h = 1e-3 (1 - |z|).

    The tests' independent cross-check of the exact Laplacians; its
    truncation error grows with the field's fourth derivatives and its
    roundoff is about eps |f| / h^2.
    """
    zv = disk_value(z)
    h = 1e-3 * (1.0 - abs(zv))
    vals = [complex(fieldfn(zv + step)) for step in (h, -h, 1j * h, -1j * h)]
    return (sum(vals) - 4.0 * complex(fieldfn(zv))) / h ** 2
