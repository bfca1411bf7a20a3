import pytest

from wittcap import cap as capmod
from wittcap import golay as golaymod
from wittcap import pg
from wittcap.veronese import build_model, classify_conic_plane, veronese_map


@pytest.fixture(scope="session")
def model():
    return build_model()


@pytest.fixture(scope="session")
def base(model):
    return veronese_map((1, 0, 0))


@pytest.fixture(scope="session")
def internal_partner(model):
    """The reference the closed forms are checked against: the internal
    point of the conic through the base and the surface point y that lies on
    the line through them, found by search; there must be exactly one."""

    def partner(base, y):
        internal = classify_conic_plane(model.conic_through(base, y)).internal
        hits = [p for p in pg.line_through(base, y) if p in internal]
        assert len(hits) == 1, f"{len(hits)} internal points on the line {base} {y}"
        return hits[0]

    return partner


@pytest.fixture(scope="session")
def cap(model, base):
    return capmod.build_cap(model, base)


@pytest.fixture(scope="session")
def design(cap):
    return capmod.blocks(cap)


@pytest.fixture(scope="session")
def dual_cap(model, base):
    return capmod.build_dual_cap(model, base)


@pytest.fixture(scope="session")
def code(model):
    return golaymod.generator_matrix(capmod.build_cap_from_formula(model))
