import pytest

import tsurf

import oracles


@pytest.fixture(scope="session")
def lshape():
    return tsurf.builtin_surface("lshape")


@pytest.fixture(scope="session")
def slit():
    return tsurf.builtin_surface("slit_tori")


@pytest.fixture(scope="session")
def sheared_lshape():
    return oracles.sheared_lshape()


@pytest.fixture(scope="session")
def G2(lshape):
    # lengths 1 and sqrt(2) only
    return tsurf.build_concat_graph(lshape, 2)


@pytest.fixture(scope="session")
def G9(lshape):
    return tsurf.build_concat_graph(lshape, 9)


@pytest.fixture(scope="session")
def G36(lshape):
    return tsurf.build_concat_graph(lshape, 36)


@pytest.fixture(scope="session")
def C3():
    return tsurf.complete_graph(3)
