import pytest
from hypothesis import strategies as st

from cyclogab import GaloisContext

CONTEXTS = {p: GaloisContext(p) for p in (3, 5, 7, 11, 13)}


@pytest.fixture(scope="session")
def ctx5():
    return CONTEXTS[5]


@pytest.fixture(scope="session")
def ctx7():
    return CONTEXTS[7]


@pytest.fixture(scope="session")
def ctx11():
    return CONTEXTS[11]


def small_rationals():
    return st.fractions(min_value=-9, max_value=9, max_denominator=9)


def elements(p: int):
    ctx = CONTEXTS[p]
    return st.lists(small_rationals(), min_size=ctx.m, max_size=ctx.m).map(ctx.element)


def any_context():
    return st.sampled_from([CONTEXTS[3], CONTEXTS[5], CONTEXTS[7]])
