import warnings

import pytest

# Hypothesis imports its patch writer when it reports a falsifying example.
# With libcst installed that import warns (mypy_extensions.TypedDict is
# deprecated), and under `-W error` the warning turns the report into a
# pytest INTERNALERROR that hides the example. Import it once, up front,
# ignoring only that category of warning.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from leavitt import INTEGERS, RATIONALS, DegreeMap, IntegerModRing, parse_graph

from .util import GRAPH_A, GRAPH_B, GRAPH_C, GRAPH_CHAIN


@pytest.fixture(scope="session")
def chain_graph():
    return parse_graph(GRAPH_CHAIN)


@pytest.fixture(scope="session")
def graph_a():
    return parse_graph(GRAPH_A)


@pytest.fixture(scope="session")
def graph_b():
    return parse_graph(GRAPH_B)


@pytest.fixture(scope="session")
def graph_c():
    return parse_graph(GRAPH_C)


@pytest.fixture(scope="session")
def dm_chain(chain_graph):
    return DegreeMap.canonical(chain_graph)


@pytest.fixture(scope="session")
def dm_a(graph_a):
    return DegreeMap.canonical(graph_a)


@pytest.fixture(scope="session")
def dm_b(graph_b):
    return DegreeMap.canonical(graph_b)


@pytest.fixture(scope="session")
def dm_c(graph_c):
    return DegreeMap.canonical(graph_c)


@pytest.fixture(scope="session")
def ring():
    return INTEGERS


@pytest.fixture(scope="session", params=["z", "q", "z/2", "z/3"])
def any_ring(request):
    return {
        "z": INTEGERS,
        "q": RATIONALS,
        "z/2": IntegerModRing(2),
        "z/3": IntegerModRing(3),
    }[request.param]
