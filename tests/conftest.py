"""Shared converters between the package's bitmask world and the oracles'
frozenset world, plus a cached enumeration of the small spaces."""

import multiprocessing

import pytest

from finlat import enumerate_topologies
from finlat.bitset import bits, mask_of


def family_of(space):
    return frozenset(frozenset(bits(u)) for u in space.opens)


def mask_from(subset):
    return mask_of(sorted(subset))


def set_from(mask):
    return frozenset(bits(mask))


# the subset families FinSpace.tabulate sets; a fresh space has none
SUBSET_FAMILIES = (
    "nonempty_opens",
    "proper_closed_sets",
    "dense_sets",
    "dense_opens",
    "nowhere_dense_sets",
    "canonically_closed_sets",
)


def built_families(space):
    return [name for name in SUBSET_FAMILIES if hasattr(space, name)]


_SPACES = {}


def spaces_upto(k):
    out = []
    for n in range(1, k + 1):
        if n not in _SPACES:
            _SPACES[n] = tuple(enumerate_topologies(n))
        out.extend(_SPACES[n])
    return out


@pytest.fixture(scope="session")
def small_spaces():
    return spaces_upto(3)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the suite runner's process pool by a stand-in that runs the
    work inline; yields the pool sizes asked for."""
    import concurrent.futures
    from concurrent.futures import Future

    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # the runner imports the pool class when it opens a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


@pytest.fixture(params=[m for m in ("fork", "forkserver", "spawn")
                        if m in multiprocessing.get_all_start_methods()])
def start_method(request, monkeypatch):
    """Run the suite runner's worker pools under each start method the
    platform offers."""
    from finlat.verify import properties

    monkeypatch.setattr(properties, "_START_METHOD", request.param)
    return request.param
