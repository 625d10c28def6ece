"""Family sweep: symmetry quotient soundness, caching, and report shape."""

import concurrent.futures
from concurrent.futures import ProcessPoolExecutor
import hashlib
import json
import math
import multiprocessing
import random
from itertools import combinations_with_replacement, permutations, product

import pytest

import oracles
from finlat import canonical_form, member
from finlat.verify import (
    PROPERTIES,
    apply_mutation,
    properties,
    replay_witness,
    swsweep,
)
from finlat.verify.properties import _lattice_alphabet
from finlat.verify.swsweep import family_representatives, run_family_sweep
from oracles import normalize_generators


def _primitive_count(n, bound=2):
    # exactly one of v, -v is sign-normalized, so halve the gcd-1 census
    hits = sum(
        1 for vec in product(range(-bound, bound + 1), repeat=n)
        if math.gcd(*(abs(v) for v in vec)) == 1
    )
    assert hits % 2 == 0
    return hits // 2


@pytest.mark.parametrize("n,size", [(1, 1), (2, 8), (3, 49), (4, 272), (5, 1441)])
def test_alphabet_sizes(n, size):
    alphabet = _lattice_alphabet(n)
    assert len(alphabet) == size == _primitive_count(n)
    # sorted, distinct, primitive and sign-normalized: the whole census
    assert alphabet == sorted(set(alphabet))
    for vec in alphabet:
        assert math.gcd(*vec) == 1 and next(v for v in vec if v) > 0


def test_alphabet_two_listed():
    assert _lattice_alphabet(2) == [
        (0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 1),
    ]


def test_normalize_generators_frozen():
    assert normalize_generators(((0, 0),)) == ()
    assert normalize_generators(((2, 4),)) == ((1, 2),)
    assert normalize_generators(((-1, 2),)) == ((1, -2),)
    assert normalize_generators(((0, -3),)) == ((0, 1),)
    assert normalize_generators(((1, 1), (0, 1), (1, 1))) == (
        (0, 1), (1, 1), (1, 1))


@pytest.mark.parametrize("n,count", [(1, 4), (2, 165), (3, 22100)])
def test_multiset_representative_counts(n, count):
    a = len(_lattice_alphabet(n))
    expected = sum(math.comb(a + k - 1, k) for k in range(4))
    assert expected == count
    assert len(family_representatives(n)) == count


def test_permutation_quotient_matches_burnside(monkeypatch):
    monkeypatch.setattr(swsweep, "PERMUTE_FROM", 2)
    alphabet = _lattice_alphabet(2)
    reps = family_representatives(2)
    assert len(reps) == oracles.burnside_multiset_orbits(
        2, alphabet, swsweep._normalize) == 92
    # every plain multiset must reduce onto a listed representative
    lookup = {vec: i for i, vec in enumerate(alphabet)}
    rep_set = set(reps)
    plain = [()]
    for k in range(1, 4):
        plain.extend(tuple(c) for c in combinations_with_replacement(alphabet, k))
    for combo in plain:
        best = None
        for perm in permutations(range(2)):
            mapped = tuple(sorted(
                lookup[swsweep._normalize(tuple(vec[p] for p in perm))]
                for vec in combo
            ))
            if best is None or mapped < best:
                best = mapped
        assert tuple(alphabet[i] for i in best) in rep_set


def _orbit_minima(n):
    """Brute force: the least sorted index tuple in each multiset's orbit,
    ordered as sentinel-padded triples, as alphabet vectors."""
    alphabet = _lattice_alphabet(n)
    size = len(alphabet)
    lookup = {vec: i for i, vec in enumerate(alphabet)}
    images = [
        [lookup[swsweep._normalize(tuple(vec[p] for p in perm))]
         for vec in alphabet]
        for perm in permutations(range(n))
    ]
    minima = set()
    for k in range(4):
        for combo in combinations_with_replacement(range(size), k):
            minima.add(min(tuple(sorted(img[i] for i in combo))
                           for img in images))
    ordered = sorted(minima, key=lambda t: t + (size,) * (3 - len(t)))
    return [tuple(alphabet[i] for i in t) for t in ordered]


@pytest.mark.parametrize("n,orbits", [
    pytest.param(n, orbits, id="%d-%d" % (n, orbits))
    for n, orbits in ((2, 92), (3, 3900))
])
def test_permutation_quotient_is_sorted_orbit_minima(monkeypatch, n, orbits):
    monkeypatch.setattr(swsweep, "PERMUTE_FROM", n)
    reps = family_representatives(n)
    assert reps == _orbit_minima(n)
    assert len(reps) == oracles.burnside_multiset_orbits(
        n, _lattice_alphabet(n), swsweep._normalize) == orbits


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_quotient_matches_the_table_pass(n):
    # n = 1 is the sentinel-only corner; n = 4 is the swept dimension
    alphabet = _lattice_alphabet(n)
    assert swsweep._permutation_quotient(n, alphabet) == (
        oracles.orbit_minima_by_tables(n, alphabet))


# sha256 of repr(generators) + "\n" over family_representatives(4), in list
# order: the criteria 3/4 sweep reports and the lattice benchmark workload
# index the representatives by position, so their order is pinned too
REPS4_ORDER_SHA256 = (
    "71ded8b50633467f186f12a0ba3015fc62d34e8ffc1cc88341c61d0407dfc8f4")


def test_dim_4_representatives_order_pinned():
    digest = hashlib.sha256()
    reps = family_representatives(4)
    for gens in reps:
        digest.update((repr(gens) + "\n").encode())
    assert len(reps) == 150_608
    assert digest.hexdigest() == REPS4_ORDER_SHA256


def test_canonical_form_invariant_under_normalization():
    rng = random.Random(0)
    for _ in range(80):
        k = rng.randrange(4)
        gens = tuple(
            tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(k)
        )
        assert canonical_form(3, gens) == canonical_form(
            3, normalize_generators(gens))


def test_membership_equivariant_under_coordinate_permutation():
    rng = random.Random(1)
    for _ in range(60):
        k = rng.randrange(1, 4)
        gens = tuple(
            tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(k)
        )
        perm = list(range(3))
        rng.shuffle(perm)
        permuted = tuple(tuple(g[p] for p in perm) for g in gens)
        cs = canonical_form(3, gens)
        csp = canonical_form(3, permuted)
        for _ in range(20):
            vec = tuple(rng.randint(-3, 3) for _ in range(3))
            pvec = tuple(vec[p] for p in perm)
            assert member(cs, vec) == member(csp, pvec)


def _results(report):
    # PropertyResult.seconds takes part in dataclass equality
    return [r.to_structured() for r in report.results]


@pytest.fixture
def stage_caches(monkeypatch):
    """Record every stage cache the suite runner creates."""
    caches = []

    class RecordingCache(properties._StageCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(properties, "_StageCache", RecordingCache)
    return caches


@pytest.fixture
def pool_sizes(monkeypatch):
    """Record the size of every process pool the suite runner opens."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_sweep_reports_clean_and_cache_consistent(stage_caches):
    one = run_family_sweep(1)
    assert (one.n, one.alphabet, one.representatives, one.ok) == (1, 1, 4, True)
    stage_caches.clear()
    two = run_family_sweep(2)
    assert (two.alphabet, two.representatives, two.ok) == (8, 165, True)
    assert two.mismatches == ()
    assert [(r.property_id, r.exhaustive, r.sampled, r.failures)
            for r in two.results] == [
        ("P-sw", 165, 0, 0), ("P-dis", 165, 0, 0), ("P-menag", 165, 0, 0)]
    json.dumps(two.to_structured())
    # a serial sweep is one stage; the cache lives only inside it
    (cache,) = stage_caches
    assert properties._stage_cache is None
    # far fewer distinct canonical systems than representatives
    assert 0 < len(cache.verdicts) < two.representatives
    audits = {
        "P-dis": properties._disjoint_identities_of,
        "P-menag": properties._ideal_intersection_of,
    }
    assert {audit for audit, _ in cache.verdicts} == set(audits.values())
    for (audit, system), verdict in cache.verdicts.items():
        assert audit(system) == verdict
    # every cached verdict equals the uncached direct check of each instance
    for gens in family_representatives(2):
        system = canonical_form(2, gens)
        for pid, audit in audits.items():
            assert PROPERTIES[pid].check((2, gens)) == cache.verdicts[audit, system]


def test_sweep_worker_split_agrees(pool_sizes):
    serial = run_family_sweep(2)
    split = run_family_sweep(2, workers=2)
    # 165 representatives in spans of 64: three spans for two workers
    assert pool_sizes == [2]
    assert serial.to_structured() == split.to_structured()
    assert _results(serial) == _results(split)


def test_sweep_pool_is_sized_to_its_chunks(inline_pool):
    serial = run_family_sweep(2)
    split = run_family_sweep(2, workers=500)
    # 165 representatives make three spans of at least 64
    assert inline_pool == [3]
    assert multiprocessing.active_children() == []
    assert _results(split) == _results(serial)


def test_mutation_applies_to_the_sweep(pool_sizes, start_method):
    # the mutation is installed around the sweep, not passed to it: each
    # worker gets it whether it inherits the parent's modules or not
    with apply_mutation("ratio-flip"):
        serial = run_family_sweep(2)
        split = run_family_sweep(2, workers=2)
        assert pool_sizes == [2]
        assert _results(serial) == _results(split)
        assert not serial.ok
        assert all(r.failures > 0 for r in serial.results)
        assert [fails[0]["suite"] for _, fails in serial.mismatches] == [
            "closure", "dis", "menag"]
        # every witness replays under the bug
        for r in serial.results:
            assert replay_witness(r.witness), r.property_id
    for r in serial.results:
        assert replay_witness(r.witness) == [], r.property_id
