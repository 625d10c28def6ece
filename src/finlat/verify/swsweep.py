"""Exhaustive generator-family sweep shared by the closure and identity audits.

The family is every tuple of at most three generators with entries in -2..2.
All three per-instance verdicts (closure-oracle match, disjoint-complement
identities, ideal-intersection identity) are invariant under dropping zero
generators, scaling a generator positively, negating one, reordering the
tuple, and permuting coordinates.  The sweep therefore normalizes generators
to primitive sign-normalized vectors and, where the coordinate count makes
the raw family large, keeps one representative per coordinate-permutation
orbit; the orbit minimum is computed with a vectorized lexicographic scan.
The equivariances themselves are property-tested separately.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
import math

import numpy as np

from .. import funclat
from .properties import (
    _check_span_closure,
    _disjoint_identities_of,
    _ideal_intersection_of,
    _lattice_alphabet,
)

PERMUTE_FROM = 4
MAX_GENS = 3


def _normalize(vec):
    g = 0
    for v in vec:
        g = math.gcd(g, abs(v))
    if g == 0:
        return None
    vec = tuple(v // g for v in vec)
    for v in vec:
        if v:
            return vec if v > 0 else tuple(-w for w in vec)
    return None


def normalize_generators(gens):
    """Multiset normal form: primitive, sign-fixed, zero-free, sorted."""
    out = [w for w in (_normalize(g) for g in gens) if w is not None]
    return tuple(sorted(out))


def _permutation_quotient(n, alphabet):
    """One index triple per coordinate-permutation orbit, sentinel-padded."""
    lookup = {vec: i for i, vec in enumerate(alphabet)}
    size = len(alphabet)
    sentinel = size

    combos = list(combinations_with_replacement(range(size), 0))
    for k in range(1, MAX_GENS + 1):
        combos.extend(combinations_with_replacement(range(size), k))
    arr = np.full((len(combos), MAX_GENS), sentinel, dtype=np.int16)
    for row, combo in enumerate(combos):
        arr[row, : len(combo)] = combo

    best = None
    rows = np.arange(len(combos))
    for perm in permutations(range(n)):
        table = np.empty(size + 1, dtype=np.int16)
        table[sentinel] = sentinel
        for i, vec in enumerate(alphabet):
            table[i] = lookup[_normalize(tuple(vec[p] for p in perm))]
        mapped = table[arr]
        mapped.sort(axis=1)
        if best is None:
            best = mapped.copy()
            continue
        neq = best != mapped
        any_neq = neq.any(axis=1)
        pos = neq.argmax(axis=1)
        smaller = any_neq & (mapped[rows, pos] < best[rows, pos])
        best[smaller] = mapped[smaller]
    reps = np.unique(best, axis=0)
    out = []
    for row in reps:
        gens = tuple(alphabet[i] for i in row if i != sentinel)
        out.append(gens)
    return out


def family_representatives(n):
    """Normalized instances covering the whole family up to the symmetries."""
    alphabet = _lattice_alphabet(n)
    if n < PERMUTE_FROM:
        combos = [()]
        for k in range(1, MAX_GENS + 1):
            combos.extend(
                tuple(c) for c in combinations_with_replacement(alphabet, k)
            )
        return combos
    return _permutation_quotient(n, alphabet)


# the identity audits depend only on the canonical system, and distinct
# generator tuples collapse onto a few dozen systems, so cache per system
_SYSTEM_CACHE = {}


def _check_instance(args):
    n, gens = args
    failures = []
    found, _ = _check_span_closure((n, gens))
    if found:
        failures.append({"suite": "closure", "detail": found[0]})
    outer = funclat.canonical_form(n, gens)
    cached = _SYSTEM_CACHE.get(outer)
    if cached is None:
        cached = (
            _disjoint_identities_of(outer)[0],
            _ideal_intersection_of(outer)[0],
        )
        _SYSTEM_CACHE[outer] = cached
    for label, found in zip(("dis", "menag"), cached):
        if found:
            failures.append({"suite": label, "detail": found[0]})
    return failures


@dataclass(frozen=True)
class FamilySweepReport:
    n: int
    alphabet: int
    representatives: int
    mismatches: tuple

    @property
    def ok(self):
        return not self.mismatches

    def to_structured(self):
        return {
            "n": self.n,
            "alphabet": self.alphabet,
            "representatives": self.representatives,
            "ok": self.ok,
            "mismatches": [
                {"generators": [list(g) for g in gens], "failures": fails}
                for gens, fails in self.mismatches
            ],
        }


def run_family_sweep(n, *, workers=1):
    _SYSTEM_CACHE.clear()
    reps = family_representatives(n)
    instances = [(n, gens) for gens in reps]
    mismatches = []
    if workers <= 1:
        results = map(_check_instance, instances)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        results = pool.map(_check_instance, instances, chunksize=256)
    try:
        for (num, gens), failures in zip(instances, results):
            if failures:
                mismatches.append((gens, failures))
    finally:
        if workers > 1:
            pool.shutdown()
    return FamilySweepReport(
        n=n,
        alphabet=len(_lattice_alphabet(n)),
        representatives=len(reps),
        mismatches=tuple(mismatches),
    )
