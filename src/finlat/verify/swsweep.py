"""Exhaustive generator-family sweep shared by the closure and identity audits.

The family is every tuple of at most three generators with entries in -2..2.
All three per-instance verdicts (closure-oracle match, disjoint-complement
identities, ideal-intersection identity) are invariant under dropping zero
generators, scaling a generator positively, negating one, reordering the
tuple, and permuting coordinates.  The sweep therefore normalizes generators
to primitive sign-normalized vectors and, where the coordinate count makes
the raw family large, keeps one representative per coordinate-permutation
orbit: the least sorted alphabet-index triple of each orbit, found in one
pass over the triples in ascending order.
The equivariances themselves are property-tested separately.

The representatives are one exhaustive stream for the suite runner, checked
with P-sw, P-dis and P-menag: a mutation installed around the sweep applies
to it, and a failure or crash is counted with a replayable witness.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

from .properties import _lattice_alphabet, _normalize, check_instances

PERMUTE_FROM = 4
MAX_GENS = 3
# the properties the sweep checks, with the suite label of their mismatches
_SUITES = {"P-sw": "closure", "P-dis": "dis", "P-menag": "menag"}


def _permutation_quotient(n, alphabet):
    """The orbit-minimal multisets, in ascending index-triple order.

    A multiset of at most MAX_GENS = 3 generators is a sorted index triple
    over the alphabet, padded with the sentinel ``len(alphabet)``, which
    sorts last and which every permutation's index table maps to itself.
    A triple a <= b <= c is its orbit's minimum exactly when a is the least
    image of itself, no index among b and c has an image below a, and no
    table's sorted image of the triple is lexicographically smaller.  Under
    the first two conditions every image is at least a, so only a table
    that maps one of a, b, c onto a can give a smaller image.  The triples
    are visited in ascending order, so the minima come out sorted.
    """
    lookup = {vec: i for i, vec in enumerate(alphabet)}
    size = len(alphabet)
    tables = [
        [lookup[_normalize(tuple(vec[p] for p in perm))] for vec in alphabet]
        + [size]
        for perm in permutations(range(n))
    ]
    low = [min(images) for images in zip(*tables)]
    reps = []
    for a in range(size + 1):
        if low[a] != a:
            continue
        # the tables by the one index each maps onto a
        onto = [[] for _ in range(size + 1)]
        for table in tables:
            onto[table.index(a)].append(table)
        rest = [i for i in range(a, size + 1) if low[i] >= a]
        for j, b in enumerate(rest):
            for c in rest[j:]:
                triple = [a, b, c]
                if all(sorted((t[a], t[b], t[c])) >= triple
                       for t in onto[a] + onto[b] + onto[c]):
                    reps.append(
                        tuple(alphabet[i] for i in triple if i != size))
    return reps


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


@dataclass(frozen=True)
class FamilySweepReport:
    n: int
    alphabet: int
    representatives: int
    # PropertyResults of P-sw, P-dis and P-menag, in that order
    results: tuple

    @property
    def ok(self):
        return all(r.failures == 0 for r in self.results)

    @property
    def mismatches(self):
        """One (generators, [failure]) entry per failing property's witness."""
        return tuple(
            (tuple(tuple(g) for g in r.witness["generators"]),
             [{"suite": _SUITES[r.property_id], "detail": r.witness["detail"]}])
            for r in self.results if r.witness is not None
        )

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
    reps = family_representatives(n)
    results = check_instances(tuple(_SUITES), [(n, gens) for gens in reps],
                              workers=workers)
    return FamilySweepReport(
        n=n,
        alphabet=len(_lattice_alphabet(n)),
        representatives=len(reps),
        results=results,
    )
