"""Exhaustive generator-family sweep shared by the closure and identity audits.

The family is every tuple of at most three generators with entries in -2..2.
All three per-instance verdicts (closure-oracle match, disjoint-complement
identities, ideal-intersection identity) are invariant under dropping zero
generators, scaling a generator positively, negating one, reordering the
tuple, and permuting coordinates.  The sweep therefore normalizes generators
to primitive sign-normalized vectors and, where the coordinate count makes
the raw family large, keeps one representative per coordinate-permutation
orbit: the least sorted alphabet-index triple of each orbit, found in one
pass over the triples in ascending order.  The pass tests a whole row of
triples sharing their first two indices at once: a permutation that maps one
of those two onto the least index either rejects the row outright or bounds
the third index by two integer comparisons, so only the few triples whose
third index also maps onto the least one need their images sorted.
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
    that maps one of a, b, c onto a can give a smaller image.

    The triples are visited in rows of fixed a and b.  A table t that maps
    a or b onto a sends the other one to some u, and its sorted image is
    (a, min(u, t[c]), max(u, t[c])), which is at least (a, b, c) exactly
    when (min(u, t[c]), max(u, t[c])) >= (b, c).  That pair is below (b, c)
    for every c when u < b, so one such table rejects the whole row.
    Otherwise, with u == b, it is at least (b, c) exactly when t[c] >= c;
    with u > b, exactly when t[c] > b, or t[c] == b and u >= c.  Each row
    filters its c by these tests; only a c with a table of its own onto a
    (c outside a and b) still sorts that table's image.  The rows come in
    ascending order and each keeps its c ascending, so the minima come out
    sorted.
    """
    lookup = {vec: i for i, vec in enumerate(alphabet)}
    size = len(alphabet)
    tables = [
        [lookup[_normalize(tuple(vec[p] for p in perm))] for vec in alphabet]
        + [size]
        for perm in permutations(range(n))
    ]
    low = [min(images) for images in zip(*tables)]
    # each output is one concatenation of these; the sentinel adds nothing
    wrapped = [(vec,) for vec in alphabet] + [()]
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
            # each table mapping a or b onto a, with its image of the other
            pairs = [(t, t[b]) for t in onto[a]]
            if b != a:
                pairs += [(t, t[a]) for t in onto[b]]
            if any(u < b for _, u in pairs):
                continue
            cs = rest[j:]
            for t, u in pairs:
                if u == b:
                    cs = [c for c in cs if t[c] >= c]
                else:
                    cs = [c for c in cs if t[c] > b or t[c] == b and u >= c]
            row = wrapped[a] + wrapped[b]
            for c in cs:
                if c != b and onto[c] and not all(
                        sorted((t[a], t[b], a)) >= [a, b, c] for t in onto[c]):
                    continue
                reps.append(row + wrapped[c])
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
    """Check every dimension-n representative with P-sw, P-dis and P-menag
    and return a FamilySweepReport.

    With workers > 1 its workers are spawned and re-import the calling
    script, so called from a script's top level without an
    `if __name__ == "__main__":` guard it raises BrokenProcessPool.
    """
    reps = family_representatives(n)
    results = check_instances(tuple(_SUITES), [(n, gens) for gens in reps],
                              workers=workers)
    return FamilySweepReport(
        n=n,
        alphabet=len(_lattice_alphabet(n)),
        representatives=len(reps),
        results=results,
    )
