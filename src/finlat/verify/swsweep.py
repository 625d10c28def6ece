"""Exhaustive generator-family sweep shared by the closure and identity audits.

The family is every tuple of at most three generators with entries in -2..2.
All three per-instance verdicts (closure-oracle match, disjoint-complement
identities, ideal-intersection identity) are invariant under dropping zero
generators, scaling a generator positively, negating one, reordering the
tuple, and permuting coordinates.  The sweep therefore normalizes generators
to primitive sign-normalized vectors and, where the coordinate count makes
the raw family large, keeps one representative per coordinate-permutation
orbit.  Each generator multiset is packed into one integer key whose order
is the lexicographic order of its sorted alphabet indices, so the orbit
minimum is an elementwise minimum of keys over the permutations.
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
# index triples per slice of the orbit-minimum pass, which bounds the size
# of its arrays (about 3.4 M triples in all at n = 4)
SLICE_TRIPLES = 2 ** 18
# the properties the sweep checks, with the suite label of their mismatches
_SUITES = {"P-sw": "closure", "P-dis": "dis", "P-menag": "menag"}


def _permutation_quotient(n, alphabet):
    """The orbit-minimal multisets, in ascending index-triple order.

    A multiset of at most MAX_GENS = 3 generators is a sorted index triple
    over the alphabet, padded with the sentinel ``len(alphabet)``, which
    sorts last.  Packing a sorted triple into one integer key in base
    ``len(alphabet) + 1`` makes integer order the lexicographic order on
    triples, so the orbit minimum is a running ``np.minimum`` of the keys
    over the coordinate permutations.  The triples are taken about
    SLICE_TRIPLES at a time; one orbit's minimum can come from several
    slices, so the distinct minima of every slice are merged at the end.
    """
    # imported here, so importing the package does not load numpy
    import numpy as np

    lookup = {vec: i for i, vec in enumerate(alphabet)}
    size = len(alphabet)
    base = size + 1
    index_type = np.min_scalar_type(size)
    key_type = np.min_scalar_type(base ** 3)

    tables = []
    for perm in permutations(range(n)):
        table = np.empty(base, dtype=index_type)
        table[size] = size
        for i, vec in enumerate(alphabet):
            table[i] = lookup[_normalize(tuple(vec[p] for p in perm))]
        tables.append(table)

    # every triple a <= b <= c over 0..size: each pair b <= c takes a = 0..b
    pair_b, pair_c = np.triu_indices(base)
    ends = np.cumsum(pair_b + 1)
    minima = []
    start = 0
    while start < len(pair_b):
        done = ends[start - 1] if start else 0
        # the pairs whose triples fit in the slice, and at least one
        stop = max(start + 1,
                   int(np.searchsorted(ends, done + SLICE_TRIPLES, "right")))
        b, c = pair_b[start:stop], pair_c[start:stop]
        counts = b + 1
        a = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        columns = [
            col.astype(index_type)
            for col in (a, np.repeat(b, counts), np.repeat(c, counts))
        ]
        best = None
        for table in tables:
            x, y, z = (table[col] for col in columns)
            # sorting network on the three columns
            x, y = np.minimum(x, y), np.maximum(x, y)
            y, z = np.minimum(y, z), np.maximum(y, z)
            x, y = np.minimum(x, y), np.maximum(x, y)
            key = (x.astype(key_type) * base + y) * base + z
            best = key if best is None else np.minimum(best, key, out=best)
        minima.append(np.unique(best))
        start = stop

    x, yz = np.divmod(np.unique(np.concatenate(minima)), base * base)
    y, z = np.divmod(yz, base)
    return [
        tuple(alphabet[i] for i in row if i != size)
        for row in zip(x.tolist(), y.tolist(), z.tolist())
    ]


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
