"""Smallest lattice-closed linear subspace containing given vectors.

Independent route to the generated-sublattice question, used to
cross-check the tie/ratio derivation in funclat.canonical_form: the
caller passes the system it already holds to lattice_closure_matches,
which grows the generators' span in one elimination pass.  All
arithmetic is exact, and after the boundary it is integer arithmetic:
closure_subspace reads each generator once, through funclat._int_tuple:
an all-int generator is taken as it is, any other is read by funclat's
number rule and scaled by the lcm of its denominators (_exact, _integral);
from there on every vector is an int tuple.  Spans are pivot-keyed integer
rows, the kernel of a slice comes from fraction-free elimination, and
feasibility of a sign pattern is decided by Fourier-Motzkin elimination on
strict homogeneous inequalities.  No Fraction is built here.

The growth step: for a sign pattern s in {+1,-1,0}^n realized strictly
by some member v of the current span V (v positive where s=+1, negative
where s=-1, zero where s=0), every w in V vanishing on the zero set of
s contributes its positive projection, because for large M

    (Mv + w) has pattern s, so (Mv + w)^+ - (Mv)^+ = P_s(w)

and both positive parts lie in the lattice closure.  Conversely a span
stable under all such additions is closed under w -> w^+ (take s =
sign(w), witnessed by w itself), hence lattice closed.
"""

from itertools import product
from math import gcd, lcm

from .funclat import _exact, _int_tuple, dim


def _reduce(vec):
    g = gcd(*vec)
    if g > 1:
        return tuple([c // g for c in vec])
    return tuple(vec)


def _insert(basis, vec):
    """Add an int tuple to the span of the pivot-keyed integer rows; returns
    True if the dimension grew.  A vector reduced on the way is
    gcd-normalized."""
    while True:
        for j, entry in enumerate(vec):
            if entry:
                break
        else:
            return False
        row = basis.get(j)
        if row is None:
            break
        a, b = row[j], vec[j]
        vec = _reduce([a * c - b * r for c, r in zip(vec, row)])
    if vec[j] < 0:
        vec = tuple([-c for c in vec])
    basis[j] = vec
    return True


def _kernel_basis(matrix, width):
    """Primitive integer basis of the rational kernel of an integer matrix.

    Fraction-free Gauss-Jordan elimination: every row stays a nonzero
    multiple of the rational row it stands for, so the pivots are the
    rational ones, and each free column gives the primitive vector that is
    positive there."""
    rows = list(matrix)
    pivots = {}
    rank = 0
    for col in range(width):
        pr = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        prow = rows[rank]
        pv = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != rank:
                rows[i] = _reduce([pv * a - f * b for a, b in zip(row, prow)])
        pivots[col] = rank
        rank += 1
    # x[pc] = -row[free] / row[pc] on each pivot row, times a positive scale
    scale = lcm(*[rows[pr][pc] for pc, pr in pivots.items()])
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [0] * width
        vec[free] = scale
        for pc, pr in pivots.items():
            row = rows[pr]
            vec[pc] = -row[free] * (scale // row[pc])
        basis.append(_reduce(vec))
    return basis


def _strict_feasible(rows):
    """Does some x satisfy r . x > 0 for every row r (all strict)?"""
    width = len(rows[0]) if rows else 0
    for j in range(width + 1):
        if not all(map(any, rows)):
            return False
        if j == width:
            break
        pos = [r for r in rows if r[j] > 0]
        neg = [r for r in rows if r[j] < 0]
        rows = [r for r in rows if r[j] == 0]
        if pos and neg:
            for p in pos:
                for q in neg:
                    rows.append(_reduce(
                        [-q[j] * a + p[j] * b for a, b in zip(p, q)]
                    ))
        # one-sided rows are satisfiable by pushing x_j to an extreme
    return True


def _slice_basis(basis_rows, zero_cols, n):
    """Basis of the span members vanishing on the columns zero_cols."""
    if not basis_rows:
        return []
    constraint = [[b[j] for b in basis_rows] for j in zero_cols]
    out = []
    for coeff in _kernel_basis(constraint, len(basis_rows)):
        vec = [0] * n
        for c, b in zip(coeff, basis_rows):
            for j in range(n):
                vec[j] += c * b[j]
        out.append(_reduce(vec))
    return out


def _pattern_feasible(slice_rows, sigma):
    rows = []
    for j, s in enumerate(sigma):
        if s == 0:
            continue
        rows.append([s * b[j] for b in slice_rows])
    return _strict_feasible(rows)


def _pos_projection(vec, sigma):
    return tuple([c if s == 1 else 0 for c, s in zip(vec, sigma)])


def closure_subspace(n, gens, *, stop_dim=None):
    """Basis of the lattice closure of span(gens) as sorted int tuples.

    A row reduced against another row is gcd-normalized; a vector that
    needed no reduction is kept as scaled, so (2, 2) stays (2, 2).

    stop_dim returns early once the span reaches that dimension; the
    result is then a partial basis, enough for a containment verdict.
    """
    basis = {}
    for g in gens:
        if len(g) != n:
            raise ValueError("vector length mismatch")
        _insert(basis, _int_tuple(g, _exact))
    # n rows span the whole space: no later insert can grow it
    limit = n if stop_dim is None else min(n, stop_dim)

    def done():
        return len(basis) >= limit

    changed = True
    while changed and not done():
        changed = False
        # cheap pass: positive and negative parts of current basis vectors;
        # a nonnegative v is its own positive part, already in the span
        for v in list(basis.values()):
            pos = tuple([c if c > 0 else 0 for c in v])
            if pos == v:
                continue
            for part in (pos, tuple([-c if c < 0 else 0 for c in v])):
                if _insert(basis, part):
                    changed = True
                    if done():
                        break
            if done():
                break
        if done():
            break
        # patterns with one zero set share its slice until the span grows
        slices = {}
        for sigma in product((1, -1, 0), repeat=n):
            zero_cols = tuple([j for j, s in enumerate(sigma) if s == 0])
            if len(zero_cols) == n:
                continue
            rows = slices.get(zero_cols)
            if rows is None:
                rows = slices[zero_cols] = _slice_basis(
                    list(basis.values()), zero_cols, n)
            if not rows or not _pattern_feasible(rows, sigma):
                continue
            for b in rows:
                if _insert(basis, _pos_projection(b, sigma)):
                    changed = True
                    slices = {}
            if done():
                break
    return sorted(basis.values())


def lattice_closure_matches(system, gens):
    """Is system the lattice closure of gens, by the closure oracle?

    Precondition: every generator is a member of system.  A tie/ratio
    system is a sublattice by construction, so the closure then sits
    inside it and equality reduces to a dimension comparison.
    """
    target = dim(system)
    return len(closure_subspace(system.n, gens, stop_dim=target)) == target
