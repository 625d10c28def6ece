"""Smallest lattice-closed linear subspace containing given vectors.

Independent route to the generated-sublattice question, used to
cross-check the tie/ratio derivation in funclat.canonical_form: the
caller passes the system it already holds to lattice_closure_matches,
which grows the generators' span in one elimination pass.  All
arithmetic is exact: a vector's entries are read by funclat's number rule
and scaled by the lcm of their denominators, spans are gcd-normalized
integer rows, feasibility of a sign pattern is decided by Fourier-Motzkin
elimination on strict homogeneous inequalities.

The growth step: for a sign pattern s in {+1,-1,0}^n realized strictly
by some member v of the current span V (v positive where s=+1, negative
where s=-1, zero where s=0), every w in V vanishing on the zero set of
s contributes its positive projection, because for large M

    (Mv + w) has pattern s, so (Mv + w)^+ - (Mv)^+ = P_s(w)

and both positive parts lie in the lattice closure.  Conversely a span
stable under all such additions is closed under w -> w^+ (take s =
sign(w), witnessed by w itself), hence lattice closed.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from .funclat import _exact, _integral, dim


def _reduce(vec):
    g = gcd(*vec)
    if g > 1:
        return tuple(c // g for c in vec)
    return tuple(vec)


def _pivot(vec):
    return next((j for j, c in enumerate(vec) if c != 0), None)


def _eliminate(vec, basis):
    """Reduce vec against pivot-keyed integer rows; result gcd-normalized.

    vec may hold any entries funclat reads; it is scaled to ints first."""
    vec = _integral(_exact(vec))
    while True:
        j = _pivot(vec)
        if j is None or j not in basis:
            return vec
        row = basis[j]
        vec = _reduce(
            tuple(row[j] * c - vec[j] * r for c, r in zip(vec, row))
        )


def _insert(basis, vec):
    """Add vec to the span; returns True if the dimension grew."""
    vec = _eliminate(vec, basis)
    j = _pivot(vec)
    if j is None:
        return False
    if vec[j] < 0:
        vec = tuple(-c for c in vec)
    basis[j] = vec
    return True


def _kernel_basis(matrix, width):
    """Integer basis of the rational kernel of an integer matrix."""
    rows = [[Fraction(c) for c in r] for r in matrix]
    pivots = {}
    rank = 0
    for col in range(width):
        pr = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots[col] = rank
        rank += 1
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [0] * width
        vec[free] = 1
        for pc, pr in pivots.items():
            vec[pc] = -rows[pr][free]
        basis.append(_reduce(_integral(vec)))
    return basis


def _strict_feasible(rows):
    """Does some x satisfy r . x > 0 for every row r (all strict)?"""
    rows = [tuple(r) for r in rows]
    width = len(rows[0]) if rows else 0
    for j in range(width + 1):
        if any(all(c == 0 for c in r) for r in rows):
            return False
        if j == width:
            break
        pos = [r for r in rows if r[j] > 0]
        neg = [r for r in rows if r[j] < 0]
        rows = [r for r in rows if r[j] == 0]
        if pos and neg:
            for p in pos:
                for q in neg:
                    rows.append(_reduce(tuple(
                        -q[j] * a + p[j] * b for a, b in zip(p, q)
                    )))
        # one-sided rows are satisfiable by pushing x_j to an extreme
    return True


def _slice_basis(basis_rows, sigma, n):
    """Basis of the span members vanishing on the zero set of sigma."""
    if not basis_rows:
        return []
    zero_cols = [j for j, s in enumerate(sigma) if s == 0]
    constraint = [[b[j] for b in basis_rows] for j in zero_cols]
    out = []
    for coeff in _kernel_basis(constraint, len(basis_rows)):
        vec = [0] * n
        for c, b in zip(coeff, basis_rows):
            for j in range(n):
                vec[j] += c * b[j]
        out.append(_reduce(tuple(vec)))
    return out


def _pattern_feasible(slice_rows, sigma):
    rows = []
    for j, s in enumerate(sigma):
        if s == 0:
            continue
        rows.append(tuple(s * b[j] for b in slice_rows))
    return _strict_feasible(rows)


def _pos_projection(vec, sigma):
    return tuple(c if s == 1 else 0 for c, s in zip(vec, sigma))


def closure_subspace(n, gens, *, stop_dim=None):
    """Basis of the lattice closure of span(gens), gcd-normalized rows.

    stop_dim returns early once the span reaches that dimension; the
    result is then a partial basis, enough for a containment verdict.
    """
    basis = {}
    for g in gens:
        if len(g) != n:
            raise ValueError("vector length mismatch")
        _insert(basis, g)

    def done():
        return stop_dim is not None and len(basis) >= stop_dim

    changed = True
    while changed and not done():
        changed = False
        # cheap pass: positive parts of current basis vectors
        for v in list(basis.values()):
            for w in (v, tuple(-c for c in v)):
                if _insert(basis, tuple(max(c, 0) for c in w)):
                    changed = True
                    if done():
                        break
            if done():
                break
        if done():
            break
        for sigma in product((1, -1, 0), repeat=n):
            if all(s == 0 for s in sigma):
                continue
            rows = _slice_basis(list(basis.values()), sigma, n)
            if not rows or not _pattern_feasible(rows, sigma):
                continue
            for b in rows:
                if _insert(basis, _pos_projection(b, sigma)):
                    changed = True
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
