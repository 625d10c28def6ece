from fractions import Fraction
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finlat import canonical_form, full_space, funclat, latclosure, member
from finlat.funclat import dim, solution_basis
from finlat.latclosure import _insert, closure_subspace, lattice_closure_matches
from finlat.verify import family_representatives


def in_span(rows, vec):
    basis = {}
    for r in rows:
        _insert(basis, r)
    return not _insert(basis, vec)


def test_in_span_is_a_rank_test():
    rows = [(1, 2, 0), (0, 1, 1)]
    assert in_span(rows, (1, 3, 1))
    assert in_span(rows, (2, 4, 0))
    assert in_span(rows, (0, 0, 0))
    assert not in_span(rows, (0, 0, 1))
    assert not in_span([], (1, 0, 0))


def test_sign_mixing_vector_spans_the_plane():
    basis = closure_subspace(2, [(1, -1)])
    assert len(basis) == 2
    assert in_span(basis, (1, 0))
    assert in_span(basis, (0, 1))


def test_positive_ratio_line_is_already_closed():
    assert closure_subspace(2, [(1, 1)]) == [(1, 1)]
    assert closure_subspace(2, [(1, 2)]) == [(1, 2)]


def test_closure_stays_inside_the_vanishing_plane():
    basis = closure_subspace(3, [(1, -1, 0)])
    assert len(basis) == 2
    assert all(row[2] == 0 for row in basis)
    assert in_span(basis, (1, 0, 0))


def test_tied_generators_stay_tied():
    gens = [(1, 1, 0), (0, 0, 2)]
    basis = closure_subspace(3, gens)
    sys3 = canonical_form(3, gens)
    assert len(basis) == 2
    for row in basis:
        assert member(sys3, row)


def test_stop_dim_gives_partial_basis():
    partial = closure_subspace(2, [(1, -1)], stop_dim=1)
    assert 1 <= len(partial) <= 2


def test_system_larger_than_the_closure_does_not_match():
    # (1, 1, 0) is a member of the whole space, but its closure is a line
    assert not lattice_closure_matches(full_space(3), [(1, 1, 0)])
    assert lattice_closure_matches(canonical_form(3, [(1, 1, 0)]), [(1, 1, 0)])


small_vec = st.tuples(*([st.integers(-2, 2)] * 3))


def _routes_agree(n, gens):
    system = canonical_form(n, gens)
    assert all(member(system, g) for g in gens)
    assert lattice_closure_matches(system, gens)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=3))
def test_routes_agree_on_random_generators(gens):
    _routes_agree(3, gens)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=0, max_size=3))
def test_routes_agree_in_the_plane(gens):
    _routes_agree(2, gens)


def test_entries_follow_the_exact_number_rule():
    # a Fraction, a float and a bool are read exactly, never truncated
    assert closure_subspace(2, [(Fraction(1, 2), 1)]) == [(1, 2)]
    assert closure_subspace(2, [(0.5, 1)]) == [(1, 2)]
    assert closure_subspace(2, [(True, 2)]) == [(1, 2)]
    assert closure_subspace(2, [(Fraction(2, 3), Fraction(-1, 2))]) == [(0, 1), (4, -3)]


fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*([fraction] * n)), min_size=0, max_size=3))))
def test_closure_spans_the_canonical_solution_space(instance):
    n, gens = instance
    closure = closure_subspace(n, gens)
    basis = solution_basis(canonical_form(n, gens))
    assert len(closure) == len(basis)
    assert all(in_span(closure, v) for v in basis)
    assert all(in_span(basis, v) for v in closure)


# sha256 over each family, in family_representatives order, of
# repr(closure_subspace(n, gens)) + "\n", recorded on the Fraction-kernel
# oracle.  The runs with stop_dim = dim(canonical_form(n, gens)) hash the
# same: once the span reaches the closure's dimension no insert changes it.
CLOSURE_PINS = {
    1: "417c56e3741f59a0218db1fa7afd28162ab896a9f5f7d1e5bc0c34580b807488",
    2: "04dfa2f739ba1b26a327869a5fc9f4b95e2670369921ddae814e10415160b6c8",
    3: "02f908fc38a098e7eafb5f780d752c0e85c2757a0a677b0efa1b2977184ae7b2",
}


@pytest.mark.parametrize("n", sorted(CLOSURE_PINS))
def test_closure_rows_of_each_family_match_their_pin(n):
    full, stopped = hashlib.sha256(), hashlib.sha256()
    for gens in family_representatives(n):
        target = dim(canonical_form(n, gens))
        full.update(repr(closure_subspace(n, gens)).encode() + b"\n")
        stopped.update(repr(closure_subspace(n, gens, stop_dim=target)).encode() + b"\n")
    assert full.hexdigest() == CLOSURE_PINS[n]
    assert stopped.hexdigest() == CLOSURE_PINS[n]


def test_each_generator_is_read_once_at_the_boundary(monkeypatch):
    # the third coordinate always vanishes, so the closure stays below full
    # dimension and every pass of the oracle runs
    gens = [(Fraction(1, 2), -1, 0, 0), (0.5, 0, 0, -1.5), (True, 2, 0, 0)]
    reads = []
    exact = funclat._exact

    def counting(vec):
        reads.append(vec)
        return exact(vec)

    monkeypatch.setattr(latclosure, "_exact", counting)
    rows = closure_subspace(4, gens)
    assert len(reads) == len(gens)
    assert len(rows) == 3
    assert all(type(r) is tuple and all(type(c) is int for c in r) for r in rows)

    reads.clear()
    monkeypatch.setattr(funclat, "_exact", counting)
    canonical_form(4, gens)
    assert len(reads) == len(gens)


def test_length_mismatch_messages_are_kept():
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        closure_subspace(2, [(1, 2, 3)])
    with pytest.raises(ValueError, match="^generator dimension mismatch$"):
        canonical_form(2, [(1,)])
