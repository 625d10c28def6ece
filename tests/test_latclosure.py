from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finlat import canonical_form, full_space, member
from finlat.funclat import solution_basis
from finlat.latclosure import _insert, closure_subspace, lattice_closure_matches


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
