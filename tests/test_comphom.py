from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from finlat import comphom
from finlat import (
    CertificateMismatch,
    ContMap,
    CertificateReport,
    HomMatrix,
    NotHomomorphism,
    certify_composition,
    discrete_space,
    full_space,
    hoc_conditions,
    hom_from_map,
    is_homomorphism,
    make_space,
    canonical_form,
    zero_ideal,
)
from finlat.contmap import MapClassification
from finlat import funclat
from finlat.funclat import (
    SublatticeFlags, band_complement, double_complement, member, solution_basis,
)
from finlat.verify.mutations import apply_mutation
from finlat.verify import SuiteConfig
from finlat.verify.properties import _KINDS

F = Fraction


def small_matrices(m, n, entries=(-1, 0, 1)):
    for flat in product(entries, repeat=m * n):
        yield [list(flat[i * n:(i + 1) * n]) for i in range(m)]


# --- the sign-sweep oracle comes first ---------------------------------------

@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_test_agrees_with_sign_oracle(m, n):
    for rows in small_matrices(m, n):
        frac = oracles.frac_rows(rows)
        want = oracles.hom_by_signs(frac)
        assert oracles.row_monomial_nonneg(frac) == want
        assert is_homomorphism(rows) == want
        if not want:
            with pytest.raises(NotHomomorphism) as err:
                HomMatrix(rows)
            assert err.value.witness == oracles.first_failing_probe(frac)


def test_constructor_verdicts():
    t = HomMatrix([["2", 0, 0], [0, "1/3", 0]])
    assert (t.m, t.n) == (2, 3)
    with pytest.raises(NotHomomorphism) as err:
        HomMatrix([[1, 1]])
    assert err.value.witness is not None
    f = err.value.witness
    # the witness really violates |Tf| = T|f|
    frac = oracles.frac_rows([[1, 1]])
    tf = [sum(r[j] * f[j] for j in range(2)) for r in frac]
    t_abs = [sum(r[j] * abs(f[j]) for j in range(2)) for r in frac]
    assert [abs(v) for v in tf] != t_abs
    with pytest.raises(NotHomomorphism):
        HomMatrix([[-1, 0]])
    # the witness is the first failing probe: units first, then e_a - e_b
    for rows, want in (
        ([[1, 0, -1]], (0, 0, 1)),
        ([[1, 0, 0], [0, 2, 3]], (0, 1, -1)),
        ([[0, 2, 3], [1, 0, -1]], (0, 0, 1)),
    ):
        with pytest.raises(NotHomomorphism) as err:
            HomMatrix(rows)
        assert err.value.witness == want
        assert oracles.first_failing_probe(oracles.frac_rows(rows)) == want


def test_normal_form_round_trip():
    t = HomMatrix([["2", 0, 0], [0, "1/3", 0], [0, 0, 0]])
    assert t.weights == (F(2), F(1, 3), F(0))
    assert t.phi == (0, 1, None)
    assert t.entries == (
        (F(2), F(0), F(0)), (F(0), F(1, 3), F(0)), (F(0), F(0), F(0)),
    )
    assert HomMatrix(t.entries) == t


rational = st.builds(Fraction, st.integers(0, 6), st.integers(1, 4))
signed_rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _apply_type(row, f):
    """The type apply gives for a dense row: int for a zero row, or when the
    entry it reads is an int (not a bool) and its weight is integral;
    Fraction otherwise."""
    live = [(w, v) for w, v in zip(row, f) if w != 0]
    if not live:
        return int
    [(w, v)] = live
    return int if type(v) is int and Fraction(w).denominator == 1 else Fraction


@st.composite
def sparse_homs(draw):
    # zero rows (None) and repeated columns are both likely
    n = draw(st.integers(1, 5))
    phi = draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1)),
                        min_size=1, max_size=6))
    rows = []
    for col in phi:
        row = [0] * n
        if col is not None:
            row[col] = draw(rational.filter(bool))
        rows.append(row)
    return HomMatrix(rows)


def _vector_tables(n):
    """The three per-dimension tables the conditions map through images."""
    return (comphom._probe_positives(n), comphom._directed_sup_table(n)[0],
            comphom._coordinate_ideals(n).vectors)


@settings(max_examples=120, deadline=None)
@given(sparse_homs())
def test_images_match_apply_on_every_vector_table(t):
    for table in _vector_tables(t.n):
        got = t.images(table)
        want = [t.apply(v) for v in table]
        assert got == want
        assert [tuple(map(type, image)) for image in got] == \
            [tuple(map(type, image)) for image in want]
    with pytest.raises(ValueError, match="dimension"):
        t.images(comphom._probe_positives(t.n + 1))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_normal_form_matches_dense_rows(m, n, data):
    rows = []
    for _ in range(m):
        row = [Fraction(0)] * n
        col = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
        if col is not None:
            row[col] = data.draw(rational)
        rows.append(row)
    t = HomMatrix(rows)
    f = data.draw(st.lists(signed_rational, min_size=n, max_size=n))
    image = t.apply(f)
    assert image == oracles.matvec(t.entries, f)
    assert [type(v) for v in image] == [_apply_type(row, f) for row in rows]
    assert t.entries == tuple(tuple(row) for row in rows)
    again = HomMatrix(t.entries)
    assert again == t
    assert hash(again) == hash(t)


apply_entries = st.one_of(
    st.integers(-9, 9),
    signed_rational,
    st.floats(-8, 8, allow_nan=False, allow_infinity=False),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(sparse_homs(), st.data())
def test_apply_matches_the_dense_product(t, data):
    f = data.draw(st.lists(apply_entries, min_size=t.n, max_size=t.n))
    image = t.apply(f)
    want = oracles.matvec(t.entries, [Fraction(v) for v in f])
    assert len(image) == t.m
    for got, value, row in zip(image, want, t.entries):
        assert type(got) is _apply_type(row, f)
        assert got == value
    wrong = data.draw(st.integers(0, t.n + 2).filter(lambda k: k != t.n))
    with pytest.raises(ValueError):
        t.apply(f[:wrong] + [0] * (wrong - t.n))


def test_composition_operator_of_a_map():
    sierp = make_space(2, [0, 0b10, 0b11])
    ident = ContMap(discrete_space(2), sierp, [0, 1])
    assert hom_from_map(ident).entries == ((F(1), F(0)), (F(0), F(1)))
    const = ContMap(discrete_space(2), discrete_space(2), [0, 0])
    assert hom_from_map(const).entries == ((F(1), F(0)), (F(1), F(0)))
    dense = HomMatrix([[1, 0], [1, 0]])
    assert hom_from_map(const) == dense
    assert hash(hom_from_map(const)) == hash(dense)


def test_composition_operator_is_certified_by_the_constructor(monkeypatch):
    # hom_from_map has no construction path of its own
    const = ContMap(discrete_space(2), discrete_space(2), [0, 0])
    monkeypatch.setattr(comphom, "_normal_form", lambda rows: None)
    with pytest.raises(NotHomomorphism):
        hom_from_map(const)


def test_composition_operator_equals_its_dense_rows():
    maps = list(_KINDS["dismap"].exhaustive(SuiteConfig(max_points=4)))
    assert len(maps) == 494
    sixteen = discrete_space(16)
    maps.append(ContMap(sixteen, sixteen, list(range(16))))
    for m in maps:
        rows = [[int(j == y) for j in range(m.codomain.n)] for y in m.table]
        t = hom_from_map(m)
        assert t == HomMatrix(rows)
        assert (t.m, t.n, t.phi) == (m.domain.n, m.codomain.n, tuple(m.table))
        assert all(type(w) is int and w == 1 for w in t.weights)


def test_kernel_of_row_monomial_operators():
    # Ker T is the coordinate ideal that vanishes on the columns T reads
    t = HomMatrix([["2", 0, 0], [0, "1/3", 0]])
    assert comphom._columns_read(t) == 0b011
    dup = HomMatrix([[1, 0], [1, 0]])
    assert comphom._columns_read(dup) == 0b01
    for op in (t, dup):
        ker = zero_ideal(full_space(op.n), comphom._columns_read(op))
        for f in product((-1, 0, 1), repeat=op.n):
            assert member(ker, f) == (not any(op.apply(f)))


def test_conditions_hold_on_certified_operators():
    for rows in ([[2, 0], [0, 3]], [[0, 0], [1, 0]], [[0, 0]]):
        conds = hoc_conditions(HomMatrix(rows))
        assert set(conds) == {
            "chain-continuity", "directed-sups", "kernel-band",
            "band-preimages", "image-dd",
        }
        assert all(conds.values())


def test_conditions_never_classify_a_sublattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("hoc_conditions called classify_sublattice")

    monkeypatch.setattr(comphom, "classify_sublattice", refuse)
    for rows in ([[2, 0], [0, 3]], [[0, 0], [1, 0]], [[0, 0]], [[0, 1, 0]]):
        assert all(hoc_conditions(HomMatrix(rows)).values())


@pytest.mark.parametrize("name,routine,fake", [
    ("kernel-band", "band_complement", lambda *args: None),
    ("band-preimages", "band_complement", lambda *args: None),
    ("image-dd", "member", lambda *args: False),
    # TG generates the zero lattice, so (TG)^dd holds no nonzero image
    ("image-dd", "canonical_form", lambda n, gens: funclat.canonical_form(n, [])),
    # (TG)^dd read as the zero lattice
    ("image-dd", "double_complement",
     lambda amb, e: (amb, funclat.canonical_form(amb.n, []))),
])
def test_lattice_side_condition_fails_with_its_funclat_routine(
        monkeypatch, name, routine, fake):
    # every certified operator passes all five conditions, so only a broken
    # lattice computation can show that a lattice-side condition still runs one
    # the per-dimension table is cleared so the patched routine fills it, and
    # cleared again so no later test reads what the patch left there
    t = HomMatrix([[2, 0], [0, 3]])
    assert hoc_conditions(t)[name]
    comphom._coordinate_ideals.cache_clear()
    monkeypatch.setattr(comphom, routine, fake)
    try:
        assert not hoc_conditions(t)[name]
    finally:
        monkeypatch.undo()
        comphom._coordinate_ideals.cache_clear()


class DenseOperator:
    """A stand-in for HomMatrix applying any dense matrix, negative entries
    included, and counting its applications."""

    def __init__(self, rows):
        self.rows = oracles.frac_rows(rows)
        self.m, self.n = len(rows), len(rows[0])
        self.applied = 0

    def apply(self, f):
        self.applied += 1
        return oracles.matvec(self.rows, f)

    def images(self, table):
        return [self.apply(v) for v in table]


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_directed_sups_match_the_family_reference(m, n):
    verdicts = set()
    for rows in small_matrices(m, n, entries=(-1, 0, 1, 2)):
        t = DenseOperator(rows)
        got = comphom._directed_sup_preservation(t)
        assert got == oracles.directed_sups_by_families(t.apply, n)
        verdicts.add(got)
    assert verdicts == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(signed_rational, min_size=n, max_size=n), min_size=1, max_size=3)))
def test_directed_sups_match_the_family_reference_on_drawn_matrices(rows):
    t = DenseOperator(rows)
    assert comphom._directed_sup_preservation(t) == \
        oracles.directed_sups_by_families(t.apply, t.n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_directed_sups_apply_each_probe_and_join_once(n):
    # one apply per distinct vector among the probes, their joins and the
    # subset indicators: a vector shared by several families is applied once
    t = DenseOperator([[int(i == j) for j in range(n)] for i in range(n)])
    assert comphom._directed_sup_preservation(t)
    distinct = {1: 2, 2: 6, 3: 14, 4: 24}[n]
    assert t.applied == distinct == len(comphom._directed_sup_table(n)[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 13])
def test_directed_sup_table_lists_each_vector_once(n):
    vectors, joins, indicators, sup = comphom._directed_sup_table(n)
    probes = comphom._probe_positives(n)
    pairs = comphom._probe_joins(n)
    assert len(joins) == len(pairs)
    for (i, j, k), (a, b, join) in zip(joins, pairs):
        assert (vectors[i], vectors[j]) == (probes[a], probes[b])
        assert vectors[k] == join == tuple(map(max, vectors[i], vectors[j]))
    want = set(probes) | {join for _, _, join in pairs}
    if n <= 12:
        assert sorted(vectors[k] for k in indicators) == \
            sorted(product((0, 1), repeat=n))
        assert vectors[sup] == (1,) * n
        want |= set(product((0, 1), repeat=n))
    else:
        # the indicator family is skipped above n = 12
        assert (indicators, sup) == ((), None)
    assert len(vectors) == len(want) and set(vectors) == want
    assert comphom._directed_sup_table(n) is comphom._directed_sup_table(n)


# --- the conditions against their first formulations --------------------------

def test_conditions_match_their_first_formulations_on_criterion_5():
    matrices = list(_KINDS["monohom"].exhaustive(SuiteConfig(max_points=3)))
    assert len(matrices) == 1593
    for rows in matrices:
        t = HomMatrix(rows)
        assert comphom._band_preimages(t) == oracles.band_preimages_every_subset(t)
        assert comphom._image_double_complements(t) == \
            oracles.image_double_complements(t)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_image_dd_matches_its_first_formulation_on_dense_matrices(m, n):
    for rows in small_matrices(m, n, entries=(-1, 0, 1, 2)):
        t = DenseOperator(rows)
        assert comphom._image_double_complements(t) == \
            oracles.image_double_complements(t)


def test_image_dd_matches_its_first_formulation_on_criterion_6():
    maps = list(_KINDS["dismap"].exhaustive(SuiteConfig(max_points=4)))
    assert len(maps) == 494
    for m in maps:
        t = hom_from_map(m)
        assert comphom._image_double_complements(t) == \
            oracles.image_double_complements(t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_image_dd_applies_each_basis_vector_once(n):
    # the bases of the coordinate ideals of the full space are its n unit
    # vectors, each applied once however many ideals share it
    t = DenseOperator([[int(i == j) for j in range(n)] for i in range(n)])
    assert comphom._image_double_complements(t)
    assert t.applied == n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_probe_joins_are_the_pairwise_max_of_the_probes(n):
    probes = comphom._probe_positives(n)
    want = [(i, j, tuple(map(max, probes[i], probes[j])))
            for i in range(len(probes)) for j in range(i + 1, len(probes))]
    assert list(comphom._probe_joins(n)) == want
    assert comphom._probe_joins(n) is comphom._probe_joins(n)


@pytest.mark.parametrize("rows,image_sets", [
    # e_0 maps to (1,) and e_1, e_2 to zero: the ideals vanishing on column 0
    # give the empty set, the others {(1,)}
    ([[1, 0, 0]], 2),
    ([[1, 0, 0], [2, 0, 0]], 2),
    ([[0, 0, 0]], 1),
    ([[1, 0, 0], [0, 2, 0]], 4),
    ([[1]], 2),
    ([[1, 0], [0, 1]], 4),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 8),
], ids=["col-0", "col-0-twice", "zero-row", "cols-0-1",
        "identity-1", "identity-2", "identity-3"])
def test_image_dd_closes_each_distinct_nonzero_image_set_once(
        monkeypatch, rows, image_sets):
    # from a cold table the first call closes each distinct set once; the
    # table keeps them, so a second call closes none
    built = []
    closed = []
    real_form = comphom.canonical_form
    real_dd = comphom.double_complement
    comphom._coordinate_ideals.cache_clear()
    monkeypatch.setattr(comphom, "canonical_form",
                        lambda n, gens: built.append(n) or real_form(n, gens))
    monkeypatch.setattr(comphom, "double_complement",
                        lambda amb, e: closed.append(e) or real_dd(amb, e))
    try:
        t = HomMatrix(rows)
        assert comphom._image_double_complements(t)
        assert len(built) == len(closed) == image_sets
        assert len(set(closed)) == image_sets
        assert comphom._image_double_complements(t)
        assert len(built) == len(closed) == image_sets
    finally:
        monkeypatch.undo()
        comphom._coordinate_ideals.cache_clear()


def test_band_preimages_test_each_distinct_preimage_once(monkeypatch):
    # the first call at a dimension fills the table, one band test per
    # coordinate mask; a second call at that dimension runs none
    tested = []
    real = comphom.band_complement
    comphom._coordinate_ideals.cache_clear()
    monkeypatch.setattr(comphom, "band_complement",
                        lambda amb, e: tested.append(e.zero_mask) or real(amb, e))
    try:
        # four rows reading columns 0, 0, 2 and none
        t = HomMatrix([[1, 0, 0], [2, 0, 0], [0, 0, 3], [0, 0, 0]])
        assert comphom._band_preimages(t)
        assert sorted(tested) == list(range(8))
        tested.clear()
        assert comphom._band_preimages(HomMatrix([[0, 1, 0]]))
        assert tested == []
    finally:
        monkeypatch.undo()
        comphom._coordinate_ideals.cache_clear()


class RecordingTable:
    """A stand-in coordinate-ideal table: every mask in bad is a non-band,
    and each lookup is recorded."""

    def __init__(self, n, bad):
        self.entries = [(a not in bad, (), ()) for a in range(1 << n)]
        self.looked_up = []

    def __getitem__(self, a):
        self.looked_up.append(a)
        return self.entries[a]


def row_preimages(t):
    """The column masks that the 2^m row subsets of t read."""
    return {
        sum({1 << t.phi[i] for i in range(t.m) if a >> i & 1 and t.phi[i] is not None})
        for a in range(1 << t.m)
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_band_preimages_match_every_subset_on_identities(n):
    t = HomMatrix([[int(i == j) for j in range(n)] for i in range(n)])
    assert comphom._band_preimages(t) == oracles.band_preimages_every_subset(t)


@settings(max_examples=80, deadline=None)
@given(sparse_homs(), st.data())
def test_band_preimages_look_up_exactly_the_row_preimages(t, data):
    assert comphom._band_preimages(t) == oracles.band_preimages_every_subset(t)
    preimages = row_preimages(t)
    bad = data.draw(st.sets(st.integers(0, (1 << t.n) - 1), max_size=3))
    table = RecordingTable(t.n, bad)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comphom, "_coordinate_ideals", lambda n: table)
        verdict = comphom._band_preimages(t)
    assert verdict == preimages.isdisjoint(bad)
    if verdict:
        # every preimage is looked up once, and nothing else
        assert sorted(table.looked_up) == sorted(preimages)
    else:
        assert set(table.looked_up) <= preimages
        assert table.looked_up[-1] in bad


# --- the per-dimension coordinate-ideal table ------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_coordinate_ideal_table_matches_direct_funclat_calls(n):
    full = full_space(n)
    table = comphom._coordinate_ideals(n)
    assert len(table) == 1 << n
    stored = {}
    for a, (band, g_basis, gdd_basis) in enumerate(table):
        g = zero_ideal(full, a)
        assert band == (band_complement(full, g) is not None)
        assert type(band) is bool
        assert g_basis == tuple(solution_basis(g))
        assert gdd_basis == tuple(solution_basis(double_complement(full, g)[1]))
        # each distinct vector is one object across the whole table
        for v in g_basis + gdd_basis:
            assert stored.setdefault(v, v) is v
    assert len(stored) == n


def test_conditions_read_the_same_with_the_table_cold_and_warm():
    matrices = [HomMatrix(rows) for rows in
                _KINDS["monohom"].exhaustive(SuiteConfig(max_points=3))]
    assert len(matrices) == 1593
    cold = []
    for t in matrices:
        comphom._coordinate_ideals.cache_clear()
        cold.append(hoc_conditions(t))
    warm = [hoc_conditions(t) for t in matrices]
    assert cold == warm


def test_coordinate_ideal_table_is_untouched_by_ratio_flip():
    # the full space has no ties, so no tie ratio enters the table: not its
    # masks and verdicts, and not its bases
    comphom._coordinate_ideals.cache_clear()
    try:
        with apply_mutation("ratio-flip"):
            flipped = [comphom._coordinate_ideals(n) for n in range(1, 7)]
        comphom._coordinate_ideals.cache_clear()
        assert flipped == [comphom._coordinate_ideals(n) for n in range(1, 7)]
        for n, table in enumerate(flipped, 1):
            assert {v for entry in table for v in entry[1] + entry[2]} == {
                tuple(int(i == j) for i in range(n)) for j in range(n)}
    finally:
        comphom._coordinate_ideals.cache_clear()


def test_no_closed_image_set_outlives_a_mutation(monkeypatch):
    # the table keeps each (TG)^dd, closed from a TG that canonical_form
    # builds with funclat._tie_ratio; these operators' images tie, so
    # ratio-flip changes every TG they close.  (TG)^dd itself is a
    # coordinate ideal of the full space, so the verdict cannot show a stale
    # read: the TG systems handed to double_complement do
    ops = [HomMatrix(rows) for rows in
           ([[1], [2]], [[1, 0], [3, 0]], [[2, 0], [0, 1], [1, 0]])]
    closed = []
    real_dd = comphom.double_complement
    monkeypatch.setattr(comphom, "double_complement",
                        lambda amb, e: closed.append(e) or real_dd(amb, e))

    def image_dd():
        closed.clear()
        return [comphom._image_double_complements(t) for t in ops], list(closed)

    comphom._coordinate_ideals.cache_clear()
    try:
        plain = image_dd()
        assert plain[0] == [True] * len(ops) and plain[1]
        assert image_dd() == ([True] * len(ops), [])
        with apply_mutation("ratio-flip"):
            reused = image_dd()
            comphom._coordinate_ideals.cache_clear()
            cold = image_dd()
        assert reused == cold
        assert cold[1] != plain[1]
        assert image_dd() == plain
    finally:
        monkeypatch.undo()
        comphom._coordinate_ideals.cache_clear()


def test_theorem_table_names_a_map_class_and_a_lattice_flag():
    classes = set(MapClassification._fields)
    flags = {f.name for f in fields(SublatticeFlags)}
    assert list(comphom.CONCLUSIONS) == [
        "image_order_dense", "image_weakly_urysohn", "image_urysohn",
        "order_continuous", "image_regular",
    ]
    for licence, flag in comphom.CONCLUSIONS.values():
        assert licence in classes
        assert flag is None or flag in flags
    # only order continuity is decided by the operator's conditions
    assert [k for k, (_, f) in comphom.CONCLUSIONS.items() if f is None] == [
        "order_continuous"]


def test_certify_matches_its_first_formulation_on_criterion_6(monkeypatch):
    pulled = []
    real = comphom.classify_sublattice
    monkeypatch.setattr(comphom, "classify_sublattice",
                        lambda amb, e: pulled.append(e) or real(amb, e))
    maps = list(_KINDS["dismap"].exhaustive(SuiteConfig(max_points=4)))
    assert len(maps) == 494
    for m in maps:
        e = full_space(m.codomain.n)
        report = certify_composition(m, e)
        assert pulled[-1] == oracles.pullback_lattice(m, e)
        assert report.direct == oracles.certified_direct(m, e)


# --- certificates vs direct verdicts -------------------------------------------

def test_certify_discrete_cross_check_runs():
    const = ContMap(discrete_space(2), discrete_space(2), [0, 0])
    report = certify_composition(const, full_space(2))
    assert report.discrete
    assert set(report.conclusions) == {
        "image_order_dense", "image_weakly_urysohn", "image_urysohn",
        "order_continuous", "image_regular",
    }
    assert report.direct == report.conclusions
    assert report.certificates["skeletal"]
    assert not report.certificates["embedding"]


def test_certify_non_discrete_needs_full_lattice():
    sierp = make_space(2, [0, 0b10, 0b11])
    m = ContMap(discrete_space(2), sierp, [0, 1])
    assert not certify_composition(m, full_space(2)).discrete
    with pytest.raises(ValueError):
        certify_composition(m, canonical_form(2, [(1, 0)]))


def test_certify_discrete_needs_dense_urysohn_lattice():
    const = ContMap(discrete_space(2), discrete_space(2), [0, 0])
    with pytest.raises(ValueError):
        certify_composition(const, canonical_form(2, [(1, 0)]))
    with pytest.raises(ValueError):
        certify_composition(const, full_space(3))  # dimension mismatch


def test_certify_hypothesis_errors_keep_their_messages():
    axis = canonical_form(2, [(1, 0)])
    const = ContMap(discrete_space(2), discrete_space(2), [0, 0])
    with pytest.raises(ValueError) as err:
        certify_composition(const, axis)
    assert str(err.value) == "lattice must be order dense and Urysohn"
    sierp = make_space(2, [0, 0b10, 0b11])
    with pytest.raises(ValueError) as err:
        certify_composition(ContMap(discrete_space(2), sierp, [0, 1]), axis)
    assert str(err.value) == (
        "non-discrete codomain: only the full lattice is supported")


def test_report_guard_rejects_disagreement():
    with pytest.raises(CertificateMismatch):
        CertificateReport(
            certificates={},
            conclusions={"order_continuous": True},
            direct={"order_continuous": False},
            discrete=True,
        )
