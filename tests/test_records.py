import signal
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import spaces_upto
from finlat import (
    ConstraintSystem,
    ContMap,
    EquivRel,
    FinSpace,
    HomMatrix,
    RecordError,
    canonical_form,
    enumerate_continuous_maps,
    from_blocks,
    load_record,
    make_space,
    parse_records,
)
from finlat.equivrel import _partitions_of
from finlat.records import (
    KINDS,
    _rational,
    emit_hom,
    emit_map,
    emit_rel,
    emit_space,
    emit_sublattice,
)


# --- parsing fixtures ---------------------------------------------------------

def test_parse_single_space():
    space = load_record("space { n = 2; opens = [ [], [1], [0,1] ] }", "space")
    assert isinstance(space, FinSpace)
    assert space.opens == (0, 0b10, 0b11)


def test_named_references_resolve():
    text = """
    base = space { n = 2; opens = [ [], [0], [0,1] ] }
    map { domain = @base; codomain = @base; table = [0,0] }
    rel { space = @base; blocks = [ [0,1] ] }
    """
    objs = [obj for _, obj in parse_records(text)]
    assert isinstance(objs[0], FinSpace)
    assert isinstance(objs[1], ContMap)
    assert isinstance(objs[2], EquivRel)
    assert objs[1].domain == objs[0]


def test_load_record_picks_last_of_kind():
    text = """
    space { n = 1; opens = [ [], [0] ] }
    space { n = 2; opens = [ [], [0,1] ] }
    """
    assert load_record(text).n == 2
    assert load_record(text, "space").n == 2
    with pytest.raises(RecordError):
        load_record(text, "hom")


def test_load_record_rejects_an_unknown_kind_before_parsing():
    assert KINDS == ("space", "map", "rel", "sublattice", "hom")
    message = ("unknown record kind 'bogus'; "
               "known kinds: space, map, rel, sublattice, hom")
    # the text does not parse either: the kind is checked first
    for text in ("space { n = 1; opens = [ [], [0] ] }", "$"):
        with pytest.raises(ValueError) as err:
            load_record(text, "bogus")
        assert not isinstance(err.value, RecordError)
        assert str(err.value) == message


def test_parse_errors_carry_line_numbers():
    with pytest.raises(RecordError) as err:
        parse_records("space { n = 2;\n opens = [ [0,1] ] }")
    assert "line" in str(err.value)
    with pytest.raises(RecordError):
        parse_records("widget { n = 1 }")
    with pytest.raises(RecordError):
        parse_records("map { domain = @nowhere }")
    with pytest.raises(RecordError):
        parse_records("")


def test_comments_are_skipped_whole():
    text = "# space { n = 9 }\nspace { n = 1; opens = [ [], [0] ] } # map {\n"
    assert [(name, obj.n) for name, obj in parse_records(text)] == [(None, 1)]


@pytest.mark.parametrize("text, message", [
    ("# a\n\n  $", "line 3: bad character '$'"),
    ("space { n = 1;\n# x = 1\n opens = [[],[0]] ; ; }",
     "line 3: expected ident, found ';'"),
    ("space {\n n = 1 # }\n", "line 3: expected ';' or '}'"),
    ("# c\nspace { n = 2;\n opens = [ [0,1] ] }",
     "line 2: bad space record: the empty set is missing from the family"),
    ("\n\nx = space { n = 1; opens = [[],[0]] }\nmap { domain = @y }",
     "line 4: undefined name 'y'"),
    ("\n" + "1" * 5000, "line 2: integer too long"),
    # a bad character or a too-long integer anywhere in the text comes
    # before any grammar error
    ("space { ; } $", "line 1: bad character '$'"),
    ("space { ; }\n" + "9" * 5000, "line 2: integer too long"),
    ('space { n = 1;\n opens = "[]] }', "line 2: bad character '\"'"),
    ("-", "line 1: bad character '-'"),
], ids=["bad-character", "after-comment", "comment-ends-line", "kind-line",
        "undefined-name", "integer-too-long", "bad-character-first",
        "long-integer-first", "unclosed-string", "lone-minus"])
def test_error_lines_count_comments_and_blank_lines(text, message):
    with pytest.raises(RecordError) as err:
        parse_records(text)
    assert str(err.value) == message


class _Overtime(Exception):
    pass


def _raise_overtime(signum, frame):
    raise _Overtime


_SPACE_1 = "space { n = 1; opens = [ [], [0] ] }"


@pytest.mark.parametrize("text, message", [
    (" " * 40 + "$", "line 1: bad character '$'"),
    ("\n" * 40 + "$", "line 41: bad character '$'"),
    ("# c\n \t" * 40 + "$", "line 41: bad character '$'"),
    (_SPACE_1 + " " * 40, None),
    (_SPACE_1 + "\n" * 40, None),
    (_SPACE_1 + "\n # c" * 40, None),
    # a scanner that retries the tail gap at each of its positions is
    # quadratic in the gap's length
    (_SPACE_1 + " " * 100_000, None),
    (_SPACE_1 + "\n" * 100_000, None),
    (_SPACE_1 + "# c\n" * 25_000, None),
    (_SPACE_1 + " " * 100_000 + "$", "line 1: bad character '$'"),
    (_SPACE_1 + "\n" * 100_000 + "$", "line 100001: bad character '$'"),
    (_SPACE_1 + "# c\n" * 25_000 + "$", "line 25001: bad character '$'"),
], ids=["spaces-bad", "newlines-bad", "comments-bad", "spaces-end",
        "newlines-end", "comments-end", "long-spaces-end", "long-newlines-end",
        "long-comments-end", "long-spaces-bad", "long-newlines-bad",
        "long-comments-bad"])
def test_long_gaps_tokenize_in_linear_time(text, message):
    # a gap pattern that can split a whitespace run several ways backtracks
    # through about 2**40 splits here; the timer turns that into a failure
    previous = signal.signal(signal.SIGALRM, _raise_overtime)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        if message is None:
            assert [obj.n for _, obj in parse_records(text)] == [1]
        else:
            with pytest.raises(RecordError) as err:
                parse_records(text)
            assert str(err.value) == message
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_sublattice_rejects_mixed_forms():
    with pytest.raises(RecordError):
        parse_records(
            'sublattice { n = 2; generators = [ [1,0] ]; zeros = [1] }'
        )


_ONE = "space { n = 1; opens = [ [], [0] ] }"


@pytest.mark.parametrize("text, message", [
    ("space { n = 1; opens = [ [], [0] ]; open = [] }",
     "space record has no 'open' field; it takes n, opens"),
    ("map { domain = %s; codomain = %s; table = [0]; tabel = [5] }" % (_ONE, _ONE),
     "map record has no 'tabel' field; it takes domain, codomain, table"),
    ("rel { space = %s; blocks = [ [0] ]; block = [] }" % _ONE,
     "rel record has no 'block' field; it takes space, blocks"),
    ("sublattice { n = 2; zero = [1] }",
     "sublattice record has no 'zero' field; it takes n, zeros, ties, generators"),
    ('sublattice { n = 3; ties = [ {x=1; z=0; ratio="2"; w=3} ] }',
     "tie record has no 'w' field; it takes x, z, ratio"),
    ('hom { rows = [ [1] ]; cols = 1 }',
     "hom record has no 'cols' field; it takes rows"),
])
def test_unknown_fields_are_refused(text, message):
    with pytest.raises(RecordError) as err:
        parse_records(text)
    assert str(err.value) == message


def test_hom_record_parses_rationals():
    t = load_record('hom { rows = [ ["1/3", 0], [0, 2] ] }', "hom")
    assert isinstance(t, HomMatrix)
    assert t.entries[0][0] == Fraction(1, 3)


@pytest.mark.parametrize("value,want", [
    ("7", Fraction(7)), ("-7", Fraction(-7)), ("+3/4", Fraction(3, 4)),
    ("-6/4", Fraction(-3, 2)), ("0", Fraction(0)), (-7, Fraction(-7)),
])
def test_rational_entries_follow_the_p_q_grammar(value, want):
    got = _rational(value)
    assert got == want
    # funclat's number rule: an int token stays an int
    assert type(got) is (int if type(value) is int else Fraction)


@pytest.mark.parametrize("text", [
    "x", "", "0.5", "1e3", " 1/2", "1/2 ", "1_0", "3/-4", "1/2/3", "0x1",
])
def test_rational_strings_outside_the_grammar_are_rejected(text):
    with pytest.raises(RecordError) as err:
        load_record('hom { rows = [ ["%s"] ] }' % text, "hom")
    assert str(err.value) == (
        "line 1: bad hom record: Invalid literal for Fraction: %r" % text)


# --- round-trips: parse(emit(x)) == x -------------------------------------------

def test_space_round_trip_exhaustive_small():
    for space in spaces_upto(3):
        assert load_record(emit_space(space), "space") == space


def test_map_round_trip_exhaustive_two_points():
    for dom in spaces_upto(2):
        for cod in spaces_upto(2):
            for m in enumerate_continuous_maps(dom, cod):
                back = load_record(emit_map(m), "map")
                assert back.table == m.table
                assert back.domain == m.domain
                assert back.codomain == m.codomain


def test_map_with_a_bool_entry_round_trips():
    # a bool entry is kept as the int it stands for, so its record replays
    dom = cod = make_space(2, [0, 0b01, 0b10, 0b11])
    m = ContMap(dom, cod, [True, 0])
    assert m.table == (1, 0)
    assert all(type(y) is int for y in m.table)
    assert emit_map(m).endswith("table = [1,0] }")
    back = load_record(emit_map(m), "map")
    assert (back.domain, back.codomain, back.table) == (dom, cod, (1, 0))


def test_rel_round_trip():
    for space in spaces_upto(3):
        for rgs in _partitions_of(space.n):
            groups = {}
            for i, g in enumerate(rgs):
                groups.setdefault(g, []).append(i)
            rel = from_blocks(space, list(groups.values()))
            back = load_record(emit_rel(rel), "rel")
            assert back == rel
            assert (back.space, back.blocks) == (space, rel.blocks)


small_vec = st.tuples(*([st.integers(-2, 2)] * 3))


@settings(max_examples=120, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=3))
def test_sublattice_round_trip(gens):
    cs = canonical_form(3, gens)
    assert load_record(emit_sublattice(cs), "sublattice") == cs


rational = st.builds(
    Fraction,
    st.integers(0, 6),
    st.integers(1, 4),
)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_hom_round_trip(m, n, data):
    rows = []
    for _ in range(m):
        row = [Fraction(0)] * n
        col = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
        if col is not None:
            row[col] = data.draw(rational)
        rows.append(row)
    t = HomMatrix(rows)
    assert load_record(emit_hom(t), "hom") == t


_SPACE = make_space(3, [0, 0b001, 0b011, 0b111])


@pytest.mark.parametrize("kind,obj,emit", [
    ("space", _SPACE, emit_space),
    ("map", ContMap(_SPACE, _SPACE, [0, 0, 2]), emit_map),
    ("rel", from_blocks(_SPACE, [[0, 2], [1]]), emit_rel),
    ("hom", HomMatrix([[0, "1/2", 0], [0, 0, 0], [3, 0, 0]]), emit_hom),
], ids=["space", "map", "rel", "hom"])
def test_round_trip_keeps_hash_and_repr(kind, obj, emit):
    # the replayed object is a new one: equal, with the same hash, and
    # printed the same way
    back = load_record(emit(obj), kind)
    assert back is not obj
    assert back == obj and hash(back) == hash(obj)
    assert repr(back) == repr(obj)
    assert repr(obj).startswith(type(obj).__name__ + "(")


# --- fuzzing: token streams drawn from the grammar --------------------------

_NAMES = st.sampled_from(("a", "b"))
_INT_TOKENS = st.one_of(
    st.integers(0, 2).map(str),
    st.integers(-3, 18).map(str),
    st.sampled_from(("-1000000000000", "1000000000000", "100000000",
                     "18446744073709551616", "9" * 5000)),
)
_STR_TOKENS = st.sampled_from(
    ('"1/0"', '"0/0"', '"1/2"', '"-3/4"', '"0"', '"2"', '"x"', '""', '"1e3"')
)
_PUNCT_TOKENS = st.sampled_from(tuple("{}[]=;,@"))
_SPACES = st.one_of(_NAMES.map("@".__add__), st.sampled_from((
    "space { n = 2; opens = [ [], [1], [0,1] ] }",
    "space { n = 2; opens = [ [], [0], [1], [0,1] ] }",
    "space { n = 1; opens = [ [], [0] ] }",
)))


def _list(item, max_size=4):
    return st.lists(item, max_size=max_size).map(
        lambda xs: "[ %s ]" % ", ".join(xs))


def _body(fields):
    """A "{ fields }" body; each (key, value strategy) is mostly kept."""
    kept = st.tuples(*(st.one_of(st.tuples(st.just(k), v), st.tuples(
        st.just(k), v), st.none()) for k, v in fields))
    return kept.map(lambda fs: "{ %s }" % "; ".join(
        "%s = %s" % f for f in fs if f is not None))


def _compound(value):
    return st.one_of(_list(value), _body([(k, value) for k in "xyz"]))


# any value at all, then each field's plausible values or any value
_VALUE = st.recursive(
    st.one_of(_INT_TOKENS, _STR_TOKENS, _SPACES), _compound, max_leaves=12)
_POINTS = _list(st.one_of(st.integers(0, 1).map(str), _INT_TOKENS), 3)
_NUMBERS = _list(st.one_of(_INT_TOKENS, _STR_TOKENS), 3)
_TIE = _body([("x", _INT_TOKENS), ("z", _INT_TOKENS), ("ratio", _STR_TOKENS)])
_FIELDS = {
    "space": [("n", _INT_TOKENS), ("opens", _list(_POINTS))],
    "map": [("domain", _SPACES), ("codomain", _SPACES), ("table", _POINTS)],
    "rel": [("space", _SPACES), ("blocks", _list(_POINTS))],
    "sublattice": [("n", _INT_TOKENS), ("generators", _list(_NUMBERS)),
                   ("zeros", _POINTS), ("ties", _list(_TIE, 2))],
    "hom": [("rows", _list(_NUMBERS))],
}
_RECORD = st.tuples(
    st.one_of(st.just(""), _NAMES.map("{} =".format)),
    st.sampled_from(sorted(_FIELDS)).flatmap(lambda k: _body(
        [(key, st.one_of(v, v, _VALUE)) for key, v in _FIELDS[k]]
    ).map((k + " ").__add__)),
).map(" ".join)
_TOKEN_SOUP = st.lists(
    st.one_of(_INT_TOKENS, _STR_TOKENS, _PUNCT_TOKENS,
              st.sampled_from(KINDS + ("n", "opens", "rows", "a", "b"))),
    max_size=40,
).map(" ".join)

_EMIT = {
    FinSpace: emit_space,
    ContMap: emit_map,
    EquivRel: emit_rel,
    ConstraintSystem: emit_sublattice,
    HomMatrix: emit_hom,
}


@settings(max_examples=400, deadline=None)
@given(st.one_of(_TOKEN_SOUP, st.lists(_RECORD, min_size=1, max_size=2).map("\n".join)))
def test_token_streams_parse_or_raise_record_error(text):
    """Any token stream gives records that emit and parse back equal, or a
    RecordError; never another exception."""
    try:
        parsed = parse_records(text)
    except RecordError:
        return
    for _, obj in parsed:
        back = load_record(_EMIT[type(obj)](obj))
        assert type(back) is type(obj)
        assert back == obj


# --- the parser against the first token-tuple parser --------------------------

# single characters that start, end or break tokens, and whole words
_CHAR_SOUP = st.lists(st.one_of(
    st.sampled_from(tuple('{}[]=;,@"#-$' + string.digits + string.ascii_letters
                          + " \n")),
    st.sampled_from(KINDS + ("n", "opens", "table", "rows", "a", "b")),
), max_size=60).map("".join)


def _outcome(parse, text):
    """The parsed (name, type, object) triples, or the exception's type
    and text."""
    try:
        return [(name, type(obj), obj) for name, obj in parse(text)]
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_TOKEN_SOUP, _CHAR_SOUP,
                 st.lists(_RECORD, min_size=1, max_size=2).map("\n".join)))
def test_parser_matches_the_reference_parser(text):
    """Equal records, or a RecordError with the same text, line included."""
    assert _outcome(parse_records, text) == _outcome(
        oracles.reference_parse_records, text)
