"""Plain-text interchange records for spaces, maps, relations, lattices.

Grammar (whitespace-insensitive, # starts a line comment):

    file    = record*
    record  = [name "="] kind "{" fields "}"
    fields  = field (";" field)* [";"]        (empty body allowed)
    field   = key "=" value
    value   = integer | string | "@" name | "[" values "]"
            | kind "{" fields "}" | "{" fields "}"
    kind    = "space" | "map" | "rel" | "sublattice" | "hom"

Record kinds and their fields:

    space      { n = 3; opens = [ [], [2], [1,2], [0,1,2] ] }
    map        { domain = <space>; codomain = <space>; table = [2,0,1] }
    rel        { space = <space>; blocks = [[0,2],[1]] }
    sublattice { n = 3; zeros = [2]; ties = [ {x=1; z=0; ratio="2/1"} ] }
    sublattice { n = 3; generators = [[1,2,0]] }
    hom        { rows = [["0","2","0"],["0","0","1"]] }

A <space> is an inline space record or an @ref to a named record
defined earlier in the same file.  A field not listed for its kind, in
a record or in a tie, is an error.  Opens are sorted point lists.
Rational entries (hom rows, tie ratios) are quoted "p/q" strings: a sign,
digits and an optional "/" and digits, nothing else.  Generator entries
are integers or such strings.

Brackets nest at most MAX_NESTING deep.  A sublattice's n and a hom's row
and column counts are at most the spaces' point limit, DEFAULT_MAX_POINTS.

A text is read in one scan: one findall splits it into token texts, and the
parser reads that flat list by index.  A bad character or a too-long integer
anywhere in the text is reported before any grammar error.  No offsets are
kept; an error rescans the text up to its token for the line number.
"""

import itertools
import re
import string

from .bitset import mask_of, mask_to_list
from .comphom import HomMatrix
from .contmap import ContMap
from .equivrel import EquivRel, from_blocks
from .finspace import DEFAULT_MAX_POINTS, FinSpace, make_space
from .funclat import ConstraintSystem, _exact, canonical_form, from_constraints

# the deepest "[" and "{" nesting parsed; a legal record uses at most four
MAX_NESTING = 32


class RecordError(ValueError):
    pass


# whitespace and comments; the lookahead keeps a comment from giving back
# its tail as tokens.  Each character of a gap has one way to match, so a
# failing match backtracks in linear time.
_GAP = r"\s*(?:\#[^\n]*(?![^\n])\s*)*"
# after the gap before it: one token, or one character that starts no token
# (a bad character), or the end of the text.  Every position matches, so
# one findall reads the whole text left to right and eats the tail gap once.
# A token keeps its text (a string its quotes), so no two kinds share one;
# the end is the empty string.
_SCAN = re.compile(
    _GAP + r"""(?: ( [{}\[\]=;,@] | -?\d+ | "[^"\n]*" |
        [A-Za-z_][A-Za-z0-9_-]* | . ) | \Z )""",
    re.VERBOSE,
)
_PUNCT = frozenset("{}[]=;,@")
_IDENT_START = frozenset(string.ascii_letters + "_")


def _line(text, offset):
    return text.count("\n", 0, offset) + 1


def _value_of(tok):
    """The int or str a value token stands for, or None for a punctuation
    mark, an identifier or the end; a bad character or an integer past the
    interpreter's digit limit raises ValueError with the message."""
    if tok in _PUNCT or tok[:1] in _IDENT_START or not tok:
        return None
    if tok[0] == '"':
        if len(tok) > 1:
            return tok[1:-1]
    elif len(tok) > 1 or tok.isdecimal():  # a lone "-" is no integer
        try:
            return int(tok)
        except ValueError:
            raise ValueError("integer too long") from None
    raise ValueError("bad character %r" % tok)


class _Parser:
    """Recursive descent over the token texts of one findall.  Methods take
    the index of their first token and return the index past their last;
    a token's offset in the text is found again only for an error."""

    def __init__(self, text):
        self.text = text
        self.tokens = tokens = _SCAN.findall(text)
        try:
            # every distinct token, so the first bad one in the text is
            # reported before any grammar error
            self.values = {t: v for t in set(tokens)
                           if (v := _value_of(t)) is not None}
        except ValueError:
            for i, tok in enumerate(tokens):
                try:
                    _value_of(tok)
                except ValueError as exc:
                    raise self.error(i, str(exc)) from None
        self.env = {}

    def error(self, i, message):
        """A RecordError that names the line of token i."""
        m = next(itertools.islice(_SCAN.finditer(self.text), i, None))
        offset = m.end() if m[1] is None else m.start(1)
        return RecordError("line %d: %s" % (_line(self.text, offset), message))

    def shown(self, i):
        """Token i as an error message names it: an int or str by its
        value, the end as None."""
        tok = self.tokens[i]
        return self.values.get(tok, tok) if tok else None

    def ident(self, i):
        tok = self.tokens[i]
        if tok[:1] not in _IDENT_START:
            raise self.error(i, "expected ident, found %r" % (self.shown(i),))
        return tok

    def punct(self, i, mark):
        tok = self.tokens[i]
        if tok != mark:
            if tok not in _PUNCT:
                raise self.error(i, "expected punct, found %r" % (self.shown(i),))
            raise self.error(i, "expected %r, found %r" % (mark, tok))

    def parse_file(self):
        tokens = self.tokens
        records = []
        i = 0
        while tokens[i]:
            name = None
            kind = self.ident(i)
            if tokens[i + 1] == "=":
                if kind in KINDS:
                    raise self.error(i, "%r cannot name a record" % kind)
                name = kind
                i += 2
                kind = self.ident(i)
            if kind not in KINDS:
                raise self.error(i, "unknown record kind %r" % kind)
            fields, end = self._fields(i + 1, 1)
            obj = self._build(kind, fields, i)
            if name is not None:
                self.env[name] = obj
            records.append((name, obj))
            i = end
        if not records:
            raise RecordError("no records found")
        return records

    def _nest(self, i, depth):
        if depth > MAX_NESTING:
            raise self.error(i, "brackets nested deeper than %d" % MAX_NESTING)

    def _fields(self, i, depth):
        """The fields of a "{" body that is depth brackets deep."""
        self._nest(i, depth)
        self.punct(i, "{")
        tokens = self.tokens
        fields = {}
        i += 1
        while tokens[i] != "}":
            key = self.ident(i)
            self.punct(i + 1, "=")
            fields[key], i = self._value(i + 2, depth)
            if tokens[i] == ";":
                i += 1
            elif tokens[i] != "}":
                raise self.error(i, "expected ';' or '}'")
        return fields, i + 1

    def _value(self, i, depth):
        """A value inside depth brackets."""
        tokens = self.tokens
        values = self.values
        tok = tokens[i]
        value = values.get(tok)
        if value is not None:
            return value, i + 1
        if tok == "@":
            ref = self.ident(i + 1)
            if ref not in self.env:
                raise self.error(i + 1, "undefined name %r" % ref)
            return self.env[ref], i + 2
        if tok == "[":
            self._nest(i, depth + 1)
            items = []
            i += 1
            while (tok := tokens[i]) != "]":
                value = values.get(tok)
                if value is None:
                    value, i = self._value(i, depth + 1)
                else:
                    i += 1
                items.append(value)
                if tokens[i] == ",":
                    i += 1
                elif tokens[i] != "]":
                    raise self.error(i, "expected ',' or ']'")
            return items, i + 1
        if tok == "{":
            return self._fields(i, depth + 1)
        if tok in KINDS:
            fields, end = self._fields(i + 1, depth + 1)
            return self._build(tok, fields, i), end
        raise self.error(i, "expected a value, found %r" % (self.shown(i),))

    def _build(self, kind, fields, i):
        """The kind's object from its fields; i is the kind's token."""
        try:
            return _KIND_TABLE[kind][1](fields)
        except RecordError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise self.error(i, "bad %s record: %s" % (kind, exc)) from exc


def _takes(fields, kind, keys):
    for key in fields:
        if key not in keys:
            raise RecordError("%s record has no %r field; it takes %s"
                              % (kind, key, ", ".join(keys)))


def _need(fields, key, kind):
    if key not in fields:
        raise RecordError("%s record needs a %r field" % (kind, key))
    return fields[key]


def _point_list(value, what):
    if not isinstance(value, list) or not all(isinstance(v, int) for v in value):
        raise RecordError("%s must be a list of integers" % what)
    return value


def _points_below(value, n, what):
    """The point list, each point checked against 0..n-1 before any mask
    is built from it."""
    points = _point_list(value, what)
    for p in points:
        if not 0 <= p < n:
            raise RecordError("%s names point %d outside 0..%d" % (what, p, n - 1))
    return points


def _int_in(value, lo, hi, what):
    """value, checked to be an int in lo..hi before anything is built from
    it.  The ValueError names the field; the builder's caller adds the
    record kind and the line."""
    if not isinstance(value, int):
        raise ValueError("%s must be an integer, not %s" % (what, type(value).__name__))
    if not lo <= value <= hi:
        raise ValueError("%s %d is outside %d..%d" % (what, value, lo, hi))
    return value


def _list_of(value, what, items):
    """value, checked to be a list before anything iterates it; the
    ValueError names the field and what its items are."""
    if not isinstance(value, list):
        raise ValueError("%s must be a list of %s" % (what, items))
    return value


def _build_space(fields):
    _takes(fields, "space", ("n", "opens"))
    n = _int_in(_need(fields, "n", "space"), 1, DEFAULT_MAX_POINTS, "n")
    opens = _list_of(_need(fields, "opens", "space"), "opens", "point lists")
    masks = [mask_of(_points_below(u, n, "each open set")) for u in opens]
    return make_space(n, masks)


def _as_space(value, what):
    if not isinstance(value, FinSpace):
        raise RecordError("%s must be a space record or @ref" % what)
    return value


def _build_map(fields):
    _takes(fields, "map", ("domain", "codomain", "table"))
    dom = _as_space(_need(fields, "domain", "map"), "domain")
    cod = _as_space(_need(fields, "codomain", "map"), "codomain")
    table = _point_list(_need(fields, "table", "map"), "table")
    return ContMap(dom, cod, table)


def _build_rel(fields):
    _takes(fields, "rel", ("space", "blocks"))
    space = _as_space(_need(fields, "space", "rel"), "space")
    blocks = _need(fields, "blocks", "rel")
    if not isinstance(blocks, list):
        raise RecordError("blocks must be a list of point lists")
    return from_blocks(space, [_points_below(b, space.n, "each block")
                               for b in blocks])


def _build_sublattice(fields):
    _takes(fields, "sublattice", ("n", "zeros", "ties", "generators"))
    n = _int_in(_need(fields, "n", "sublattice"), 0, DEFAULT_MAX_POINTS, "n")
    if "generators" in fields:
        if "zeros" in fields or "ties" in fields:
            raise RecordError(
                "sublattice takes either generators or zeros/ties, not both"
            )
        gens = [tuple(_rational_list(g))
                for g in _list_of(fields["generators"], "generators", "number lists")]
        return canonical_form(n, gens)
    zeros = _point_list(fields.get("zeros", []), "zeros")
    ties = []
    for t in _list_of(fields.get("ties", []), "ties", "ties"):
        if not isinstance(t, dict):
            raise RecordError("each tie must be {x=..; z=..; ratio=\"p/q\"}")
        _takes(t, "tie", ("x", "z", "ratio"))
        ties.append((
            _int_in(_need(t, "x", "tie"), 0, n - 1, "tie x"),
            _int_in(_need(t, "z", "tie"), 0, n - 1, "tie z"),
            _rational(_need(t, "ratio", "tie")),
        ))
    return from_constraints(n, zeros=zeros, ties=ties)


# a quoted rational is "p/q" or an integer; Fraction() alone also takes
# decimal and exponent forms, and "1e10000000" builds a 33-million-bit int
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?", re.ASCII)


def _rational(value):
    """An entry by funclat's number rule: an int token stays an int, and a
    string is read as a Fraction once it matches the grammar."""
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        # the builder's caller adds the line number
        raise ValueError("Invalid literal for Fraction: %r" % (value,))
    try:
        return _exact((value,))[0]
    except ZeroDivisionError:
        raise RecordError("zero denominator in %r" % (value,)) from None


def _rational_list(value):
    if not isinstance(value, list):
        raise RecordError("expected a list of numbers")
    return [_rational(v) for v in value]


def _build_hom(fields):
    _takes(fields, "hom", ("rows",))
    rows = _need(fields, "rows", "hom")
    if not isinstance(rows, list):
        raise RecordError("rows must be a list of lists")
    _int_in(len(rows), 0, DEFAULT_MAX_POINTS, "row count")
    rows = [_rational_list(r) for r in rows]
    for r in rows:
        _int_in(len(r), 0, DEFAULT_MAX_POINTS, "column count")
    return HomMatrix(rows)


# kind -> (class of its objects, builder from its fields)
_KIND_TABLE = {
    "space": (FinSpace, _build_space),
    "map": (ContMap, _build_map),
    "rel": (EquivRel, _build_rel),
    "sublattice": (ConstraintSystem, _build_sublattice),
    "hom": (HomMatrix, _build_hom),
}
KINDS = tuple(_KIND_TABLE)


def parse_records(text):
    """All records in the file, as (name_or_None, object) pairs."""
    return _Parser(text).parse_file()


def load_record(text, kind=None):
    """The last record in the file, optionally of a required kind."""
    if kind is not None and kind not in _KIND_TABLE:
        raise ValueError("unknown record kind %r; known kinds: %s"
                         % (kind, ", ".join(KINDS)))
    records = parse_records(text)
    if kind is None:
        return records[-1][1]
    want = _KIND_TABLE[kind][0]
    for _, obj in reversed(records):
        if isinstance(obj, want):
            return obj
    raise RecordError("no %s record in the file" % kind)


def _fmt_points(mask):
    return "[%s]" % ",".join(str(x) for x in mask_to_list(mask))


def emit_space(space):
    opens = ", ".join(_fmt_points(u) for u in space.opens)
    return "space { n = %d; opens = [ %s ] }" % (space.n, opens)


def emit_map(m):
    return "map { domain = %s; codomain = %s; table = [%s] }" % (
        emit_space(m.domain),
        emit_space(m.codomain),
        ",".join(str(y) for y in m.table),
    )


def emit_rel(rel):
    blocks = ", ".join(_fmt_points(b) for b in rel.blocks)
    return "rel { space = %s; blocks = [ %s ] }" % (
        emit_space(rel.space), blocks
    )


def emit_sublattice(cs):
    parts = ["n = %d" % cs.n]
    zeros = mask_to_list(cs.zero_mask)
    if zeros:
        parts.append("zeros = [%s]" % ",".join(str(x) for x in zeros))
    ties = [
        '{x=%d; z=%d; ratio="%s"}' % (x, cs.rep[x], cs.ratio[x])
        for x in range(cs.n)
        if not cs.zero_mask >> x & 1 and cs.rep[x] != x
    ]
    if ties:
        parts.append("ties = [ %s ]" % ", ".join(ties))
    return "sublattice { %s }" % "; ".join(parts)


def emit_hom(t):
    rows = ", ".join(
        "[%s]" % ",".join('"%s"' % v for v in row) for row in t.entries
    )
    return "hom { rows = [ %s ] }" % rows
