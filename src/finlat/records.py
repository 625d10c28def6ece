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
    sublattice { n = 3; zeros = [2]; ties = [ {x=1, z=0, ratio="2/1"} ] }
    sublattice { n = 3; generators = [[1,2,0]] }
    hom        { rows = [["0","2","0"],["0","0","1"]] }

A <space> is an inline space record or an @ref to a named record
defined earlier in the same file.  Opens are sorted point lists.
Rational entries (hom rows, tie ratios) are quoted "p/q" strings: a sign,
digits and an optional "/" and digits, nothing else.  Generator entries
are integers or such strings.

Brackets nest at most MAX_NESTING deep.  A sublattice's n and a hom's row
and column counts are at most the spaces' point limit, DEFAULT_MAX_POINTS.
"""

import re

from .bitset import mask_of, mask_to_list
from .comphom import HomMatrix
from .contmap import ContMap
from .equivrel import EquivRel, from_blocks
from .finspace import (
    DEFAULT_MAX_POINTS, FinSpace, SpaceTooLarge, _check_n, make_space,
)
from .funclat import ConstraintSystem, _exact, canonical_form, from_constraints

# the deepest "[" and "{" nesting parsed; a legal record uses at most four
MAX_NESTING = 32


class RecordError(ValueError):
    pass


# whitespace and comments; the lookahead keeps a comment from giving back
# its tail as tokens.  Each character of a gap has one way to match, so a
# failing match backtracks in linear time.
_GAP = r"\s*(?:\#[^\n]*(?![^\n])\s*)*"
_SKIP = re.compile(_GAP)
# one token, after the gap before it
_TOKEN = re.compile(
    _GAP + r"""(?: (?P<int>-?\d+) | (?P<str>"[^"\n]*") |
        (?P<ident>[A-Za-z_][A-Za-z0-9_-]*) | (?P<punct>[{}\[\]=;,@]) )""",
    re.VERBOSE,
)


def _line(text, offset):
    return text.count("\n", 0, offset) + 1


def _tokenize(text):
    """(type, value, offset) triples, ending with an "end" token."""
    out = []
    pos = 0
    while m := _TOKEN.match(text, pos):
        pos = m.end()
        kind = m.lastgroup
        value = m[kind]
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # past the interpreter's digit limit
                raise RecordError(
                    "line %d: integer too long" % _line(text, m.start(kind))
                ) from None
        elif kind == "str":
            value = value[1:-1]
        out.append((kind, value, m.start(kind)))
    pos = _SKIP.match(text, pos).end()
    if pos < len(text):
        raise RecordError(
            "line %d: bad character %r" % (_line(text, pos), text[pos])
        )
    out.append(("end", None, pos))
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.env = {}

    def error(self, tok, message):
        """A RecordError that names the line of tok."""
        return RecordError("line %d: %s" % (_line(self.text, tok[2]), message))

    def peek(self):
        return self.tokens[self.i]

    def take(self, ttype=None, value=None):
        tok = self.tokens[self.i]
        if ttype is not None and tok[0] != ttype:
            raise self.error(tok, "expected %s, found %r" % (ttype, tok[1]))
        if value is not None and tok[1] != value:
            raise self.error(tok, "expected %r, found %r" % (value, tok[1]))
        self.i += 1
        return tok

    def parse_file(self):
        records = []
        while self.peek()[0] != "end":
            name = None
            tok = self.take("ident")
            if self.peek()[:2] == ("punct", "="):
                if tok[1] in KINDS:
                    raise self.error(tok, "%r cannot name a record" % tok[1])
                name = tok[1]
                self.take("punct", "=")
                tok = self.take("ident")
            if tok[1] not in KINDS:
                raise self.error(tok, "unknown record kind %r" % tok[1])
            obj = self._build(tok[1], self._fields(1), tok)
            if name is not None:
                self.env[name] = obj
            records.append((name, obj))
        if not records:
            raise RecordError("no records found")
        return records

    def _nest(self, depth):
        if depth > MAX_NESTING:
            raise self.error(self.peek(),
                             "brackets nested deeper than %d" % MAX_NESTING)

    def _fields(self, depth):
        """The fields of a "{" body that is depth brackets deep."""
        self._nest(depth)
        self.take("punct", "{")
        fields = {}
        while True:
            tok = self.peek()
            if tok[:2] == ("punct", "}"):
                self.take()
                return fields
            key = self.take("ident")
            self.take("punct", "=")
            fields[key[1]] = self._value(depth)
            if self.peek()[:2] == ("punct", ";"):
                self.take()
            elif self.peek()[:2] != ("punct", "}"):
                raise self.error(self.peek(), "expected ';' or '}'")

    def _value(self, depth):
        """A value inside depth brackets."""
        tok = self.peek()
        ttype, val = tok[0], tok[1]
        if ttype in ("int", "str"):
            self.take()
            return val
        if (ttype, val) == ("punct", "@"):
            self.take()
            ref = self.take("ident")
            if ref[1] not in self.env:
                raise self.error(ref, "undefined name %r" % ref[1])
            return self.env[ref[1]]
        if (ttype, val) == ("punct", "["):
            self._nest(depth + 1)
            self.take()
            items = []
            while self.peek()[:2] != ("punct", "]"):
                items.append(self._value(depth + 1))
                if self.peek()[:2] == ("punct", ","):
                    self.take()
                elif self.peek()[:2] != ("punct", "]"):
                    raise self.error(self.peek(), "expected ',' or ']'")
            self.take()
            return items
        if (ttype, val) == ("punct", "{"):
            return self._fields(depth + 1)
        if ttype == "ident" and val in KINDS:
            self.take()
            return self._build(val, self._fields(depth + 1), tok)
        raise self.error(tok, "expected a value, found %r" % (val,))

    def _build(self, kind, fields, tok):
        """The kind's object from its fields; tok is the kind's token."""
        try:
            return _KIND_TABLE[kind][1](fields)
        except RecordError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise self.error(tok, "bad %s record: %s" % (kind, exc)) from exc


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


def _build_space(fields):
    n = _need(fields, "n", "space")
    opens = _need(fields, "opens", "space")
    _check_n(n)
    if n > DEFAULT_MAX_POINTS:
        raise SpaceTooLarge("n=%d exceeds the configured limit %d"
                            % (n, DEFAULT_MAX_POINTS))
    masks = [mask_of(_points_below(u, n, "each open set")) for u in opens]
    return make_space(n, masks)


def _as_space(value, what):
    if not isinstance(value, FinSpace):
        raise RecordError("%s must be a space record or @ref" % what)
    return value


def _build_map(fields):
    dom = _as_space(_need(fields, "domain", "map"), "domain")
    cod = _as_space(_need(fields, "codomain", "map"), "codomain")
    table = _point_list(_need(fields, "table", "map"), "table")
    return ContMap(dom, cod, table)


def _build_rel(fields):
    space = _as_space(_need(fields, "space", "rel"), "space")
    blocks = _need(fields, "blocks", "rel")
    if not isinstance(blocks, list):
        raise RecordError("blocks must be a list of point lists")
    return from_blocks(space, [_points_below(b, space.n, "each block")
                               for b in blocks])


def _dimension(value, what):
    """value, checked against the spaces' point limit before anything of
    that size is built."""
    if value > DEFAULT_MAX_POINTS:
        raise RecordError("%s %d exceeds the limit %d"
                          % (what, value, DEFAULT_MAX_POINTS))
    return value


def _build_sublattice(fields):
    n = _dimension(_need(fields, "n", "sublattice"), "sublattice n")
    if "generators" in fields:
        if "zeros" in fields or "ties" in fields:
            raise RecordError(
                "sublattice takes either generators or zeros/ties, not both"
            )
        gens = [tuple(_rational_list(g)) for g in fields["generators"]]
        return canonical_form(n, gens)
    zeros = _point_list(fields.get("zeros", []), "zeros")
    ties = []
    for t in fields.get("ties", []):
        if not isinstance(t, dict):
            raise RecordError("each tie must be {x=..; z=..; ratio=\"p/q\"}")
        ties.append((
            _need(t, "x", "tie"),
            _need(t, "z", "tie"),
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
    rows = _need(fields, "rows", "hom")
    if not isinstance(rows, list):
        raise RecordError("rows must be a list of lists")
    _dimension(len(rows), "hom row count")
    rows = [_rational_list(r) for r in rows]
    for r in rows:
        _dimension(len(r), "hom column count")
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
