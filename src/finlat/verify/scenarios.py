"""Two worked end-to-end scenarios built from the package's own pieces.

Interleaving scenario: points are eventually-constant binary sequences cut to
a finite depth, written (word, tail) with the trailing constant stripped.  The
plain relation merges the two expansions of every dyadic rational; two more
relations are its images under the pair-swap reindexings (even-aligned and
odd-aligned).  Joining all three is expected to put every point that fits the
depth bound minus two into a single class, with exactly two exceptions: the
constant sequences, which have unique expansions and are fixed by both
reindexings, so no edge ever touches them.  The oracle replays a deterministic
merge sequence edge by edge and the resulting class is compared against both
the scenario's union-find and the closed-form expected set.

Grid scenario: the face poset of a k-by-k square complex, diagonal cells split
into two triangles, with a segment of k edges glued to the corner vertex.
Faces are ordered by vertex-token inclusion and the space is the preorder of
cofaces.  Collapsing vertical lines (or horizontal ones) gives a skeletal
quotient map; collapsing both at once crushes the square to one class whose
image point is closed with empty interior, so the joint quotient is not
skeletal.  A variant also glues the segment onto the diagonal and reports the
classification of the meet quotient.
"""

from dataclasses import asdict, dataclass
import json

from ..bitset import bit, bits
from .. import contmap
from .. import equivrel
from ..finspace import from_stars

INTERO_SCHEMA = "finlat-intero-report/1"
GRID_SCHEMA = "finlat-grid-report/1"
# the largest sizes built; each +2 in depth or +8 in k costs about 5x the time
MAX_INTERO_DEPTH = 16
MAX_GRID_K = 16


class _Report:
    """A scenario report: it passes when no check failed."""

    @property
    def ok(self):
        return not self.failures

    def to_structured(self):
        return {**asdict(self), "ok": self.ok}


# ---------------------------------------------------------------------------
# interleaving scenario

def _canon(word, tail):
    w = list(word)
    while w and w[-1] == tail:
        w.pop()
    return tuple(w), tail


def _universe(depth):
    out = []
    for tail in (0, 1):
        out.append(((), tail))
    for length in range(1, depth):
        for code in range(1 << length):
            word = tuple(code >> (length - 1 - i) & 1 for i in range(length))
            for tail in (0, 1):
                if word[-1] != tail:
                    out.append((word, tail))
    return sorted(out, key=lambda p: (len(p[0]), p[0], p[1]))


def _swap_even(point):
    """Swap coordinate pairs (0,1), (2,3), ...; an involution."""
    word, tail = point
    w = list(word)
    if len(w) % 2:
        w.append(tail)
    for i in range(0, len(w) - 1, 2):
        w[i], w[i + 1] = w[i + 1], w[i]
    return _canon(w, tail)


def _swap_odd(point):
    """Fix coordinate 0 and swap pairs (1,2), (3,4), ...; an involution."""
    word, tail = point
    w = list(word)
    if len(w) % 2 == 0:
        w.append(tail)
    for i in range(1, len(w) - 1, 2):
        w[i], w[i + 1] = w[i + 1], w[i]
    return _canon(w, tail)


def _point_name(point):
    word, tail = point
    return "%s^%d" % ("".join(str(b) for b in word), tail)


def intero_edges(depth):
    """The three edge families, each a list of point pairs in a fixed order."""
    inside = set(_universe(depth))
    plain = []
    for length in range(depth - 1):
        for code in range(1 << length):
            w = tuple(code >> (length - 1 - i) & 1 for i in range(length))
            plain.append(((w + (1,), 0), (w + (0,), 1)))
    even = []
    odd = []
    for a, b in plain:
        pa, pb = _swap_even(a), _swap_even(b)
        if pa in inside and pb in inside:
            even.append(tuple(sorted((pa, pb))))
        pa, pb = _swap_odd(a), _swap_odd(b)
        if pa in inside and pb in inside:
            odd.append(tuple(sorted((pa, pb))))
    return {"plain": plain, "even-conj": even, "odd-conj": odd}


def _oracle_merge_sequence(points, edges):
    """Breadth-first replay from the deepest-shared point ((1,), 0).

    Yields one (edge kind, a, b) triple per newly reached point; replaying
    the triples in order against a fresh union-find rebuilds the class.
    """
    adjacency = {p: [] for p in points}
    for kind in ("plain", "even-conj", "odd-conj"):
        for a, b in edges[kind]:
            adjacency[a].append((kind, b))
            adjacency[b].append((kind, a))
    start = ((1,), 0)
    if start not in adjacency:
        return [], {start}
    seen = {start}
    frontier = [start]
    sequence = []
    while frontier:
        nxt = []
        for a in sorted(frontier, key=lambda p: (len(p[0]), p[0], p[1])):
            for kind, b in adjacency[a]:
                if b not in seen:
                    seen.add(b)
                    sequence.append((kind, a, b))
                    nxt.append(b)
        frontier = nxt
    return sequence, seen


@dataclass(frozen=True)
class InteroReport(_Report):
    depth: int
    universe: int
    edge_counts: dict
    main_class_size: int
    covered_depth: int
    missing: tuple
    extras: int
    constant_degrees: tuple
    oracle_merges: int
    failures: tuple
    notes: tuple
    schema: str = INTERO_SCHEMA

    def to_text(self):
        lines = [
            "interleaving scenario, depth %d" % self.depth,
            "points: %d, edges: %s" % (
                self.universe,
                ", ".join("%s=%d" % kv for kv in sorted(self.edge_counts.items())),
            ),
            "main class: %d points, covering every point of depth <= %d"
            % (self.main_class_size, self.covered_depth),
            "deeper points swept along: %d" % self.extras,
            "constant sequences stay isolated (edge degrees %s)"
            % (list(self.constant_degrees),),
            "oracle replay: %d merges, %s" % (
                self.oracle_merges, "agrees" if self.ok else "DISAGREES",
            ),
        ]
        for f in self.failures:
            lines.append("failure: %s" % json.dumps(f, sort_keys=True))
        lines.extend("note: %s" % n for n in self.notes)
        lines.append("scenario: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def intero_scenario(depth=12):
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if depth > MAX_INTERO_DEPTH:
        raise ValueError("depth must be at most %d" % MAX_INTERO_DEPTH)
    points = _universe(depth)
    index = {p: i for i, p in enumerate(points)}
    edges = intero_edges(depth)

    parent = list(range(len(points)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    degrees = {p: 0 for p in points}
    for kind in ("plain", "even-conj", "odd-conj"):
        for a, b in edges[kind]:
            degrees[a] += 1
            degrees[b] += 1
            parent[find(index[a])] = find(index[b])

    failures = []
    notes = [
        "the two constant sequences have unique expansions and are fixed by "
        "both reindexings, so they sit outside every edge and stay singletons",
        "points at the deepest level may lack the headroom the merge chain "
        "needs, so the guaranteed class covers depth <= depth-2 only",
    ]

    start = ((1,), 0)
    main_root = find(index[start])
    main_class = {p for p in points if find(index[p]) == main_root}

    covered_depth = depth - 2
    missing = []
    for p in points:
        if p[0] and len(p[0]) <= covered_depth and p not in main_class:
            missing.append(_point_name(p))
    for tail in (0, 1):
        c = ((), tail)
        if degrees[c]:
            failures.append({"check": "constant-isolated", "point": _point_name(c)})
        if c in main_class:
            failures.append({"check": "constant-out-of-class", "point": _point_name(c)})
    if missing:
        failures.append({"check": "class-covers-depth", "missing": missing[:8],
                         "missing_count": len(missing)})

    sequence, reached = _oracle_merge_sequence(points, edges)
    if reached != main_class:
        failures.append({
            "check": "oracle-replay",
            "reached": len(reached),
            "union_find": len(main_class),
        })

    extras = sum(1 for p in main_class if len(p[0]) > covered_depth)
    return InteroReport(
        depth=depth,
        universe=len(points),
        edge_counts={k: len(v) for k, v in edges.items()},
        main_class_size=len(main_class),
        covered_depth=covered_depth,
        missing=tuple(missing),
        extras=extras,
        constant_degrees=(degrees[((), 0)], degrees[((), 1)]),
        oracle_merges=len(sequence),
        failures=tuple(failures),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# grid scenario

def _grid_faces(k):
    """Face name -> frozenset of vertex tokens, diagonal cells triangulated."""
    faces = {}
    for i in range(k + 1):
        for j in range(k + 1):
            faces["V(%d,%d)" % (i, j)] = frozenset({("v", i, j)})
    for i in range(k):
        for j in range(k + 1):
            faces["H(%d,%d)" % (i, j)] = frozenset({("v", i, j), ("v", i + 1, j)})
    for i in range(k + 1):
        for j in range(k):
            faces["W(%d,%d)" % (i, j)] = frozenset({("v", i, j), ("v", i, j + 1)})
    for i in range(k):
        for j in range(k):
            corners = frozenset({
                ("v", i, j), ("v", i + 1, j), ("v", i, j + 1), ("v", i + 1, j + 1),
            })
            if i != j:
                faces["Q(%d,%d)" % (i, j)] = corners
            else:
                faces["D(%d)" % i] = frozenset({("v", i, i), ("v", i + 1, i + 1)})
                faces["TL(%d)" % i] = frozenset({
                    ("v", i, i), ("v", i + 1, i), ("v", i + 1, i + 1),
                })
                faces["TH(%d)" % i] = frozenset({
                    ("v", i, i), ("v", i, i + 1), ("v", i + 1, i + 1),
                })
    for t in range(1, k + 1):
        faces["S(%d)" % t] = frozenset({("s", t)})
        prev = frozenset({("v", 0, 0)}) if t == 1 else frozenset({("s", t - 1)})
        faces["E(%d)" % t] = prev | {("s", t)}
    return faces


def grid_space(k):
    """The face preorder as a finite space plus the name list in point order."""
    faces = _grid_faces(k)
    names = sorted(faces)
    tokens = [faces[name] for name in names]
    stars = []
    for i, ti in enumerate(tokens):
        s = 0
        for j, tj in enumerate(tokens):
            if ti <= tj:
                s |= bit(j)
        stars.append(s)
    space = from_stars(len(names), stars)
    return space, names


def _blocks_from_names(names, groups):
    index = {name: i for i, name in enumerate(names)}
    blocks = []
    for group in groups:
        m = 0
        for name in group:
            m |= bit(index[name])
        blocks.append(m)
    return blocks


def _line_groups(k, axis):
    """Vertical (axis 0) or horizontal (axis 1) collapse of the square part."""
    groups = []
    for c in range(k + 1):
        line = ["V(%d,%d)" % ((c, j) if axis == 0 else (j, c)) for j in range(k + 1)]
        edge = "W" if axis == 0 else "H"
        line += [edge + "(%d,%d)" % ((c, j) if axis == 0 else (j, c)) for j in range(k)]
        groups.append(line)
    for c in range(k):
        edge = "H" if axis == 0 else "W"
        strip = [edge + "(%d,%d)" % ((c, j) if axis == 0 else (j, c)) for j in range(k + 1)]
        strip += [
            "Q(%d,%d)" % ((c, j) if axis == 0 else (j, c))
            for j in range(k) if j != c
        ]
        strip += ["D(%d)" % c, "TL(%d)" % c, "TH(%d)" % c]
        groups.append(strip)
    for t in range(1, k + 1):
        groups.append(["S(%d)" % t])
        groups.append(["E(%d)" % t])
    return groups


def _flags_of(m):
    cls = contmap.classify_map(m)
    return {
        name: getattr(cls, name)
        for name in ("weakly_open", "almost_open", "skeletal",
                     "strongly_skeletal", "quotient_map", "closed_map")
    }


@dataclass(frozen=True)
class GridReport(_Report):
    k: int
    faces: int
    quotients: dict
    assertions: tuple
    failures: tuple
    notes: tuple
    schema: str = GRID_SCHEMA

    def to_text(self):
        lines = ["grid scenario, k = %d (%d faces)" % (self.k, self.faces)]
        for name in sorted(self.quotients):
            info = self.quotients[name]
            flagged = ", ".join(
                f for f, v in sorted(info["flags"].items()) if v
            ) or "none"
            lines.append(
                "%-12s blocks=%-3d flags: %s" % (name, info["blocks"], flagged)
            )
        for name, expected, got in self.assertions:
            mark = "ok" if expected == got else "FAILED"
            lines.append("assert %-28s expected %-5s got %-5s %s"
                         % (name, expected, got, mark))
        lines.extend("note: %s" % n for n in self.notes)
        lines.append("scenario: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def grid_scenario(k=4):
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_GRID_K:
        raise ValueError("k must be at most %d" % MAX_GRID_K)
    space, names = grid_space(k)
    vertical = equivrel.EquivRel(
        space, _blocks_from_names(names, _line_groups(k, 0)))
    horizontal = equivrel.EquivRel(
        space, _blocks_from_names(names, _line_groups(k, 1)))

    def chained(pairs, *rels):
        # the relation generated by pairs and the blocks of rels
        pairs = list(pairs)
        for rel in rels:
            for b in rel.blocks:
                run = list(bits(b))
                pairs.extend(zip(run, run[1:]))
        return equivrel.from_pairs(space, pairs)

    joined = chained((), vertical, horizontal)

    index = {name: i for i, name in enumerate(names)}
    diag_pairs = []
    for t in range(1, k + 1):
        diag_pairs.append((index["S(%d)" % t], index["V(%d,%d)" % (t, t)]))
        diag_pairs.append((index["E(%d)" % t], index["D(%d)" % (t - 1)]))
    vertical_d = chained(diag_pairs, vertical)
    horizontal_d = chained(diag_pairs, horizontal)

    quotients = {}
    for name, rel in (("vertical", vertical), ("horizontal", horizontal),
                      ("join", joined), ("vertical+diag", vertical_d),
                      ("horizontal+diag", horizontal_d),
                      ("meet+diag", equivrel.meet(vertical_d, horizontal_d))):
        _, projection = equivrel.quotient(rel)
        quotients[name] = {"blocks": len(rel.blocks), "flags": _flags_of(projection)}
    flag_sets = {name: q["flags"] for name, q in quotients.items()}

    notes = [
        "faces are ordered by vertex-token inclusion; opens are the coface "
        "up-sets, so quotients run on star tables only",
        "the diagonal variant glues the segment onto the diagonal cells and "
        "is reported without assertions",
    ]
    assertions = []
    failures = []
    if k >= 2:
        expected = (
            ("vertical skeletal", True, flag_sets["vertical"]["skeletal"]),
            ("horizontal skeletal", True, flag_sets["horizontal"]["skeletal"]),
            ("join skeletal", False, flag_sets["join"]["skeletal"]),
            ("join almost_open", False, flag_sets["join"]["almost_open"]),
        )
        assertions.extend(expected)
        for name, want, got in expected:
            if want != got:
                failures.append({"check": name, "expected": want, "got": got})
    else:
        notes.append("k = 1 leaves no off-diagonal cell to witness the join "
                     "breakdown, so the run is report-only")

    return GridReport(
        k=k,
        faces=space.n,
        quotients=quotients,
        assertions=tuple(assertions),
        failures=tuple(failures),
        notes=tuple(notes),
    )
