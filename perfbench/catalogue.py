"""Fixed catalogue of CLI requests for the `cli` workload.

Record texts are written here in plain Python from a fixed catalogue seed,
without calling finlat, so the program under test only ever sees the
generated files.  Each entry is (command argv with file placeholders,
{placeholder: record text}).  The expected exit code and stdout digest of
every entry are recorded in expected.json by record_expected.py; the
workload seed only chooses the order in which entries are sent.
"""

import random

CATALOGUE_SEED = "perfbench-cli-catalogue/1"
PER_KIND = 36


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _random_stars(rng, n):
    """Stars of a random finite topology: a transitively closed relation."""
    stars = [1 << i | (rng.getrandbits(n) & rng.getrandbits(n)) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = stars[i]
            for j in _bits(stars[i]):
                grown |= stars[j]
            if grown != stars[i]:
                stars[i] = grown
                changed = True
    return stars


def _opens(stars):
    family = {0}
    for s in stars:
        family |= {m | s for m in family}
    return sorted(family)


def _points(mask):
    return "[%s]" % ",".join(str(x) for x in _bits(mask))


def space_text(stars, opens=None):
    opens = _opens(stars) if opens is None else opens
    return "space { n = %d; opens = [ %s ] }" % (
        len(stars), ", ".join(_points(u) for u in opens))


def _continuous(dom, cod, table):
    return all(
        cod[table[x]] >> table[x2] & 1
        for x in range(len(dom)) for x2 in _bits(dom[x])
    )


def _continuous_table(rng, dom, cod):
    for _ in range(60):
        table = [rng.randrange(len(cod)) for _ in dom]
        if _continuous(dom, cod, table):
            return table
    return [rng.randrange(len(cod))] * len(dom)


def _map_text(dom, cod, table):
    return "d = %s\nc = %s\nmap { domain = @d; codomain = @c; table = [%s] }" % (
        space_text(dom), space_text(cod), ",".join(str(y) for y in table))


def _discrete(n):
    return [1 << i for i in range(n)]


def _fmt():
    return ["--format", "structured"]


def _space_props(rng):
    stars = _random_stars(rng, rng.randint(2, 5))
    subset = sorted(rng.sample(range(len(stars)), rng.randint(1, len(stars))))
    argv = ["space-props", "{s}", "--subset"] + [str(x) for x in subset]
    if rng.random() < 0.5:
        argv += _fmt()
    return argv, {"s": space_text(stars)}


def _classify_map(rng):
    dom = _random_stars(rng, rng.randint(2, 4))
    cod = _random_stars(rng, rng.randint(2, 4))
    argv = ["classify-map", "{m}"] + (_fmt() if rng.random() < 0.5 else [])
    return argv, {"m": _map_text(dom, cod, _continuous_table(rng, dom, cod))}


def _quotient(rng):
    n = rng.randint(2, 5)
    stars = _random_stars(rng, n)
    labels = [0]
    for _ in range(1, n):
        labels.append(rng.randrange(max(labels) + 2))
    blocks = {}
    for x, g in enumerate(labels):
        blocks[g] = blocks.get(g, 0) | 1 << x
    text = "rel { space = %s; blocks = [ %s ] }" % (
        space_text(stars), ", ".join(_points(b) for b in blocks.values()))
    return ["quotient", "{r}"] + (_fmt() if rng.random() < 0.5 else []), {"r": text}


def _generators(rng, n, k):
    return [[rng.randint(-2, 3) for _ in range(n)] for _ in range(k)]


def _gens_text(n, gens):
    body = ", ".join("[%s]" % ",".join(str(v) for v in g) for g in gens)
    return "sublattice { n = %d; generators = [ %s ] }" % (n, body)


def _lattice_canonical(rng):
    n = rng.randint(2, 6)
    if rng.random() < 0.7:
        text = _gens_text(n, _generators(rng, n, rng.randint(1, 3)))
    else:
        zeros = sorted(rng.sample(range(n), rng.randint(0, 1)))
        ties = []
        for x in range(1, n):
            if x not in zeros and rng.random() < 0.5:
                ties.append('{x=%d; z=%d; ratio="%d/%d"}' % (
                    x, rng.randrange(x), rng.randint(1, 4), rng.randint(1, 4)))
        text = "sublattice { n = %d; zeros = [%s]; ties = [ %s ] }" % (
            n, ",".join(str(z) for z in zeros), ", ".join(ties))
    return ["lattice", "canonical", "{l}"] + (_fmt() if rng.random() < 0.5 else []), {"l": text}


def _lattice_classify(rng):
    n = rng.randint(2, 4)
    gens = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    sub = rng.sample(gens, rng.randint(1, len(gens)))
    ambient = "sublattice { n = %d }" % n if rng.random() < 0.4 else _gens_text(n, gens)
    argv = ["lattice", "classify", "{a}", "{b}"] + (_fmt() if rng.random() < 0.5 else [])
    return argv, {"a": ambient, "b": _gens_text(n, sub)}


def _rational(rng):
    return '"%d/%d"' % (rng.randint(1, 5), rng.randint(1, 3))


def _hom_check(rng):
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    rows = []
    for _ in range(m):
        row = ['"0"'] * n
        if rng.random() < 0.85:
            row[rng.randrange(n)] = _rational(rng)
        rows.append(row)
    if rng.random() < 0.35:
        # a negative entry, or two entries in one row: rejected with exit 1
        row = rows[rng.randrange(m)]
        if n == 1 or rng.random() < 0.5:
            row[rng.randrange(n)] = '"-%d"' % rng.randint(1, 3)
        else:
            a, b = rng.sample(range(n), 2)
            row[a], row[b] = _rational(rng), _rational(rng)
    text = "hom { rows = [ %s ] }" % ", ".join("[%s]" % ",".join(r) for r in rows)
    return ["hom", "check", "{h}"] + (_fmt() if rng.random() < 0.5 else []), {"h": text}


def _certify(rng):
    if rng.random() < 0.7:
        dom, cod = _discrete(rng.randint(1, 4)), _discrete(rng.randint(1, 4))
    else:
        dom, cod = _random_stars(rng, rng.randint(2, 4)), _random_stars(rng, rng.randint(2, 3))
    table = _continuous_table(rng, dom, cod)
    argv = ["certify", "{m}", "{l}"] + (_fmt() if rng.random() < 0.5 else [])
    return argv, {"m": _map_text(dom, cod, table), "l": "sublattice { n = %d }" % len(cod)}


def _malformed(rng):
    """Requests that must fail with exit code 2 (usage or parse error)."""
    stars = _random_stars(rng, 3)
    choice = rng.randrange(8)
    if choice == 0:
        return ["space-props", "{s}"], {"s": "space { n = 3; opens = [ [0], [1] ] }"}
    if choice == 1:
        return ["classify-map", "{m}"], {"m": "map { domain = @nowhere; table = [0] }"}
    if choice == 2:
        # the star of point 0 maps onto {0, 1}, outside the star of 0
        dom = [0b11, 0b10]
        cod = [0b01, 0b11]
        return ["classify-map", "{m}"], {"m": _map_text(dom, cod, [0, 1])}
    if choice == 3:
        return ["quotient", "{r}"], {"r": "rel { space = %s; blocks = [ [0], [0,1] ] }"
                                     % space_text(stars)}
    if choice == 4:
        return ["lattice", "canonical", "{l}"], {"l": "sublattice { n = 2; generators = [ [1,2,3] ] }"}
    if choice == 5:
        return ["lattice", "classify", "{a}", "{b}"], {
            "a": "sublattice { n = 2; generators = [ [1,1] ] }",
            "b": "sublattice { n = 2; generators = [ [1,0] ] }"}
    if choice == 6:
        return ["hom", "check", "{h}"], {"h": 'hom { rows = [ ["1","0"], ["1"] ] }'}
    return ["certify", "{m}", "{l}"], {"m": space_text(stars), "l": "sublattice { n = 3 }"}


KINDS = (
    ("space-props", _space_props),
    ("classify-map", _classify_map),
    ("quotient", _quotient),
    ("lattice-canonical", _lattice_canonical),
    ("lattice-classify", _lattice_classify),
    ("hom-check", _hom_check),
    ("certify", _certify),
    ("malformed", _malformed),
)


def build():
    """The catalogue as a list of (kind, argv template, files)."""
    rng = random.Random(CATALOGUE_SEED)
    out = []
    for _ in range(PER_KIND):
        for kind, make in KINDS:
            argv, files = make(rng)
            out.append((kind, argv, files))
    return out
