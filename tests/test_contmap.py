import hashlib
from itertools import chain, product
import random

import pytest

import oracles
from conftest import built_families, family_of, set_from, spaces_upto
from finlat import (
    ContMap,
    NotContinuous,
    PROCEDURES,
    classify_map,
    decide_by,
    discrete_space,
    enumerate_continuous_maps,
    from_stars,
    make_space,
    saturation,
)
from finlat import contmap, finspace
from finlat.contmap import (
    image,
    is_saturated,
    largest_open_saturated,
    preimage,
)
from finlat.finspace import SpaceTooLarge
from finlat.verify.mutations import apply_mutation
from finlat.verify.properties import SuiteConfig, _exhaustive_maps, _sample_map


def all_pairs(k):
    spaces = spaces_upto(k)
    return [(d, c) for d in spaces for c in spaces]


# --- continuity -------------------------------------------------------------

def test_enumeration_agrees_with_oracle_filter():
    for dom, cod in all_pairs(3):
        dom_family = family_of(dom)
        cod_family = family_of(cod)
        want = {
            table
            for table in product(range(cod.n), repeat=dom.n)
            if oracles.is_continuous(dom.n, dom_family, cod_family, table)
        }
        got = {m.table for m in enumerate_continuous_maps(dom, cod)}
        assert got == want


def test_contmap_rejects_discontinuous_table():
    sierp = make_space(2, [0, 0b10, 0b11])
    with pytest.raises(NotContinuous) as err:
        ContMap(sierp, discrete_space(2), [0, 1])
    # the star {0} of the image of 0 pulls back to {0}, which is not open
    assert str(err.value) == "preimage of the star of point 0 is not open"
    assert err.value.witness_open == 0b01


@pytest.mark.parametrize("table,message", [
    ([0, 1, 1], "table length must match the domain size"),
    ([0, 5], "table value 5 outside the codomain"),
    ([0.5, 0], "table value 0.5 is not an integer"),
])
def test_contmap_checks_shape_before_continuity(table, message):
    # both tables also break continuity at point 0, yet a wrong length or an
    # out-of-range value is reported first, as a plain ValueError
    sierp = make_space(2, [0, 0b10, 0b11])
    with pytest.raises(ValueError) as err:
        ContMap(sierp, discrete_space(2), table)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_enumeration_budget_guard():
    # 4^11 candidate tables exceed the budget of 2^20
    with pytest.raises(SpaceTooLarge):
        list(enumerate_continuous_maps(discrete_space(11), discrete_space(4)))


# --- image, preimage, saturation ---------------------------------------------

def test_saturation_operator_laws():
    for dom, cod in all_pairs(2):
        for m in enumerate_continuous_maps(dom, cod):
            for a in range(1 << dom.n):
                sat = saturation(m, a)
                want = oracles.saturation_of(m.table, dom.n, set_from(a))
                assert set_from(sat) == want
                assert sat & a == a
                assert saturation(m, sat) == sat
                assert is_saturated(m, a) == (sat == a)
                # the second answer for each mask reads the built lookup
                for _ in range(2):
                    assert set_from(image(m, a)) == oracles.image_of(
                        m.table, set_from(a)
                    )
                    assert set_from(preimage(m, a & cod.full)) == oracles.preimage_of(
                        m.table, dom.n, set_from(a & cod.full)
                    )
                inner = largest_open_saturated(m, a)
                assert inner & ~a == 0
                assert dom.is_open(inner) and is_saturated(m, inner)


# --- the lookups against the star definitions, as memos and as tables ------

def _star_closure(space, a):
    return sum(1 << x for x in range(space.n) if space.stars[x] & a)


def _star_interior(space, a):
    return sum(1 << x for x in range(space.n)
               if a >> x & 1 and space.stars[x] & ~a == 0)


def _star_image(m, a):
    return sum(1 << y for y in {m.table[x] for x in range(m.domain.n) if a >> x & 1})


def _star_preimage(m, b):
    return sum(1 << x for x, y in enumerate(m.table) if b >> y & 1)


def _random_stars(rng, n):
    stars = [1 << x | rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
             for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            reach = stars[x]
            for y in range(n):
                if stars[x] >> y & 1:
                    reach |= stars[y]
            if reach != stars[x]:
                stars[x] = reach
                changed = True
    return stars


def _random_map(rng, dom_n, cod_n):
    """A continuous map: the domain topology refines the one pulled back
    along a random table (the intersection of two topologies' stars is one)."""
    cod = from_stars(cod_n, _random_stars(rng, cod_n))
    table = [rng.randrange(cod_n) for _ in range(dom_n)]
    pulled = [sum(1 << x2 for x2 in range(dom_n) if cod.stars[table[x]] >> table[x2] & 1)
              for x in range(dom_n)]
    stars = [p & s for p, s in zip(pulled, _random_stars(rng, dom_n))]
    return ContMap(from_stars(dom_n, stars), cod, table)


def _agrees_with_star_definitions(m, dom_masks, cod_masks):
    for space, masks in ((m.domain, dom_masks), (m.codomain, cod_masks)):
        for a in masks:
            cl = _star_closure(space, a)
            inside = _star_interior(space, a)
            assert space.closure(a) == cl
            assert space.interior(a) == inside
    for a in dom_masks:
        assert image(m, a) == m._image[a] == _star_image(m, a)
    for b in cod_masks:
        assert preimage(m, b) == m._preimage[b] == _star_preimage(m, b)


def _fresh(m):
    return ContMap(from_stars(m.domain.n, m.domain.stars),
                   from_stars(m.codomain.n, m.codomain.stars), m.table)


def test_lookups_match_star_definitions_on_every_small_mask():
    for dom, cod in all_pairs(3):
        for m in enumerate_continuous_maps(dom, cod):
            m = _fresh(m)
            masks = range(dom.full + 1), range(cod.full + 1)
            _agrees_with_star_definitions(m, *masks)
            contmap._tabulate(m)
            _agrees_with_star_definitions(m, *masks)


@pytest.mark.parametrize("dom_n,cod_n", [(12, 12), (12, 13), (13, 12)])
def test_lookups_match_star_definitions_on_sampled_masks(dom_n, cod_n):
    rng = random.Random(dom_n + cod_n)
    for _ in range(3):
        m = _random_map(rng, dom_n, cod_n)
        dom_masks = [0, m.domain.full] + [rng.getrandbits(dom_n) for _ in range(200)]
        cod_masks = [0, m.codomain.full] + [rng.getrandbits(cod_n) for _ in range(200)]
        _agrees_with_star_definitions(m, dom_masks, cod_masks)
        contmap._tabulate(m)
        _agrees_with_star_definitions(m, dom_masks, cod_masks)


def test_only_literal_procedures_tabulate_a_map():
    # a star-based routine asks about a few masks, so it keeps the memos;
    # a literal procedure quantifies over families of up to 2^n masks
    def lookups(m):
        return (m._image, m._preimage, m.domain._closure, m.codomain._closure)

    def stores(m):
        return {type(t) is list for t in lookups(m)}

    m = _random_map(random.Random(3), 12, 12)
    # each object builds its empty memos with itself: no lookup slot is None
    assert all(isinstance(t, dict) and not t for t in lookups(m))
    classify_map(m)
    decide_by(m, "almost_open", "wo-stars")
    assert stores(m) == {False}
    decide_by(m, "almost_open", "wo-i")
    assert stores(m) == {True}
    tables = lookups(m)
    contmap._tabulate(m)  # safe to repeat: the tables are left as they are
    assert lookups(m) == tables
    wide = _random_map(random.Random(3), 13, 12)
    with pytest.raises(SpaceTooLarge):
        decide_by(wide, "almost_open", "wo-i")
    classify_map(wide)
    assert type(wide._image) is not list
    with pytest.raises(SpaceTooLarge):
        discrete_space(21).tabulate()


@pytest.mark.parametrize("dom_n,cod_n", [(12, 13), (13, 12)])
def test_operators_refuse_masks_outside_the_object(dom_n, cod_n):
    m = _random_map(random.Random(7), dom_n, cod_n)
    dom, cod = m.domain, m.codomain
    operators = [(dom.closure, dom.n), (dom.interior, dom.n),
                 (cod.closure, cod.n), (cod.interior, cod.n),
                 (lambda a: image(m, a), dom.n), (lambda b: preimage(m, b), cod.n),
                 (lambda a: saturation(m, a), dom.n)]
    # before each memo is built, after, and on the tables
    for k in range(3):
        if k == 2:
            contmap._tabulate(m)
        for op, n in operators:
            for bad in (-1, -(1 << n), 1 << n, (1 << n) | 1, 1 << (n + 5)):
                with pytest.raises(ValueError, match="not a subset of the points"):
                    op(bad)
            op(0)


# --- classification against the frozenset oracles ---------------------------

def test_class_flags_match_oracles_exhaustively():
    for dom, cod in all_pairs(3):
        dom_family = family_of(dom)
        cod_family = family_of(cod)
        for m in enumerate_continuous_maps(dom, cod):
            cls = classify_map(m)
            t = m.table
            assert cls.weakly_open == oracles.weakly_open(
                dom.n, dom_family, cod_family, t
            )
            assert cls.almost_open == oracles.almost_open(
                dom.n, cod.n, dom_family, cod_family, t
            )
            assert cls.skeletal == oracles.skeletal(
                dom.n, cod.n, dom_family, cod_family, t
            )
            assert cls.strongly_skeletal == oracles.strongly_skeletal(
                dom.n, dom_family, cod_family, t
            )
            assert cls.irreducible == oracles.irreducible(
                dom.n, cod.n, dom_family, cod_family, t
            )
            assert cls.weakly_injective == oracles.weakly_injective(
                dom.n, dom_family, t
            )
            assert cls.almost_injective == oracles.almost_injective(
                dom.n, dom_family, t
            )
            assert cls.injective == (len(set(t)) == dom.n)
            assert cls.surjective == (len(set(t)) == cod.n)


def test_two_point_discrete_to_sierpinski_frozen():
    dom = discrete_space(2)
    sierp = make_space(2, [0, 0b10, 0b11])
    cls = classify_map(ContMap(dom, sierp, [0, 1]))
    # image of the open {0} is {0}, whose closure {0} has empty interior
    assert not cls.almost_open
    assert not cls.skeletal
    assert cls.injective and cls.surjective
    assert cls.weakly_injective
    assert not cls.quotient_map


def test_identity_is_everything():
    for space in spaces_upto(3):
        cls = classify_map(ContMap(space, space, list(range(space.n))))
        assert cls.weakly_open and cls.almost_open and cls.skeletal
        assert cls.strongly_skeletal and cls.irreducible
        assert cls.embedding and cls.quotient_map
        assert cls.open_map and cls.closed_map


_CLASSIFY_IDS = {
    "weakly_open": "ao-stars", "almost_open": "wo-stars",
    "skeletal": "sk-stars", "strongly_skeletal": "ssk-stars",
    "irreducible": "irr-stars", "weakly_injective": "wi-stars",
    "almost_injective": "ai-stars", "open_map": "open-map",
    "closed_map": "closed-map", "embedding": "embedding",
    "quotient_map": "quotient-map", "injective": "injective",
    "surjective": "surjective",
}


def test_classification_record_contract():
    routines = contmap._CLASSIFY_ROUTINES
    assert tuple(routines) == contmap.MapClassification._fields
    for dom, cod in all_pairs(3):
        for m in enumerate_continuous_maps(dom, cod):
            cls = classify_map(m)
            want = {name: fn(m) for name, (_, fn) in routines.items()}
            assert {name: getattr(cls, name) for name in want} == want
            assert cls.flags() == want
            assert list(cls.flags()) == list(want)
    ids = cls.procedure_ids
    assert type(ids) is dict
    assert list(ids.items()) == list(_CLASSIFY_IDS.items())
    ids["injective"] = "changed"
    assert cls.procedure_ids == _CLASSIFY_IDS
    assert hash(cls) == hash(classify_map(m))
    with pytest.raises(AttributeError):
        cls.injective = not cls.injective
    with pytest.raises(AttributeError):
        cls.extra = True


# --- the procedure registry ---------------------------------------------------

def test_registry_contents():
    assert len(PROCEDURES) == 33
    assert {p.kind for p in PROCEDURES.values()} <= {
        "iff", "necessary", "sufficient"
    }
    targets = {p.target for p in PROCEDURES.values()}
    assert targets == {
        "weakly_open", "almost_open", "skeletal", "strongly_skeletal",
        "irreducible", "weakly_injective", "almost_injective",
    }


def test_decide_by_contract():
    dom = discrete_space(2)
    m = ContMap(dom, dom, [0, 0])
    with pytest.raises(ValueError):
        decide_by(m, "weakly_open", "no-such-procedure")
    with pytest.raises(ValueError):
        decide_by(m, "weakly_open", "irr-i")  # targets irreducible
    # mirr-i requires a closed map; this one is closed, so a verdict comes back
    assert decide_by(m, "irreducible", "mirr-i") in (True, False)
    # mirr-iii requires a discrete domain
    sierp = make_space(2, [0, 0b10, 0b11])
    ident = ContMap(sierp, sierp, [0, 1])
    assert decide_by(ident, "almost_injective", "mirr-iii") is None


def test_iff_procedures_agree_on_two_point_pairs():
    for dom, cod in all_pairs(2):
        for m in enumerate_continuous_maps(dom, cod):
            cls = classify_map(m)
            for pid, proc in sorted(PROCEDURES.items()):
                got = decide_by(m, proc.target, pid)
                if got is None:
                    continue
                want = getattr(cls, proc.target)
                if proc.kind == "iff":
                    assert got == want, (pid, m.table)
                elif proc.kind == "necessary":
                    assert got or not want, (pid, m.table)
                else:
                    assert want or not got, (pid, m.table)


# --- subspace classes, decided on the parent space -----------------------------

def _subspace_maps(points, samples):
    for dom, cod in all_pairs(points):
        yield from enumerate_continuous_maps(dom, cod)
    cfg = SuiteConfig(sample_points=4)
    for index in range(samples):
        yield _sample_map(cfg, index)


def test_subspace_procedures_match_rebuilt_maps():
    # the literal ones run through decide_by, which tabulates their spaces
    literal = {p.evaluate.__name__: p for p in PROCEDURES.values() if p.needs_family}
    seen = set()
    for m in _subspace_maps(3, 600):
        want = oracles.subspace_classes(m)
        for name, value in want.items():
            proc = literal.get(name)
            got = (decide_by(m, proc.target, proc.id) if proc
                   else getattr(contmap, name)(m))
            assert got == value, (name, m)
            seen.add((name, value))
    # every procedure meets both verdicts
    assert len(seen) == 2 * len(want)


def _refuse(*args, **kwargs):
    raise AssertionError("a map class built a derived space or map")


def test_procedures_build_no_map_or_subspace(monkeypatch):
    maps = list(_subspace_maps(2, 300))
    monkeypatch.setattr(ContMap, "__init__", _refuse)
    monkeypatch.setattr(finspace.FinSpace, "__init__", _refuse)
    monkeypatch.setattr(finspace, "subspace", _refuse)
    for m in maps:
        classify_map(m)
        for pid, proc in PROCEDURES.items():
            decide_by(m, proc.target, pid)


# --- the subset families are read only by the literal procedures ---------------

def test_classify_map_builds_no_subset_family():
    space = discrete_space(16)
    classify_map(ContMap(space, space, range(16)))
    assert built_families(space) == []


def test_star_routines_leave_fresh_spaces_untabulated():
    # a star routine that read a family would raise AttributeError on a
    # fresh space, so none may, on any of the 11,310 maps on <= 3 points
    star_procs = [p for p in PROCEDURES.values() if not p.needs_family]
    hypotheses = {p.hypothesis for p in PROCEDURES.values()} - {None}
    count = 0
    for m in _exhaustive_maps(SuiteConfig(max_points=3)):
        dom = from_stars(m.domain.n, m.domain.stars)
        cod = from_stars(m.codomain.n, m.codomain.stars)
        fresh = ContMap(dom, cod, m.table)
        classify_map(fresh)
        for hypothesis in hypotheses:
            hypothesis(fresh)
        for proc in star_procs:
            proc.evaluate(fresh)
        for space in (dom, cod):
            assert type(space._closure) is not list
            assert built_families(space) == []
        count += 1
    assert count == 11310


def test_literal_procedure_past_the_limit_builds_no_family():
    dom = discrete_space(13)
    cod = from_stars(13, (dom.full,) * 13)
    m = ContMap(dom, cod, range(13))
    with pytest.raises(SpaceTooLarge):
        decide_by(m, "weakly_open", "ao-iii")
    assert built_families(dom) == built_families(cod) == []


# --- every verdict pinned -------------------------------------------------------

def _verdict(value):
    return "-" if value is None else "1" if value else "0"


def _verdicts(m):
    procs = "".join(_verdict(decide_by(m, PROCEDURES[pid].target, pid))
                    for pid in sorted(PROCEDURES))
    flags = "".join(_verdict(v) for v in classify_map(m).flags().values())
    return procs, flags


def test_procedure_and_flag_verdicts_pinned():
    # the 11,310 exhaustive maps on at most 3 points, then 2,000 samples on 4
    cfg = SuiteConfig(max_points=3, seed=0)
    maps = chain(_exhaustive_maps(cfg),
                 (_sample_map(cfg, index) for index in range(2000)))
    digest = hashlib.sha256()
    lines = 0
    for m in maps:
        line = "%r %r %r %s %s\n" % ((m.domain.stars, m.codomain.stars, m.table)
                                     + _verdicts(m))
        digest.update(line.encode())
        lines += 1
    assert lines == 13310
    assert digest.hexdigest() == (
        "9646f195d6c0db5d9167a30fde90da674925412e97f88d1d65db343c2988ec67"
    )


def test_no_verdict_outlives_a_mutation():
    # nothing a mutation wraps may be memoized per map: under saturation-drop
    # the maps evaluated plainly answer as freshly built copies of them do
    maps = list(_exhaustive_maps(SuiteConfig(max_points=3)))[::3]
    plain = [_verdicts(m) for m in maps]
    with apply_mutation("saturation-drop"):
        reused = [_verdicts(m) for m in maps]
        fresh = [_verdicts(ContMap(m.domain, m.codomain, m.table)) for m in maps]
    assert reused == fresh
    assert any(r[1] != p[1] for r, p in zip(reused, plain))
