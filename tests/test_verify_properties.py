"""Suite runner mechanics: registry, streams, determinism, fault injection."""

import ast
from dataclasses import replace
from fractions import Fraction
import itertools
import json
import math
import multiprocessing
import os
from pathlib import Path
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finlat
from finlat import (
    comphom, contmap, discrete_space, enumerate_topologies, finspace, funclat,
)
from finlat.finspace import from_stars
from finlat.verify.mutations import MUTATIONS, apply_mutation
from finlat.verify import properties
from finlat.verify.properties import (
    _KINDS,
    _MapRefs,
    PROPERTIES,
    PROPERTY_ORDER,
    SuiteConfig,
    replay_witness,
    run_suite,
)
from finlat.verify.report import SUITE_SCHEMA

import oracles
from conftest import SUBSET_FAMILIES, family_of


EXPECTED_ORDER = (
    "P-ao", "P-wo", "P-irr", "P-wi", "P-mirr", "P-sat", "P-hier",
    "P-eqr", "P-quot", "P-eqq",
    "P-dis", "P-menag", "P-sw",
    "P-hoc", "P-hom", "P-com",
)

EXPECTED_KINDS = {
    "P-ao": "map", "P-wo": "map", "P-irr": "map", "P-wi": "map",
    "P-mirr": "map", "P-sat": "map", "P-hier": "map",
    "P-eqr": "rel", "P-quot": "rel", "P-eqq": "rel",
    "P-dis": "lattice", "P-menag": "lattice", "P-sw": "lattice",
    "P-hoc": "monohom", "P-hom": "hom", "P-com": "dismap",
}


def test_registry_frozen():
    assert PROPERTY_ORDER == EXPECTED_ORDER
    assert {pid: PROPERTIES[pid].kind for pid in PROPERTY_ORDER} == EXPECTED_KINDS
    for pid in PROPERTY_ORDER:
        assert PROPERTIES[pid].description
        assert callable(PROPERTIES[pid].check)


def _check_label(node):
    """The value a dict literal holds under "check", else None."""
    if isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if isinstance(key, ast.Constant) and key.value == "check":
                return value
    return None


def _reachable(top, qualname):
    """The definition at qualname, and every module-level function or class
    that it names, transitively."""
    parts = [p for p in qualname.split(".") if p != "<locals>"]
    node = top[parts[0]]
    for part in parts[1:]:
        node = next(n for n in ast.walk(node)
                    if isinstance(n, ast.FunctionDef) and n.name == part)
    found = {}
    todo = [node]
    while todo:
        node = todo.pop()
        if node.name not in found:
            found[node.name] = node
            todo.extend(top[n.id] for n in ast.walk(node)
                        if isinstance(n, ast.Name) and n.id in top)
    return list(found.values())


def test_failure_labels_are_declared_and_emitted():
    # labels that come from data: the name the check reads them through,
    # and the labels that data holds
    sources = {
        "P-hier": ("_HIER_FLAGS", set(properties._HIER_FLAGS)),
        "P-hoc": ("hoc_conditions", set(comphom.HOC_CONDITIONS)),
    }
    for pid, proc in contmap.PROCEDURES.items():
        suite = properties._suite_of(proc)
        sources.setdefault(suite, ("PROCEDURES", set()))[1].add(pid)
    tree = ast.parse(Path(properties.__file__).read_text(encoding="utf-8"))
    top = {n.name: n for n in tree.body
           if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    covered = set()
    for pid, spec in PROPERTIES.items():
        declared = set(spec.labels)
        assert len(declared) == len(spec.labels), pid
        assert properties.UNEXPECTED_EXCEPTION not in declared, pid
        assert spec.check.__module__ == properties.__name__, pid
        nodes = _reachable(top, spec.check.__qualname__)
        named = {n.id if isinstance(n, ast.Name) else n.attr
                 for node in nodes for n in ast.walk(node)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        literal = set()
        dynamic = False
        for node in nodes:
            for n in ast.walk(node):
                value = _check_label(n)
                if value is None:
                    continue
                covered.add(id(n))
                if isinstance(value, ast.Constant):
                    literal.add(value.value)
                else:
                    dynamic = True
        assert literal <= declared, (pid, sorted(literal - declared))
        source, from_data = sources.get(pid, (None, set()))
        assert dynamic == (source is not None), pid
        if source is not None:
            assert source in named, (pid, source)
        assert from_data <= declared, (pid, sorted(from_data - declared))
        assert declared - literal <= from_data, (
            pid, sorted(declared - literal - from_data))
    # every procedure id labels the failures of exactly one map suite
    for proc_id in contmap.PROCEDURES:
        owners = [pid for pid, spec in PROPERTIES.items() if proc_id in spec.labels]
        assert len(owners) == 1 and PROPERTIES[owners[0]].kind == "map", proc_id
    # every other failure dict of the module is the runner's own
    rest = [ast.unparse(_check_label(n)) for n in ast.walk(tree)
            if _check_label(n) is not None and id(n) not in covered]
    assert rest == ["UNEXPECTED_EXCEPTION"]
    keys = {k.value for n in ast.walk(tree) if isinstance(n, ast.Dict)
            for k in n.keys if isinstance(k, ast.Constant)}
    assert not keys & {"identity", "procedure"}


@pytest.mark.parametrize("kind", sorted(set(EXPECTED_KINDS.values())))
def test_witness_fields_rebuild_each_kind(kind):
    # the replay path of every kind, including those no mutation reaches
    assert set(_KINDS) == set(EXPECTED_KINDS.values())
    spec = _KINDS[kind]
    cfg = SuiteConfig(max_points=2)
    for instance in (next(iter(spec.exhaustive(cfg))), spec.sample(cfg, 0)):
        witness = json.loads(json.dumps(spec.describe(instance)))
        assert spec.rebuild(witness) == instance


def test_tiny_suite_passes_in_order():
    report = run_suite(max_points=2, sample_points=2, sample_budget=30,
                       lattice_dim=2, seed=3)
    assert report.ok
    assert tuple(r.property_id for r in report.results) == PROPERTY_ORDER
    for r in report.results:
        assert r.failures == 0
        assert r.witness is None
        assert r.exhaustive > 0


def test_selected_properties_kept_in_request_order():
    report = run_suite(properties=("P-sat", "P-ao"), max_points=1,
                       sample_budget=5)
    assert tuple(r.property_id for r in report.results) == ("P-sat", "P-ao")


# ---------------------------------------------------------------------------
# exhaustive stream sizes, each checked against independent arithmetic


def _oracle_map_count(max_points):
    spaces = []
    for n in range(1, max_points + 1):
        spaces.extend(enumerate_topologies(n))
    total = 0
    for dom in spaces:
        fam_d = family_of(dom)
        for cod in spaces:
            fam_c = family_of(cod)
            for table in itertools.product(range(cod.n), repeat=dom.n):
                if oracles.is_continuous(dom.n, fam_d, fam_c, table):
                    total += 1
    return total


def test_map_stream_size_matches_bruteforce():
    report = run_suite(properties=("P-ao",), max_points=2, sample_budget=0)
    assert report.results[0].exhaustive == _oracle_map_count(2)


def test_rel_stream_size_is_bell_weighted():
    # one relation per partition of each space: sum of Bell numbers over spaces
    counts = {1: 1, 2: 4}
    expected = sum(cnt * oracles.BELL[n] for n, cnt in counts.items())
    report = run_suite(properties=("P-eqr",), max_points=2, sample_budget=0)
    assert report.results[0].exhaustive == expected == 9


def test_relations_on_four_points_pass_exhaustively():
    # every relation on every space of at most 4 points: topologies(n)
    # times Bell(n), with the topology counts of criterion 1
    rels = list(properties._exhaustive_rels(SuiteConfig(max_points=4)))
    topologies = {1: 1, 2: 4, 3: 29, 4: 355}
    assert len(rels) == sum(
        cnt * oracles.BELL[n] for n, cnt in topologies.items()) == 5479
    results = properties.check_instances(("P-eqr", "P-quot", "P-eqq"), rels)
    assert [(r.property_id, r.exhaustive, r.failures) for r in results] == [
        ("P-eqr", 5479, 0), ("P-quot", 5479, 0), ("P-eqq", 5479, 0)]
    # P-eqq's lattice bridge runs only on the 23 discrete-space relations
    assert results[2].not_applicable == 5456


def test_sign_matrices_up_to_3x3_pass_exhaustively():
    homs = [
        tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(m))
        for m in (1, 2, 3) for n in (1, 2, 3)
        for flat in itertools.product((-1, 0, 1), repeat=m * n)
    ]
    assert len(homs) == sum(
        3 ** (m * n) for m in (1, 2, 3) for n in (1, 2, 3)) == 21297
    (result,) = properties.check_instances(("P-hom",), homs)
    assert (result.exhaustive, result.failures) == (21297, 0)
    # the family holds matrices HomMatrix accepts and matrices it rejects
    def accepted(rows):
        try:
            comphom.HomMatrix(rows)
        except comphom.NotHomomorphism:
            return False
        return True

    assert {accepted(rows) for rows in homs} == {True, False}


def test_operators_on_four_points_pass_exhaustively():
    # every row-monomial operator with m, n <= 4 whose rows are zero or
    # hold one entry from 1..3: (1 + 3n)^m matrices per shape.  P-hoc runs
    # the five conditions and the normal-form round trip on each
    homs = list(_KINDS["monohom"].exhaustive(SuiteConfig(max_points=4)))
    assert len(homs) == sum(
        (1 + 3 * n) ** m for m in (1, 2, 3, 4) for n in (1, 2, 3, 4)) == 45190
    (result,) = properties.check_instances(("P-hoc",), homs, workers=2)
    assert (result.exhaustive, result.failures) == (45190, 0)


@pytest.mark.parametrize("pids,workers,message", [
    (("P-sat", "P-sat"), 1, "selected more than once"),
    (("P-sat",), 0, "workers must be positive"),
    (("P-sat",), -1, "workers must be positive"),
    (("P-nope",), 1, "unknown property"),
    ((), 1, "one kind"),
    (("P-sat", "P-hoc"), 1, "one kind"),
])
def test_check_instances_refuses_a_bad_selection(pids, workers, message):
    maps = list(properties._exhaustive_maps(SuiteConfig(max_points=2)))
    with pytest.raises(ValueError, match=message):
        properties.check_instances(pids, maps, workers=workers)


def _gcd_one_vectors(n, bound=2):
    out = set()
    for vec in itertools.product(range(-bound, bound + 1), repeat=n):
        if math.gcd(*(abs(v) for v in vec)) != 1:
            continue
        for v in vec:
            if v:
                if v < 0:
                    vec = tuple(-w for w in vec)
                break
        out.add(vec)
    return out


def test_lattice_stream_size_from_alphabet_arithmetic():
    total = 0
    for n in (1, 2):
        a = len(_gcd_one_vectors(n))
        total += sum(math.comb(a + k - 1, k) for k in range(3))
    report = run_suite(properties=("P-dis",), max_points=1, sample_budget=0)
    assert report.results[0].exhaustive == total == 48


def test_hom_stream_size_is_sign_grid():
    expected = sum(3 ** (m * n) for m in (1, 2) for n in (1, 2))
    report = run_suite(properties=("P-hom",), max_points=1, sample_budget=0)
    assert report.results[0].exhaustive == expected == 102


def test_monomial_stream_size_identity():
    # each row is zero or one of n columns times a value in 1..3
    expected = sum((1 + 3 * n) ** m for n in (1, 2) for m in (1, 2))
    report = run_suite(properties=("P-hoc",), max_points=2, sample_budget=0)
    assert report.results[0].exhaustive == expected == 76


def test_dismap_stream_size_identity():
    expected = sum(c ** d for d in (1, 2) for c in (1, 2))
    report = run_suite(properties=("P-com",), max_points=2, sample_budget=0)
    assert report.results[0].exhaustive == expected == 8


def test_hypothesis_gated_checks_report_not_applicable():
    report = run_suite(properties=("P-mirr",), max_points=2, sample_budget=0)
    assert report.results[0].not_applicable > 0
    assert report.results[0].failures == 0


# ---------------------------------------------------------------------------
# procedure routing: hypothesis-gated procedures form P-mirr, the rest go
# by target; the membership is frozen as the id-prefix routing had it


SUITE_PROCEDURES = {
    "P-ao": ("ao-i", "ao-ii-dense", "ao-ii-nonempty", "ao-iii", "ao-stars"),
    "P-wo": ("sk-sat", "sk-stars", "ssk-sat", "ssk-stars", "wo-i", "wo-ii",
             "wo-iii", "wo-iv", "wo-stars", "wo-v", "wo-v-canon", "wo-vi",
             "wo-vi-some"),
    "P-irr": ("irr-i", "irr-ii", "irr-ii-dense", "irr-iii", "irr-iv",
              "irr-stars"),
    "P-wi": ("ai-stars", "wi-def", "wi-i", "wi-ii", "wi-iii", "wi-stars"),
    "P-mirr": ("mirr-i", "mirr-ii", "mirr-iii"),
}


def test_each_procedure_is_checked_by_exactly_one_suite(monkeypatch):
    original = contmap.decide_by
    seen = []

    def recording(m, class_name, procedure_id):
        seen.append(procedure_id)
        return original(m, class_name, procedure_id)

    monkeypatch.setattr(contmap, "decide_by", recording)
    m = contmap.ContMap(discrete_space(2), discrete_space(2), (0, 1))
    routed = {}
    for suite in SUITE_PROCEDURES:
        seen.clear()
        PROPERTIES[suite].check(m)
        routed[suite] = tuple(seen)
    assert routed == SUITE_PROCEDURES
    every = [pid for pids in routed.values() for pid in pids]
    assert sorted(every) == sorted(contmap.PROCEDURES)


# ---------------------------------------------------------------------------
# determinism and serialization


def test_canonical_bytes_repeatable():
    kw = dict(properties=("P-sat", "P-eqr"), max_points=2, sample_budget=40,
              sample_points=3, seed=11)
    assert run_suite(**kw).canonical_bytes() == run_suite(**kw).canonical_bytes()


def test_timing_keys_only_when_requested():
    kw = dict(properties=("P-sat",), max_points=1, sample_budget=5)
    plain = run_suite(**kw).to_structured()
    timed = run_suite(include_timing=True, **kw).to_structured()
    assert all("seconds" not in r for r in plain["results"])
    assert all("seconds" in r for r in timed["results"])


def test_structured_shape_and_text_verdict():
    report = run_suite(properties=("P-ao",), max_points=1, sample_budget=5)
    blob = json.loads(report.canonical_bytes().decode("utf-8"))
    assert blob == report.to_structured()
    assert blob["schema"] == SUITE_SCHEMA
    assert blob["ok"] is True
    assert blob["config"]["properties"] == ["P-ao"]
    text = report.to_text()
    assert "suite: PASS" in text
    assert "P-ao" in text


def test_worker_split_matches_serial_run():
    kw = dict(properties=("P-sat",), max_points=1, sample_budget=150, seed=7)
    serial = run_suite(workers=1, **kw).to_structured()["results"]
    split = run_suite(workers=2, **kw).to_structured()["results"]
    assert serial == split


# ---------------------------------------------------------------------------
# shared stream spaces


def test_stream_space_matches_a_fresh_build():
    tables = [s.stars for n in (1, 2, 3) for s in enumerate_topologies(n)]
    tables.append((0b0111, 0b0010, 0b0110, 0b1111))
    for stars in tables:
        fresh = from_stars(len(stars), stars)
        shared = properties._space(stars)
        assert shared == fresh
        assert shared.opens == fresh.opens
        assert properties._space(stars) is shared


def test_sampled_maps_share_domains_within_and_across_runs(monkeypatch):
    domains = []
    original = PROPERTIES["P-sat"]

    def recording(m):
        domains.append(m.domain)
        return original.check(m)

    monkeypatch.setitem(PROPERTIES, "P-sat", replace(original, check=recording))
    kw = dict(properties=("P-sat",), max_points=1, sample_points=3,
              sample_budget=120, seed=13)
    first = run_suite(**kw)
    in_first = len(domains)
    second = run_suite(**kw)
    assert first.ok and second.ok
    assert first.canonical_bytes() == second.canonical_bytes()
    by_stars = {}
    for d in domains:
        by_stars.setdefault(d.stars, d)
    # at most 29 tables on 3 points against 120 maps per run, so tables
    # repeat within a run, and every table recurs in the second run
    assert len(by_stars) < in_first
    assert {d.stars for d in domains[:in_first]} == {
        d.stars for d in domains[in_first:]}
    for d in domains:
        assert d is by_stars[d.stars]


def test_stream_topologies_are_enumerated_once_per_size(monkeypatch):
    calls = []
    real = properties.enumerate_topologies
    monkeypatch.setattr(properties, "enumerate_topologies",
                        lambda n: calls.append(n) or real(n))
    properties._topologies.cache_clear()
    kw = dict(properties=("P-ao", "P-eqr"), max_points=3, sample_budget=0)
    first = run_suite(**kw)
    second = run_suite(**kw)
    assert sorted(calls) == [1, 2, 3]
    assert first.canonical_bytes() == second.canonical_bytes()
    # in enumerate_topologies order, one shared stream space per table
    for n in (1, 2, 3):
        assert [s.stars for s in properties._topologies(n)] == [
            s.stars for s in real(n)]
        assert all(s is properties._space(s.stars) for s in properties._topologies(n))


def test_sampled_maps_match_the_rejection_loop_reference():
    # the sampler tests each drawn table before building a ContMap; the rng
    # draws, and so the whole sampled stream, stay those of the first loop
    cfg = SuiteConfig(seed=0)
    for index in range(2000):
        got = properties._sample_map(cfg, index)
        want = oracles.reference_sample_map(cfg, index)
        assert (got.domain, got.codomain, got.table) == (
            want.domain, want.codomain, want.table), index


def test_stream_space_cache_is_bounded_by_the_topology_count():
    # 1 + 4 + 29 + 355 labelled topologies on 1..4 points
    properties._spaces_upto(4)
    assert properties._space.cache_info().currsize == 389
    for points in (1, 2, 3, 4):
        cfg = SuiteConfig(sample_points=points, seed=points)
        for index in range(1000):
            properties._sample_map(cfg, index)
            properties._sample_rel(cfg, index)
            properties._sample_dismap(cfg, index)
    assert properties._space.cache_info().currsize == 389


def test_mutation_runs_leave_no_state_behind():
    # a clean run, a failing run under each shipped mutation, then the clean
    # run again, all in this process: the shared spaces keep nothing a
    # mutation touched
    kw = dict(max_points=2, sample_points=4, sample_budget=40, lattice_dim=2,
              seed=17)
    clean = run_suite(**kw)
    assert clean.ok
    for name in ("invert-wo-iii", "saturation-drop", "ratio-flip"):
        assert not run_suite(mutation=name, **kw).ok, name
    assert run_suite(**kw).canonical_bytes() == clean.canonical_bytes()


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize("kw", [
    {"max_points": 0},
    {"max_points": 9},
    {"sample_points": 0},
    {"lattice_dim": 99},
    {"sample_budget": -1},
    {"workers": 0},
    {"properties": ("P-nope",)},
    {"mutation": "not-a-mutation"},
    {"properties": ("P-sat", "P-sat")},
])
def test_bad_config_rejected(kw):
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(**kw))


def test_unknown_mutation_lists_known_names():
    with pytest.raises(ValueError) as err:
        with apply_mutation("bogus"):
            pass
    for name in MUTATIONS:
        assert name in str(err.value)


# ---------------------------------------------------------------------------
# fault injection: each mutation must trip its property, and the witness
# must replay to a fresh failure under the bug and to a pass without it


MUTATION_TARGETS = (
    ("invert-wo-iii", "P-wo", dict(max_points=2, sample_budget=0)),
    ("saturation-drop", "P-sat", dict(max_points=2, sample_budget=0)),
    ("ratio-flip", "P-sw", dict(max_points=1, sample_budget=0)),
)


@pytest.mark.parametrize("name,pid,kw", MUTATION_TARGETS,
                         ids=[m[0] for m in MUTATION_TARGETS])
def test_mutation_trips_target_and_witness_replays(name, pid, kw):
    report = run_suite(properties=(pid,), mutation=name, **kw)
    result = report.results[0]
    assert not report.ok
    assert result.failures > 0
    witness = result.witness
    assert witness is not None
    assert witness["property"] == pid
    with apply_mutation(name):
        assert replay_witness(witness)
    assert replay_witness(witness) == []


def test_saturation_losing_a_point_of_its_input_trips_fiber_scan(monkeypatch):
    # P-sat keeps no separate extensive check: the fiber scan contains its
    # input, so a saturation that drops a point of it differs there first
    original = contmap.saturation
    monkeypatch.setattr(contmap, "saturation",
                        lambda m, a: original(m, a) & ~(a & -a))
    result = run_suite(properties=("P-sat",), max_points=2,
                       sample_budget=0).results[0]
    # every map fails on the one-point subset {0}
    assert result.failures == result.exhaustive > 0
    witness = result.witness
    assert witness["detail"]["check"] == "fiber-scan"
    assert replay_witness(witness) == [witness["detail"]]
    monkeypatch.undo()
    assert replay_witness(witness) == []


def test_mutation_runs_in_worker_processes(start_method):
    kw = dict(properties=("P-wo",), max_points=2, sample_budget=200,
              mutation="invert-wo-iii")
    serial = run_suite(workers=1, **kw)
    split = run_suite(workers=2, **kw)
    assert split.to_structured()["results"] == serial.to_structured()["results"]
    result = split.results[0]
    # a negated iff procedure disagrees with the reference on every map,
    # so each sampled map checked in a worker counts as a failure
    assert result.sampled == 200
    assert result.failures == result.exhaustive + result.sampled
    # the earliest failing instance in stream order is the witness
    assert (result.witness["stage"], result.witness["index"]) == ("exhaustive", 0)
    with apply_mutation("invert-wo-iii"):
        assert replay_witness(result.witness)
    assert replay_witness(result.witness) == []


def test_pool_is_sized_to_its_spans(inline_pool):
    kw = dict(properties=("P-wo",), max_points=2, sample_budget=200)
    serial = run_suite(workers=1, **kw)
    split = run_suite(workers=properties.MAX_WORKERS, **kw)
    # 200 sampled maps in spans of 64 make four units of work
    assert inline_pool == [4]
    assert multiprocessing.active_children() == []
    assert split.to_structured()["results"] == serial.to_structured()["results"]


def test_workers_above_the_cap_are_refused_before_a_pool_opens(inline_pool):
    # refused by the config check alone: no pool is asked for, let alone
    # the thousands of processes such a count would start
    from finlat.verify import run_family_sweep

    too_many = properties.MAX_WORKERS + 1
    message = "workers must be at most %d" % properties.MAX_WORKERS
    with pytest.raises(ValueError, match=message):
        run_suite(properties=("P-wo",), max_points=2, sample_budget=100_000,
                  workers=too_many)
    maps = list(properties._exhaustive_maps(SuiteConfig(max_points=2)))
    with pytest.raises(ValueError, match=message):
        properties.check_instances(("P-sat",), maps, workers=too_many)
    with pytest.raises(ValueError, match=message):
        run_family_sweep(2, workers=too_many)
    assert inline_pool == []
    assert multiprocessing.active_children() == []


def test_a_mutation_is_installed_once_and_alone():
    from finlat.verify.mutations import active_mutation

    original = contmap.PROCEDURES["wo-iii"]
    kw = dict(properties=("P-wo",), max_points=2, sample_budget=0)
    alone = run_suite(mutation="invert-wo-iii", **kw).results[0].to_structured()
    assert alone["failures"] > 0
    with apply_mutation("invert-wo-iii"):
        assert active_mutation() == "invert-wo-iii"
        wrapped = contmap.PROCEDURES["wo-iii"]
        # the same mutation again is a no-op, on entry and on exit: two
        # negations would cancel out
        with apply_mutation("invert-wo-iii"):
            assert contmap.PROCEDURES["wo-iii"] is wrapped
        assert contmap.PROCEDURES["wo-iii"] is wrapped
        again = run_suite(mutation="invert-wo-iii", **kw).results[0]
        assert again.to_structured() == alone
        with pytest.raises(ValueError, match="installed already"):
            with apply_mutation("ratio-flip"):
                pass
        assert contmap.PROCEDURES["wo-iii"] is wrapped
    assert active_mutation() is None
    assert contmap.PROCEDURES["wo-iii"] is original


def test_mutation_restores_bindings_even_on_error():
    import finlat.contmap as contmap
    original = contmap.PROCEDURES["wo-iii"]
    with pytest.raises(RuntimeError):
        with apply_mutation("invert-wo-iii"):
            assert contmap.PROCEDURES["wo-iii"] is not original
            raise RuntimeError("boom")
    assert contmap.PROCEDURES["wo-iii"] is original


def test_registry_descriptions_present():
    for name, (description, owner, key, wrap) in MUTATIONS.items():
        assert description
        assert callable(wrap)
        binding = owner if isinstance(owner, dict) else vars(owner)
        assert key in binding


# ---------------------------------------------------------------------------
# the definitional sign sweep lives in P-hom and P-hoc, and the map-class
# hierarchy in P-hier, so a broken structural test or classifier must trip
# them, also under python -O


def test_broken_structural_test_trips_p_hom(monkeypatch):
    original = comphom.is_homomorphism

    def accepts_negatives(matrix):
        return original([[abs(Fraction(v)) for v in row] for row in matrix])

    monkeypatch.setattr(comphom, "is_homomorphism", accepts_negatives)
    result = run_suite(properties=("P-hom",), max_points=1,
                       sample_budget=0).results[0]
    assert result.failures > 0
    witness = result.witness
    assert witness["detail"] == {"check": "structural-vs-definitional"}
    assert replay_witness(witness) == [{"check": "structural-vs-definitional"}]
    monkeypatch.undo()
    assert replay_witness(witness) == []


signed_fraction = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def dense_rows(draw):
    """m x n rows (m, n in 1..4) of mixed-sign Fractions with distinct
    denominators, about half of them monomial, drawn from a pool so that
    rows repeat."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def row():
        if draw(st.booleans()):
            out = [Fraction(0)] * n
            out[draw(st.integers(0, n - 1))] = draw(signed_fraction)
            return tuple(out)
        return tuple(draw(st.lists(signed_fraction, min_size=n, max_size=n)))

    pool = [row() for _ in range(draw(st.integers(1, m)))]
    return tuple(pool[draw(st.integers(0, len(pool) - 1))] for _ in range(m))


@settings(max_examples=300, deadline=None)
@given(dense_rows(), st.data())
def test_scaled_sign_sweep_matches_the_fraction_sweep(rows, data):
    assert properties._definitional_homomorphism(rows) == oracles.hom_by_signs(rows)
    f = data.draw(st.lists(st.one_of(st.integers(-3, 3), signed_fraction),
                           min_size=len(rows[0]), max_size=len(rows[0])))
    breaks = any(
        abs(sum(c * v for c, v in zip(row, f))) != sum(c * abs(v) for c, v in zip(row, f))
        for row in rows
    )
    assert properties._breaks_absolute_value(rows, f) == breaks


def test_sign_sweep_decides_without_the_structural_test(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sign sweep called the structural test")

    for name in ("HomMatrix", "is_homomorphism", "_normal_form"):
        monkeypatch.setattr(comphom, name, refuse)
    verdicts = [properties._definitional_homomorphism(rows)
                for rows in _KINDS["hom"].exhaustive(SuiteConfig())]
    assert (verdicts.count(True), verdicts.count(False)) == (18, 84)


def test_structural_test_builds_no_witness(monkeypatch):
    def refuse(rows):
        raise AssertionError("the structural test built a witness")

    monkeypatch.setattr(comphom, "_first_failing_probe", refuse)
    matrices = list(_KINDS["hom"].exhaustive(SuiteConfig()))
    verdicts = [comphom.is_homomorphism(rows) for rows in matrices]
    assert (verdicts.count(True), verdicts.count(False)) == (18, 84)
    assert verdicts == [properties._definitional_homomorphism(rows)
                        for rows in matrices]


def test_constructor_witnesses_every_rejected_matrix():
    rejected = 0
    for rows in _KINDS["hom"].exhaustive(SuiteConfig()):
        exact = comphom._to_rows(rows)
        if comphom.is_homomorphism(rows):
            assert comphom._first_failing_probe(exact) is None
            continue
        rejected += 1
        with pytest.raises(comphom.NotHomomorphism) as err:
            comphom.HomMatrix(rows)
        assert err.value.witness == comphom._first_failing_probe(exact)
        assert properties._breaks_absolute_value(rows, err.value.witness)
    assert rejected == 84


def test_p_sw_computes_one_canonical_form_per_instance(monkeypatch):
    original = funclat.canonical_form
    calls = []

    def counting(n, gens):
        calls.append((n, gens))
        return original(n, gens)

    # every binding of the function, so a module that imported it by name
    # is counted too
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "finlat"
                and getattr(module, "canonical_form", None) is original):
            monkeypatch.setattr(module, "canonical_form", counting)
    result = run_suite(properties=("P-sw",), sample_budget=50).results[0]
    assert result.failures == 0
    assert result.sampled == 50
    assert len(calls) == result.exhaustive + result.sampled


def test_system_larger_than_the_closure_trips_p_sw(monkeypatch):
    # every generator is a member of the whole space, so only the closure
    # oracle can tell it from the generated sublattice
    spaces = {n: funclat.full_space(n) for n in (1, 2)}
    monkeypatch.setattr(funclat, "canonical_form", lambda n, gens: spaces[n])
    result = run_suite(properties=("P-sw",), max_points=1,
                       sample_budget=0).results[0]
    assert result.failures > 0
    witness = result.witness
    assert witness["detail"] == {"check": "closure-dimension"}
    assert replay_witness(witness) == [{"check": "closure-dimension"}]
    monkeypatch.undo()
    assert replay_witness(witness) == []


def test_disagreeing_projection_route_trips_p_eqr(monkeypatch):
    original = contmap.closed_map_stars
    monkeypatch.setattr(contmap, "closed_map_stars",
                        lambda m: not original(m))
    result = run_suite(properties=("P-eqr",), max_points=2,
                       sample_budget=0).results[0]
    assert result.failures == result.exhaustive > 0
    witness = result.witness
    assert witness["detail"]["check"] == "closed-relation-projection"
    assert replay_witness(witness) == [witness["detail"]]
    monkeypatch.undo()
    assert replay_witness(witness) == []


def test_quotient_stand_ins_trip_final_topology_and_p_hier(monkeypatch):
    # P-quot keeps no check that runs the routine the quotient was built
    # with: a broken final_star shows in the opens-family final-topology
    # check, and a broken quotient_map_stars in P-hier's reference
    def indiscrete(domain, fibers, table, y):
        return (1 << len(fibers)) - 1

    final_star = contmap.final_star
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "finlat"
                and getattr(module, "final_star", None) is final_star):
            monkeypatch.setattr(module, "final_star", indiscrete)
    result = run_suite(properties=("P-quot",), max_points=2,
                       sample_budget=0).results[0]
    assert result.failures > 0
    witness = result.witness
    assert witness["detail"]["check"] == "final-topology"
    assert replay_witness(witness) == [witness["detail"]]
    monkeypatch.undo()
    assert replay_witness(witness) == []

    original = contmap.quotient_map_stars

    def rejects_projections(m):
        return original(m) and contmap.is_injective(m)

    monkeypatch.setattr(contmap, "quotient_map_stars", rejects_projections)
    monkeypatch.setitem(contmap._CLASSIFY_ROUTINES, "quotient_map",
                        ("quotient-map", rejects_projections))
    result = run_suite(properties=("P-hier",), max_points=2,
                       sample_budget=0).results[0]
    assert result.failures > 0
    witness = result.witness
    detail = {"check": "quotient_map", "flag": False, "reference_value": True}
    assert witness["detail"] == detail
    assert replay_witness(witness) == [detail]
    monkeypatch.undo()
    assert replay_witness(witness) == []


def test_map_references_read_no_memoized_operator(monkeypatch):
    # the references must not share the closure, interior, image and
    # preimage they audit, nor the image and preimage lookups behind them
    targets = sorted({p.target for p in contmap.PROCEDURES.values()})
    assert len(targets) == 7
    spaces = [s for n in (1, 2) for s in enumerate_topologies(n)]
    maps = [(m, contmap.classify_map(m).flags())
            for d in spaces for c in spaces
            for m in contmap.enumerate_continuous_maps(d, c)]

    def refuse(*args):
        raise AssertionError("a reference read an audited operator")

    monkeypatch.setattr(finlat.FinSpace, "closure", refuse)
    monkeypatch.setattr(finlat.FinSpace, "interior", refuse)
    monkeypatch.setattr(contmap, "image", refuse)
    monkeypatch.setattr(contmap, "preimage", refuse)
    monkeypatch.setattr(contmap, "image_lookup", refuse)
    monkeypatch.setattr(contmap, "preimage_lookup", refuse)
    # nor the table builders behind the lookups: contmap binds union_table
    # by name
    monkeypatch.setattr(finspace, "union_table", refuse)
    monkeypatch.setattr(contmap, "union_table", refuse)
    monkeypatch.setattr(finlat.FinSpace, "tabulate", refuse)
    for m, flags in maps:
        refs = _MapRefs(m)
        assert {t: refs[t] for t in targets} == {t: flags[t] for t in targets}
        # the tables and opens families P-sat and P-hier read
        full = m.domain.full
        assert refs.img == refs.image[full] == oracles._image_of(m.table, full)
        assert refs.preimage[refs.img] == full
        assert refs.dom_opens == m.domain.opens
        assert refs.cod_opens == m.codomain.opens


def test_map_tables_equal_the_pointwise_definitions():
    # every entry of both tables on all 11,310 maps on <= 3 points and on
    # the first 2,000 sampled 4-point maps of seed 0
    cfg = SuiteConfig(max_points=3, sample_points=4, seed=0)
    maps = list(properties._exhaustive_maps(cfg))
    assert len(maps) == 11310
    maps += [properties._sample_map(cfg, i) for i in range(2000)]
    for m in maps:
        refs = _MapRefs(m)
        t = m.table
        dom_masks = range(m.domain.full + 1)
        assert refs.image == [oracles._image_of(t, a) for a in dom_masks]
        assert refs.preimage == [oracles._preimage_of(t, b)
                                 for b in range(m.codomain.full + 1)]
        assert ([refs.preimage[refs.image[a]] for a in dom_masks]
                == [oracles._fiber_sat(t, a) for a in dom_masks])


# the (verdict, reference) pairs each procedure kind forbids
FORBIDDEN_PAIRS = {
    "iff": {(True, False), (False, True)},
    "necessary": {(False, True)},
    "sufficient": {(True, False)},
}


@pytest.mark.parametrize("pid,kind", [
    ("ao-stars", "iff"), ("wi-i", "necessary"), ("mirr-iii", "sufficient"),
])
def test_soundness_rule_is_a_truth_table(monkeypatch, pid, kind):
    proc = contmap.PROCEDURES[pid]
    assert proc.kind == kind
    suite = PROPERTIES[properties._suite_of(proc)]
    # the discrete identity on one point meets every hypothesis
    point = discrete_space(1)
    m = contmap.ContMap(point, point, (0,))
    for got, ref in itertools.product((True, False), repeat=2):
        monkeypatch.setitem(contmap.PROCEDURES, pid,
                            replace(proc, evaluate=lambda m, got=got: got))
        monkeypatch.setattr(_MapRefs, "_" + proc.target, lambda self, ref=ref: ref)
        failures, _ = suite.check(m)
        expected = [{"check": pid, "target": proc.target, "kind": kind,
                     "procedure_value": got, "reference_value": ref}]
        assert [f for f in failures if f["check"] == pid] == (
            expected if (got, ref) in FORBIDDEN_PAIRS[kind] else [])


def test_dense_family_missing_its_least_member_trips_p_ao_and_p_wo(monkeypatch):
    # ao-iii and wo-vi-some quantify over the dense sets: one dense set
    # fewer lets ao-iii pass a map it should fail, and wo-vi-some fail one
    # it should pass
    dense_sets = finlat.FinSpace.dense_sets
    monkeypatch.setattr(finlat.FinSpace, "dense_sets",
                        property(lambda space: dense_sets.fget(space)[1:]))
    report = run_suite(properties=("P-ao", "P-wo"), max_points=3, sample_budget=0)
    results = {r.property_id: r for r in report.results}
    assert {pid: r.failures for pid, r in results.items()} == {
        "P-ao": 1676, "P-wo": 1190}
    witnesses = {pid: r.witness for pid, r in results.items()}
    assert {pid: w["detail"]["check"] for pid, w in witnesses.items()} == {
        "P-ao": "ao-iii", "P-wo": "wo-vi-some"}
    for w in witnesses.values():
        assert replay_witness(w) == [w["detail"]]
    monkeypatch.undo()
    for w in witnesses.values():
        assert replay_witness(w) == []


def test_map_references_read_no_subset_family(monkeypatch):
    # the opens-only references, P-sat and P-hier's checks, and the
    # star-based classification never read a family the literal
    # procedures quantify over
    spaces = [s for n in (1, 2, 3) for s in enumerate_topologies(n)]
    maps = [m for d in spaces for c in spaces[:8]
            for m in contmap.enumerate_continuous_maps(d, c)]

    def refuse(space):
        raise AssertionError("a reference read a subset family")

    for name in SUBSET_FAMILIES:
        monkeypatch.setattr(finlat.FinSpace, name, property(refuse))
    targets = sorted({p.target for p in contmap.PROCEDURES.values()})
    for m in maps:
        refs = _MapRefs(m)
        for t in targets:
            refs[t]
        assert properties._check_saturation(m) == ([], 0)
        assert properties._check_hierarchy(m) == ([], 0)


OPTIMIZED_SCRIPT = """
from dataclasses import replace
import json
from finlat import comphom, contmap, funclat
from finlat.verify import replay_witness, run_suite

out = {}
try:
    comphom.HomMatrix([[1, 1]])
except comphom.NotHomomorphism as exc:
    out["witness"] = list(exc.witness)
try:
    comphom.CertificateReport(
        certificates={}, conclusions={"order_continuous": True},
        direct={"order_continuous": False}, discrete=True,
    )
except comphom.CertificateMismatch:
    out["mismatch"] = True
original = comphom._normal_form

def rejects_zero_rows(rows):
    if any(not any(row) for row in rows):
        return None
    return original(rows)

comphom._normal_form = rejects_zero_rows
report = run_suite(properties=("P-hoc", "P-hom"), max_points=1,
                   sample_budget=0)
out["checks"] = {r.property_id: r.witness["detail"]["check"]
                 for r in report.results}
classify = contmap.classify_map

def weakly_open_but_not_almost_open(m):
    cls = classify(m)
    return replace(cls, almost_open=False) if cls.weakly_open else cls

contmap.classify_map = weakly_open_but_not_almost_open
report = run_suite(properties=("P-hier",), max_points=1, sample_budget=0)
out["hierarchy"] = report.results[0].witness["detail"]
classify_sublattice = funclat.classify_sublattice

def irregular_band_without_projection(ambient, e):
    flags = classify_sublattice(ambient, e)
    if flags.band:
        return replace(flags, projection_band=False, regular=False)
    return flags

funclat.classify_sublattice = irregular_band_without_projection
report = run_suite(properties=("P-dis",), max_points=1, sample_budget=0)
out["sublattice"] = replay_witness(report.results[0].witness)
print(json.dumps(out, sort_keys=True))
"""


def test_no_assert_in_the_package():
    # python -O strips assert, so no runtime contract may rest on one
    root = Path(finlat.__file__).resolve().parent
    found = [
        "%s:%d" % (path.relative_to(root), node.lineno)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_runtime_contracts_survive_optimize():
    src = str(Path(finlat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == {
        "witness": [1, -1],
        "mismatch": True,
        "checks": {"P-hoc": "constructor", "P-hom": "structural-vs-definitional"},
        "hierarchy": {"check": "classification-consistency",
                      "implication": "weakly_open -> almost_open"},
        "sublattice": [
            {"check": "flag-hierarchy", "implication": implication,
             "slice_zero": 1, "pick": 0}
            for implication in ("band -> projection_band", "regular")
        ],
    }
