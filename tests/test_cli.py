"""End-to-end CLI behavior: output, round-trips, and the 0/1/2 exit contract."""

import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys
import time

import pytest

import oracles
from conftest import spaces_upto
import finlat
from finlat import canonical_form, classify_subset, finspace, full_space, records
from finlat import equivrel
from finlat.equivrel import from_blocks, is_closed_relation
from finlat import cli, comphom
from finlat.cli import main
from finlat.verify import scenarios
from finlat.records import load_record

SIER = "space { n = 2; opens = [ [], [1], [0,1] ] }"
DISC2 = "space { n = 2; opens = [ [], [0], [1], [0,1] ] }"
DISC3 = ("space { n = 3; opens = [ [], [0], [1], [2], [0,1], [0,2], [1,2], "
         "[0,1,2] ] }")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def record_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# enumerate


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29), (4, 355)])
def test_enumerate_count_only(capsys, n, count):
    code, out, _ = run_cli(capsys, "enumerate", "--points", str(n),
                           "--count-only")
    assert code == 0
    assert out.strip() == str(count)


def test_enumerate_structured_and_strategies(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--points", "3",
                           "--count-only", "--format", "structured")
    assert code == 0
    assert json.loads(out) == {"n": 3, "count": 29, "strategy": "both"}
    for strategy in ("preorder", "filter"):
        code, out, _ = run_cli(capsys, "enumerate", "--points", "3",
                               "--count-only", "--strategy", strategy)
        assert code == 0 and out.strip() == "29"


def test_enumerate_both_fails_when_strategies_disagree(capsys, monkeypatch):
    original = finspace.enumerate_topologies

    def filter_drops_one(n, *, strategy="preorder", **kw):
        spaces = list(original(n, strategy=strategy, **kw))
        return spaces[:-1] if strategy == "filter" else spaces

    monkeypatch.setattr(finspace, "enumerate_topologies", filter_drops_one)
    code, out, err = run_cli(capsys, "enumerate", "--points", "3",
                             "--strategy", "both")
    assert code == 1
    assert out == ""
    assert "disagree" in err
    code, out, _ = run_cli(capsys, "enumerate", "--points", "3",
                           "--strategy", "preorder", "--count-only")
    assert (code, out.strip()) == (0, "29")


def test_enumerate_builds_only_the_lists_its_strategy_needs(capsys, monkeypatch):
    def no_preorder(n):
        raise AssertionError("the preorder list was built")

    monkeypatch.setattr(finspace, "_preorder_star_tables", no_preorder)
    for strategy in ((), ("--strategy", "filter")):
        code, out, err = run_cli(capsys, "enumerate", "--points", "5", *strategy)
        assert (code, out) == (2, "")
        assert "the family-filter strategy is exhaustive only up to n=4" in err
    code, out, _ = run_cli(capsys, "enumerate", "--strategy", "filter",
                           "--points", "3", "--count-only")
    assert (code, out.strip()) == (0, "29")


def test_enumerate_listing_round_trips(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--points", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    seen = set()
    for line in lines:
        space = load_record(line, "space")
        assert space.n == 2
        seen.add(tuple(space.opens))
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# space-props


def test_space_props_subset_flags(capsys, tmp_path):
    path = record_file(tmp_path, "s.rec", SIER)
    code, out, _ = run_cli(capsys, "space-props", path, "--subset", "1",
                           "--format", "structured")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 2
    assert blob["open_count"] == 3
    space = load_record(blob["record"], "space")
    props = classify_subset(space, 0b10)
    assert blob["subset_props"] == {
        "open": True,
        "closed": props.closed,
        "dense": props.dense,
        "nowhere_dense": props.nowhere_dense,
        "canonically_closed": props.canonically_closed,
        "canonically_open": props.canonically_open,
        "clopen": props.clopen,
    }
    assert blob["subset_props"]["dense"] is True
    assert blob["subset_props"]["closed"] is False


def test_space_props_subset_out_of_range(capsys, tmp_path, monkeypatch):
    path = record_file(tmp_path, "s.rec", SIER)
    code, _, err = run_cli(capsys, "space-props", path, "--subset", "5")
    assert code == 2
    assert "error:" in err

    # every point is checked before a mask is built from it
    def refuse(points):
        if not all(0 <= p < 2 for p in points):
            raise AssertionError("mask_of got an out-of-range point")
        return 0

    monkeypatch.setattr(cli, "mask_of", refuse)
    for point in ("-1", "100000000000"):
        code, _, err = run_cli(capsys, "space-props", path, "--subset", "0", point)
        assert code == 2
        assert "error: subset points must lie in 0..1" in err


# ---------------------------------------------------------------------------
# classify-map


def test_classify_map_table(capsys, tmp_path):
    text = "map { domain = %s; codomain = %s; table = [0,1] }" % (DISC2, SIER)
    path = record_file(tmp_path, "m.rec", text)
    code, out, _ = run_cli(capsys, "classify-map", path, "--format",
                           "structured")
    assert code == 0
    blob = json.loads(out)
    cls = blob["classification"]
    assert len(cls) == 13
    assert cls["injective"] is True
    assert cls["surjective"] is True
    assert cls["skeletal"] is False
    assert cls["almost_open"] is False
    assert blob["routines"]["skeletal"] == "sk-stars"
    assert len(blob["procedures"]) == 33
    by_id = {row["id"]: row for row in blob["procedures"]}
    assert by_id["wo-iii"]["target"] == "almost_open"
    assert by_id["wo-iii"]["kind"] == "iff"
    reloaded = load_record(blob["record"], "map")
    assert reloaded.table == (0, 1)

    code, text_out, _ = run_cli(capsys, "classify-map", path)
    assert code == 0
    assert "wo-iii" in text_out and "n/a" in text_out


# ---------------------------------------------------------------------------
# quotient


def test_quotient_emits_reparseable_records(capsys, tmp_path):
    text = "rel { space = %s; blocks = [ [0,1], [2] ] }" % DISC3
    path = record_file(tmp_path, "r.rec", text)
    code, out, _ = run_cli(capsys, "quotient", path, "--format", "structured")
    assert code == 0
    blob = json.loads(out)
    assert blob["block_count"] == 2
    assert blob["closed_relation"] is True
    qspace = load_record(blob["quotient_record"], "space")
    assert qspace.n == 2
    assert len(qspace.opens) == 4
    projection = load_record(blob["projection_record"], "map")
    assert projection.table == (0, 0, 1)
    assert blob["projection"]["quotient_map"] is True


def _quotient_blobs(capsys, tmp_path):
    """(relation, structured quotient output) for every relation on at most
    three points.  Each record gets its own file: rewriting one file in
    place is far slower than creating a new one on some filesystems."""
    rels = (from_blocks(space, blocks) for space in spaces_upto(3)
            for blocks in oracles.set_partitions(range(space.n)))
    for k, rel in enumerate(rels):
        path = record_file(tmp_path, "r%d.rec" % k, records.emit_rel(rel))
        code, out, _ = run_cli(capsys, "quotient", path, "--format", "structured")
        assert code == 0
        yield rel, json.loads(out)


def test_quotient_closed_relation_is_the_projection_closed_map(capsys, tmp_path):
    verdicts = set()
    for rel, blob in _quotient_blobs(capsys, tmp_path):
        closed = blob["closed_relation"]
        assert closed == is_closed_relation(rel) == blob["projection"]["closed_map"]
        verdicts.add(closed)
    assert verdicts == {True, False}


def test_quotient_never_runs_the_closed_relation_scan(capsys, tmp_path,
                                                      monkeypatch):
    def refuse(rel):
        raise AssertionError("finlat quotient called is_closed_relation")

    monkeypatch.setattr(equivrel, "is_closed_relation", refuse)
    assert sum(1 for _ in _quotient_blobs(capsys, tmp_path)) == 154


# ---------------------------------------------------------------------------
# lattice


def test_lattice_canonical_round_trip(capsys, tmp_path):
    path = record_file(tmp_path, "l.rec",
                       "sublattice { n = 2; generators = [ [2,4] ] }")
    code, out, _ = run_cli(capsys, "lattice", "canonical", path,
                           "--format", "structured")
    assert code == 0
    blob = json.loads(out)
    assert blob["dimension"] == 1
    assert load_record(blob["record"], "sublattice") == canonical_form(
        2, ((2, 4),))


def test_lattice_classify_flags_and_rejection(capsys, tmp_path):
    ambient = record_file(tmp_path, "amb.rec", "sublattice { n = 2 }")
    sub = record_file(tmp_path, "sub.rec",
                      "sublattice { n = 2; generators = [ [1,0] ] }")
    code, out, _ = run_cli(capsys, "lattice", "classify", ambient, sub,
                           "--format", "structured")
    assert code == 0
    flags = json.loads(out)["flags"]
    assert flags["ideal"] is True
    assert flags["band"] is True
    assert flags["order_dense"] is False
    assert flags["regular"] is True

    other = record_file(tmp_path, "oth.rec",
                        "sublattice { n = 2; generators = [ [0,1] ] }")
    code, _, err = run_cli(capsys, "lattice", "classify", sub, other)
    assert code == 2
    assert "not a sublattice" in err


# ---------------------------------------------------------------------------
# hom


def test_hom_check_accepts(capsys, tmp_path):
    path = record_file(tmp_path, "h.rec",
                       'hom { rows = [ ["2","0"], ["0","1/3"] ] }')
    code, out, _ = run_cli(capsys, "hom", "check", path, "--format",
                           "structured")
    assert code == 0
    blob = json.loads(out)
    assert blob["accepted"] is True
    assert blob["shape"] == [2, 2]
    assert blob["weights"] == ["2", "1/3"]
    assert blob["coordinates"] == [0, 1]
    assert sorted(blob["conditions"]) == [
        "band-preimages", "chain-continuity", "directed-sups",
        "image-dd", "kernel-band",
    ]
    assert blob["order_continuous"] is True


def test_hom_check_rejects_with_witness(capsys, tmp_path):
    path = record_file(tmp_path, "h.rec", 'hom { rows = [ ["1","1"] ] }')
    code, out, _ = run_cli(capsys, "hom", "check", path, "--format",
                           "structured")
    assert code == 1
    blob = json.loads(out)
    assert blob["accepted"] is False
    assert blob["witness"]


def test_hom_check_at_thirteen_dimensions_stays_fast(capsys, tmp_path):
    # the lattice-side conditions walk all 2^n coordinate ideals, so a
    # super-linear regression there shows up at the record cap first; this
    # takes about 1.2 s with a cold coordinate-ideal table on a 2-vCPU
    # x86-64 VM (CPython 3.11), and took 4.9 s before the table was shared
    n = 13
    rows = ", ".join(
        "[%s]" % ",".join('"1"' if i == j else '"0"' for j in range(n))
        for i in range(n))
    path = record_file(tmp_path, "h.rec", "hom { rows = [ %s ] }" % rows)
    comphom._coordinate_ideals.cache_clear()
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "hom", "check", path, "--format", "structured")
    assert time.perf_counter() - start < 4.0
    assert code == 0
    blob = json.loads(out)
    assert blob["shape"] == [n, n]
    assert blob["order_continuous"] is True
    assert all(blob["conditions"].values())


def test_hom_check_malformed_is_usage_error(capsys, tmp_path):
    path = record_file(tmp_path, "h.rec", "hom { rows = [ [oops] ] }")
    code, _, err = run_cli(capsys, "hom", "check", path)
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# certify


def test_certify_discrete_cross_check(capsys, tmp_path):
    map_path = record_file(
        tmp_path, "m.rec",
        "map { domain = %s; codomain = %s; table = [0,1] }" % (DISC2, DISC2))
    lat_path = record_file(tmp_path, "l.rec", "sublattice { n = 2 }")
    code, out, _ = run_cli(capsys, "certify", map_path, lat_path,
                           "--format", "structured")
    assert code == 0
    blob = json.loads(out)
    assert blob["discrete"] is True
    assert blob["conclusions"] == blob["direct"]
    assert load_record(blob["lattice_record"], "sublattice") == full_space(2)


def test_certify_needs_full_lattice_off_discrete(capsys, tmp_path):
    map_path = record_file(
        tmp_path, "m.rec",
        "map { domain = %s; codomain = %s; table = [0,1] }" % (DISC2, SIER))
    lat_path = record_file(
        tmp_path, "l.rec", "sublattice { n = 2; generators = [ [1,0] ] }")
    code, _, err = run_cli(capsys, "certify", map_path, lat_path)
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# each subcommand emits each of its records once


def _count_outer_emits(monkeypatch):
    """Count calls of each records.emit_* made by the caller, not those one
    emitter makes of another (a map record emits its two spaces)."""
    counts = {}
    depth = [0]

    def counting(name, emit):
        def wrapper(*args):
            if not depth[0]:
                counts[name] = counts.get(name, 0) + 1
            depth[0] += 1
            try:
                return emit(*args)
            finally:
                depth[0] -= 1
        return wrapper

    for name in [k for k in vars(records) if k.startswith("emit_")]:
        monkeypatch.setattr(records, name, counting(name, getattr(records, name)))
    return counts


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_each_record_is_emitted_once(capsys, tmp_path, monkeypatch, fmt):
    disc2_map = record_file(
        tmp_path, "m.rec",
        "map { domain = %s; codomain = %s; table = [0,1] }" % (DISC2, DISC2))
    full2 = record_file(tmp_path, "l.rec", "sublattice { n = 2 }")
    line = record_file(tmp_path, "s.rec",
                       "sublattice { n = 2; generators = [ [1,0] ] }")
    cases = [
        (["space-props", record_file(tmp_path, "x.rec", SIER)],
         {"emit_space": 1}),
        (["classify-map", disc2_map], {"emit_map": 1}),
        (["quotient", record_file(
            tmp_path, "r.rec", "rel { space = %s; blocks = [ [0,1], [2] ] }"
            % DISC3)],
         {"emit_rel": 1, "emit_space": 1, "emit_map": 1}),
        (["lattice", "canonical", line], {"emit_sublattice": 1}),
        (["lattice", "classify", full2, line], {"emit_sublattice": 2}),
        (["hom", "check", record_file(
            tmp_path, "h.rec", 'hom { rows = [ ["2","0"], ["0","1/3"] ] }')],
         {"emit_hom": 1}),
        (["certify", disc2_map, full2], {"emit_map": 1, "emit_sublattice": 1}),
        (["enumerate", "--points", "2", "--strategy", "preorder"],
         {"emit_space": 4}),
    ]
    for argv, expected in cases:
        counts = _count_outer_emits(monkeypatch)
        code, _, _ = run_cli(capsys, *argv, "--format", fmt)
        monkeypatch.undo()
        assert code == 0, argv
        assert counts == expected, argv


# ---------------------------------------------------------------------------
# verify


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--props", "P-sat",
                           "--max-points", "1", "--sample-budget", "20")
    assert code == 0
    assert "suite: PASS" in out


def test_verify_structured_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--props", "P-eqr",
                           "--max-points", "2", "--sample-budget", "10",
                           "--format", "structured")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert blob["results"][0]["property"] == "P-eqr"


def test_verify_mutation_fails_with_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "--props", "P-wo",
                           "--max-points", "2", "--sample-budget", "0",
                           "--mutation", "invert-wo-iii")
    assert code == 1
    assert "suite: FAIL" in out
    assert "witness P-wo" in out
    assert "wo-iii" in out


def test_verify_unknown_inputs_are_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--props", "P-nope")
    assert code == 2
    assert "P-nope" in err
    code, _, err = run_cli(capsys, "verify", "--mutation", "nope",
                           "--props", "P-sat", "--max-points", "1",
                           "--sample-budget", "0")
    assert code == 2
    assert "unknown mutation" in err
    code, _, err = run_cli(capsys, "verify", "--props", "P-sat", "P-sat",
                           "--max-points", "1", "--sample-budget", "0")
    assert code == 2
    assert err.startswith("error:") and "P-sat" in err


def test_verify_workers_above_the_cap_is_usage_error(capsys, inline_pool):
    # refused before any pool opens; never start that many processes
    code, _, err = run_cli(capsys, "verify", "--workers", "5000",
                           "--sample-budget", "100000")
    assert code == 2
    assert err == "error: workers must be at most 64\n"
    assert inline_pool == []


# ---------------------------------------------------------------------------
# examples


def test_example_intero(capsys):
    code, out, _ = run_cli(capsys, "example", "intero", "--depth", "4")
    assert code == 0
    assert "scenario: PASS" in out
    code, out, _ = run_cli(capsys, "example", "intero", "--depth", "4",
                           "--format", "structured")
    assert code == 0
    assert json.loads(out)["schema"] == "finlat-intero-report/1"


def test_example_grid(capsys):
    code, out, _ = run_cli(capsys, "example", "grid", "--k", "2")
    assert code == 0
    assert "scenario: PASS" in out
    code, out, _ = run_cli(capsys, "example", "grid", "--k", "2",
                           "--format", "structured")
    assert code == 0
    assert json.loads(out)["schema"] == "finlat-grid-report/1"


# sha256 of the whole stdout of each example at the sizes of criteria 7 and 8
EXAMPLE_SHA256 = {
    ("intero", "--depth", "12", "text"):
        "91e0cb5ee0f7671682cc5387a481beaf32550e41566daf910f78a51947bbc902",
    ("intero", "--depth", "12", "structured"):
        "7eb3d9ff3fd7095d722ff29be83fb8f475f992662082f1527389207894a61351",
    ("grid", "--k", "4", "text"):
        "7f06a030b480eb7246e01f26ad46da0d3bf7799e53f9f1912b05177f15b732ef",
    ("grid", "--k", "4", "structured"):
        "5f3885adc8caf6c07b474ae70c6e4f06a47f7a327acc937ced26d7d66a9f94af",
}


@pytest.mark.parametrize("argv", sorted(EXAMPLE_SHA256), ids="-".join)
def test_example_bytes_pinned(capsys, argv):
    *size, fmt = argv
    code, out, _ = run_cli(capsys, "example", *size, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXAMPLE_SHA256[argv]


def test_example_bad_size_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "example", "grid", "--k", "0")
    assert code == 2
    assert "error:" in err

    # sizes above the caps are refused before anything is built
    def refuse(size):
        raise AssertionError("scenario built at size %d" % size)

    monkeypatch.setattr(scenarios, "grid_space", refuse)
    monkeypatch.setattr(scenarios, "_universe", refuse)
    for argv, message in (
        (("grid", "--k", str(scenarios.MAX_GRID_K + 1)), "k must be at most 16"),
        (("intero", "--depth", str(scenarios.MAX_INTERO_DEPTH + 1)),
         "depth must be at most 16"),
    ):
        code, _, err = run_cli(capsys, "example", *argv)
        assert code == 2
        assert "error: " + message in err


# ---------------------------------------------------------------------------
# parser-level failures


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "space-props",
                           str(tmp_path / "absent.rec"))
    assert code == 2
    assert "error:" in err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--points", "2", "--bogus"])
    assert err.value.code == 2


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_no_arguments_rejected():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("text", [
    "sublattice { n = 3; zeros = [-1] }",
    'sublattice { n = 2; ties = [ {x=0; z=5; ratio="1/1"} ] }',
    "sublattice { n = -1 }",
    "sublattice { n = -1; generators = [] }",
], ids=["negative-zero", "tie-outside", "negative-n", "negative-n-generators"])
def test_constraint_out_of_range_is_usage_error(capsys, tmp_path, text):
    path = record_file(tmp_path, "bad.rec", text)
    code, out, err = run_cli(capsys, "lattice", "canonical", path)
    assert code == 2
    assert out == ""
    assert "bad sublattice record" in err


@pytest.mark.parametrize("argv,text,field", [
    (("lattice", "canonical"), 'sublattice { n = "a"; generators = [] }',
     "bad sublattice record: n must be an integer"),
    (("space-props",), "space { n = 2; opens = 5 }",
     "bad space record: opens must be a list"),
    (("lattice", "canonical"),
     'sublattice { n = 2; ties = [ {x="a"; z=0; ratio="1/1"} ] }',
     "bad sublattice record: tie x must be an integer"),
    (("lattice", "canonical"), "sublattice { n = 2; ties = 5 }",
     "bad sublattice record: ties must be a list"),
    (("lattice", "canonical"), "sublattice { n = 2; generators = 5 }",
     "bad sublattice record: generators must be a list"),
], ids=["sublattice-n-string", "space-opens-int", "tie-x-string", "ties-int",
        "generators-int"])
def test_mistyped_field_is_named_in_the_usage_error(capsys, tmp_path, argv,
                                                   text, field):
    path = record_file(tmp_path, "bad.rec", text)
    code, out, err = run_cli(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: ")
    assert field in err
    assert "not supported between" not in err
    assert "is not iterable" not in err


FAR = 10 ** 12
DEEP = 3000


@pytest.mark.parametrize("argv,text", [
    (("hom", "check"), 'hom { rows = [ ["1/0", "0"] ] }'),
    (("lattice", "canonical"), 'sublattice { n = 2; generators = [ ["1/0", 1] ] }'),
    (("lattice", "canonical"),
     'sublattice { n = 2; ties = [ {x=1; z=0; ratio="1/0"} ] }'),
    (("space-props",), "space { n = 2; opens = [ [], [2], [0,1] ] }"),
    (("space-props",), "space { n = 2; opens = [ [], [-1], [0,1] ] }"),
    (("space-props",), "space { n = 2; opens = [ [], [%d], [0,1] ] }" % FAR),
    (("quotient",), "rel { space = %s; blocks = [ [0], [%d] ] }" % (DISC2, FAR)),
    (("space-props",), "space { n = 1; opens = %s%s }" % ("[" * DEEP, "]" * DEEP)),
    (("space-props",), "space { n = 1; opens = %s1%s }" % ("{ a = " * DEEP,
                                                           " }" * DEEP)),
    (("space-props",), "space { n = 17; opens = [ [], [%s] ] }"
     % ",".join(str(x) for x in range(17))),
    (("lattice", "canonical"), "sublattice { n = 17; generators = [] }"),
    (("lattice", "canonical"), "sublattice { n = 100000000; generators = [] }"),
    (("hom", "check"), 'hom { rows = [ [%s] ] }' % ",".join(['"1"'] + ['"0"'] * 16)),
], ids=["hom-zero-denominator", "generator-zero-denominator",
        "tie-zero-denominator", "point-n", "point-negative", "point-far",
        "block-point-far", "deep-lists", "deep-fields", "space-n-17",
        "sublattice-n-17", "sublattice-n-huge", "hom-17-columns"])
def test_malformed_value_is_usage_error(capsys, monkeypatch, tmp_path, argv, text):
    # a builder reached past the dimension cap fails the test at once,
    # before n = 100000000 fills memory or 17 columns run 2^17 ideals
    def capped(name, size):
        build = getattr(records, name)

        def guard(*args, **kwargs):
            if size(*args) > finspace.DEFAULT_MAX_POINTS:
                pytest.fail("records.%s reached past the cap" % name)
            return build(*args, **kwargs)

        monkeypatch.setattr(records, name, guard)

    capped("make_space", lambda n, *rest: n)
    capped("canonical_form", lambda n, *rest: n)
    capped("from_constraints", lambda n, *rest: n)
    capped("HomMatrix", lambda rows: max([len(rows)] + [len(r) for r in rows]))
    path = record_file(tmp_path, "bad.rec", text)
    code, out, err = run_cli(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,text", [
    (("hom", "check"), 'hom { rows = [ ["1e10000000"] ] }'),
    (("lattice", "canonical"),
     'sublattice { n = 2; ties = [ {x=1; z=0; ratio="1e10000000"} ] }'),
    (("hom", "check"), 'hom { rows = [ ["0.5"] ] }'),
], ids=["hom-exponent", "tie-exponent", "hom-decimal"])
def test_rational_outside_the_p_q_grammar_is_usage_error(capsys, tmp_path,
                                                         argv, text):
    # Fraction("1e10000000") alone takes seconds and builds a 33-million-bit
    # numerator that the output then fails to print
    path = record_file(tmp_path, "bad.rec", text)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, path)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: bad ")
    assert "Invalid literal for Fraction" in err


def test_malformed_record_is_usage_error(capsys, tmp_path):
    path = record_file(tmp_path, "bad.rec", "space { n = 2; opens = [ [] ")
    code, _, err = run_cli(capsys, "classify-map", path)
    assert code == 2
    assert "error:" in err


def _run_finlat_python(code):
    src = str(Path(finlat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return proc.stdout.strip()


def test_importing_the_cli_does_not_load_numpy():
    # where numpy is installed, the CLI still leaves it unloaded; nor does it
    # load the verify layer or the process pool before a subcommand needs them
    assert _run_finlat_python(
        "import sys, finlat.cli; print([m for m in ('numpy', 'finlat.verify', "
        "'concurrent.futures', 'multiprocessing') if m in sys.modules])") == "[]"


def test_finlat_runs_without_numpy():
    # numpy is no dependency: with a None entry in sys.modules any import
    # of it fails, and the CLI and the whole dim-4 family still work
    assert _run_finlat_python(
        "import sys; sys.modules['numpy'] = None; "
        "import finlat.cli, finlat.verify; "
        "print(len(finlat.verify.family_representatives(4)))") == "150608"
