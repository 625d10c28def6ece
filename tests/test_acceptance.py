"""Acceptance gate: one test per shipped criterion, each at full stated size.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion verdict
lines, or add ``-s`` to see the timing details.  Everything here re-derives
its expected values from independent oracles; nothing is compared against
the code path under test alone.
"""

import hashlib
import json
import math
import os
from time import perf_counter

import pytest

from finlat import enumerate_topologies
from finlat.cli import main
from finlat.verify.mutations import apply_mutation
from finlat.verify.properties import replay_witness, run_suite
from finlat.verify.scenarios import (
    _universe,
    grid_scenario,
    intero_edges,
    intero_scenario,
)
from finlat.verify.swsweep import _normalize, run_family_sweep
from finlat.verify.properties import _lattice_alphabet

import oracles
from conftest import family_of

WORKERS = max(1, os.cpu_count() or 1)

# sha256 of the structured results, encoded with sorted keys and compact
# separators; the sweeps for n = 1..3 match perfbench/expected.json
RESULT_SHA256 = {
    "criterion-2": "3e5e4844344c276015a25533f60e309343b3443c551798afe404daeb94608278",
    "sweep-1": "2cf3cb17d8d2d68a466a273dc186e3f6685ef53087e8fadce049fd5e90144734",
    "sweep-2": "c5b0d959f4a7f5d31608596c843682108dc8d31701fe40c54225c0ea75a04f3e",
    "sweep-3": "3fd32985e3d54989c454a053c486f0a16b0dadb48f35fedd69abbdf58712e534",
    "sweep-4": "94e76102aac91bfa69f49097aab9e597f27303d2caf4487ab1678042510c8e91",
}


def _sha256(structured):
    return hashlib.sha256(json.dumps(
        structured, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _line(n, detail):
    print("criterion %d: PASS - %s" % (n, detail))


# ---------------------------------------------------------------------------
# 1. topology enumeration counts


def test_criterion_1_enumeration_counts(capsys):
    expected = {1: 1, 2: 4, 3: 29, 4: 355}
    t0 = perf_counter()
    for n, count in expected.items():
        preorder = list(enumerate_topologies(n, strategy="preorder"))
        filtered = list(enumerate_topologies(n, strategy="filter"))
        assert len(preorder) == count
        assert len(filtered) == count
        assert [s.opens for s in preorder] == [s.opens for s in filtered]
        if n <= 3:
            # oracle: filter the whole powerset-of-powerset by the axioms
            assert {family_of(s) for s in preorder} == set(
                oracles.topologies_on(n))
        code = main(["enumerate", "--points", str(n), "--count-only"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.strip() == str(count)
    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    _line(1, "counts 1,4,29,355 under both algorithms, oracle-checked "
             "through 3 points, %.1fs" % elapsed)


# ---------------------------------------------------------------------------
# 2. map-classification equivalence suites


MAP_SUITES = ("P-ao", "P-wo", "P-irr", "P-wi", "P-mirr", "P-sat", "P-hier")


def test_criterion_2_map_suites():
    t0 = perf_counter()
    report = run_suite(
        properties=MAP_SUITES,
        max_points=3,
        sample_points=4,
        sample_budget=100_000,
        seed=0,
        workers=WORKERS,
    )
    elapsed = perf_counter() - t0
    assert report.ok
    for result in report.results:
        assert result.failures == 0
        # every continuous map between every ordered pair of spaces on <= 3
        # points passes through every suite
        assert result.exhaustive == 11310
        assert result.sampled >= 100_000
    # the config is left out: it records the worker count
    assert _sha256([r.to_structured() for r in report.results]) == (
        RESULT_SHA256["criterion-2"])
    assert elapsed < 300.0
    _line(2, "7 suites x (11310 exhaustive + 100000 sampled) instances, "
             "zero counterexamples, %.1fs" % elapsed)


# ---------------------------------------------------------------------------
# 3 and 4 share one exhaustive generator-family sweep


@pytest.fixture(scope="module")
def family_sweeps():
    return {n: run_family_sweep(n, workers=WORKERS) for n in (1, 2, 3, 4)}


def _mismatches_for(report, labels):
    out = []
    for gens, failures in report.mismatches:
        if any(f["suite"] in labels for f in failures):
            out.append((gens, failures))
    return out


def test_criterion_3_closure_oracle(family_sweeps):
    for n, report in family_sweeps.items():
        assert _mismatches_for(report, {"closure"}) == []
    # census: the sweep must cover the whole family up to the symmetries
    # that provably preserve the verdict (tested in test_verify_swsweep)
    for n in (1, 2, 3):
        a = len(_lattice_alphabet(n))
        assert family_sweeps[n].representatives == sum(
            math.comb(a + k - 1, k) for k in range(4))
    assert family_sweeps[4].representatives == oracles.burnside_multiset_orbits(
        4, _lattice_alphabet(4), _normalize) == 150608
    total = sum(r.representatives for r in family_sweeps.values())
    _line(3, "canonical form equals the integer lattice-closure oracle on "
             "%d representative generator families, zero mismatches" % total)


def test_criterion_4_identity_suites(family_sweeps):
    for n, report in family_sweeps.items():
        assert _mismatches_for(report, {"dis", "menag"}) == []
        assert report.ok
        assert _sha256(report.to_structured()) == RESULT_SHA256["sweep-%d" % n]
    _line(4, "disjoint-complement and ideal-intersection identities hold "
             "over the same family, zero mismatches")


# ---------------------------------------------------------------------------
# 5. operator condition sweep


def test_criterion_5_operator_conditions():
    report = run_suite(properties=("P-hoc",), max_points=3, sample_budget=0)
    result = report.results[0]
    assert result.failures == 0
    assert result.not_applicable == 0
    # one zero row or one positive entry from a 3-value range per row
    assert result.exhaustive == sum(
        (1 + 3 * n) ** m for n in (1, 2, 3) for m in (1, 2, 3)) == 1593
    _line(5, "each of 1593 matrices is certified, passes all five "
             "order-continuity conditions and round-trips its normal form")


# ---------------------------------------------------------------------------
# 6. discrete certification cross-check


def test_criterion_6_certificates_match_direct():
    report = run_suite(properties=("P-com",), max_points=4, sample_budget=0)
    result = report.results[0]
    assert result.failures == 0
    assert result.exhaustive == sum(
        c ** d for d in (1, 2, 3, 4) for c in (1, 2, 3, 4)) == 494
    _line(6, "certificate verdicts equal direct lattice verdicts on all 494 "
             "maps between discrete spaces up to 4 points")


# ---------------------------------------------------------------------------
# 7. interleaving example at depth 12


def test_criterion_7_intero_depth_12():
    t0 = perf_counter()
    code = main(["example", "intero", "--depth", "12"])
    elapsed = perf_counter() - t0
    assert code == 0
    assert elapsed < 1.0

    report = intero_scenario(12)
    assert report.ok
    assert report.covered_depth == 10
    assert report.missing == ()
    assert report.constant_degrees == (0, 0)
    assert report.main_class_size == 2 ** 12 - 2
    assert report.oracle_merges == report.main_class_size - 1

    # independent replay with a bare union-find over the same edge stream
    points = _universe(12)
    dsu = oracles.SimpleDSU(points)
    for pairs in intero_edges(12).values():
        for a, b in pairs:
            dsu.union(a, b)
    assert len(dsu.component(((1,), 0))) == report.main_class_size
    for tail in (0, 1):
        assert dsu.component(((), tail)) == {((), tail)}
    _line(7, "single join class of %d points covers every non-constant "
             "point of depth <= 10; union-find replay agrees, %.2fs"
             % (report.main_class_size, elapsed))


# ---------------------------------------------------------------------------
# 8. grid example at k = 4


def test_criterion_8_grid_k_4():
    t0 = perf_counter()
    code = main(["example", "grid", "--k", "4"])
    elapsed = perf_counter() - t0
    assert code == 0
    assert elapsed < 5.0

    report = grid_scenario(4)
    assert report.ok
    flags = {name: info["flags"] for name, info in report.quotients.items()}
    assert flags["vertical"]["skeletal"] is True
    assert flags["horizontal"]["skeletal"] is True
    assert flags["join"]["skeletal"] is False
    assert flags["join"]["almost_open"] is False
    _line(8, "vertical and horizontal collapses skeletal, join collapse "
             "not skeletal, %.2fs" % elapsed)


# ---------------------------------------------------------------------------
# 9. mutation sensitivity


MUTATION_FIXTURES = (
    ("invert-wo-iii", "P-wo", dict(max_points=2, sample_budget=0)),
    ("saturation-drop", "P-sat", dict(max_points=2, sample_budget=0)),
    ("ratio-flip", "P-sw", dict(max_points=1, sample_budget=0)),
)


def test_criterion_9_mutation_sensitivity():
    for name, pid, kw in MUTATION_FIXTURES:
        report = run_suite(properties=(pid,), mutation=name, **kw)
        result = report.results[0]
        assert not report.ok, name
        assert result.failures > 0, name
        witness = result.witness
        assert witness is not None, name
        assert witness["property"] == pid
        # the witness replays: failing under the bug, passing without it
        with apply_mutation(name):
            assert replay_witness(witness), name
        assert replay_witness(witness) == [], name
    _line(9, "all three shipped defects trip their suite with a witness "
             "that replays under the bug and passes without it")
