"""The benchmark tracer still binds the names it traces.

perfbench/trace.py replaces finlat functions by name; a rename there only
shows up under ``--trace 1``.  This installs the tracer around tiny
operator, map and lattice suite runs, and checks that their spans arrive
and that restoring puts every original back.
"""

import importlib.util
from pathlib import Path

from finlat import comphom, contmap, finspace, funclat, latclosure
from finlat.verify import run_suite

TRACE_PY = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def _load_trace():
    # loaded from its path: the module name "trace" is the stdlib's
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_spans_and_restores():
    conditions = dict(comphom.HOC_CONDITIONS)
    classify = funclat.classify_sublattice
    tracer = _load_trace().Tracer()
    tracer.install()
    try:
        report = run_suite(properties=("P-hoc", "P-com"), max_points=2,
                           sample_budget=0)
        metrics = tracer.metrics({})
    finally:
        tracer.restore()
    assert report.ok
    assert metrics["comphom.hoc.band-preimages.self_s"] > 0
    hoc, com = report.results
    discrete = com.exhaustive + com.sampled - com.not_applicable
    assert discrete == 8
    # certify_composition classifies the pulled-back lattice once per
    # discrete map and never the lattice it is given
    assert metrics["funclat.classify_sublattice.calls"] == discrete
    # P-hoc builds each operator and its round trip; every composition
    # operator goes through the constructor too
    assert metrics["comphom.hom_from_map.calls"] == discrete
    assert metrics["comphom.HomMatrix.init.calls"] == 2 * hoc.exhaustive + discrete
    # hoc_conditions maps each vector table through HomMatrix.images, so the
    # only HomMatrix.apply calls are certify_composition's pullbacks: one per
    # basis vector of the full lattice on the c codomain points, for each of
    # the c^d maps from d discrete points (d, c <= 2)
    pullbacks = sum(c * c ** d for d in (1, 2) for c in (1, 2))
    assert pullbacks == 14
    assert metrics["comphom.HomMatrix.apply.calls"] == pullbacks
    assert comphom.HOC_CONDITIONS == conditions
    assert all(comphom.HOC_CONDITIONS[k] is f for k, f in conditions.items())
    assert funclat.classify_sublattice is classify


def test_tracer_covers_the_map_layer_and_restores():
    decide_by = contmap.decide_by
    saturation = contmap.saturation
    closure = finspace.FinSpace.__dict__["closure"]
    tracer = _load_trace().Tracer()
    tracer.install()
    try:
        report = run_suite(properties=("P-wo",), max_points=2, sample_budget=0)
        metrics = tracer.metrics({})
    finally:
        tracer.restore()
    assert report.ok
    assert metrics["contmap.decide_by.wo-vi.us_per_call"] > 0
    assert metrics["finspace.closure.calls"] > 0
    assert contmap.decide_by is decide_by
    assert contmap.saturation is saturation
    assert finspace.FinSpace.__dict__["closure"] is closure


def test_tracer_covers_the_lattice_layer_and_restores():
    solution_basis = funclat.solution_basis
    matches = latclosure.lattice_closure_matches
    tracer = _load_trace().Tracer()
    tracer.install()
    try:
        report = run_suite(properties=("P-sw", "P-dis", "P-menag"),
                           max_points=2, sample_budget=0)
        metrics = tracer.metrics({})
    finally:
        tracer.restore()
    assert report.ok
    assert metrics["funclat.solution_basis.calls"] > 0
    assert metrics["latclosure.lattice_closure_matches.calls"] > 0
    assert funclat.solution_basis is solution_basis
    assert comphom.solution_basis is solution_basis
    assert latclosure.lattice_closure_matches is matches
