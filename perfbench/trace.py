"""Span tracing of finlat's layers, installed from the benchmark's side.

``Tracer.install`` swaps each traced public function for a wrapper.  A
function is replaced wherever it is bound: as the module attribute and as
every name that ``from ... import`` bound in another finlat module (or in
the benchmark's own modules).  ``Tracer.restore`` puts every original back.

Spans live in memory in flat arrays (name id, parent index, start, end) and
are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded and
strictly nested, so the children never overlap.
"""

from array import array
from collections import Counter
from dataclasses import replace
import sys
from time import perf_counter

import numpy as np

from finlat import comphom, contmap, equivrel, finspace, funclat, latclosure, records
import finlat.cli
from finlat.verify import PROPERTIES, properties as verify_properties

# ---------------------------------------------------------------------------
# the per-layer metrics, in the order BENCHMARK.json lists them

PROCEDURE_IDS = (
    "ai-stars", "ao-i", "ao-ii-dense", "ao-ii-nonempty", "ao-iii", "ao-stars",
    "irr-i", "irr-ii", "irr-ii-dense", "irr-iii", "irr-iv", "irr-stars",
    "mirr-i", "mirr-ii", "mirr-iii", "sk-sat", "sk-stars", "ssk-sat",
    "ssk-stars", "wi-def", "wi-i", "wi-ii", "wi-iii", "wi-stars", "wo-i",
    "wo-ii", "wo-iii", "wo-iv", "wo-stars", "wo-v", "wo-v-canon", "wo-vi",
    "wo-vi-some",
)
PROCEDURE_SUITES = ("P-ao", "P-wo", "P-irr", "P-wi", "P-mirr")
TRACED_SUITES = PROCEDURE_SUITES + ("P-sat", "P-hier", "P-hoc", "P-hom", "P-com")
FUNCLAT = ("canonical_form", "member", "zero_ideal", "solution_basis",
           "disjoint_complement", "intersection", "contains", "classify_sublattice")
COMPHOM = ("HomMatrix.init", "HomMatrix.apply", "is_homomorphism",
           "hom_from_map", "certify_composition")
HOC = ("chain-continuity", "directed-sups", "kernel-band", "band-preimages", "image-dd")
EQUIVREL = ("EquivRel.init", "saturate", "quotient")


def per_layer_metrics():
    """(name, unit, better) for every per-layer metric."""
    out = [("contmap.decide_by.%s.us_per_call" % pid, "us", "lower")
           for pid in PROCEDURE_IDS]
    out += [("contmap.decide_by.%s.%s" % (s, v), "count", "higher")
            for s in PROCEDURE_SUITES for v in ("true", "false", "na")]
    out += [
        ("contmap.ContMap.calls", "count", "lower"),
        ("contmap.ContMap.self_s", "s", "lower"),
        ("contmap.ContMap.accept_ratio", "ratio", "higher"),
        ("contmap.classify_map.calls", "count", "lower"),
        ("contmap.classify_map.self_s", "s", "lower"),
        ("contmap.saturation.calls", "count", "lower"),
        ("contmap.saturation.self_s", "s", "lower"),
        ("contmap.enumerate_continuous_maps.yield_ratio", "ratio", "higher"),
    ]
    for fn in ("enumerate_topologies", "from_stars", "closure", "interior"):
        out += [("finspace.%s.calls" % fn, "count", "lower"),
                ("finspace.%s.self_s" % fn, "s", "lower")]
    out += [("finspace.opens.materialized", "count", "lower"),
            ("finspace.opens.hit_ratio", "ratio", "higher")]
    out += [("verify.properties.%s.self_s" % pid, "s", "lower") for pid in TRACED_SUITES]
    out.append(("verify.properties.stream_s", "s", "lower"))
    for fn in FUNCLAT:
        out += [("funclat.%s.calls" % fn, "count", "lower"),
                ("funclat.%s.self_s" % fn, "s", "lower")]
    out += [("latclosure.lattice_closure_matches.calls", "count", "lower"),
            ("latclosure.lattice_closure_matches.self_s", "s", "lower"),
            ("verify.swsweep.family_representatives.s", "s", "lower"),
            ("verify.swsweep.system_cache.hit_ratio", "ratio", "higher")]
    for fn in COMPHOM:
        out += [("comphom.%s.calls" % fn, "count", "lower"),
                ("comphom.%s.self_s" % fn, "s", "lower")]
    out += [("comphom.hoc.%s.self_s" % c, "s", "lower") for c in HOC]
    for fn in EQUIVREL:
        out += [("equivrel.%s.calls" % fn, "count", "lower"),
                ("equivrel.%s.self_s" % fn, "s", "lower")]
    out += [("records.parse_records.self_s", "s", "lower"),
            ("records.emit.self_s", "s", "lower"),
            ("cli.main.self_s", "s", "lower")]
    out += [("stream.maps.indiscrete_share", "ratio", "lower"),
            ("stream.maps.constant_share", "ratio", "lower"),
            ("stream.maps.table_rejections", "count", "lower"),
            ("stream.lattice.distinct_systems", "count", "higher"),
            ("stream.lattice.slice_systems", "count", "higher"),
            ("trace.overhead_s", "s", "lower")]
    return out


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    def __init__(self, extra_modules=()):
        self.names = []
        self._ids = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.errors = Counter()
        self.counts = Counter()
        self.verdicts = Counter()
        self.suite = None
        self._extra_modules = tuple(extra_modules)
        self._undo = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name, fn):
        nid = self.name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, errors = self.stack, self.errors

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    # -- installing and restoring -------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _modules(self):
        mods = [m for name, m in sys.modules.items()
                if name == "finlat" or name.startswith("finlat.")]
        return mods + list(self._extra_modules)

    def replace_function(self, module, attr, wrapper):
        """Swap module.attr and every other binding of the same object."""
        original = getattr(module, attr)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def trace_function(self, module, attr, name):
        self.replace_function(module, attr, self.spanned(name, getattr(module, attr)))

    def trace_method(self, cls, attr, name):
        self._set(cls, attr, self.spanned(name, cls.__dict__[attr]))

    def install(self):
        tr = self
        # contmap
        decide_by = contmap.decide_by
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        pid_ids = {}

        def traced_decide_by(m, class_name, procedure_id):
            nid = pid_ids.get(procedure_id)
            if nid is None:
                nid = pid_ids[procedure_id] = tr.name_id(
                    "contmap.decide_by." + procedure_id)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                value = decide_by(m, class_name, procedure_id)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if tr.suite is not None:
                tr.verdicts[tr.suite, value] += 1
            return value

        self.replace_function(contmap, "decide_by", traced_decide_by)
        self.trace_method(contmap.ContMap, "__init__", "contmap.ContMap")
        self.trace_function(contmap, "classify_map", "contmap.classify_map")
        self.trace_function(contmap, "saturation", "contmap.saturation")
        enumerate_maps = contmap.enumerate_continuous_maps
        counts = self.counts

        def counted_enumeration(domain, codomain, **kwargs):
            counts["enumerate.candidates"] += codomain.n ** domain.n
            for m in enumerate_maps(domain, codomain, **kwargs):
                counts["enumerate.yielded"] += 1
                yield m

        self.replace_function(contmap, "enumerate_continuous_maps", counted_enumeration)

        # finspace
        self.trace_function(finspace, "enumerate_topologies", "finspace.enumerate_topologies")
        self.trace_function(finspace, "from_stars", "finspace.from_stars")
        self.trace_method(finspace.FinSpace, "closure", "finspace.closure")
        self.trace_method(finspace.FinSpace, "interior", "finspace.interior")
        opens = finspace.FinSpace.__dict__["opens"].fget

        def counted_opens(space):
            counts["opens.accesses"] += 1
            if getattr(space, "_opens", None) is None:
                counts["opens.materialized"] += 1
            return opens(space)

        self._set(finspace.FinSpace, "opens", property(counted_opens))

        # verify.properties: one span per property check, tagged with its suite
        self.trace_function(verify_properties, "run_suite", "verify.run_suite")
        for pid in list(PROPERTIES):
            self._set_item(PROPERTIES, pid, replace(
                PROPERTIES[pid], check=self._suite_check(pid, PROPERTIES[pid].check)))

        for fn in FUNCLAT:
            self.trace_function(funclat, fn, "funclat." + fn)
        self.trace_function(latclosure, "lattice_closure_matches",
                            "latclosure.lattice_closure_matches")

        self.trace_method(comphom.HomMatrix, "__init__", "comphom.HomMatrix.init")
        self.trace_method(comphom.HomMatrix, "apply", "comphom.HomMatrix.apply")
        for fn in ("is_homomorphism", "hom_from_map", "certify_composition"):
            self.trace_function(comphom, fn, "comphom." + fn)
        for cond in list(comphom.HOC_CONDITIONS):
            self._set_item(comphom.HOC_CONDITIONS, cond, self.spanned(
                "comphom.hoc." + cond, comphom.HOC_CONDITIONS[cond]))

        self.trace_method(equivrel.EquivRel, "__init__", "equivrel.EquivRel.init")
        self.trace_function(equivrel, "saturate", "equivrel.saturate")
        self.trace_function(equivrel, "quotient", "equivrel.quotient")

        self.trace_function(records, "parse_records", "records.parse_records")
        for fn in [k for k in vars(records) if k.startswith("emit_")]:
            self.trace_function(records, fn, "records.emit")
        self.trace_function(finlat.cli, "main", "cli.main")

    def _suite_check(self, pid, check):
        traced = self.spanned("verify.properties." + pid, check)
        tr = self

        def in_suite(instance):
            if pid == "P-ao":
                tr._observe_map(instance)
            outer, tr.suite = tr.suite, pid
            try:
                return traced(instance)
            finally:
                tr.suite = outer

        return in_suite

    def _observe_map(self, m):
        # the sampled stream draws 4-point spaces; the exhaustive one stops at 3
        if m.domain.n != 4:
            return
        self.counts["sampled.maps"] += 1
        self.counts["sampled.constant"] += len(set(m.table)) == 1
        for space in (m.domain, m.codomain):
            self.counts["sampled.indiscrete"] += all(s == space.full for s in space.stars)

    def restore(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results -------------------------------------------------------------

    def arrays(self):
        """The spans as numpy arrays; ``name`` indexes ``names``."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name_of, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())

    def summary(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        spans = self.arrays()
        k = len(self.names)
        dur = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        calls = np.bincount(spans["name"], minlength=k)
        total = np.bincount(spans["name"], weights=dur, minlength=k)
        self_s = np.bincount(spans["name"], weights=own, minlength=k)
        out = {name: (int(calls[i]), float(total[i]), float(self_s[i]))
               for i, name in enumerate(self.names)}
        # time in run_suite outside the property checks: stream generation
        run_suite = self._ids.get("verify.run_suite")
        stream = 0.0
        if run_suite is not None:
            props = np.array([self._ids.get("verify.properties." + pid, -1)
                              for pid in PROPERTIES])
            in_run = has_parent & (spans["name"][np.maximum(spans["parent"], 0)] == run_suite)
            under = in_run & np.isin(spans["name"], props)
            stream = float(dur[spans["name"] == run_suite].sum() - dur[under].sum())
        out["verify.properties.stream_s"] = (0, stream, stream)
        return out

    def metrics(self, extra):
        """Every per-layer metric; extra supplies the ones measured outside
        the spans (set-up timings, stream make-up, tracing overhead)."""
        summary = self.summary()

        def calls(name):
            return summary.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return summary.get(name, (0, 0.0, 0.0))[2]

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for pid in PROCEDURE_IDS:
            n, total, _ = summary.get("contmap.decide_by." + pid, (0, 0.0, 0.0))
            values["contmap.decide_by.%s.us_per_call" % pid] = ratio(total * 1e6, n)
        for suite in PROCEDURE_SUITES:
            for label, verdict in (("true", True), ("false", False), ("na", None)):
                values["contmap.decide_by.%s.%s" % (suite, label)] = \
                    self.verdicts[suite, verdict]
        cm = self.name_id("contmap.ContMap")
        n_cm = calls("contmap.ContMap")
        values["contmap.ContMap.calls"] = n_cm
        values["contmap.ContMap.self_s"] = self_s("contmap.ContMap")
        values["contmap.ContMap.accept_ratio"] = ratio(n_cm - self.errors[cm], n_cm)
        for fn in ("classify_map", "saturation"):
            values["contmap.%s.calls" % fn] = calls("contmap." + fn)
            values["contmap.%s.self_s" % fn] = self_s("contmap." + fn)
        values["contmap.enumerate_continuous_maps.yield_ratio"] = ratio(
            self.counts["enumerate.yielded"], self.counts["enumerate.candidates"])
        for fn in ("enumerate_topologies", "from_stars", "closure", "interior"):
            values["finspace.%s.calls" % fn] = calls("finspace." + fn)
            values["finspace.%s.self_s" % fn] = self_s("finspace." + fn)
        values["finspace.opens.materialized"] = self.counts["opens.materialized"]
        values["finspace.opens.hit_ratio"] = 1.0 - ratio(
            self.counts["opens.materialized"], self.counts["opens.accesses"]) \
            if self.counts["opens.accesses"] else 0.0
        for pid in TRACED_SUITES:
            values["verify.properties.%s.self_s" % pid] = self_s("verify.properties." + pid)
        values["verify.properties.stream_s"] = summary["verify.properties.stream_s"][2]
        for fn in FUNCLAT:
            values["funclat.%s.calls" % fn] = calls("funclat." + fn)
            values["funclat.%s.self_s" % fn] = self_s("funclat." + fn)
        values["latclosure.lattice_closure_matches.calls"] = calls(
            "latclosure.lattice_closure_matches")
        values["latclosure.lattice_closure_matches.self_s"] = self_s(
            "latclosure.lattice_closure_matches")
        for fn in COMPHOM:
            values["comphom.%s.calls" % fn] = calls("comphom." + fn)
            values["comphom.%s.self_s" % fn] = self_s("comphom." + fn)
        for cond in HOC:
            values["comphom.hoc.%s.self_s" % cond] = self_s("comphom.hoc." + cond)
        for fn in EQUIVREL:
            values["equivrel.%s.calls" % fn] = calls("equivrel." + fn)
            values["equivrel.%s.self_s" % fn] = self_s("equivrel." + fn)
        values["records.parse_records.self_s"] = self_s("records.parse_records")
        values["records.emit.self_s"] = self_s("records.emit")
        values["cli.main.self_s"] = self_s("cli.main")
        sampled = self.counts["sampled.maps"]
        values["stream.maps.indiscrete_share"] = ratio(
            self.counts["sampled.indiscrete"], 2 * sampled)
        values["stream.maps.constant_share"] = ratio(self.counts["sampled.constant"], sampled)
        values["stream.maps.table_rejections"] = self.errors[cm] if sampled else 0
        values.update(extra)
        return values
