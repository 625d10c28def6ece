"""The four benchmark workloads.

Each workload is a closed loop with one client: the next request is sent
only after the previous one returned.  A request is a pair of callables,
``run`` (timed; calls finlat) and ``verify`` (untimed; turns the output into
``Checked``).  Every workload also has a fixed gate: seed-independent work
whose verdict bytes must hash to the digests in expected.json, recorded on
the commit that introduced the benchmark.

Only finlat's public API is called: ``run_suite``, ``run_family_sweep``,
``family_representatives``, the ``PROPERTIES`` registry and ``finlat.cli.main``.
"""

from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
import hashlib
import io
from itertools import product
import json
from pathlib import Path
import random
import shutil
from time import perf_counter

import finlat.cli
from finlat import ContMap, canonical_form, discrete_space
from finlat.verify import (
    PROPERTIES,
    family_representatives,
    run_family_sweep,
    run_suite,
)

import catalogue

EXPECTED_PATH = Path(__file__).with_name("expected.json")
MAP_SUITES = ("P-ao", "P-wo", "P-irr", "P-wi", "P-mirr", "P-sat", "P-hier")
OPERATOR_SUITES = ("P-hoc", "P-hom", "P-com")


def load_expected():
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def sha256(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class Checked:
    """Outcome of one request or gate step: checks attempted and failed."""

    checks: int
    failed: int = 0
    problem: str = ""


def _check_report(report, counts, digest=None):
    """A suite report must pass, cover the fixed instance counts, and (for
    fixed streams) hash to the recorded verdict digest; an empty digest,
    one never recorded, matches nothing."""
    checks = sum(r.exhaustive + r.sampled for r in report.results)
    failed = sum(r.failures for r in report.results)
    problems = []
    if not report.ok:
        problems.append("suite failed: %s" % [
            r.property_id for r in report.results if r.failures])
    got = {r.property_id: (r.exhaustive, r.sampled) for r in report.results}
    if got != counts:
        problems.append("instance counts %s, expected %s" % (got, counts))
    if digest is not None and sha256(report.canonical_bytes()) != digest:
        problems.append("verdict bytes differ from the recorded digest")
    if problems and not failed:
        failed = 1
    return Checked(checks, failed, "; ".join(problems))


def _check_failure_lists(lists, checks):
    bad = [f for f in lists if f]
    if not bad:
        return Checked(checks)
    return Checked(checks, len(bad), "failures: %s" % json.dumps(bad[0], default=str)[:400])


def stratified(rng, items, kind):
    """Seeded order of items in which every run of consecutive items has
    about the same mix of kinds as the whole list, so that how far a
    time-bounded run gets does not change its make-up."""
    groups = {}
    for item in items:
        groups.setdefault(kind(item), []).append(item)
    keyed = []
    for group in groups.values():
        rng.shuffle(group)
        keyed.extend(((j + rng.random()) / len(group), item)
                     for j, item in enumerate(group))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


class Workload:
    name = ""
    # requests in each half of a traced run (untraced, then traced)
    trace_requests = 0

    def __init__(self, seed, root, expected):
        self.seed = seed
        self.root = root
        self.expected = expected
        self.rng = random.Random("perfbench:%s:%d" % (self.name, seed))

    def setup(self):
        """Generate the inputs; timed as part of setup_s."""

    def requests(self):
        """Endless iterator of (run, verify) pairs."""
        raise NotImplementedError

    def gate(self):
        """Fixed, seed-independent (label, run, verify) steps."""
        return []

    def fingerprints(self):
        """Recorded digests: label -> sha256 of the gate's verdict bytes."""
        return {}

    def reset(self):
        """Forget per-run caches so that a replay repeats the same work."""

    def layer_extras(self):
        """Per-layer metrics measured outside the spans."""
        return {
            "verify.swsweep.family_representatives.s": 0.0,
            "verify.swsweep.system_cache.hit_ratio": 0.0,
            "stream.lattice.distinct_systems": 0,
            "stream.lattice.slice_systems": 0,
        }

    def close(self):
        pass


# ---------------------------------------------------------------------------
# maps: criterion-2 map suites


class Maps(Workload):
    name = "maps"
    trace_requests = 40
    BATCH = 30
    # continuous maps between spaces on at most 2 points
    SMALL_EXHAUSTIVE = 63
    EXHAUSTIVE = 11310

    def requests(self):
        counts = {pid: (self.SMALL_EXHAUSTIVE, self.BATCH) for pid in MAP_SUITES}
        k = 0
        while True:
            sub_seed = self.seed * 1_000_000 + k
            k += 1
            yield (
                lambda s=sub_seed: run_suite(
                    properties=MAP_SUITES, max_points=2, sample_points=4,
                    sample_budget=self.BATCH, seed=s, workers=1),
                lambda report: _check_report(report, counts),
            )

    def _exhaustive(self):
        return run_suite(properties=MAP_SUITES, max_points=3, sample_budget=0,
                         seed=0, workers=1)

    def gate(self):
        counts = {pid: (self.EXHAUSTIVE, 0) for pid in MAP_SUITES}
        digest = self.expected.get("maps.exhaustive", "")
        return [("maps.exhaustive", self._exhaustive,
                 lambda report: _check_report(report, counts, digest))]

    def fingerprints(self):
        return {"maps.exhaustive": sha256(self._exhaustive().canonical_bytes())}


# ---------------------------------------------------------------------------
# lattice: criterion 3/4 generator-family sweep


def _sweep_bytes(report):
    return json.dumps(report.to_structured(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class Lattice(Workload):
    name = "lattice"
    trace_requests = 25
    BATCH = 100
    REPRESENTATIVES = {1: 4, 2: 165, 3: 22100, 4: 150608}

    def setup(self):
        t0 = perf_counter()
        self.reps4 = family_representatives(4)
        self.reps_s = perf_counter() - t0
        if len(self.reps4) != self.REPRESENTATIVES[4]:
            raise RuntimeError("family_representatives(4) gave %d representatives, "
                               "expected %d" % (len(self.reps4), self.REPRESENTATIVES[4]))
        self.order = list(range(len(self.reps4)))
        self.rng.shuffle(self.order)
        # identity verdicts depend only on the canonical system, so they
        # are audited once per system, as run_family_sweep does
        self.systems = {}

    def reset(self):
        self.systems = {}

    def layer_extras(self):
        # run_family_sweep audits identities once per distinct canonical
        # system, so its cache misses are the distinct systems of each dim
        reps = [(n, gens) for n in (1, 2, 3) for gens in family_representatives(n)]
        distinct = len({canonical_form(n, gens) for n, gens in reps})
        return {
            "verify.swsweep.family_representatives.s": self.reps_s,
            "verify.swsweep.system_cache.hit_ratio": 1.0 - distinct / len(reps),
            "stream.lattice.distinct_systems": distinct,
            "stream.lattice.slice_systems": len(self.systems),
        }

    def _check_slice(self, picks):
        out = []
        for i in picks:
            gens = self.reps4[i]
            found, _ = PROPERTIES["P-sw"].check((4, gens))
            out.append(found)
            system = canonical_form(4, gens)
            if system not in self.systems:
                self.systems[system] = (
                    PROPERTIES["P-dis"].check((4, gens))[0],
                    PROPERTIES["P-menag"].check((4, gens))[0],
                )
            out.extend(self.systems[system])
        return out

    def requests(self):
        pos = 0
        while True:
            picks = [self.order[(pos + j) % len(self.order)] for j in range(self.BATCH)]
            pos += self.BATCH
            yield (
                lambda p=picks: self._check_slice(p),
                lambda lists: _check_failure_lists(lists, len(lists)),
            )

    def _verify_sweep(self, n, report):
        label = "lattice.sweep.%d" % n
        problems = []
        if not report.ok:
            problems.append("sweep mismatches in dim %d" % n)
        if report.representatives != self.REPRESENTATIVES[n]:
            problems.append("dim %d: %d representatives, expected %d" % (
                n, report.representatives, self.REPRESENTATIVES[n]))
        if sha256(_sweep_bytes(report)) != self.expected.get(label):
            problems.append("%s differs from the recorded digest" % label)
        failed = max(len(report.mismatches), 1) if problems else 0
        return Checked(3 * report.representatives, failed, "; ".join(problems))

    def gate(self):
        return [
            ("lattice.sweep.%d" % n,
             lambda n=n: run_family_sweep(n, workers=1),
             lambda report, n=n: self._verify_sweep(n, report))
            for n in (1, 2, 3)
        ]

    def fingerprints(self):
        return {
            "lattice.sweep.%d" % n: sha256(_sweep_bytes(run_family_sweep(n, workers=1)))
            for n in (1, 2, 3)
        }


# ---------------------------------------------------------------------------
# operators: criterion 5 (P-hoc), criterion 6 (P-com), and P-hom


def monomial_family():
    """Criterion 5: each row is zero or has one entry from 1..3."""
    out = []
    for m, n in product((1, 2, 3), repeat=2):
        choices = [None] + [(j, v) for j in range(n) for v in (1, 2, 3)]
        for combo in product(choices, repeat=m):
            rows = []
            for pick in combo:
                row = [Fraction(0)] * n
                if pick is not None:
                    row[pick[0]] = Fraction(pick[1])
                rows.append(tuple(row))
            out.append(tuple(rows))
    return out


def discrete_map_family():
    """Criterion 6: every table between discrete spaces on 1..4 points."""
    return [
        (d, c, table)
        for d in (1, 2, 3, 4) for c in (1, 2, 3, 4)
        for table in product(range(c), repeat=d)
    ]


class Operators(Workload):
    name = "operators"
    trace_requests = 40
    HOM_BATCH = 10

    def setup(self):
        self.monomials = monomial_family()
        self.dismaps = discrete_map_family()
        if (len(self.monomials), len(self.dismaps)) != (1593, 494):
            raise RuntimeError("operator families have the wrong size")
        self.monomials = stratified(self.rng, self.monomials,
                                    lambda rows: (len(rows), len(rows[0])))
        self.dismaps = stratified(self.rng, self.dismaps, lambda dm: dm[:2])

    def _random_matrix(self):
        m, n = self.rng.randint(1, 3), self.rng.randint(1, 3)
        return tuple(
            tuple(Fraction(self.rng.randint(-2, 2)) for _ in range(n))
            for _ in range(m)
        )

    @staticmethod
    def _bundle(rows, dismap, homs):
        d, c, table = dismap
        out = [
            PROPERTIES["P-hoc"].check(rows)[0],
            PROPERTIES["P-com"].check(
                ContMap(discrete_space(d), discrete_space(c), table))[0],
        ]
        out.extend(PROPERTIES["P-hom"].check(h)[0] for h in homs)
        return out

    def requests(self):
        k = 0
        while True:
            rows = self.monomials[k % len(self.monomials)]
            dismap = self.dismaps[k % len(self.dismaps)]
            homs = [self._random_matrix() for _ in range(self.HOM_BATCH)]
            k += 1
            yield (
                lambda a=rows, b=dismap, h=homs: self._bundle(a, b, h),
                lambda lists: _check_failure_lists(lists, len(lists)),
            )

    def _small(self):
        return run_suite(properties=OPERATOR_SUITES, max_points=2,
                         sample_budget=0, seed=0, workers=1)

    def gate(self):
        counts = {"P-hoc": (76, 0), "P-hom": (102, 0), "P-com": (8, 0)}
        digest = self.expected.get("operators.small", "")
        return [("operators.small", self._small,
                 lambda report: _check_report(report, counts, digest))]

    def fingerprints(self):
        return {"operators.small": sha256(self._small().canonical_bytes())}


# ---------------------------------------------------------------------------
# cli: single requests through the console entry point


def call_cli(argv):
    """finlat.cli.main in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = finlat.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


class Cli(Workload):
    name = "cli"
    trace_requests = 300

    def setup(self):
        self.workdir = self.root / ".perfbench_work" / ("cli-%d" % self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.entries = []
        for index, (kind, argv, files) in enumerate(catalogue.build()):
            paths = {}
            for key, text in files.items():
                path = self.workdir / ("%03d-%s.rec" % (index, key))
                path.write_text(text + "\n", encoding="utf-8")
                paths[key] = str(path)
            self.entries.append((kind, [a.format(**paths) for a in argv]))
        self.expected_cli = self.expected.get("cli", [])

    def _verify(self, index, got):
        if index >= len(self.expected_cli):
            return Checked(1, 1, "no recorded output for catalogue entry %d" % index)
        code, digest = self.expected_cli[index]
        if got[0] != code or sha256(got[1]) != digest:
            return Checked(1, 1, "entry %d (%s): exit %r, expected %r%s" % (
                index, self.entries[index][0], got[0], code,
                "" if sha256(got[1]) == digest else "; stdout differs"))
        return Checked(1)

    def _request(self, index):
        argv = self.entries[index][1]
        return (lambda: call_cli(argv),
                lambda got: self._verify(index, got))

    def requests(self):
        while True:
            for index in stratified(self.rng, range(len(self.entries)),
                                    lambda i: self.entries[i][0]):
                yield self._request(index)

    def _pass(self):
        return [call_cli(argv) for _, argv in self.entries]

    def gate(self):
        def verify(outputs):
            checked = [self._verify(i, got) for i, got in enumerate(outputs)]
            bad = [c for c in checked if c.failed]
            return Checked(len(checked), len(bad), bad[0].problem if bad else "")
        return [("cli.catalogue", self._pass, verify)]

    def fingerprints(self):
        return {"cli": [[code, sha256(out)] for code, out in self._pass()]}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


WORKLOADS = {w.name: w for w in (Maps, Lattice, Operators, Cli)}
