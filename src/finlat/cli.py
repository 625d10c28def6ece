"""Command-line front door.

Subcommands parse interchange records, run the classification and
verification machinery, and emit text or structured (JSON) reports.
Exit codes: 0 all-pass, 1 property or assertion failure (witness
emitted), 2 usage or parse error.
"""

import argparse
from dataclasses import asdict
from functools import cache
import json
import sys

from . import comphom, contmap, equivrel, finspace, funclat, records
from .bitset import mask_of

# finlat.verify is imported by the handlers that use it, so the other
# subcommands start without it and without its process pool.  The verify
# flags below map one to one onto SuiteConfig fields; their parser default
# is None, and a flag left out keeps SuiteConfig's own default
_SUITE_FLAGS = ("max_points", "sample_points", "sample_budget", "seed",
                "workers", "lattice_dim", "mutation", "include_timing")


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _flag(value):
    if value is None:
        return "n/a"
    return "true" if value else "false"


def _emit(args, text_lines, structured):
    if args.format == "structured":
        print(json.dumps(structured, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _cmd_space_props(args):
    space = records.load_record(_read(args.file), "space")
    record = records.emit_space(space)
    lines = [record, "points: %d" % space.n, "opens: %d" % len(space.opens)]
    structured = {
        "record": record,
        "n": space.n,
        "open_count": len(space.opens),
    }
    if args.subset is not None:
        if not all(0 <= p < space.n for p in args.subset):
            raise ValueError("subset points must lie in 0..%d" % (space.n - 1))
        mask = mask_of(args.subset)
        flags = {"open": space.is_open(mask),
                 **asdict(finspace.classify_subset(space, mask))}
        lines.append("subset [%s]:" % ",".join(str(x) for x in sorted(set(args.subset))))
        for name, value in flags.items():
            lines.append("  %-20s %s" % (name, _flag(value)))
        structured["subset"] = sorted(set(args.subset))
        structured["subset_props"] = flags
    _emit(args, lines, structured)
    return 0


def _cmd_classify_map(args):
    m = records.load_record(_read(args.file), "map")
    cls = contmap.classify_map(m)
    record = records.emit_map(m)
    lines = [record, "", "%-20s %-6s %s" % ("class", "value", "routine")]
    for name, value in cls.flags().items():
        lines.append("%-20s %-6s %s" % (name, _flag(value), cls.procedure_ids[name]))
    lines.append("")
    lines.append("%-16s %-20s %-11s %s" % ("procedure", "target", "kind", "value"))
    table = []
    for pid in sorted(contmap.PROCEDURES):
        proc = contmap.PROCEDURES[pid]
        value = contmap.decide_by(m, proc.target, pid)
        lines.append(
            "%-16s %-20s %-11s %s" % (pid, proc.target, proc.kind, _flag(value))
        )
        table.append(
            {"id": pid, "target": proc.target, "kind": proc.kind, "value": value}
        )
    structured = {
        "record": record,
        "classification": cls.flags(),
        "routines": cls.procedure_ids,
        "procedures": table,
    }
    _emit(args, lines, structured)
    return 0


def _cmd_quotient(args):
    rel = records.load_record(_read(args.file), "rel")
    qspace, projection = equivrel.quotient(rel)
    flags = contmap.classify_map(projection)  # P-eqr: closed iff closed_map
    record = records.emit_rel(rel)
    quotient_record = records.emit_space(qspace)
    projection_record = records.emit_map(projection)
    lines = [
        record,
        "blocks: %d" % len(rel.blocks),
        "closed relation: %s" % _flag(flags.closed_map),
        "quotient: %s" % quotient_record,
        "projection: %s" % projection_record,
        "projection quotient_map: %s" % _flag(flags.quotient_map),
        "projection closed_map: %s" % _flag(flags.closed_map),
    ]
    structured = {
        "record": record,
        "block_count": len(rel.blocks),
        "closed_relation": flags.closed_map,
        "quotient_record": quotient_record,
        "projection_record": projection_record,
        "projection": flags.flags(),
    }
    _emit(args, lines, structured)
    return 0


def _cmd_lattice_canonical(args):
    cs = records.load_record(_read(args.file), "sublattice")
    record = records.emit_sublattice(cs)
    lines = [record, "dimension: %d" % funclat.dim(cs)]
    structured = {
        "record": record,
        "n": cs.n,
        "dimension": funclat.dim(cs),
    }
    _emit(args, lines, structured)
    return 0


def _cmd_lattice_classify(args):
    ambient = records.load_record(_read(args.ambient), "sublattice")
    sub = records.load_record(_read(args.sub), "sublattice")
    flags = asdict(funclat.classify_sublattice(ambient, sub))
    ambient_record = records.emit_sublattice(ambient)
    sub_record = records.emit_sublattice(sub)
    lines = [ambient_record, sub_record, ""]
    for name, value in flags.items():
        lines.append("%-17s %s" % (name, _flag(value)))
    structured = {
        "ambient_record": ambient_record,
        "sub_record": sub_record,
        "flags": flags,
    }
    _emit(args, lines, structured)
    return 0


def _cmd_hom_check(args):
    try:
        t = records.load_record(_read(args.file), "hom")
    except records.RecordError as outer:
        # a well-formed record whose matrix fails the test is a verdict,
        # not a usage error; surface the rejection witness
        exc = outer.__cause__
        if not isinstance(exc, comphom.NotHomomorphism):
            raise
        witness = list(str(v) for v in exc.witness) if exc.witness else None
        lines = ["rejected: %s" % exc]
        if witness:
            lines.append("witness f = [%s]" % ", ".join(witness))
        _emit(args, lines,
              {"accepted": False, "reason": str(exc), "witness": witness})
        return 1
    conditions = comphom.hoc_conditions(t)
    record = records.emit_hom(t)
    lines = [
        record,
        "shape: %d x %d" % (t.m, t.n),
        "weights: [%s]" % ", ".join(str(w) for w in t.weights),
        "coordinates: [%s]" % ", ".join(
            "-" if c is None else str(c) for c in t.phi
        ),
    ]
    for name in sorted(conditions):
        lines.append("%-18s %s" % (name, _flag(conditions[name])))
    lines.append("order continuous: %s" % _flag(all(conditions.values())))
    structured = {
        "accepted": True,
        "record": record,
        "shape": [t.m, t.n],
        "weights": [str(w) for w in t.weights],
        "coordinates": list(t.phi),
        "conditions": conditions,
        "order_continuous": all(conditions.values()),
    }
    _emit(args, lines, structured)
    return 0


def _cmd_certify(args):
    m = records.load_record(_read(args.map), "map")
    e = records.load_record(_read(args.lattice), "sublattice")
    try:
        report = comphom.certify_composition(m, e)
    except comphom.CertificateMismatch:
        print("certificate disagrees with the direct lattice verdict",
              file=sys.stderr)
        print(records.emit_map(m), file=sys.stderr)
        return 1
    map_record = records.emit_map(m)
    lattice_record = records.emit_sublattice(e)
    lines = [map_record, lattice_record, ""]
    lines.append("certificates:")
    for name in sorted(report.certificates):
        lines.append("  %-22s %s" % (name, _flag(report.certificates[name])))
    lines.append("conclusions:")
    for name in sorted(report.conclusions):
        lines.append("  %-22s %s" % (name, _flag(report.conclusions[name])))
    if report.discrete:
        lines.append("direct lattice verdicts (discrete cross-check):")
        for name in sorted(report.direct):
            lines.append("  %-22s %s" % (name, _flag(report.direct[name])))
    structured = {
        "map_record": map_record,
        "lattice_record": lattice_record,
        "certificates": report.certificates,
        "conclusions": report.conclusions,
        "direct": report.direct,
        "discrete": report.discrete,
    }
    _emit(args, lines, structured)
    return 0


def _cmd_enumerate(args):
    n = args.points
    # the filter list first: past its own limit it fails before the
    # preorder list is built
    first = "preorder" if args.strategy == "preorder" else "filter"
    spaces = list(finspace.enumerate_topologies(n, strategy=first))
    if args.strategy == "both":
        preorder = list(finspace.enumerate_topologies(n, strategy="preorder"))
        if [s.opens for s in spaces] != [s.opens for s in preorder]:
            print("the filter and preorder enumerations disagree",
                  file=sys.stderr)
            return 1
        spaces = preorder
    structured = {"n": n, "count": len(spaces), "strategy": args.strategy}
    if args.count_only:
        _emit(args, [str(len(spaces))], structured)
        return 0
    lines = [records.emit_space(s) for s in spaces]
    structured["records"] = lines
    _emit(args, lines, structured)
    return 0


def _cmd_verify(args):
    from .verify import SuiteConfig, run_suite

    given = {name: getattr(args, name) for name in _SUITE_FLAGS
             if getattr(args, name) is not None}
    if args.props:
        given["properties"] = tuple(args.props)
    report = run_suite(SuiteConfig(**given))
    if args.format == "structured":
        sys.stdout.write(report.canonical_bytes().decode("utf-8") + "\n")
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _cmd_example_intero(args):
    from .verify import intero_scenario

    report = intero_scenario(args.depth)
    _emit(args, [report.to_text()], report.to_structured())
    return 0 if report.ok else 1


def _cmd_example_grid(args):
    from .verify import grid_scenario

    report = grid_scenario(args.k)
    _emit(args, [report.to_text()], report.to_structured())
    return 0 if report.ok else 1


def _add_format(parser):
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output style; structured is line-oriented JSON",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finlat",
        description="finite-space and function-lattice workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space-props", help="subset properties of a space record")
    p.add_argument("file")
    p.add_argument("--subset", nargs="+", type=int, default=None,
                   help="points of the subset to classify")
    _add_format(p)
    p.set_defaults(run=_cmd_space_props)

    p = sub.add_parser("classify-map", help="all class flags plus the procedure table")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(run=_cmd_classify_map)

    p = sub.add_parser("quotient", help="quotient space and projection of a rel record")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(run=_cmd_quotient)

    lat = sub.add_parser("lattice", help="sublattice canonicalization and flags")
    latsub = lat.add_subparsers(dest="lattice_command", required=True)
    p = latsub.add_parser("canonical", help="canonical constraint form of a record")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(run=_cmd_lattice_canonical)
    p = latsub.add_parser("classify", help="structure flags of sub inside ambient")
    p.add_argument("ambient")
    p.add_argument("sub")
    _add_format(p)
    p.set_defaults(run=_cmd_lattice_classify)

    hom = sub.add_parser("hom", help="operator checks")
    homsub = hom.add_subparsers(dest="hom_command", required=True)
    p = homsub.add_parser("check", help="verify a hom record and its conditions")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(run=_cmd_hom_check)

    p = sub.add_parser("certify", help="map certificates vs lattice conclusions")
    p.add_argument("map")
    p.add_argument("lattice")
    _add_format(p)
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("enumerate", help="all topologies on n labelled points")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--strategy", choices=("preorder", "filter", "both"),
                   default="both")
    _add_format(p)
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--max-points", type=int)
    p.add_argument("--props", nargs="+",
                   help="property ids to run (default: all)")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--sample-budget", type=int)
    p.add_argument("--sample-points", type=int)
    p.add_argument("--lattice-dim", type=int)
    p.add_argument("--mutation",
                   help="named defect to install first (expected to fail)")
    p.add_argument("--include-timing", action="store_true", default=None)
    _add_format(p)
    p.set_defaults(run=_cmd_verify)

    ex = sub.add_parser("example", help="worked scenario reproductions")
    exsub = ex.add_subparsers(dest="example_command", required=True)
    p = exsub.add_parser("intero", help="binary-expansion interval gluing")
    p.add_argument("--depth", type=int, default=12)
    _add_format(p)
    p.set_defaults(run=_cmd_example_intero)
    p = exsub.add_parser("grid", help="triangulated grid collapse quotients")
    p.add_argument("--k", type=int, default=4)
    _add_format(p)
    p.set_defaults(run=_cmd_example_grid)

    return parser


# built once per process: parsing leaves the parser unchanged
_parser = cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
