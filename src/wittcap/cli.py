"""Command-line front end: construction, verification, export.

Every subcommand is a batch report with deterministic output; identical
invocations produce byte-identical bytes.  Exit codes: 0 all checks pass,
1 a verification failed (with a machine-readable failure record), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cap as capmod
from . import cosets, golay, pg
from .pg import format_point as fmt
from .veronese import build_model, chordal_cubic_contains, veronese_map

USAGE_EXIT = 2
FAIL_EXIT = 1


def _point_arg(n: int):
    """An argparse type reading a point of PG(n,3), with ',' or ':' separators."""
    example = ":".join(["1"] + ["0"] * n)

    def parse(text: str) -> pg.Point:
        try:
            p = pg.parse_point(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e))
        if len(p) != n + 1:
            raise argparse.ArgumentTypeError(f"need {n + 1} coordinates like {example}")
        return p

    return parse


_plane_point = _point_arg(2)


def _base_arg(text: str) -> pg.Point:
    """The base point named by `--preimage`: the image of a parameter-plane point."""
    return veronese_map(_plane_point(text))


def _parse_quadruple(text: str) -> tuple[int, int, int, int]:
    tokens = text.split(",")
    if len(tokens) != 4 or any(t not in ("0", "1", "2") for t in tokens):
        raise argparse.ArgumentTypeError("need four entries in {0,1,2} like 2,0,0,0")
    return tuple(int(t) for t in tokens)


def _verdict(report: dict, checks: list[tuple[str, bool]]) -> int:
    """Set report["result"] from (claim, passed) pairs; return the exit code."""
    ok = all(passed for _, passed in checks)
    report["result"] = "PASS" if ok else "FAIL"
    return 0 if ok else FAIL_EXIT


def cmd_build_cap(model, args) -> tuple[int, dict, list[str]]:
    pts = golay.generator_matrix(capmod.build_cap(model, args.base)).column_points
    report = {"command": "build-cap", "base": fmt(args.base),
              "points": [fmt(p) for p in pts]}
    return 0, report, report["points"]


def cmd_verify_design(model, args) -> tuple[int, dict, list[str]]:
    cap = capmod.build_cap(model, args.base)
    design = capmod.blocks(cap)
    witt = capmod.verify_witt(design)
    dual = capmod.build_dual_cap(model, args.base)
    missed = capmod.missed_primes(cap)
    aut = capmod.automorphism_order(design)
    checks = [
        ("every 5 of the 12 points lies in exactly one 6-point prime section",
         witt.ok),
        ("exactly 12 primes carry no cap point, and they form the dual cap",
         len(missed) == 12 and set(missed) == dual.primes),
        ("no cap point is incident with a dual-cap prime",
         capmod.disjointness_check(cap, dual)),
        ("the point permutation group has order 95040", aut == 95040),
        ("conic spanning-vector identities hold", capmod.vector_identity_check()),
    ]
    report = {
        "command": "verify-design",
        "base": fmt(args.base),
        "counts": {
            "points": len(cap.points),
            "blocks": witt.block_count,
            "empty_primes": len(missed),
            "quad_cover": witt.quad_cover_value,
            "aut": aut,
        },
        "checks": [{"claim": c, "pass": p} for c, p in checks],
    }
    code = _verdict(report, checks)
    lines = [f"{k}={v}" for k, v in report["counts"].items()]
    lines += [f"check={'PASS' if p else 'FAIL'} {c}" for c, p in checks]
    return code, report, lines + [f"result={report['result']}"]


def cmd_todd(model, args) -> tuple[int, dict, list[str]]:
    missed = capmod.missed_primes(capmod.build_cap(model, args.base))
    report = {
        "command": "todd",
        "base": fmt(args.base),
        "missing_primes": [fmt(h) for h in missed],
    }
    return 0, report, report["missing_primes"]


def cmd_aut_order(model, args) -> tuple[int, dict, list[str]]:
    order = capmod.automorphism_order(capmod.blocks(capmod.build_cap(model, args.base)))
    return 0, {"command": "aut-order", "order": order}, [str(order)]


def cmd_golay(model, args) -> tuple[int, dict, list[str]]:
    code = golay.generator_matrix(capmod.build_cap(model, capmod.DEFAULT_BASE))
    if args.emit_matrix:
        lines = [" ".join(str(x) for x in row) for row in code.generator]
        report = {"command": "golay", "generator": [list(r) for r in code.generator]}
        return 0, report, lines
    dist = golay.weight_distribution(code)
    k = golay.code_rank(code)
    d = golay.minimum_distance(code)
    sd = golay.is_self_dual(code)
    report = {
        "command": "golay",
        "n": 12,
        "k": k,
        "d": d,
        "self_dual": sd,
        "weights": {str(w): c for w, c in dist.items()},
    }
    exit_code = _verdict(report, [
        ("rank 6", k == 6),
        ("minimum distance 6", d == 6),
        ("self-dual", sd),
        # 729 distinct words checks k = 6 by enumeration, apart from the rref.
        ("729 distinct words", len(set(golay.enumerate_codewords(code))) == 729),
        ("weights 1, 264, 440, 24", dist == {0: 1, 6: 264, 9: 440, 12: 24}),
    ])
    lines = [f"n=12 k={k} d={d} self_dual={'true' if sd else 'false'}"]
    lines += [f"weight {w}: {c}" for w, c in dist.items()]
    return exit_code, report, lines + [f"result={report['result']}"]


def _quadruple_line(q) -> str:
    return "quadruple=" + ",".join(str(x) for x in q)


def cmd_classify(model, args) -> tuple[int, dict, list[str]]:
    s = cosets.twelve_set(model, args.base, args.quadruple)
    kind = cosets.classify(model, args.base, s)
    profile = cosets.hyperplane_profile(s)
    report = {
        "command": "classify",
        "quadruple": list(args.quadruple),
        "class": kind,
        "class_sum": sum(args.quadruple) % 3,
        "profile": {str(k): v for k, v in profile.items()},
    }
    lines = [_quadruple_line(args.quadruple), f"class={kind}",
             f"class_sum={report['class_sum']}"]
    return 0, report, lines + [f"profile[{k}]={v}" for k, v in profile.items()]


def cmd_scan_cosets(model, args) -> tuple[int, dict, list[str]]:
    rows = []
    for q in cosets.all_quadruples():
        s = cosets.twelve_set(model, args.base, q)
        profile = cosets.hyperplane_profile(s)
        rows.append({
            "quadruple": list(q),
            "class": cosets.classify(model, args.base, s),
            "profile_0": profile.get(0, 0),
            "profile_6": profile.get(6, 0),
            "chordal": all(chordal_cubic_contains(p) for p in s.points),
        })
    report = {"command": "scan-cosets", "base": fmt(args.base), "rows": rows}
    lines = ["quadruple class profile[0] profile[6] chordal"]
    lines += [
        "{} {} {} {} chordal={}".format(
            ",".join(str(q) for q in r["quadruple"]), r["class"], r["profile_0"],
            r["profile_6"], "yes" if r["chordal"] else "no",
        )
        for r in rows
    ]
    return 0, report, lines


def cmd_analyze_r(model, args) -> tuple[int, dict, list[str]]:
    if sum(args.quadruple) % 3 != 2:
        print("analyze-r needs a quadruple with sum 2 mod 3", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    if args.target is not None and pg.incident(args.base, args.target):
        print("analyze-r needs a --target prime off the base point", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    s = cosets.twelve_set(model, args.base, args.quadruple)
    er = cosets.analyze_exotic(model, args.base, s, target=args.target)
    proj = er.projection
    report = {
        "command": "analyze-r",
        "quadruple": list(args.quadruple),
        "six_point_primes": [fmt(h) for h in er.six_point_primes],
        "common_point": fmt(er.common_point),
        "projection": {
            "target": fmt(proj.target),
            "lines": {
                cosets.LABEL_NAMES[k]: [fmt(p) for p in proj.lines[k]]
                for k in cosets.LABEL_ORDER
            },
            "transversal": [fmt(p) for p in proj.transversal],
            "image_points": [fmt(p) for p in proj.image_points],
        },
    }
    shown = report["projection"]
    lines = [_quadruple_line(args.quadruple),
             f"six_point_primes={len(er.six_point_primes)}"]
    lines += ["prime=" + h for h in report["six_point_primes"]]
    lines += [f"common_point={report['common_point']}", f"target={shown['target']}"]
    lines += [f"line_{name}=" + ",".join(pts) for name, pts in shown["lines"].items()]
    lines += [f"{key}=" + ",".join(shown[key]) for key in ("transversal", "image_points")]
    return 0, report, lines


def cmd_dump_veronese(model, args) -> tuple[int, dict, list[str]]:
    rows = [
        {
            "line": fmt(c.preimage_line),
            "points": [fmt(p) for p in sorted(c.points)],
            "prime": fmt(model.osculating_primes[c]),
        }
        for c in model.conics
    ]
    lines = [f"line={r['line']} points={','.join(r['points'])} prime={r['prime']}"
             for r in rows]
    return 0, {"command": "dump-veronese", "conics": rows}, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittcap",
        description="Construct and verify the 12-cap of internal points in "
        "PG(5,3), its 5-(12,6,1) design, the extended ternary Golay code, "
        "and the 81 layer-replacement twelve-sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--preimage": dict(
            type=_base_arg, default=capmod.DEFAULT_BASE, dest="base", metavar="PREIMAGE",
            help="parameter-plane preimage of the base point (default 1,0,0)",
        ),
        "--quadruple": dict(type=_parse_quadruple, required=True),
        "--target": dict(
            type=_point_arg(5), default=None,
            help="projection prime, colon format (default: first prime off the base)",
        ),
    }
    for name, handler, opts in (
        ("build-cap", cmd_build_cap, ("--preimage",)),
        ("verify-design", cmd_verify_design, ("--preimage",)),
        ("todd", cmd_todd, ("--preimage",)),
        ("aut-order", cmd_aut_order, ("--preimage",)),
        ("golay", cmd_golay, ()),
        ("classify", cmd_classify, ("--preimage", "--quadruple")),
        ("scan-cosets", cmd_scan_cosets, ("--preimage",)),
        ("analyze-r", cmd_analyze_r, ("--preimage", "--quadruple", "--target")),
        ("dump-veronese", cmd_dump_veronese, ()),
    ):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for opt in opts:
            p.add_argument(opt, **options[opt])
        if name == "golay":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--emit-matrix", action="store_true")
            group.add_argument("--verify", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report, lines = args.handler(build_model(), args)
    except ValueError as e:
        code, report = FAIL_EXIT, {"result": "FAIL", "error": str(e)}
        lines = [f"result=FAIL error={e}"]
    for line in [json.dumps(report)] if args.format == "json" else lines:
        print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
