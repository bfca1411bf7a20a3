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


def _parse_quadruple(text: str) -> tuple[int, int, int, int]:
    parts = [int(t) for t in text.split(",")]
    if len(parts) != 4 or any(v not in (0, 1, 2) for v in parts):
        raise argparse.ArgumentTypeError("need four entries in {0,1,2} like 2,0,0,0")
    return tuple(parts)


def _fmt(p) -> str:
    return pg.format_point(p)


def cmd_build_cap(args) -> tuple[int, dict, list[str]]:
    model = build_model()
    base = veronese_map(args.preimage)
    pts = golay.generator_matrix(capmod.build_cap(model, base)).column_points
    report = {
        "command": "build-cap",
        "base": _fmt(base),
        "points": [_fmt(p) for p in pts],
    }
    return 0, report, [_fmt(p) for p in pts]


def cmd_verify_design(args) -> tuple[int, dict, list[str]]:
    model = build_model()
    base = veronese_map(args.preimage)
    cap = capmod.build_cap(model, base)
    design = capmod.blocks(cap)
    witt = capmod.verify_witt(design)
    dual = capmod.build_dual_cap(model, base)
    missed = capmod.missed_primes(cap)
    disjoint = capmod.disjointness_check(cap, dual)
    aut = capmod.automorphism_order(design)
    identities = capmod.vector_identity_check()
    checks = [
        ("every 5 of the 12 points lies in exactly one 6-point prime section",
         witt.ok),
        ("exactly 12 primes carry no cap point, and they form the dual cap",
         len(missed) == 12 and set(missed) == dual.primes),
        ("no cap point is incident with a dual-cap prime", disjoint),
        ("the point permutation group has order 95040", aut == 95040),
        ("conic spanning-vector identities hold", identities),
    ]
    ok = all(passed for _, passed in checks)
    report = {
        "command": "verify-design",
        "base": _fmt(cap.base_point),
        "counts": {
            "points": len(cap.points),
            "blocks": witt.block_count,
            "empty_primes": len(missed),
            "quad_cover": witt.quad_cover_value,
            "aut": aut,
        },
        "checks": [{"claim": c, "pass": p} for c, p in checks],
        "result": "PASS" if ok else "FAIL",
    }
    lines = [
        f"points={len(cap.points)}",
        f"blocks={witt.block_count}",
        f"empty_primes={len(missed)}",
        f"quad_cover={witt.quad_cover_value}",
        f"aut={aut}",
    ]
    for claim, passed in checks:
        lines.append(f"check={'PASS' if passed else 'FAIL'} {claim}")
    lines.append(f"result={report['result']}")
    return (0 if ok else FAIL_EXIT), report, lines


def cmd_todd(args) -> tuple[int, dict, list[str]]:
    model = build_model()
    base = veronese_map(args.preimage)
    cap = capmod.build_cap(model, base)
    missed = capmod.missed_primes(cap)
    report = {
        "command": "todd",
        "base": _fmt(base),
        "missing_primes": [_fmt(h) for h in missed],
    }
    return 0, report, [_fmt(h) for h in missed]


def cmd_aut_order(args) -> tuple[int, dict, list[str]]:
    model = build_model()
    base = veronese_map(args.preimage)
    design = capmod.blocks(capmod.build_cap(model, base))
    order = capmod.automorphism_order(design)
    return 0, {"command": "aut-order", "order": order}, [str(order)]


def cmd_golay(args) -> tuple[int, dict, list[str]]:
    model = build_model()
    code = golay.generator_matrix(capmod.build_cap(model, capmod.DEFAULT_BASE))
    if args.emit_matrix:
        lines = [" ".join(str(x) for x in row) for row in code.generator]
        report = {"command": "golay", "generator": [list(r) for r in code.generator]}
        return 0, report, lines
    dist = golay.weight_distribution(code)
    k = golay.code_rank(code)
    d = golay.minimum_distance(code)
    sd = golay.is_self_dual(code)
    # 729 distinct words checks k = 6 by enumeration, apart from the rref.
    distinct = len(set(golay.enumerate_codewords(code)))
    weights_ok = dist == {0: 1, 6: 264, 9: 440, 12: 24}
    ok = k == 6 and d == 6 and sd and distinct == 729 and weights_ok
    report = {
        "command": "golay",
        "n": 12,
        "k": k,
        "d": d,
        "self_dual": sd,
        "weights": {str(w): c for w, c in dist.items()},
        "result": "PASS" if ok else "FAIL",
    }
    lines = [f"n=12 k={k} d={d} self_dual={'true' if sd else 'false'}"]
    lines += [f"weight {w}: {c}" for w, c in dist.items()]
    lines.append(f"result={report['result']}")
    return (0 if ok else FAIL_EXIT), report, lines


def cmd_classify(args) -> tuple[int, dict, list[str]]:
    model = build_model()
    base = veronese_map(args.preimage)
    s = cosets.twelve_set(model, base, args.quadruple)
    kind = cosets.classify(model, base, s)
    profile = cosets.hyperplane_profile(s)
    report = {
        "command": "classify",
        "quadruple": list(args.quadruple),
        "class": kind,
        "class_sum": sum(args.quadruple) % 3,
        "profile": {str(k): v for k, v in profile.items()},
    }
    lines = [
        "quadruple=" + ",".join(str(q) for q in args.quadruple),
        f"class={kind}",
        f"class_sum={sum(args.quadruple) % 3}",
    ]
    lines += [f"profile[{k}]={v}" for k, v in profile.items()]
    return 0, report, lines


def cmd_scan_cosets(args) -> tuple[int, dict, list[str]]:
    model = build_model()
    base = veronese_map(args.preimage)
    rows = []
    for q in cosets.all_quadruples():
        s = cosets.twelve_set(model, base, q)
        kind = cosets.classify(model, base, s)
        profile = cosets.hyperplane_profile(s)
        chordal = all(chordal_cubic_contains(p) for p in s.points)
        rows.append(
            {
                "quadruple": list(q),
                "class": kind,
                "profile_0": profile.get(0, 0),
                "profile_6": profile.get(6, 0),
                "chordal": chordal,
            }
        )
    report = {"command": "scan-cosets", "base": _fmt(base), "rows": rows}
    lines = ["quadruple class profile[0] profile[6] chordal"]
    for r in rows:
        lines.append(
            "{} {} {} {} chordal={}".format(
                ",".join(str(q) for q in r["quadruple"]),
                r["class"],
                r["profile_0"],
                r["profile_6"],
                "yes" if r["chordal"] else "no",
            )
        )
    return 0, report, lines


def cmd_analyze_r(args) -> tuple[int, dict, list[str]]:
    model = build_model()
    base = veronese_map(args.preimage)
    if sum(args.quadruple) % 3 != 2:
        print("analyze-r needs a quadruple with sum 2 mod 3", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    if args.target is not None and pg.incident(base, args.target):
        print("analyze-r needs a --target prime off the base point", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    s = cosets.twelve_set(model, base, args.quadruple)
    er = cosets.analyze_exotic(model, base, s, target=args.target)
    proj = er.projection
    report = {
        "command": "analyze-r",
        "quadruple": list(args.quadruple),
        "six_point_primes": [_fmt(h) for h in er.six_point_primes],
        "common_point": _fmt(er.common_point),
        "projection": {
            "target": _fmt(proj.target),
            "lines": {
                cosets.LABEL_NAMES[k]: [_fmt(p) for p in proj.lines[k]]
                for k in cosets.LABEL_ORDER
            },
            "transversal": [_fmt(p) for p in proj.transversal],
            "image_points": [_fmt(p) for p in proj.image_points],
        },
    }
    lines = [
        "quadruple=" + ",".join(str(q) for q in args.quadruple),
        f"six_point_primes={len(er.six_point_primes)}",
    ]
    lines += ["prime=" + _fmt(h) for h in er.six_point_primes]
    lines.append(f"common_point={_fmt(er.common_point)}")
    lines.append(f"target={_fmt(proj.target)}")
    for k in cosets.LABEL_ORDER:
        lines.append(
            f"line_{cosets.LABEL_NAMES[k]}=" + ",".join(_fmt(p) for p in proj.lines[k])
        )
    lines.append("transversal=" + ",".join(_fmt(p) for p in proj.transversal))
    lines.append("image_points=" + ",".join(_fmt(p) for p in proj.image_points))
    return 0, report, lines


def cmd_dump_veronese(args) -> tuple[int, dict, list[str]]:
    model = build_model()
    rows = []
    for c in model.conics:
        rows.append(
            {
                "line": _fmt(c.preimage_line),
                "points": [_fmt(p) for p in sorted(c.points)],
                "prime": _fmt(model.osculating_primes[c]),
            }
        )
    report = {"command": "dump-veronese", "conics": rows}
    lines = [
        "line={} points={} prime={}".format(
            r["line"], ",".join(r["points"]), r["prime"]
        )
        for r in rows
    ]
    return 0, report, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittcap",
        description="Construct and verify the 12-cap of internal points in "
        "PG(5,3), its 5-(12,6,1) design, the extended ternary Golay code, "
        "and the 81 layer-replacement twelve-sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preimage=True, quadruple=False, target=False):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="format"
        )
        if preimage:
            p.add_argument(
                "--preimage",
                type=_point_arg(2),
                default=capmod.DEFAULT_BASE_PREIMAGE,
                help="parameter-plane preimage of the base point (default 1,0,0)",
            )
        if quadruple:
            p.add_argument("--quadruple", type=_parse_quadruple, required=True)
        if target:
            p.add_argument(
                "--target",
                type=_point_arg(5),
                default=None,
                help="projection prime, colon format (default: first prime off the base)",
            )

    handlers = {}
    for name, fn, kwargs in (
        ("build-cap", cmd_build_cap, {}),
        ("verify-design", cmd_verify_design, {}),
        ("todd", cmd_todd, {}),
        ("aut-order", cmd_aut_order, {}),
        ("golay", cmd_golay, {"preimage": False}),
        ("classify", cmd_classify, {"quadruple": True}),
        ("scan-cosets", cmd_scan_cosets, {}),
        ("analyze-r", cmd_analyze_r, {"quadruple": True, "target": True}),
        ("dump-veronese", cmd_dump_veronese, {"preimage": False}),
    ):
        p = sub.add_parser(name)
        common(p, **kwargs)
        if name == "golay":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--emit-matrix", action="store_true")
            group.add_argument("--verify", action="store_true")
        handlers[name] = fn
    parser.set_defaults(handlers=handlers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = args.handlers[args.command]
    try:
        code, report, lines = handler(args)
    except ValueError as e:
        failure = {"result": "FAIL", "error": str(e)}
        if args.format == "json":
            print(json.dumps(failure))
        else:
            print(f"result=FAIL error={e}")
        return FAIL_EXIT
    if args.format == "json":
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
