"""Self-test of the benchmark itself (not of the library).

    python3 bench/selftest.py

Each case runs in a fresh interpreter, so caches start cold:

* `tracer`: every namespace binding is wrapped, `cache_info()` survives the
  wrapping, and traced counts equal hand-derived values: 132,496 `gf3.dot`
  calls (364 primes x 364 points) for one cold masks build, one masks cache
  miss per process, one `automorphism_order` call per witt-verify item, two
  per rigid-aut item, and the coset-scan call counts.
* `cli`: the same in traced CLI children.
* `faults`: injected faults make items fail with the expected witness, so
  `fail_ratio` rises; run once normally and once under `python -O`.
* `static`: no `assert` in the benchmark, inputs equal the library's
  enumeration, and BENCHMARK.json lists exactly the metrics the runs print.

The counts are those of the library at the commit that added the benchmark;
a change that alters how much work the library does must update them.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from wittcap import cap, cosets, gf3, pg, veronese  # noqa: E402

PROBLEMS: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        PROBLEMS.append(what)


def calls(tr, fn: str, item) -> int:
    return tracer.aggregate(tr.spans, {item}).get(fn, {}).get("calls", 0)


def case_tracer() -> None:
    originals = tracer.public_functions()
    tr = tracer.Tracer()
    tr.install()
    bound = tr.bindings()
    for name in ("cap.classify_conic_plane", "cap.veronese_map",
                 "cosets.classify_conic_plane", "cosets.lift_collineation",
                 "cosets.tangent_lines", "cosets.veronese_map", "golay.cap_domain",
                 "golay.cap_map", "cli.build_model", "cli.veronese_map"):
        check(name in bound, f"binding {name} is not wrapped")
    for fn in (pg.hyperplane_point_masks, veronese.build_model):
        check(fn is not originals[f"{fn.__module__.split('.')[-1]}.{fn.__name__}"],
              f"{fn.__name__} is not wrapped")
        check(fn.cache_info().misses == 0, f"{fn.__name__}.cache_info() before use")

    dots = tr.counts["gf3.dot"]
    pg.hyperplane_point_masks(5)
    check(tr.counts["gf3.dot"] - dots == 132_496,
          f"cold masks build made {tr.counts['gf3.dot'] - dots} gf3.dot calls, not 132496")
    pg.hyperplane_point_masks(5)
    info = pg.hyperplane_point_masks.cache_info()
    check((info.misses, info.hits) == (1, 1), f"masks cache_info {info}")

    witt = workloads.WittVerify(0)
    witt.setup()
    tr.item = "witt"
    check(witt.run(workloads.DEFAULT_BASE) == [], "witt-verify item failed")
    check(calls(tr, "cap.automorphism_order", "witt") == 1, "automorphism_order per witt item")
    check(calls(tr, "golay.enumerate_codewords", "witt") == 4, "enumerate_codewords per witt item")

    rigid = workloads.RigidAut(0)
    tr.item = "rigid"
    check(rigid.run(rigid.traced()[0]) == [], "rigid-aut item failed")
    check(calls(tr, "cap.automorphism_order", "rigid") == 2, "automorphism_order per rigid item")
    check(calls(tr, "cap.blocks", "rigid") == 2, "blocks per rigid item")

    scan = workloads.CosetScan(0)
    scan.setup()
    scan.run(workloads.DEFAULT_BASE)           # fills the per-base caches
    tr.item = "coset"
    check(scan.run(workloads.DEFAULT_BASE) == [], "coset-scan item failed")
    # 81 scanned sets, 81 more in the orbit check, its 2 start sets, 27 exotic.
    expected = {"cosets.verify_orbit_equivalence": 1, "cosets.analyze_exotic": 27,
                "cosets.classify": 81 + 27, "cosets.hyperplane_profile": 81 + 81 + 27,
                "cosets.twelve_set": 81 + 81 + 2 + 27}
    for fn, n in expected.items():
        got = calls(tr, fn, "coset")
        check(got == n, f"{fn}: {got} calls per coset item, expected {n}")
    check(pg.hyperplane_point_masks.cache_info().misses == 1, "masks missed more than once")

    tr.uninstall()
    for qual, fn in originals.items():
        mod, name = qual.split(".")
        check(getattr(sys.modules[f"wittcap.{mod}"], name) is fn, f"{qual} not restored")


def case_cli() -> None:
    env = workloads.cli_env(str(ROOT))
    for argv, fn, n, misses in ((("verify-design",), "cap.automorphism_order", 1, 1),
                                (("golay", "--verify"), "golay.enumerate_codewords", 3, 0)):
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "trace_cli.py"), *argv,
                               "--format", "json"], env=env, capture_output=True, text=True)
        child = json.loads(proc.stdout.splitlines()[-1])
        check(child["exit"] == 0, f"traced {argv[0]} exited {child['exit']}")
        got = child["spans"].get(fn, {}).get("calls")
        check(got == n, f"traced {argv[0]}: {got} {fn} calls, expected {n}")
        check(child["masks_misses"] == misses,
              f"traced {argv[0]}: {child['masks_misses']} masks cache misses, expected {misses}")


def failing(workload, stub_owner, name, stub) -> list[dict]:
    """Run one item with `stub_owner.name` replaced; return its witnesses."""
    original = getattr(stub_owner, name)
    setattr(stub_owner, name, stub(original))
    try:
        res = workloads.timed_loop(workload, 0.0)   # one round
        check(res["attempted"] >= 1 and res["failed"] / res["attempted"] == 1.0,
              f"fail_ratio {res['failed']}/{res['attempted']} under {name} fault")
        return res["witnesses"]
    finally:
        setattr(stub_owner, name, original)


def case_faults() -> None:
    def saw(witnesses, check_name, what):
        found = any(w["check"] == check_name for w in witnesses)
        check(found, f"{what}: no '{check_name}' failure in {witnesses}")

    witt = workloads.WittVerify(0)
    witt.setup()
    saw(failing(witt, cap, "automorphism_order", lambda f: lambda d: 95039), "aut",
        "order 95039")

    def moved(f):
        def build(model, base):
            c = f(model, base)
            p = min(c.points)
            q = next(x for x in pg.enumerate_points(5) if x not in c.points and x != base)
            return dataclasses.replace(c, points=c.points - {p} | {q})
        return build
    # The order stub only keeps the search off the broken design, where it is slow.
    search = cap.automorphism_order
    cap.automorphism_order = lambda design: 95040
    try:
        saw(failing(witt, cap, "build_cap", moved), "blocks", "cap with one point moved")
    finally:
        cap.automorphism_order = search

    def label_dependent(f):
        seen = []

        def order(design):
            seen.append(design)
            return len(seen)            # differs between a set and its relabelled copy
        return order
    rigid = workloads.RigidAut(0)
    rigid.setup()
    saw(failing(rigid, cap, "automorphism_order", label_dependent), "relabel_order",
        "label-dependent order")

    scan = workloads.CosetScan(0)
    scan.setup()
    saw(failing(scan, cosets, "verify_orbit_equivalence",
                lambda f: lambda m, b: dataclasses.replace(f(m, b), group_order=26)),
        "orbit_group_order", "orbit group of order 26")

    cli = workloads.ColdCli(0, str(ROOT))
    cli.setup()
    saw(workloads.run_checked(cli, ("aut-order", "--no-such-flag")), "exit_code",
        "CLI usage error")
    f: list = []
    workloads.check_cli(f, ("aut-order",), {"order": 95039}, cli.ref)
    saw(f, "aut", "CLI order 95039")


def case_static() -> None:
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        check(not any(isinstance(n, ast.Assert) for n in ast.walk(tree)),
              f"{path.name} uses assert")
    check(workloads.points(5) == list(pg.enumerate_points(5)), "point enumeration differs")
    check(list(workloads.BASES) == sorted(veronese.build_model().points), "surface points differ")
    check(set(workloads.cli_references()["cap"]) ==
          {workloads.fmt(p) for p in cap.build_cap(veronese.build_model(),
                                                   workloads.DEFAULT_BASE).points},
          "closed-form cap differs from build_cap")
    check(all(gf3.rank(workloads.random_collineation(random.Random(s))) == 6
              for s in range(20)), "random_collineation gave a singular matrix")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS, "workload names")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(worker.PER_LAYER),
          "per_layer metrics differ from worker.PER_LAYER")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} ==
          {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"},
          "end_to_end metrics differ from what run.py prints")


CASES = {"tracer": case_tracer, "cli": case_cli, "faults": case_faults, "static": case_static}


def main(argv: list[str]) -> int:
    if argv:
        CASES[argv[0]]()
        print(json.dumps(PROBLEMS))
        return 1 if PROBLEMS else 0
    status = 0
    runs = [([], name) for name in CASES] + [(["-O"], "faults")]
    for flags, name in runs:
        proc = subprocess.run([sys.executable, *flags, __file__, name],
                              capture_output=True, text=True)
        label = " ".join(flags + [name])
        if proc.returncode:
            status = 1
            print(f"FAIL {label}\n{proc.stdout}{proc.stderr[-2000:]}")
        else:
            print(f"ok   {label}")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
