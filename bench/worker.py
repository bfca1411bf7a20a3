"""One benchmark worker process.

    python bench/worker.py --workload W --seed N --seconds S --mode M --spawned-at T

`--spawned-at` is the parent's `time.monotonic()` just before it started this
process; the monotonic clock is system-wide, so set-up time is measured from
the spawn.  Modes:

* `setup`: import, set up, warm up, report the set-up time, exit.
* `timed`: the same, then the closed timed loop for S seconds.
* `traced`: set-up and one fixed pass over the workload's items under the
  tracer, plus the same pass untraced, and report the per-layer metrics.

The worker prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402  (both import wittcap from the path set above)
import workloads  # noqa: E402

# (metric, unit).  `<module>.<function>.<stat>`: stat `calls`, `ms` and
# `self_ms` are per item of the traced pass, `ms_p50` is per call.
PER_LAYER = (
    ("pg.masks_build_ms", "ms"),
    ("pg.masks_cache_misses", "count"),
    ("pg.incident.calls", "count"),
    ("pg.apply_collineation.calls", "count"),
    ("pg.apply_collineation.self_ms", "ms"),
    ("pg.compose.calls", "count"),
    ("pg.flat_points.calls", "count"),
    ("pg.flat_points.self_ms", "ms"),
    ("gf3.dot.calls", "count"),
    ("gf3.rref.calls", "count"),
    ("gf3.vec_mat.calls", "count"),
    ("veronese.build_model.ms", "ms"),
    ("veronese.classify_conic_plane.calls", "count"),
    ("veronese.classify_conic_plane.self_ms", "ms"),
    ("veronese.lift_collineation.calls", "count"),
    ("cap.automorphism_order.calls", "count"),
    ("cap.automorphism_order.ms_p50", "ms"),
    ("cap.build_cap.ms", "ms"),
    ("cap.blocks.ms", "ms"),
    ("cap.verify_witt.ms", "ms"),
    ("cap.build_dual_cap.ms", "ms"),
    ("cap.disjointness_check.ms", "ms"),
    ("cap.internal_partner.calls", "count"),
    ("golay.enumerate_codewords.calls", "count"),
    ("golay.enumerate_codewords.ms", "ms"),
    ("golay.weight6_supports.ms", "ms"),
    ("cosets.verify_orbit_equivalence.ms", "ms"),
    ("cosets.group_closure.ms", "ms"),
    ("cosets.induced_layer_powers.calls", "count"),
    ("cosets.induced_layer_powers.self_ms", "ms"),
    ("cosets.classify.ms", "ms"),
    ("cosets.hyperplane_profile.calls", "count"),
    ("cosets.analyze_exotic.ms", "ms"),
    ("cosets.project_from_base.ms", "ms"),
    ("cosets.conic_layers.calls", "count"),
    ("cli.build-cap.ms", "ms"),
    ("cli.verify-design.ms", "ms"),
    ("cli.todd.ms", "ms"),
    ("cli.aut-order.ms", "ms"),
    ("cli.golay.ms", "ms"),
    ("cli.classify.ms", "ms"),
    ("cli.scan-cosets.ms", "ms"),
    ("cli.analyze-r.ms", "ms"),
    ("cli.dump-veronese.ms", "ms"),
    ("cli.interpreter_floor_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)
SETUP_METRICS = {"pg.masks_build_ms", "pg.masks_cache_misses", "veronese.build_model.ms"}
COUNTERS = {"pg.incident", "gf3.dot", "gf3.rref", "gf3.vec_mat"}


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0    # ru_maxrss is KiB on Linux


# --- CLI processes ------------------------------------------------------------


def time_process(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    return (perf_counter() - t0) * 1000.0, proc


def cli_sweep(passes: int) -> dict:
    """Untraced wall times (ms) of the floor, the import and each subcommand."""
    env = workloads.cli_env(ROOT)
    out = {"floor": [], "import": [], "sub": {argv[0]: [] for argv in workloads.COMMANDS}}
    for _ in range(5):
        out["floor"].append(time_process([sys.executable, "-c", "pass"], env)[0])
        out["import"].append(time_process([sys.executable, "-c", "import wittcap"], env)[0])
    for _ in range(passes):
        for argv in workloads.COMMANDS:
            ms, proc = time_process(workloads.cli_argv(argv), env)
            if proc.returncode != 0:
                raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr[-300:]}")
            out["sub"][argv[0]].append(ms)
    return out


def merge(into: dict, agg: dict) -> None:
    for fn, s in agg.items():
        t = into.setdefault(fn, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations": []})
        t["calls"] += s["calls"]
        t["ms"] += s["ms"]
        t["self_ms"] += s["self_ms"]
        t["durations"] += s["durations"]


def traced_cli_pass(workload) -> dict:
    """Each subcommand once in a traced child; spans and counts are merged."""
    spans: dict = {}
    counts: dict = {}
    misses, masks_ms, model_ms, wall_ms, fails = [], [], [], [], []
    for argv in workload.traced():
        ms, proc = time_process(
            [sys.executable, str(ROOT / "bench" / "trace_cli.py"), *argv, "--format", "json"],
            workload.env,
        )
        wall_ms.append(ms)
        if proc.returncode != 0:
            raise RuntimeError(f"traced {argv[0]} exited {proc.returncode}: {proc.stderr[-300:]}")
        child = json.loads(proc.stdout.splitlines()[-1])
        f: list = []
        workloads.expect(f, "exit_code", child["exit"] == 0, got=child["exit"])
        if child["exit"] == 0:
            workloads.check_cli(f, argv, json.loads(child["stdout"]), workload.ref)
        fails.append(f)
        merge(spans, child["spans"])
        for k, v in child["counts"].items():
            counts[k] = counts.get(k, 0) + v
        misses.append(child["masks_misses"])
        masks_ms += child["spans"].get("pg.hyperplane_point_masks", {}).get("durations", [])[:1]
        model_ms += child["spans"].get("veronese.build_model", {}).get("durations", [])[:1]
    return {"spans": spans, "counts": counts, "wall_ms": wall_ms, "fails": fails,
            "masks_misses": max(misses), "masks_ms": statistics.median(masks_ms),
            "build_model_ms": statistics.median(model_ms)}


# --- traced run ---------------------------------------------------------------


def stat(s: dict, which: str, n: int) -> float:
    if which == "ms_p50":
        return statistics.median(s["durations"])
    return s[which] / n


def layer_value(fn: str, which: str, own: dict, n_own: int, calibration: list) -> tuple[float, str]:
    """The metric from the workload's own items; a time metric of a function
    the workload never calls comes from the first calibration item that does."""
    s = own.get(fn)
    if s and s["calls"]:
        return stat(s, which, n_own), "own"
    if which == "calls":
        return 0, "own"
    for label, agg in calibration:
        if agg.get(fn, {}).get("calls"):
            return stat(agg[fn], which, 1), label
    raise RuntimeError(f"no calibration item calls {fn}")


def traced_run(name: str, workload) -> dict:
    from wittcap import pg
    tr = tracer.Tracer()
    outcomes: list[list] = []          # the failures of every item run

    def run(w, items, tags=None) -> float:
        t0 = perf_counter()
        for k, item in enumerate(items):
            if tags is not None:
                tr.item = tags[k]
            outcomes.append(workloads.run_checked(w, item))
        return perf_counter() - t0

    tr.item = "setup"
    tr.install()
    workload.setup()
    tr.uninstall()
    setup = tracer.aggregate(tr.spans, {"setup"})
    run(workload, workload.distinct())              # the untraced warm-up pass
    items = workload.traced()
    n_own = len(items)

    if name == "cold-cli":
        sweep = cli_sweep(passes=3)
        own_pass = traced_cli_pass(workload)
        outcomes += own_pass["fails"]
        own, counts = own_pass["spans"], own_pass["counts"]
        untraced_ms = sum(statistics.median(v) for v in sweep["sub"].values())
        overhead = sum(own_pass["wall_ms"]) / untraced_ms
        setup_values = {
            "pg.masks_build_ms": own_pass["masks_ms"],
            "pg.masks_cache_misses": own_pass["masks_misses"],
            "veronese.build_model.ms": own_pass["build_model_ms"],
        }
    else:
        untraced_s = run(workload, items)
        before = dict(tr.counts)
        tr.install()
        traced_s = run(workload, items, tags=range(n_own))
        tr.uninstall()
        own = tracer.aggregate(tr.spans, set(range(n_own)))
        counts = {k: v - before.get(k, 0) for k, v in tr.counts.items()}
        overhead = traced_s / untraced_s
        setup_values = {
            "pg.masks_build_ms": max(setup["pg.hyperplane_point_masks"]["durations"]),
            "pg.masks_cache_misses": pg.hyperplane_point_masks.cache_info().misses,
            "veronese.build_model.ms": max(setup["veronese.build_model"]["durations"]),
        }
        sweep = cli_sweep(passes=1)

    # Calibration: one default-base item of each in-process battery, traced.
    calibration = []
    for label, cls in (("witt-verify", workloads.WittVerify),
                       ("coset-scan", workloads.CosetScan)):
        cal = cls(0)
        cal.setup()
        tr.install()
        run(cal, [workloads.DEFAULT_BASE], tags=[label])
        tr.uninstall()
        calibration.append((label, tracer.aggregate(tr.spans, {label})))

    metrics, sources = {}, {}
    for metric, unit in PER_LAYER:
        if metric in SETUP_METRICS:
            value = setup_values[metric]
        elif metric == "cli.interpreter_floor_ms":
            value = statistics.median(sweep["floor"])
        elif metric == "cli.import_ms":
            value = statistics.median(sweep["import"])
        elif metric.startswith("cli."):
            value = statistics.median(sweep["sub"][metric.split(".")[1]])
        elif metric == "trace.overhead_ratio":
            value = overhead
        else:
            fn, which = metric.rsplit(".", 1)
            if fn in COUNTERS:
                value = counts.get(fn, 0) / n_own
            else:
                value, source = layer_value(fn, which, own, n_own, calibration)
                if source != "own":
                    sources[metric] = source
        metrics[metric] = {"value": value, "unit": unit}
    failed = [f for f in outcomes if f]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "witnesses": [w for f in failed for w in f][:5],
        "metrics": metrics,
        "traced_items": n_own,
        "calibrated_from": sources,
        "spans": len(tr.spans),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    import wittcap
    if not Path(wittcap.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: imported wittcap from {wittcap.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, str(ROOT))
    if args.mode == "traced":
        emit(traced_run(args.workload, workload))
        return 0
    workload.setup()
    warm_fails = [w for item in workload.distinct() for w in workloads.run_checked(workload, item)]
    setup_s = monotonic() - args.spawned_at
    if args.mode == "setup":
        emit({"setup_s": setup_s})
        return 0
    result = workloads.timed_loop(workload, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cold-cli" else resource.RUSAGE_SELF
    result.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb(who), warmup_witnesses=warm_fails[:5])
    emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
