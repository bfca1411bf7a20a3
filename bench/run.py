"""wittcap benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from `src/`.
`--trace 0` sets up SETUP_REPS fresh workers (the last one goes on to the
timed loop) and prints the end-to-end metrics; `--trace 1` runs one traced
worker and prints the per-layer metrics.  The last line of output is the
result object; the line before it is the run's context.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("witt-verify", "coset-scan")                # as in BENCHMARK.json
ON_DEMAND = ("cold-cli", "rigid-aut")                    # see README.md
SETUP_REPS = 3
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    proc = subprocess.Popen([*cmd, "--spawned-at", repr(monotonic())],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} worker timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def context(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wittcap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def untraced(args, deadline: float) -> tuple[dict, dict]:
    setups = []
    for rep in range(SETUP_REPS):
        res = run_worker(args, "timed" if rep == SETUP_REPS - 1 else "setup", deadline)
        setups.append(res["setup_s"])
    item_ms = [s * 1000.0 for s in res["item_s"]]
    n = len(item_ms)
    attempted, failed = res["attempted"], res["failed"]
    warm = res["warmup_witnesses"]
    result = {
        "correct": failed == 0 and not warm,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": attempted / res["wall_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        },
    }
    extra = {
        "samples": {"item_ms_p50": n, "setup_s": len(setups)},
        "item_ms_p50": statistics.median(item_ms),
        # p90 only with at least ten samples beyond it.
        "item_ms_p90": statistics.quantiles(item_ms, n=10)[8] if n >= 100 else None,
        "fail_ratio": failed / attempted,
        "setup_s_samples": setups,
        "witnesses": res["witnesses"] + warm,
    }
    return result, extra


def traced(args, deadline: float) -> tuple[dict, dict]:
    res = run_worker(args, "traced", deadline)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }
    extra = {
        "traced_items": res["traced_items"],
        "spans": res["spans"],
        "calibrated_from": res["calibrated_from"],
        "fail_ratio": res["failed"] / res["attempted"],
        "witnesses": res["witnesses"],
    }
    return result, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ON_DEMAND, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "wittcap" / "__init__.py").is_file():
        print(f"bench: no wittcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    try:
        result, extra = (traced if args.trace else untraced)(args, deadline)
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": {**context(args), **extra}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
