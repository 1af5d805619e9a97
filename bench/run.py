"""supershift-lab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh single-threaded child
processes (bench/worker.py) against the library source in src/: with
``--trace 0`` four set-up-only children plus one measuring child, which
repeats the workload's operation for S seconds; with ``--trace 1`` one
child that alternates untraced and traced operations.  Every output is
checked against an oracle.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is non-zero when any check failed.  Workloads, metrics and oracles are
described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plane-field", "supershift-free", "crossrep-eps")
SETUP_CHILDREN = 4
DEADLINE_S = 175.0
THREAD_VARS = {
    "SUPERSHIFT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
            # never look for a repository above the checkout
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _child(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "supershift_lab" / "__init__.py").is_file():
        print(f"error: library source not found under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]

    try:
        setups, raw_setups = [], []
        if not args.trace:
            for _ in range(SETUP_CHILDREN):
                r = _child(common + ["--setup-only"], env, deadline)
                setups.append(r["setup_s"])
                raw_setups.append(r["setup_raw_s"])
        res = _child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    raw_setups.append(res["setup_raw_s"])

    wall = statistics.median(res["walls"])
    if args.trace:
        metrics = {
            k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
            for k, v in sorted(res["layers"].items())
        }
        metrics["contour_quad.radius_mean"]["unit"] = "1"
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "us_per_point": {"value": wall / res["points_per_op"] * 1e6, "unit": "us"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    correct = res["failed"] == 0 and not res["notes"]
    env_record = {
        **res["versions"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "threads": {k: env[k] for k in THREAD_VARS},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_record,
        "setup_samples": setups,
        "raw_setup_samples": raw_setups,
        "failed_frac": res["failed"] / res["attempted"],
        **res,
        "metrics": metrics,
        "correct": correct,
    }
    with open(out / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for note in res["notes"]:
        print(f"check failed: {note}", file=sys.stderr)
    print("env " + json.dumps(env_record))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} ops={len(res['walls'])}: "
        + "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items())
        + f"  failed_frac={record['failed_frac']:.6g} 1 ({res['failed']}/{res['attempted']})"
        + f"  unnormalized: setup {statistics.median(raw_setups):.6g} s,"
        + f" wall {statistics.median(res['raw_walls']):.6g} s"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
