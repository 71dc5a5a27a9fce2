"""mdslift benchmark launcher.

    python3 perfbench/run.py --workload {sweep,verify} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Each workload runs in fresh worker
processes (worker.py), one at a time, with the numpy/BLAS/OpenMP thread
counts set to 1. --trace 0 prints the end-to-end metrics; --trace 1
prints the per-layer metrics of a traced run. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The environment, every metric and the raw worker summaries are also
written to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from spans import NOTES
from worker import OUT, ROOT, SRC, THREAD_VARS, WORKLOADS, Verify, child_env

WORKER = str(ROOT / "perfbench" / "worker.py")

# set-up is timed in this many fresh workers; setup_s is their median
SETUP_SAMPLES = 3
# `python -m mdslift --version` runs timed for cli.startup_ms
STARTUP_SAMPLES = 5

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
             "peak_rss_mb": "MB"}


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run one worker process to completion and return its summary."""
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--mode", mode],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=seconds + 170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_startup_ms() -> float:
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-m", "mdslift", "--version"], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=60)
        times.append((time.perf_counter_ns() - t0) * 1e-6)
        if proc.returncode != 0:
            raise SystemExit(f"mdslift --version exited {proc.returncode}")
    return statistics.median(times)


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(), "git_commit": commit,
        "src_sha256": digest.hexdigest(), "threads": {v: "1" for v in THREAD_VARS},
    }


def end_to_end(args) -> tuple[dict, list[dict]]:
    setups = [worker(args.workload, args.seed, args.seconds, "setup")
              for _ in range(SETUP_SAMPLES - 1)]
    main = worker(args.workload, args.seed, args.seconds, "run")
    values = {k: main[k] for k in E2E_UNITS}
    values["setup_s"] = statistics.median([s["setup_s"] for s in setups] + [main["setup_s"]])
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return metrics, setups + [main]


def per_layer(args) -> tuple[dict, list[dict]]:
    plain = worker(args.workload, args.seed, args.seconds, "run")
    traced = worker(args.workload, args.seed, args.seconds, "traced")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
    metrics["trace.overhead"] = {"value": traced["ops_per_s"] / plain["ops_per_s"],
                                 "unit": "ratio"}
    # child-process step times come from the untraced run
    steps = plain.get("steps_ms", {})
    for step in Verify.STEPS:
        metrics[f"cli.{step}_ms"] = {"value": steps.get(step, 0.0), "unit": "ms"}
    metrics["cli.startup_ms"] = {"value": cli_startup_ms(), "unit": "ms"}
    return metrics, [plain, traced]


def self_test() -> int:
    proc = subprocess.run([sys.executable, WORKER, "--mode", "selftest"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    for label, r in report.items():
        print(f"{'ok  ' if r['pass'] else 'FAIL'} {label}: "
              f"{r['failed']} failed ops, expected {r['expected']}")
    print("self-test " + ("passed" if proc.returncode == 0 else "FAILED"))
    return proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description="mdslift benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that wrong expectations are counted as failed ops")
    args = ap.parse_args()
    if not (SRC / "mdslift" / "__init__.py").is_file():
        print(f"error: no mdslift sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")

    env = environment(args)
    metrics, runs = (per_layer if args.trace else end_to_end)(args)
    env["loadavg_after"] = os.getloadavg()
    env["numpy"] = runs[-1]["numpy"]
    measured = [r for r in runs if "attempted" in r]
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    correct = failed == 0 and attempted > 0

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "notes": NOTES, "attempted": attempted,
              "failed": failed, "runs": runs}
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("env " + json.dumps(env))
    for r in measured:
        for e in r["errors"]:
            print(f"failed {e}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if not args.trace:
        main_run = measured[-1]
        print(f"op samples {main_run['attempted']}; p99 is the median of "
              f"{main_run['p99_windows']} window p99s")
        for step, ms in main_run.get("steps_ms", {}).items():
            print(f"cli.{step}_ms {ms:.3f} ms (median of {main_run['attempted']} ops)")
    for k, m in metrics.items():
        note = f"  ({NOTES[k]})" if k in NOTES else ""
        print(f"{k} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
