"""One benchmark workload in one fresh process; prints a JSON summary as
its last line. run.py starts it with PYTHONPATH set to the checkout's
src/ and the numpy/BLAS/OpenMP thread counts set to 1.

Modes:
  setup     time the workload's set-up only
  run       set up, then run ops closed-loop with one client for
            --seconds, checking the output of every op
  traced    as run, with spans recorded around mdslift's public functions
  selftest  feed each workload a wrong expectation and confirm that the
            op is counted as failed (and that the right one is not)

Set-up time runs from just before ``import mdslift`` to the first op.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# Longest a single mdslift child process may run before the op fails.
CHILD_TIMEOUT_S = 170
# Ops per window of the latency estimates; see latency_stats.
P50_WINDOW, P99_WINDOW = 100, 1000


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_mdslift():
    import mdslift
    import mdslift.cli  # noqa: F401  (the traced verify run wraps cli.main)
    if Path(mdslift.__file__).resolve().parent != SRC / "mdslift":
        raise SystemExit(f"mdslift imported from {mdslift.__file__}, not {SRC}")
    return mdslift


def percentile(sorted_xs: list, q: float):
    """Nearest-rank percentile of a sorted, non-empty list."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


class Workload:
    """prepare(i) makes op i's inputs (untimed), run(inputs) is the timed
    op, check(inputs, outputs) says whether its outputs are right."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.M = None

    def setup(self, M) -> None:
        self.M = M

    def prepare(self, i: int):
        return i

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, outputs) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Sweep(Workload):
    """scripts/sweep_lifts.py with its defaults: a seeded dh diagonal into
    F_{7^t}, t cycling 2, 3, 4, lifts the reference [8,3] code, and the
    minor criterion must call the lift MDS."""

    DEGREES = (2, 3, 4)

    def __init__(self, seed: int, expect_l: int = 1) -> None:
        super().__init__(seed)
        self.expect_l = expect_l

    def setup(self, M) -> None:
        super().setup(M)
        self.targets = [M.make_extension_field(7, t) for t in self.DEGREES]
        self.base = M.example1_code()

    def prepare(self, i: int):
        return self.targets[i % len(self.targets)], self.seed + i

    def run(self, inputs):
        spec, seed = inputs
        M = self.M
        m = M.sample_dh(spec, self.base.n, seed)
        return m.l_value, M.is_mds(M.lift(self.base, m))

    def check(self, inputs, outputs) -> bool:
        return outputs == (self.expect_l, True)


class Verify(Workload):
    """The CLI pipeline into F_343, one process per step: dh, lift, ismds,
    mindist (40M codewords), then encode a random message, decode it
    from a word with erasures, and detect a corrupted word. Traced runs
    call mdslift.cli.main in this process instead, so that spans can be
    recorded."""

    STEPS = ("dh", "lift", "ismds", "mindist", "encode", "decode", "detect")

    def __init__(self, seed: int, t: int = 3, expect_d: int = 6, in_process: bool = False) -> None:
        super().__init__(seed)
        self.t = t
        self.expect_d = expect_d
        self.in_process = in_process
        self.rng = random.Random(seed)
        self.step_ns: dict[str, list[int]] = {s: [] for s in self.STEPS}
        self.dir = OUT / f"verify-{os.getpid()}"
        self.files = {name: str(self.dir / name)
                      for name in ("ex1", "dh", "lifted", "word", "erased", "corrupted")}
        self.corrupted = 0
        self.detected = 0

    def _cli(self, argv: list[str]) -> tuple[int, str, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.M.cli.main(argv)
            return rc, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "mdslift", *argv], cwd=self.dir,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def setup(self, M) -> None:
        super().setup(M)
        self.dir.mkdir(parents=True, exist_ok=True)
        rc, _, err = self._cli(["example1", "-o", self.files["ex1"]])
        if rc != 0:
            raise RuntimeError(f"example1 exited {rc}: {err}")
        self.target = M.make_extension_field(7, self.t)
        self.base = M.example1_code()

    def prepare(self, i: int):
        """Op seed, message tokens, positions erased in the decoded word,
        and positions erased in the corrupted word plus the one corrupted
        survivor (at least k+1 survive, so the change is always caught)."""
        for name in ("dh", "lifted", "word"):
            Path(self.files[name]).unlink(missing_ok=True)
        r, n, k = self.rng, self.base.n, self.base.k
        message = ["[" + ",".join(str(r.randrange(7)) for _ in range(self.t)) + "]"
                   for _ in range(k)]
        erased = set(r.sample(range(n), r.randint(0, n - k)))
        bad_erased = r.sample(range(n), r.randint(0, n - k - 1))
        bad = r.choice([j for j in range(n) if j not in bad_erased])
        return self.seed + i, message, erased, set(bad_erased), bad

    def run(self, inputs):
        seed, message, erased, bad_erased, bad = inputs
        f = self.files
        outputs = {}

        def step(name, *argv):
            t0 = time.perf_counter_ns()
            outputs[name] = self._cli(list(argv))
            self.step_ns[name].append(time.perf_counter_ns() - t0)

        step("dh", "dh", "-p", "7", "-t", str(self.t), "-n", "8", "--seed", str(seed),
             "-o", f["dh"])
        step("lift", "lift", f["ex1"], f["dh"], "-o", f["lifted"])
        step("ismds", "ismds", f["lifted"])
        step("mindist", "mindist", f["lifted"])
        step("encode", "encode", f["lifted"], *message, "-o", f["word"])
        word = [line for line in Path(f["word"]).read_text(encoding="utf-8").splitlines()
                if line.strip() and not line.startswith("#")][0].split()
        Path(f["erased"]).write_text(
            " ".join("?" if j in erased else tok for j, tok in enumerate(word)) + "\n",
            encoding="utf-8")
        step("decode", "decode", f["lifted"], "--word-file", f["erased"])
        corrupted = ["?" if j in bad_erased else tok for j, tok in enumerate(word)]
        corrupted[bad] = "1" if word[bad] != "1" else "0"
        Path(f["corrupted"]).write_text(" ".join(corrupted) + "\n", encoding="utf-8")
        step("detect", "decode", f["lifted"], "--word-file", f["corrupted"])
        return outputs

    def check(self, inputs, outputs) -> bool:
        seed, message, _, _, _ = inputs
        M = self.M
        self.corrupted += 1
        rc, _, err = outputs["detect"]
        detected = rc == 1 and "Inconsistent" in err
        self.detected += detected
        if any(outputs[s][0] != 0 for s in self.STEPS if s != "detect") or not detected:
            return False
        if outputs["ismds"][1] != "MDS\n" or outputs["mindist"][1] != f"{self.expect_d}\n":
            return False
        decoded = [M.parse_element(self.target, tok) for tok in outputs["decode"][1].split()]
        if decoded != [M.parse_element(self.target, tok) for tok in message]:
            return False
        got = M.parse_code(Path(self.files["lifted"]).read_text(encoding="utf-8")).generator
        want = M.lift(self.base, M.sample_dh(self.target, self.base.n, seed)).generator
        return got == want

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"sweep": Sweep, "verify": Verify}


def run_loop(w: Workload, seconds: float, tracer=None, max_ops: int | None = None) -> dict:
    """Closed loop, one client: op i+1 starts after op i is checked."""
    clock = time.perf_counter_ns
    # 8 bytes per op, so that the loop's own memory barely moves peak_rss_mb
    lat = array("q")
    intervals, errors = [], []  # intervals only when tracing
    i = passed = 0
    start = clock()
    deadline = start + int(seconds * 1e9)
    while i < max_ops if max_ops is not None else (i == 0 or clock() < deadline):
        inputs = w.prepare(i)
        if tracer is not None:
            tracer.op, tracer.on = i, True
        t0 = clock()
        try:
            outputs, err = w.run(inputs), None
        except Exception as e:  # an op that raises is a failed op, not a crash
            outputs, err = None, e
        t1 = clock()
        lat.append(t1 - t0)
        if tracer is not None:
            tracer.op, tracer.on = -1, False
            intervals.append((i, t0, t1))
        ok = False
        if err is None:
            try:
                ok = w.check(inputs, outputs)
            except Exception as e:
                err = e
        passed += ok
        if not ok and len(errors) < 5:
            errors.append(f"op {i}: {err!r}" if err else f"op {i}: wrong output")
        i += 1
    wall = (clock() - start) * 1e-9
    return {"attempted": i, "failed": i - passed, "errors": errors, "wall_s": wall,
            "ops_per_s": passed / wall, **latency_stats(lat), "intervals": intervals}


def windows(xs, size: int) -> list:
    """Consecutive full windows of ``size`` items; all of xs if it has fewer."""
    if len(xs) < size:
        return [xs]
    return [xs[a:a + size] for a in range(0, len(xs) - size + 1, size)]


def latency_stats(lat) -> dict:
    """op_p50_ms is the mean, over windows of P50_WINDOW consecutive ops,
    of each window's median; op_p99_ms is the median, over windows of
    P99_WINDOW ops, of each window's p99 (ten samples beyond it).

    On a shared machine every op slows down for stretches of seconds.
    The median of all ops jumps between the fast and the slow latency as
    the mix of stretches crosses one half, and a stalled second or two
    sets the p99 of all ops; these estimates move smoothly instead."""
    p50s = [percentile(sorted(w), 0.5) for w in windows(lat, P50_WINDOW)]
    p99s = [percentile(sorted(w), 0.99) for w in windows(lat, P99_WINDOW)]
    return {"op_p50_ms": sum(p50s) / len(p50s) * 1e-6,
            "op_p99_ms": statistics.median(p99s) * 1e-6, "p99_windows": len(p99s)}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (KiB on Linux)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def execute(name: str, seed: int, seconds: float, mode: str) -> dict:
    traced = mode == "traced"
    w = WORKLOADS[name](seed)
    if isinstance(w, Verify):
        w.in_process = traced  # spans need the CLI to run in this process
    t0 = time.perf_counter()
    M = load_mdslift()
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        w.setup(M)
        setup_s = time.perf_counter() - t0
        import numpy
        result = {"setup_s": setup_s, "python": sys.version.split()[0],
                  "numpy": numpy.__version__}
        if mode == "setup":
            return result
        if tracer is not None:
            tracer.on = False
        loop = run_loop(w, seconds, tracer)
    finally:
        w.close()
    intervals = loop.pop("intervals")
    result.update(loop, peak_rss_mb=peak_rss_mb())
    if isinstance(w, Verify):
        result["steps_ms"] = {s: statistics.median(ns) * 1e-6 for s, ns in w.step_ns.items() if ns}
    if tracer is not None:
        layers = tracer.layer_metrics(intervals)
        corrupted, detected = getattr(w, "corrupted", 0), getattr(w, "detected", 0)
        layers["erasure.corrupted"] = (corrupted, "count")
        # vacuously 1 when no word was corrupted: no corruption was missed
        layers["erasure.detected_ratio"] = (detected / corrupted if corrupted else 1.0, "ratio")
        result["layers"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    return result


def self_test() -> dict:
    """Each workload with its real expectation must pass every op; with
    one wrong expectation the affected ops must count as failed."""
    M = load_mdslift()
    cases = [
        # (label, workload, ops, failures expected)
        ("sweep l=1", Sweep(1), 6, 0),
        ("sweep l=2 (wrong)", Sweep(1, expect_l=2), 6, 6),
        ("verify F_49 d=6", Verify(1, t=2), 2, 0),
        ("verify F_49 d=5 (wrong)", Verify(1, t=2, expect_d=5), 2, 2),
    ]
    report = {}
    for label, w, ops, want in cases:
        try:
            w.setup(M)
            loop = run_loop(w, 0, max_ops=ops)
        finally:
            w.close()
        report[label] = {"failed": loop["failed"], "expected": want,
                         "pass": loop["failed"] == want}
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--mode", choices=["setup", "run", "traced", "selftest"], default="run")
    args = ap.parse_args()
    if args.mode == "selftest":
        report = self_test()
        print(json.dumps(report))
        return 0 if all(r["pass"] for r in report.values()) else 1
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(execute(args.workload, args.seed, args.seconds, args.mode)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
