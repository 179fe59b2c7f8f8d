"""Theta-body benchmark: one workload per process, one thread, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graph-theta --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run builds the workload's inputs from the seed, times its set-up (every
oracle and moment template it uses) several times, then issues whole rounds
of the workload's fixed operations, one after another, until the rounds add
up to ``--seconds``.  Every output is checked outside the timed part.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  ``--workload all`` runs each workload
in a fresh process and prints their results together.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict, deque
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("graph-theta", "cardioid-verdicts", "finite-exact")
SETUP_BATCH_SECONDS = 0.2  # set-up repeats this long before every round
SAMPLE_S = 0.1  # the reference also runs this often inside a timed span
# Times are reported in reference seconds: each measured time is scaled by
# REFERENCE_S / (the reference computation's time measured in and around it).
# On a shared 2-vCPU VM the speed changes by up to 1.7x within seconds, and
# the reference changes with it (see README.md).  REFERENCE_S is the
# reference's usual time on that VM, so reference seconds read close to seconds.
REFERENCE_S = 0.003
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "ipm_iters": "count", "peak_rss_mb": "MB"}


def reference_computation() -> float:
    """Seconds taken by a fixed mix of rational and small dense float work.

    It does not touch the program: a change in this figure between runs is a
    change in the machine's speed, not in the program.
    """
    import numpy as np
    from fractions import Fraction

    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    a = np.arange(576, dtype=float).reshape(24, 24) % 7.0
    a = a @ a.T + 24.0 * np.eye(24)
    for _ in range(20):
        np.linalg.cholesky(a)
        np.linalg.eigvalsh(a)
    b = a.astype(np.longdouble)
    for _ in range(2):
        b = (b @ b) / np.trace(b)
    return time.perf_counter() - t0


class Tally:
    """Operations attempted, failed, and outputs that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.incorrect: dict[str, str] = {}


class Clock:
    """Times spans in seconds, and scales them to reference seconds.

    The reference computation runs right after every span and, driven by an
    interval timer, every ``SAMPLE_S`` seconds inside it.  A span's time
    leaves out the reference runs inside it.  Its factor to reference seconds
    is ``REFERENCE_S`` over the mean of the reference runs inside the span,
    the one just after it and the ``BEFORE`` ones just before it, so that a
    long span is scaled by the machine's speed while it ran.
    """

    BEFORE = 3

    def __init__(self):
        self.reference_s: list[float] = []
        self._recent = deque((reference_computation() for _ in range(self.BEFORE)), maxlen=self.BEFORE)
        self._inside: list[float] = []
        self._busy = 0.0
        self._total_busy = 0.0
        self._active = False
        self._t0 = 0.0
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, signum, frame) -> None:
        if self._active:
            t0 = time.perf_counter()
            self._inside.append(reference_computation())
            busy = time.perf_counter() - t0
            self._busy += busy
            self._total_busy += busy

    def now(self) -> float:
        """A clock that stands still while the reference runs inside a span."""
        return time.perf_counter() - self._total_busy

    def start(self) -> None:
        self._inside = []
        self._busy = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._t0 = time.perf_counter()

    def lap(self) -> float:
        """Seconds since ``start``, reference runs left out."""
        return time.perf_counter() - self._t0 - self._busy

    def stop(self) -> tuple[float, float]:
        """(seconds since ``start``, factor to reference seconds)."""
        self._active = False
        elapsed = time.perf_counter() - self._t0 - self._busy
        signal.setitimer(signal.ITIMER_REAL, 0)
        after = reference_computation()
        local = [*self._recent, *self._inside, after]
        self.reference_s += self._inside + [after]
        self._recent.append(after)
        return elapsed, REFERENCE_S / statistics.fmean(local)


class Rounds:
    """Timings of whole rounds, each after a batch of set-ups.

    ``setup_s``, ``wall_s`` and ``latencies`` are in reference seconds; the
    ``raw_*`` lists hold the same timings in seconds.
    """

    def __init__(self):
        self.setup_s: list[float] = []
        self.raw_setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.raw_wall_s: list[float] = []
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.ipm_iters: list[int] = []
        self.reference_s: list[float] = []
        self.operations = 0


def run_rounds(workload, seconds: float, clock: Clock, tally: Tally, counter, tracer=None) -> Rounds:
    """Whole rounds until their timed parts add up to ``seconds``.

    Set-up is timed in a batch before every round, so that its median, like
    the rounds', spans the whole run.  Checks run outside the timed parts.
    """
    from workloads import Failed, Incorrect

    out = Rounds()
    start = len(clock.reference_s)
    while not out.raw_wall_s or sum(out.raw_wall_s) < seconds:
        batch = []
        clock.start()
        while sum(batch) < SETUP_BATCH_SECONDS:
            if tracer is not None:
                tracer.op = f"setup-{len(out.setup_s) + len(batch)}"
            problems = workload.setup()
            batch.append(clock.lap() - sum(batch))
        _, factor = clock.stop()
        out.raw_setup_s += batch
        out.setup_s += [dt * factor for dt in batch]
        ops = workload.operations(problems)
        out.operations = len(ops)
        before = counter.iterations
        wall = raw_wall = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = f"round-{len(out.wall_s)}/{op.label}"
            error = None
            clock.start()
            try:
                result = op.run()
            except Exception as exc:  # the program raised: count the operation as failed
                error = exc
            dt, factor = clock.stop()
            if error is not None:
                tally.failed += 1
                tally.failures[op.label] = f"{type(error).__name__}: {error}"
            else:
                try:
                    op.check(result)
                except Failed as exc:
                    tally.failed += 1
                    tally.failures[op.label] = str(exc)
                except Incorrect as exc:
                    tally.incorrect[op.label] = str(exc)
            tally.attempted += 1
            raw_wall += dt
            wall += dt * factor
            out.latencies[op.label].append(dt * factor)
        out.raw_wall_s.append(raw_wall)
        out.wall_s.append(wall)
        out.ipm_iters.append(counter.iterations - before)
    out.reference_s = clock.reference_s[start:]
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import spans
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, RESULTS)
    tally = Tally()
    counter = spans.IterationCounter()
    counter.install()
    clock = Clock()
    try:
        plain = run_rounds(workload, seconds / 2 if traced else seconds, clock, tally, counter)
        if traced:
            tracer = spans.Tracer(clock.now)
            tracer.install()
            try:
                marked = run_rounds(workload, seconds / 2, clock, tally, counter, tracer)
            finally:
                tracer.uninstall()
    finally:
        clock.close()
        counter.uninstall()
    if len(set(plain.ipm_iters)) != 1:
        tally.incorrect["ipm_iters"] = f"rounds of identical operations took {plain.ipm_iters} IPM iterations"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "operations_per_round": plain.operations, "rounds": len(plain.wall_s),
        "round_wall_s": plain.wall_s, "raw_round_wall_s": plain.raw_wall_s,
        "ipm_iters_per_round": plain.ipm_iters,
        "setup_s": plain.setup_s, "raw_setup_s": plain.raw_setup_s,
        "op_median_s": {label: statistics.median(v) for label, v in plain.latencies.items()},
        "reference_s": plain.reference_s,
    }
    if traced:
        metrics = spans.layer_metrics(tracer.spans, len(marked.setup_s), len(marked.wall_s))
        metrics["trace.overhead_s"] = statistics.median(marked.wall_s) - statistics.median(plain.wall_s)
        units = spans.LAYER_METRICS
        record.update(traced_round_wall_s=marked.wall_s, raw_traced_round_wall_s=marked.raw_wall_s,
                      spans=tracer.spans)
    else:
        metrics = {
            "setup_s": statistics.median(plain.setup_s),
            "wall_s": statistics.median(plain.wall_s),
            "op_p50_s": statistics.median(v for lat in plain.latencies.values() for v in lat),
            "ipm_iters": plain.ipm_iters[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    record.update(failures=tally.failures, incorrect=tally.incorrect)
    result = {
        "correct": not tally.incorrect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record["result"] = result
    (RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record))

    print(f"workload {name}  seed {seed}  trace {int(traced)}  rounds {len(plain.wall_s)}"
          f"  operations/round {plain.operations}")
    for m, v in result["metrics"].items():
        print(f"  {m:<38} {v['value']:>14.6g} {v['unit']}")
    print(f"  {'raw setup_s, wall_s':<38} {statistics.median(plain.raw_setup_s):>14.6g} s"
          f" {statistics.median(plain.raw_wall_s):.6g} s   (seconds, not reference seconds)")
    print(f"  {'reference_s':<38} {statistics.median(plain.reference_s):>14.6g} s"
          f"   (fixed computation run after every operation; reported times are scaled by {REFERENCE_S}/reference_s)")
    print(f"  attempted {tally.attempted}  failed {tally.failed}  correct {result['correct']}")
    for label, msg in tally.failures.items():
        print(f"  failed    {label}: {msg}")
    for label, msg in tally.incorrect.items():
        print(f"  INCORRECT {label}: {msg}")
    return result


def run_all(seed: int, seconds: float, trace: int) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            combined["metrics"][f"{name}/{m}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thetabody" / "__init__.py").is_file():
        print(f"error: no thetabody sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    # one thread: BLAS pools are sized when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
