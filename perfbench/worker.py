"""One workload process: runs the closed loop and reports op timings.

Started by run.py with relbell on the path and the thread pools of the
numeric libraries pinned to one thread. The loop has one caller: an op
starts when the previous one, and the reference check of its output,
have finished. Only the call into relbell is timed; building inputs,
reading output files back and checking them are not.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SCRATCH

prints one JSON object with the op records of every cycle (untraced) or
the per-layer metrics (traced).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

import relbell
from relbell import bell, cli

import tracing
import workloads

#: Failure messages kept for the report; the count is always complete.
_KEEP_FAILURES = 5


class Runner:
    """Runs ops, checks the first run of every input against the
    reference and every later run against the first run's bytes."""

    def __init__(self, scratch):
        self.out_path = Path(scratch) / "out.txt"
        self.first = {}  # key -> (exit code, digest of the output)
        self.initial = {}  # key -> settings a calibrate op starts from
        self.last_settings = None
        self.failures = []
        self.failed = 0

    def call(self, op, tracer=None):
        """Run op once; return (seconds, exit code or None, output text)."""
        if op.beta is None:
            argv = [*op.argv, "--out", str(self.out_path)]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    rc = tracer.op(cli.main, argv) if tracer else cli.main(argv)
                except SystemExit as exc:  # usage errors exit from inside main
                    rc = exc.code
                elapsed = time.perf_counter() - t0
            text = self.out_path.read_text() if self.out_path.exists() else ""
            self.out_path.unlink(missing_ok=True)
            if tracer:
                tracer.counts["cli.out_bytes"] += len(text)
            return elapsed, rc, text
        initial = self.initial.setdefault(op.key, self.last_settings if op.warm else None)
        t0 = time.perf_counter()
        settings, value, chsh = (tracer.op(_calibrate, op.beta, initial) if tracer
                                 else _calibrate(op.beta, initial))
        elapsed = time.perf_counter() - t0
        self.last_settings = settings
        return elapsed, 0, workloads.calibration_text(value, chsh, settings)

    def run(self, op, tracer=None):
        """Run and judge op; return (seconds, failed)."""
        t0 = time.perf_counter()
        try:
            elapsed, rc, text = self.call(op, tracer)
        except Exception as exc:  # any escape from relbell is a failed op
            return time.perf_counter() - t0, self._fail(op, f"raised {type(exc).__name__}: {exc}")
        digest = (rc, hashlib.blake2b(text.encode()).digest())
        if op.key in self.first:
            if self.first[op.key] != digest:
                return elapsed, self._fail(op, "rerun output is not byte-identical")
            return elapsed, False
        self.first[op.key] = digest
        reason = op.check(rc, text)
        return elapsed, self._fail(op, reason) if reason else False

    def _fail(self, op, reason):
        self.failed += 1
        if len(self.failures) < _KEEP_FAILURES:
            self.failures.append(f"{' '.join(op.argv) or op.beta}: {reason}")
        return True


def _calibrate(beta, initial):
    """One recalibration through the library API."""
    accepted = []
    settings, value = bell.maximize_chsh(np.array(beta), restarts=1, initial=initial,
                                         trace=accepted)
    return settings, value, bell.chsh_value(settings, np.array(beta))


def measure(workload, seed, seconds, scratch):
    """Run whole cycles for about `seconds` of wall time; return, per
    cycle, each op's wall time, items and whether it failed.

    A cycle starts only if, at the mean cycle time so far, it ends within
    `seconds`; the first cycle always runs.
    """
    cycles = workloads.WORKLOADS[workload](np.random.default_rng(seed), scratch)
    runner = Runner(scratch)
    ops = next(cycles)
    # Warm-up: lazy set-up inside relbell and numpy, paid once per process.
    Runner(scratch).call(ops[0])
    done = []
    start = time.perf_counter()
    while True:
        records = [(*runner.run(op), op.items) for op in ops]
        done.append({"op_s": [r[0] for r in records], "failed": [r[1] for r in records],
                     "items": [r[2] for r in records]})
        # Inputs never recur across cycles.
        runner.first.clear()
        runner.initial.clear()
        spent = time.perf_counter() - start
        if spent * (len(done) + 1) / len(done) > seconds:
            break
        ops = next(cycles)
    return {"cycles": done, "wall_s": time.perf_counter() - start,
            "failed": runner.failed, "failures": runner.failures}


def _traced(ops, runner):
    tracer = tracing.Tracer()
    with tracer:
        for op in ops:
            runner.run(op, tracer)
    return tracer


def trace(workload, seed, scratch):
    """One cycle of distinct inputs untraced, then the same inputs traced.

    The traced outputs must match the untraced ones byte for byte. The
    spans are written next to the scratch directory, which the caller
    removes. Per-call times of layers the workload leaves idle come from
    a traced pass over workloads.layer_sample.
    """
    rng = np.random.default_rng(seed)
    cycle = next(workloads.WORKLOADS[workload](rng, scratch))
    distinct = list({op.key: op for op in cycle}.values())
    Runner(scratch).call(distinct[0])
    runner = Runner(scratch)
    untraced_s = sum(runner.run(op)[0] for op in distinct)
    tracer = _traced(distinct, runner)
    tracer.save(Path(scratch).parent / f"spans-{workload}.npz")
    metrics = tracing.layer_metrics(tracer, distinct)
    metrics["trace.overhead_frac"] = tracing.op_seconds(tracer) / untraced_s - 1.0
    sample = workloads.layer_sample(rng, scratch)
    sample_runner = Runner(scratch)
    sampled = tracing.layer_metrics(_traced(sample, sample_runner), sample)
    for name, value in metrics.items():
        if value == 0.0 and tracing.is_per_call_time(name):
            metrics[name] = sampled[name]
    return {"ops": 2 * len(distinct) + len(sample),
            "failed": runner.failed + sample_runner.failed,
            "failures": runner.failures + sample_runner.failures, "metrics": metrics}


def main(argv):
    workload, seed, seconds, traced, scratch = argv
    if traced == "1":
        result = trace(workload, int(seed), scratch)
    else:
        result = measure(workload, int(seed), float(seconds), scratch)
    result["numpy"] = np.__version__
    result["relbell"] = relbell.__version__
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
