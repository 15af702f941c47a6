"""relbell benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a relbell source tree; nothing needs to be built or
installed. The workloads, their metrics and how to read them are
described in perfbench/README.md.

With --trace 0 the run measures the end-to-end metrics: set-up time over
fresh interpreters, then the workload in a fresh process for S seconds
of whole cycles, with every output checked against perfbench/reference.py.
With --trace 1 it runs one cycle untraced and again traced, and reports
per-layer metrics. Summary lines start with '#'; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("figures_calibrate", "audit_crosscheck")
#: Fresh interpreters timed for setup_s before the workload and again
#: after it, so that one slow phase of the host does not set the median.
#: One more untimed interpreter first writes the bytecode caches.
SETUP_CHILDREN = 5
IMPORTTIME_CHILDREN = 3
#: Wall-clock limit on one workload process.
WORKER_TIMEOUT_S = 150

_SETUP_PROGRAM = (
    "import time\n"
    "import relbell.cli\n"
    "relbell.cli.build_parser()\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
)


def child_env():
    """Environment of every child: relbell from this tree, one thread per
    numeric library pool."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def probe_ms() -> float:
    """Median of five runs of a fixed pure-Python loop, in ms. Recorded
    before and after each run to spot slow phases of the host."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def setup_samples(env, count):
    """Seconds from spawning a fresh interpreter until relbell.cli is
    imported and build_parser() has returned, once per interpreter."""
    samples = []
    for _ in range(count):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", _SETUP_PROGRAM], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append((int(out.stdout) - t0) / 1e9)
    return samples


def import_times(env):
    """(relbell.cli, numpy) cumulative import times in ms, medians over
    fresh interpreters under -X importtime."""
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORTTIME_CHILDREN):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import relbell.cli"],
                             env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
                             check=True)
        found = {}
        for line in out.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in ("relbell.cli", "numpy"):
                found[fields[2].strip()] = int(fields[1]) / 1e3
        cli_ms.append(found["relbell.cli"])
        numpy_ms.append(found["numpy"])
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def run_worker(args, env, scratch):
    """Run the workload in a fresh process; return (result, peak RSS in MB)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(scratch)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        # Reap the child here rather than through Popen, to read its own
        # resource usage: RUSAGE_CHILDREN would report the largest of all
        # children, set-up interpreters included.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    # ru_maxrss is in KiB on Linux.
    return json.loads(out), usage.ru_maxrss / 1024.0


def end_to_end(cycles, setup_s, rss_mb):
    """The end-to-end metrics of one run.

    Each op percentile is taken per cycle, where it falls in the middle
    of a group of equally expensive ops, and the run reports its mean
    over the cycles. The host's speed drifts in phases of tens of
    seconds; a cycle mostly sits in one phase, so the mean moves in
    proportion to the share of the run a slow phase covers, where a
    median over the run's ops would jump between the fast and the slow
    value of its group.
    """
    ops = [t for c in cycles for t in c["op_s"]]
    done = sum(items for c in cycles
               for items, bad in zip(c["items"], c["failed"]) if not bad)

    def per_cycle(stat):
        return statistics.fmean(stat(c["op_s"]) for c in cycles) * 1e3

    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (done / sum(ops), "items/s"),
        "op_p50_ms": (per_cycle(statistics.median), "ms"),
        "op_p90_ms": (per_cycle(lambda op_s: statistics.quantiles(op_s, n=10)[8]), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relbell" / "cli.py").is_file():
        sys.stderr.write(f"no relbell sources under {ROOT / 'src'}; run from a relbell tree\n")
        return 2

    env = child_env()
    base = ROOT / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    probe_before = probe_ms()
    try:
        if args.trace:
            import_ms, numpy_ms = import_times(env)
            result, _ = run_worker(args, env, scratch)
            metrics = {"cli.import_ms": import_ms, "cli.import_numpy_ms": numpy_ms,
                       **result["metrics"]}
            attempted, failed = result["ops"], result["failed"]
        else:
            setup = setup_samples(env, SETUP_CHILDREN + 1)[1:]
            result, rss_mb = run_worker(args, env, scratch)
            setup += setup_samples(env, SETUP_CHILDREN)
            measured = end_to_end(result["cycles"], statistics.median(setup), rss_mb)
            attempted = sum(len(c["op_s"]) for c in result["cycles"])
            failed = result["failed"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    probe_after = probe_ms()

    print(f"# env python={platform.python_version()} numpy={result['numpy']} "
          f"relbell={result['relbell']} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} "
          f"loadavg={','.join(f'{x:.2f}' for x in os.getloadavg())} "
          f"probe_ms_before={probe_before:.2f} probe_ms_after={probe_after:.2f}")
    for reason in result["failures"]:
        print(f"# FAILED {reason}")
    if args.trace:
        for name, value in metrics.items():
            print(f"# {args.workload} {name} = {value!r}")
        out = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        ops = [t for c in result["cycles"] for t in c["op_s"]]
        beyond = sum(1 for t in ops if t * 1e3 > measured["op_p90_ms"][0])
        print(f"# {args.workload}: {len(ops)} ops in {len(result['cycles'])} cycles, "
              f"{result['wall_s']:.1f} s wall, {beyond} ops beyond op_p90_ms")
        for name, (value, unit) in measured.items():
            print(f"# {args.workload} {name} = {value:.6g} {unit}")
        print(f"# {args.workload} failed_frac = {failed / attempted:.6g} ratio")
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".calls", "count"), ("_us", "us"), ("_ms", "ms"), (".ms", "ms"),
                         ("_per_s", "1/s"), ("_frac", "ratio"), (".per_chsh", "ratio"),
                         ("_per_op", "count"), (".accept_ratio", "ratio"),
                         ("_bytes", "bytes"), (".samples", "count"), (".points", "count"),
                         (".gaps", "count"), (".check_failed", "count")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


if __name__ == "__main__":
    sys.exit(main())
