"""Benchmark for twistcount: four closed-loop workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload rootsnum --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload, each in its own process, and
prints one line per metric.  With ``--trace 0`` the last line of stdout
is a JSON object whose metrics are the end-to-end ones (set-up time,
throughput, per-unit latency, peak RSS); with ``--trace 1`` the run
executes only the workload's fixed part under tracing and reports the
per-layer metrics, so that their counts repeat exactly for a seed.  The
line before it records the seed, CPU count, Python version and commit.

Times are reported on a nominal machine: a fixed piece of reference work
is timed every 50 ms during the run (see SpeedSampler), and each measured
time is divided by how much slower than nominal the reference ran around
it.  The raw figures are in the ``detail`` line.  See README.md in this
directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("rootsnum", "roots-wide", "kernels", "enumerate")
SETUP_SAMPLES = 5
# Candidate tail percentiles in tenths of a percent, highest first.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
# Time the reference work takes on the nominal machine; see reference_work.
REF_NOMINAL_S = 1.0e-3
REF_EVERY_S = 0.05
REF_WINDOW = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def tail_percentile(n: int) -> int | None:
    """Highest ladder percentile (in tenths) with at least 10 of n samples
    strictly above its nearest-rank position, or None when n < 20."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            return p
    return None


def _rank(p_tenths: int, n: int) -> int:
    return -(-p_tenths * n // 1000)


def percentile(sorted_values, p_tenths: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(_rank(p_tenths, len(sorted_values)), 1) - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def reference_work() -> int:
    """A fixed piece of interpreter work (tuple keys, dict updates, a sort)
    of the same kind as the library's, independent of twistcount."""
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return sum(sorted(table.values()))


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times reference_work every REF_EVERY_S of wall time, from a SIGALRM
    handler, while the block is active.

    The CPU this was built on runs the same code up to a third slower in
    some minutes than in others (CPU time tracks wall time, so it is not
    scheduling), and a reference run in the same thread tracks that.
    ``slowness()`` is the median of recent samples over REF_NOMINAL_S;
    dividing a time by the slowness over its span gives the time on the
    nominal machine.  ``spent`` is the time taken by the handler, which
    callers subtract from what they time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_time_reference())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowness(self, since: int = 0) -> float:
        """Over the samples taken since index ``since``, or the last
        REF_WINDOW samples if that is more."""
        if not self.samples:
            self._sample(None, None)
        start = max(0, min(since, len(self.samples) - REF_WINDOW))
        return statistics.median(self.samples[start:]) / REF_NOMINAL_S


def current_slowness(n: int = 21) -> float:
    return statistics.median(_time_reference() for _ in range(n)) / REF_NOMINAL_S


def setup(name: str, seed: int):
    """Import the library and generate the fixed inputs.  Returns the
    workload, the seconds this took, and the slowness measured right
    after it."""
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    took = time.perf_counter() - start
    return wl, took, current_slowness()


class Outcome:
    """Timed-phase results: per-unit latencies and busy time, both raw and
    on the nominal machine, peak RSS after the fixed part, and operations
    attempted and failed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.busy = 0.0
        self.raw_busy = 0.0
        self.rss_fixed: float | None = None
        self.attempted = 0
        self.failed = 0
        self.records: list[tuple] = []

    @property
    def ops_per_s(self) -> float:
        """Operations per second on the nominal machine."""
        return (self.attempted - self.failed) / self.busy

    @property
    def raw_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.raw_busy


def timed_phase(wl, seconds: float, tracer=None, fixed_only=False) -> Outcome:
    """Closed loop: the fixed inputs, then fresh ones in whole blocks until
    ``seconds`` of wall time have passed.  Only the library calls are
    timed; drawing the next input happens between units."""
    out = Outcome()
    reported = False
    n_fixed = len(wl.fixed)

    def inputs():
        yield from wl.fixed
        yield from wl.more()

    start = time.perf_counter()
    with SpeedSampler() as speed:
        for i, inp in enumerate(inputs()):
            if i >= n_fixed and (i - n_fixed) % wl.block == 0:
                if out.rss_fixed is None:
                    out.rss_fixed = peak_rss_mib()
                if fixed_only or time.perf_counter() - start >= seconds:
                    break
            if tracer is not None:
                tracer.unit = i
            error = None
            result = None
            spent = speed.spent
            sampled = len(speed.samples)
            t0 = time.perf_counter()
            try:
                result = wl.run(inp)
            except Exception as exc:  # a failed unit is counted, not fatal
                error = exc
            dt = time.perf_counter() - t0 - (speed.spent - spent)
            if error is not None and not reported:
                traceback.print_exception(error, file=sys.stderr)
                reported = True
            nominal = dt / speed.slowness(since=sampled)
            out.raw_busy += dt
            out.busy += nominal
            if wl.in_latency(inp):
                out.raw_latencies.append(dt)
                out.latencies.append(nominal)
            out.records.append((inp, result, error))
    if out.rss_fixed is None:
        out.rss_fixed = peak_rss_mib()
    if tracer is not None:
        tracer.unit = -1
    return out


def check_outcome(wl, out: Outcome) -> None:
    """Count attempted and failed operations, outside the timed phase."""
    reported = False
    for inp, result, error in out.records:
        planned = wl.planned_ops(inp)
        out.attempted += planned
        if error is not None:
            out.failed += planned
            continue
        try:
            out.failed += min(wl.check(inp, result), planned)
        except Exception as exc:  # a check that raises fails its unit
            if not reported:
                traceback.print_exception(exc, file=sys.stderr)
                reported = True
            out.failed += planned
    out.records = []


def _probe(args, kind: str) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--probe",
        kind,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{kind} probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _result(correct: bool, out: Outcome, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def _p50_and_tail(values, p):
    values = sorted(values)
    median = statistics.median(values)
    return median, (percentile(values, p) if p is not None else median)


def run_untraced(args) -> dict:
    probes = [_probe(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    wl, took, slowness = setup(args.workload, args.seed)
    probes.append({"setup_s": took / slowness, "setup_raw_s": took})
    out = timed_phase(wl, args.seconds)
    check_outcome(wl, out)
    p = tail_percentile(sum(map(wl.in_latency, wl.fixed)))
    p50, tail = _p50_and_tail(out.latencies, p)
    raw_p50, raw_tail = _p50_and_tail(out.raw_latencies, p)
    info = {
        "units": len(out.latencies),
        "tail_percentile": (p if p is not None else 500) / 10,
        "failed_frac": out.failed / out.attempted,
        "slowness": out.raw_busy / out.busy,
        "raw": {
            "setup_s": statistics.median(x["setup_raw_s"] for x in probes),
            "ops_per_s": out.raw_ops_per_s,
            "unit_p50_ms": raw_p50 * 1000,
            "unit_tail_ms": raw_tail * 1000,
        },
        "setup_samples_s": [x["setup_s"] for x in probes],
    }
    print(json.dumps({"detail": info}))
    metrics = {
        "setup_s": statistics.median(x["setup_s"] for x in probes),
        "ops_per_s": out.ops_per_s,
        "unit_p50_ms": p50 * 1000,
        "unit_tail_ms": tail * 1000,
        "peak_rss_mb": out.rss_fixed,
    }
    return _result(
        out.failed == 0,
        out,
        {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
    )


def run_traced(args, meta: dict) -> dict:
    import tracing
    import workloads

    untraced = _probe(args, "fixed")["ops_per_s"]
    tracer = tracing.Tracer()
    undo = tracing.wrap(tracer)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        out = timed_phase(wl, args.seconds, tracer=tracer, fixed_only=True)
    finally:
        tracing.unwrap(undo)
    check_outcome(wl, out)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace_overhead_frac"] = (untraced / out.ops_per_s - 1, "ratio")
    spans_dir = ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    tracer.write(spans_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz", meta)
    return _result(out.failed == 0, out, metrics)


def run_probe(args) -> dict:
    wl, took, slowness = setup(args.workload, args.seed)
    if args.probe == "setup":
        return {"setup_s": took / slowness, "setup_raw_s": took}
    out = timed_phase(wl, args.seconds, fixed_only=True)
    check_outcome(wl, out)
    return {"ops_per_s": out.ops_per_s}


def run_all(args) -> int:
    """Each workload in its own process; one line per metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = result
        status = "ok" if result["correct"] else "FAILED"
        print(f"{name}: {status}, {result['failed']}/{result['attempted']} operations failed")
        for metric, item in result["metrics"].items():
            print(f"  {metric} = {item['value']:.6g} {item['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "fixed"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "twistcount" / "__init__.py").is_file():
        print(f"bench: error: no twistcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps(run_probe(args)))
        return 0
    meta = run_metadata(args)
    result = run_traced(args, meta) if args.trace else run_untraced(args)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
