"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the engine is imported from its `src/`.
The load is a closed loop with one client: the next operation starts when
the previous one has returned.  After set-up, one untimed warm-up pass runs
every operation once; then whole passes over the workload's inputs are timed
until `--seconds` of operation time is used.  Answers are checked outside
the timed intervals.  After every operation a chunk of reference work is
timed (`hostspeed.py`), and every reported time is divided by the slowdown
the chunks around it show, so that times are seconds at a fixed host speed.  The
last line of standard output is one JSON object.

--trace 0 reports the end-to-end metrics: throughput and latency of the
timed operations, set-up time (median of several fresh processes), peak RSS
and the share of operations answered correctly.

--trace 1 alternates untraced and traced passes for the same time and
reports per-layer counts (from one traced pass; they repeat exactly for a
seed), per-layer self times (median over traced passes) and the tracing
overhead.  The spans of the first traced pass are written to
`.perfbench/spans-<workload>-<seed>.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
READY = "ready"


def _fresh_setup_seconds(workload, seed):
    """Wall time from starting a fresh interpreter until it reports that its
    set-up is done; the child exits without running any operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        try:
            child.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    if line != READY or child.returncode != 0:
        raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
    return elapsed


def setup_seconds(workload, seed):
    """Median set-up time over fresh processes, each sample normalised by the
    reference chunks timed just before and after it."""
    samples = []
    before = hostspeed.chunk()
    for _ in range(SETUP_SAMPLES):
        raw = _fresh_setup_seconds(workload, seed)
        after = hostspeed.chunk()
        samples.append(raw / hostspeed.slowdown([before, after]))
        before = after
    return statistics.median(samples)


class Runner:
    """Runs operations, checks each answer outside the timed interval and
    keeps the tally.  A reference chunk is timed before the first operation
    and after every one; `raw_s` is the operation time used so far, before
    normalisation, and `slowdowns` the host slowdown of each pass."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.answers = {}
        self.raw_s = 0.0
        self.slowdowns = []
        self._chunk = None

    def one(self, op, tracer=None, op_id=None):
        """Run one operation; returns its raw latency in seconds."""
        gc.collect()
        self.attempted += 1
        close = None
        if tracer is not None:
            tracer.install()
            close = tracer.operation(op.name, op_id)
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        latency = time.perf_counter() - t0
        if tracer is not None:
            close()
            tracer.uninstall()
        if error is None:
            error = op.check(result)
        if error is None:
            answer = op.answer(result)
            if self.answers.setdefault(op.name, answer) != answer:
                error = f"answer changed between passes: {answer}"
        if error is not None:
            self.failed += 1
            self.problems.append(f"{op.name}: {error}")
        return latency

    def one_pass(self, tracer=None):
        """Run every operation once; returns the latencies in seconds at
        nominal host speed, each divided by the slowdown shown by the
        reference chunks timed just before and just after it."""
        if tracer is not None:
            tracer.reset()
        if self._chunk is None:
            self._chunk = hostspeed.chunk()
        raw, latencies = [], []
        for i, op in enumerate(self.ops):
            raw.append(self.one(op, tracer, i))
            after = hostspeed.chunk()
            latencies.append(raw[-1] / hostspeed.slowdown([self._chunk, after]))
            self._chunk = after
        self.raw_s += sum(raw)
        self.slowdowns.append(sum(raw) / sum(latencies))
        return latencies


def measure(runner, seconds):
    """Time whole passes until `seconds` of operation time is used."""
    latencies, pass_times = [], []
    start = runner.raw_s
    while not pass_times or (runner.raw_s - start) * (1 + 1 / len(pass_times)) <= seconds:
        lat = runner.one_pass()
        latencies += lat
        pass_times.append(sum(lat))
    return latencies, pass_times


def end_to_end(workload, seed, seconds, runner):
    setup = setup_seconds(workload, seed)
    runner.one_pass()  # warm-up, untimed
    latencies, pass_times = measure(runner, seconds)
    ok = 1 - runner.failed / runner.attempted
    print(f"# {workload} seed {seed}: {len(latencies)} latency samples from {len(pass_times)} timed passes;"
          f" host slowdown median {statistics.median(runner.slowdowns):.3f},"
          f" range {min(runner.slowdowns):.3f}-{max(runner.slowdowns):.3f}")
    return {
        "ops_per_s": (len(runner.ops) / statistics.median(pass_times), "ops/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10, method="inclusive")[-1], "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": (ok, "ratio"),
    }


UNITS = {"_s": "s", "_frac": "ratio"}


def _unit(name):
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def per_layer(workload, seed, seconds, runner):
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, counts, timings = [], [], None, []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(sum(runner.one_pass()))
        traced.append(sum(runner.one_pass(tracer)))
        if counts is None:
            counts = tracer.counters()
            _write_spans(tracer, workload, seed)
        elif tracer.counters() != counts:
            runner.failed += 1
            runner.problems.append("traced counts differ between passes of one run")
        timings.append({k: v / runner.slowdowns[-1] for k, v in tracer.timings().items()})
    metrics = {k: (v, _unit(k)) for k, v in counts.items()}
    for key in timings[0]:
        metrics[key] = (statistics.median(t[key] for t in timings), "s")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    print(f"# {workload} seed {seed}: {len(traced)} traced and {len(plain)} untraced passes")
    return metrics


def _write_spans(tracer, workload, seed):
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for name, layer, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "thickloci" / "__init__.py").is_file():
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ops = workloads.prepare(args.workload, args.seed)
    if args.setup_only:
        print(READY, flush=True)
        return 0
    gc.freeze()
    runner = Runner(ops)
    measure_fn = per_layer if args.trace else end_to_end
    metrics = measure_fn(args.workload, args.seed, args.seconds, runner)
    recorded = workloads.recorded_answers().get(args.workload, {}).get("digest")
    digest = oracles.digest(runner.answers)
    if digest != recorded:
        runner.problems.append(f"answer digest {digest} differs from the recorded {recorded}")
    for problem in runner.problems:
        print(f"# FAIL {problem}")
    print(f"# answer digest {digest}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _pin_hash_seed():
    """Re-execute with string hashing fixed.  The order of some set
    iterations in the engine follows string hashes and moves a few hundred
    calls per pass, so without this a run would not repeat its counts
    exactly, and its cost would vary with something other than the inputs
    the seed picks.  Replaces this process; starts no other."""
    want = "0"
    if os.environ.get("PYTHONHASHSEED") != want:
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], dict(os.environ, PYTHONHASHSEED=want))


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
