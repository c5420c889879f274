"""One pass of one workload in a fresh process; prints one JSON result line.

    python3 qbench/worker.py --workload oracle --seed 1 [--trace] [--setup-only]

Set-up (imports and input generation) ends at `t_ready`, a CLOCK_MONOTONIC
reading the parent compares with its own spawn time; `setup_spent` is the
time the host-speed samples took before it and `setup_factor` the host-speed
factor over it.  Every op runs in order; an exception or a failed check is
counted and the pass goes on.  The digest hashes the canonical output text
of every op.  run.py sets PYTHONPATH and PYTHONHASHSEED; this file is not
meant to be run by hand.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

import tracing
from tracing import CLI_PROFILE_ENV, CLI_TRACE_ENV


REF_EVERY_S = 0.05  # seconds between samples of the reference loop
REF_SPAN_S = 0.1    # an op is scaled by the samples this close to its run
REF_MIN = 3         # ... and by at least this many of the nearest samples
REF_NOMINAL_S = 0.002  # about the reference-loop time on the recording host


def _reference_operand(rng, terms):
    return {tuple(rng.randint(-3, 3) for _ in range(4)):
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
            for _ in range(terms)}


_REF_RNG = random.Random(0)
REF_A = _reference_operand(_REF_RNG, 10)
REF_B = _reference_operand(_REF_RNG, 5)


def reference_loop():
    """A fixed sparse product with coefficients in Q[w]/(w^4 + 1).

    The same kind of work as the engine's hot path (Laurent products over
    Q(zeta_8) scalars: Fraction arithmetic and tuple-keyed dicts), so the
    host's speed changes move it and the engine alike.  It lives in the
    benchmark, so no change to qcycle can change it.
    """
    out = {}
    for ea, (a0, a1, a2, a3) in REF_A.items():
        for eb, (b0, b1, b2, b3) in REF_B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            p = (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1, a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                 a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3, a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)
            q = out.get(e)
            out[e] = p if q is None else tuple(x + y for x, y in zip(p, q))
    return out


class HostClock:
    """Samples the host's speed every REF_EVERY_S seconds from a SIGALRM timer.

    A shared host's speed drifts by tens of percent within a second, so the
    samples must cover long ops too, not only the gaps between ops.  Each
    sample times reference_loop() with the collector off, so its time does
    not depend on how many objects the engine holds.  `refs` holds (start,
    seconds) per sample; `spent` is the time all samples took, which callers
    subtract from the intervals they time in this process.
    """

    def __init__(self):
        self.refs = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick due while a sample runs is dropped
            return
        self.sample()

    def sample(self):
        t_in = time.perf_counter()
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            self.refs.append((t0, time.perf_counter() - t0))
        finally:
            if enabled:
                gc.enable()
            self._busy = False
            self.spent += time.perf_counter() - t_in

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def beside_child(self):
        """Sample around the block but not during it.

        A sample taken while a child process runs would compete with the
        child for the CPU and read the host as slower than it is.
        """
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)


def speed_factors(spans, refs):
    """The mean of REF_NOMINAL_S over the reference times around each span.

    Multiplying a measured time by its factor gives the time the host would
    have taken at the recording host's speed.  The samples are even in time,
    so over a long op the mean is the op's time-averaged speed.
    """
    times = [t for t, _ in refs]
    out = []
    for t0, t1 in spans:
        lo = bisect.bisect_left(times, t0 - REF_SPAN_S)
        hi = bisect.bisect_right(times, t1 + REF_SPAN_S)
        while hi - lo < min(REF_MIN, len(refs)):
            # widen towards the nearer side
            if hi < len(refs) and (lo == 0 or times[hi] - t1 < t0 - times[lo - 1]):
                hi += 1
            else:
                lo -= 1
        out.append(statistics.fmean(REF_NOMINAL_S / d for _, d in refs[lo:hi]))
    return out


def run_ops(ops, clock, tracer=None):
    """Time every op; check and hash its outputs off the clock.

    lat_s are the measured op times and wall_s their sum, which leaves out
    the benchmark's own work (making canonical text, hashing it, sampling
    the reference loop).  lat and wall are the same host-speed adjusted.
    gross_s also counts the samples taken during ops.
    """
    spans, lat_s, failures = [], [], []
    attempted = failed = 0
    digest = hashlib.sha256()
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.trace_id = idx
        with clock.beside_child() if op.child else contextlib.nullcontext():
            spent = clock.spent
            t0 = time.perf_counter()
            try:
                checks, text = op.fn()
            except Exception as exc:  # a failed op is counted; the pass goes on
                checks, text = [False], "error:%s:%s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
            sampled = clock.spent - spent
        spans.append((t0, t1))
        lat_s.append(t1 - t0 - sampled)
        if callable(text):
            try:
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    text = text()
            except Exception as exc:
                checks, text = checks + [False], "error:%s:%s" % (type(exc).__name__, exc)
        attempted += len(checks)
        bad = checks.count(False)
        failed += bad
        if bad:
            failures.append("%d:%s" % (idx, op.label))
        digest.update(text.encode() + b"\n")
    lat = [x * f for x, f in zip(lat_s, speed_factors(spans, clock.refs))]
    return {"wall_s": sum(lat_s), "lat_s": lat_s, "wall": sum(lat), "lat": lat,
            "gross_s": sum(t1 - t0 for t0, t1 in spans),
            "ref_s": statistics.median(d for _, d in clock.refs),
            "attempted": attempted, "failed": failed, "failures": failures,
            "digest": digest.hexdigest(), "labels": [op.label for op in ops],
            "op_start": [t0 for t0, _ in spans], "refs": clock.refs}


def merge_cli_traces(paths, tracer_out):
    """Sum the runners' per-layer stats; keep spans, import times, caches."""
    stats, spans, imports, caches, mismatches = {}, [], [], {}, {}
    for idx, path in enumerate(paths):
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            rec = json.load(fh)
        for name, (calls, self_s, extra) in rec["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += extra
        for span in rec["spans"]:
            span["trace"] = idx
            spans.append(span)
        imports.append(rec["import_s"])
        for name, val in rec["caches"].items():
            if val is None:
                caches.setdefault(name, None)
            else:
                caches[name] = max(val, caches.get(name) or 0)
        mismatches.update(rec.get("cprofile_mismatches", {}))
        # a runner's import happens outside every traced layer
        tracer_out["accounted_s"] += rec["accounted_s"] + rec["import_s"]
        tracer_out["runner_s"] += rec["runner_s"]
        tracer_out["missing"].update(rec["missing"])
    tracer_out.update(stats=stats, spans=spans, import_s=imports, caches=caches,
                      cprofile_mismatches=mismatches)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    clock = HostClock()
    clock.start()
    t_main = time.perf_counter()
    import_s = tracing.import_qcycle() - clock.spent
    tracer = None
    if args.trace and args.workload != "cli":
        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    env = dict(os.environ)
    cli_traces = []

    def env_for(idx):
        if not args.trace:
            return None
        cli_traces.append(os.path.join(args.workdir, "trace%03d.json" % idx))
        return dict(env, **{CLI_TRACE_ENV: cli_traces[-1]})

    try:
        if args.workload == "cli":
            ops = workloads.build_cli(args.seed, args.workdir, env_for)
        else:
            ops = workloads.BUILDERS[args.workload](args.seed, args.workdir)
        ready = {"t_ready": time.monotonic(), "setup_spent": clock.spent,
                 "setup_factor": speed_factors([(t_main, time.perf_counter())], clock.refs)[0]}
        if args.setup_only:
            print(json.dumps(ready))
            return 0
        if tracer is not None:
            tracer.reset()
        res = run_ops(ops, clock, tracer)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        res["maxrss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        res.update(ready)
        res["import_s"] = [import_s]
        res["caches"] = tracing.cache_entries()
        if args.trace:
            trace = {"accounted_s": 0.0, "runner_s": 0.0, "missing": {}}
            if tracer is not None:
                trace.update(stats=tracer.snapshot(), spans=list(tracer.spans),
                             accounted_s=tracer.accounted_s(),
                             missing=dict(tracer.missing))
                # the first op again, under cProfile, to check the wrappers
                trace["cprofile_mismatches"] = tracer.profile_check(ops[0].fn)
            else:
                merge_cli_traces(cli_traces, trace)
                path = os.path.join(args.workdir, "profile.json")
                argv = next(iter(workloads.GOLDEN_CASES.values()))
                workloads.cli_op(argv, None, args.workdir, dict(
                    env, **{CLI_TRACE_ENV: path, CLI_PROFILE_ENV: "1"}))()
                with open(path) as fh:
                    trace["cprofile_mismatches"] = json.load(fh)["cprofile_mismatches"]
                res["import_s"] = trace.pop("import_s")
                res["caches"] = trace.pop("caches")
            res["trace"] = trace
        print(json.dumps(res))
        return 0
    finally:
        clock.stop()
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
