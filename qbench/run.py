"""The qcycle benchmark: one command per workload, stdlib only.

    python3 qbench/run.py --workload oracle --seed 1 --seconds 15 --trace 0

Run from the repository root.  Every pass runs one workload's fixed op list in
a fresh, single-threaded Python process (worker.py), so each pass pays cold
caches as every qcycle invocation does.  With --trace 0 the run first samples
set-up twice more, then makes passes until --seconds is spent (at least one),
and prints the end-to-end metrics of BENCHMARK.json.

Times are host-speed adjusted.  A timer in the worker times a fixed reference
loop every 0.05 s, during ops as well as between them (worker.HostClock),
and each op's measured time is multiplied by the mean of REF_NOMINAL_S over
the reference times around it.  That gives the time at the speed of the
host the baselines were recorded on.  A shared host's speed drifts by tens
of percent within seconds; this keeps runs comparable.  The measured
seconds are in the `info:` line under "raw".

With --trace 1 it makes one untraced and one traced pass and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the machine
record, the tail percentile used and any failures.  A full record is written
to qbench/.out/.

qbench/digests.json holds the digest of each workload's canonical outputs
for recorded seeds; a run on such a seed that differs counts one failed
check.  qbench/baseline.json holds the numbers of seeds 1 and 2 and the
spread of ten seeds, with the machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_SAMPLES = 3   # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170   # a run gives up after this long
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.5) + tuple(range(99, 0, -1))


class BenchError(Exception):
    pass


def tail_percentile(values):
    """Highest percentile with at least TAIL_MIN_BEYOND values above its rank.

    Nearest-rank percentiles on the ladder 99.9, 99.5, 99, 98, ... 1.  Returns
    (percentile, value, count beyond); with too few values for any rung the
    maximum is returned with percentile 100 and zero beyond.
    """
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(ROOT), "loadavg_before": os.getloadavg()}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so counts repeat exactly
    env["QCYCLE_THREADS"] = "1"
    return env


def spawn(workload, seed, deadline, trace=False, setup_only=False, tag="0"):
    """Run worker.py once; returns its result with spawn-relative timings."""
    workdir = os.path.join(OUT, "work-%d-%s" % (os.getpid(), tag))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              cwd=ROOT, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError("worker for %s passed the %d s run limit" % (workload, RUN_LIMIT_S))
    t_end = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("worker for %s failed (exit %d): %s"
                         % (workload, proc.returncode, proc.stderr.strip()[-2000:]))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_raw_s"] = res["t_ready"] - t_spawn - res["setup_spent"]
    res["setup_s"] = res["setup_raw_s"] * res["setup_factor"]
    res["process_s"] = t_end - t_spawn
    return res


def recorded_digest(workload, seed):
    try:
        with open(DIGESTS) as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except OSError:
        return None


def check_digests(workload, seed, passes):
    """Passes must agree with each other and with the recorded digest."""
    found = {p["digest"] for p in passes}
    want = recorded_digest(workload, seed)
    problems = []
    if len(found) > 1:
        problems.append("passes disagree on the digest")
    if want is not None and found != {want}:
        problems.append("digest differs from the one recorded for seed %d" % seed)
    return sorted(found)[0], want, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(workload, seed, seconds, deadline):
    """Set-up samples, then passes until `seconds` is spent.

    Each metric is taken per pass (the op mixes place the latency median and
    tail inside groups of like ops, which holds for one pass's ops) and its
    median over the passes is reported.
    """
    setups = [spawn(workload, seed, deadline, setup_only=True, tag="s%d" % i)
              for i in range(SETUP_SAMPLES - 1)]
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(spawn(workload, seed, deadline, tag="p%d" % len(passes)))
        elapsed = time.monotonic() - t0
        if elapsed + passes[-1]["process_s"] > seconds:
            break
    setups.append(passes[0])
    med = statistics.median
    tails = [tail_percentile(p["lat"]) for p in passes]
    metrics = {
        "wall_s": metric(med(p["wall"] for p in passes), "s"),
        "op_p50_ms": metric(med(med(p["lat"]) for p in passes) * 1e3, "ms"),
        "op_tail_ms": metric(med(t[1] for t in tails) * 1e3, "ms"),
        "setup_s": metric(med(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": metric(med(p["maxrss_mb"] for p in passes), "MB"),
    }
    info = {"passes": len(passes), "ops_per_pass": len(passes[0]["lat"]),
            "tail_percentile": tails[0][0], "tail_ops_beyond": tails[0][2],
            "reference_loop_s": med(p["ref_s"] for p in passes),
            "raw": {"wall_s": med(p["wall_s"] for p in passes),
                    "op_p50_ms": med(med(p["lat_s"]) for p in passes) * 1e3,
                    "op_tail_ms": med(tail_percentile(p["lat_s"])[1] for p in passes) * 1e3,
                    "setup_s": med(p["setup_raw_s"] for p in setups)}}
    return passes, metrics, info


def layer_value(name, trace, base, traced):
    """Resolve one per-layer metric name against an untraced and a traced pass.

    Returns (value, reason) where reason is None unless the metric is missing.
    Layer times are measured seconds of the traced pass; trace_overhead
    compares the host-speed adjusted walls.
    """
    stats = trace["stats"]
    missing = trace["missing"]
    # interpreter start-up and exit around each CLI runner, outside its clock
    spawn_s = traced["wall_s"] - trace["runner_s"] if trace["runner_s"] else 0.0
    if name == "trace_overhead":
        return traced["wall"] / base["wall"], None
    if name == "traced.accounted_share":
        # the layers' times include the host-speed samples taken inside them
        return (trace["accounted_s"] + spawn_s) / traced["gross_s"], None
    if name == "cli.import_s":
        return statistics.median(trace["import_s"]), None
    if name == "cli.spawn_s":
        if not trace["runner_s"]:
            return 0, "no CLI invocations on this workload"
        return spawn_s, None
    if name.startswith("cache.") and name.endswith(".entries"):
        val = trace["caches"].get(name[len("cache."):-len(".entries")])
        return (0, "cache not found in the package") if val is None else (val, None)
    layer, field = name.rsplit(".", 1)
    if layer in missing:
        return 0, missing[layer]
    if field == "accepted_ratio":
        calls, _, accepted = stats.get(layer, (0, 0.0, 0))
        return (accepted / calls, None) if calls else (0, "no calls on this workload")
    calls, self_s, extra = stats.get(layer, (0, 0.0, 0))
    value = {"calls": calls, "self_s": self_s, "term_pairs": extra, "failed": extra}[field]
    return value, None


def traced_run(workload, seed, per_layer, deadline):
    base = spawn(workload, seed, deadline, tag="u")
    traced = spawn(workload, seed, deadline, trace=True, tag="t")
    trace = traced["trace"]
    trace["import_s"] = traced["import_s"]
    trace["caches"] = traced["caches"]
    metrics, missing = {}, {}
    for spec in per_layer:
        value, reason = layer_value(spec["name"], trace, base, traced)
        metrics[spec["name"]] = metric(value, spec["unit"])
        if reason is not None:
            missing[spec["name"]] = reason
    info = {"untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"],
            "missing": missing, "cprofile_mismatches": trace["cprofile_mismatches"],
            "spans": len(trace["spans"])}
    return [base, traced], metrics, info, trace["spans"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "qcycle", "__init__.py")):
        print("error: no qcycle sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    deadline = time.monotonic() + RUN_LIMIT_S
    record = machine_record()
    spans = []
    try:
        if args.trace:
            passes, metrics, info, spans = traced_run(args.workload, args.seed,
                                                      bench["per_layer"], deadline)
        else:
            passes, metrics, info = untraced_run(args.workload, args.seed, args.seconds,
                                                 deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    record["loadavg_after"] = os.getloadavg()

    digest, want, problems = check_digests(args.workload, args.seed, passes)
    # the digest comparison counts as one more check
    attempted = sum(p["attempted"] for p in passes) + 1
    failed = sum(p["failed"] for p in passes) + (1 if problems else 0)
    failures = sorted({f for p in passes for f in p["failures"]}) + problems
    info.update(digest=digest, recorded_digest=want, failures=failures,
                failed_frac=failed / attempted)
    if args.trace:
        info["exact_counts"] = {k: metrics[k]["value"] for k in metrics
                                if k.endswith((".term_pairs", ".failed", ".accepted_ratio",
                                               ".entries"))}

    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "machine": record,
                   "info": info, "metrics": metrics,
                   "passes": [{k: p[k] for k in ("labels", "op_start", "lat_s", "lat", "refs")}
                              for p in passes]},
                  fh, indent=1, sort_keys=True)
    if spans:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh)

    print("machine: %s" % json.dumps(record, sort_keys=True))
    print("info: %s" % json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
