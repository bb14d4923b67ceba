"""rostcalc benchmark: run one workload (or all four) and print every metric.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 33

Run it from the root of a source checkout; it imports rostcalc from src/.
Each pass of a workload runs in a fresh child process (perfbench/child.py),
one at a time, with an address-space cap and a wall-time limit.  Passes
repeat until another would overrun --seconds.  With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics, whose times are
scaled by the host's speed (reference.py); with --trace 1,
untraced and traced passes alternate and it holds the per-layer metrics and
the tracing overhead.  The full record of a run (environment, sample
counts, every pass) goes to .perfbench/ in the checkout.  Exit status is 0
only if every output check passed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

import workloads  # noqa: E402
from reference import REF_S, job_scales, reference, scale  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

PREDICTS = {name: predicts for name, _, _, predicts in PER_LAYER}

#: cold CLI starts per run; setup_s is the median of their scaled times
SETUP_RUNS = 15
SETUP_ARGV = ["-m", "rostcalc.cli", "params", "-p", "3", "-n", "2"]
SETUP_OUT = "p = 3\nn = 2\nb = 4\nc = 13\nd = 8\ne = 1\n"

#: address-space cap of each child; a breach fails the job, not the machine
MEMORY_CAP = 1536 * 2 ** 20
#: no run may outlast this, whatever --seconds says
RUN_LIMIT_S = 165

#: the metrics of the result line with --trace 0; every time among them is
#: scaled by the host's speed (reference.py)
END_TO_END = (("scaled_wall_s", "s"), ("scaled_job_ms_p50", "ms"),
              ("scaled_job_ms_p90", "ms"), ("scaled_job_ms_p99", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class Ops:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, failure, what):
        self.attempted += 1
        if failure:
            self.failures.append(f"{what}: {failure}")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def measure_setup(ops, deadline):
    """(wall seconds, scale) per cold CLI start, the scale from two
    reference timings before it and two after.  The first start,
    which may compile bytecode, is checked but not timed."""
    times = []
    for i in range(SETUP_RUNS + 1):
        refs = [reference(), reference()]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *SETUP_ARGV], cwd=ROOT, env=_child_env(),
                capture_output=True, text=True, preexec_fn=_cap_memory,
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            ops.check("time limit", "setup")
            break
        elapsed = time.perf_counter() - t0
        refs += [reference(), reference()]
        ok = proc.returncode == 0 and proc.stdout == SETUP_OUT
        ops.check(None if ok else f"exit {proc.returncode}: "
                  f"{proc.stdout!r} {proc.stderr[-300:]!r}", "setup")
        if i:
            times.append((elapsed, scale(refs)))
    return times


def run_pass(workload, seed, trace, ops, deadline):
    """Run one child pass.  Returns the final document with the pass's
    times added (_add_times), or None if the child did not finish.  Every
    job and final check is one operation; a job the child never reported is
    a failed one."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, preexec_fn=_cap_memory)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
        ended = f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        ended = "killed at the run's time limit"
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:  # cut short when the child was killed
            pass
    final = lines.pop() if lines and lines[-1].get("done") else None
    reported = {doc["job"]: doc for doc in lines}
    tag = f"{workload} seed {seed} trace {trace}"
    for index in range(len(workloads.jobs_for(workload, seed))):
        doc = reported.get(index)
        ops.check("not run: child " + ended + " " + err[-300:]
                  if doc is None else doc["failure"], f"{tag} job {index}")
    if final is None or proc.returncode != 0:
        ops.check(f"child {ended}: {err[-300:]}", tag)
        return None
    for name, failure in final["checks"]:
        ops.check(failure, f"{tag} {name}")
    _add_times(final, [doc for doc in lines if doc["failure"] is None])
    return final


def _add_times(doc, passed):
    """Add to a pass's document the wall-clock "ms" of each job that passed,
    its "scaled_ms" (scaled by the reference samples around it), their sum
    "scaled_wall_s", and the "scale" of the pass as a whole."""
    samples = doc.pop("reference")
    doc["scale"] = scale([seconds for _, seconds in samples])
    doc["reference_s"] = REF_S / doc["scale"]
    doc["ms"] = [job["ms"] for job in passed]
    scales = job_scales([(job["start"], job["end"]) for job in passed],
                        samples)
    doc["scaled_ms"] = [ms * k for ms, k in zip(doc["ms"], scales)]
    doc["scaled_wall_s"] = sum(doc["scaled_ms"]) / 1000.0


def run_workload(workload, seed, seconds, trace):
    """Run one workload for about `seconds`.  Returns (ops, metrics,
    record), metrics mapping each name to (value, unit)."""
    ops = Ops()
    t_run = time.perf_counter()
    deadline = t_run + RUN_LIMIT_S
    setup = [] if trace else measure_setup(ops, deadline)
    plain, traced = [], []
    t_loop = time.perf_counter()
    while True:
        doc = run_pass(workload, seed, 0, ops, deadline)
        if doc is None:
            break
        if plain:
            ops.check(None if doc["digest"] == plain[0]["digest"]
                      else "output differs from the first pass",
                      f"{workload} pass {len(plain)} repeat")
        plain.append(doc)
        if trace:
            doc = run_pass(workload, seed, 1, ops, deadline)
            if doc is None:
                break
            same = (doc["digest"] == plain[0]["digest"]
                    and doc["totals"] == plain[0]["totals"])
            ops.check(None if same else "traced output or verdict totals "
                      "differ from the untraced pass",
                      f"{workload} traced pass {len(traced)}")
            traced.append(doc)
        now = time.perf_counter()
        if now + (now - t_loop) / len(plain) > t_run + seconds:
            break

    timed = [doc for doc in plain if len(doc["ms"]) >= 2]
    record = {"passes": plain, "traced_passes": traced, "setup": setup,
              "samples": {"passes": len(plain), "traced_passes": len(traced),
                          "jobs_per_pass": plain[0]["jobs"] if plain else 0,
                          "percentile_passes": len(timed),
                          "setup_runs": len(setup)}}
    metrics = {}
    if not plain or (trace and not traced):
        return ops, metrics, record

    def median(values):
        return statistics.median(list(values))

    def percentiles(key):
        """(p50, p90, p99) of each pass's job times, median over passes."""
        per_pass = [statistics.quantiles(doc[key], n=100, method="inclusive")
                    for doc in timed]
        return [median(q[i] for q in per_pass) for i in (49, 89, 98)]

    if trace:
        for name, unit, _, _ in PER_LAYER:
            if name != "trace.overhead_pct":
                power = {"s": 1, "1/s": -1}.get(unit, 0)
                metrics[name] = (median(
                    doc["layers"][name] * doc["scale"] ** power
                    for doc in traced), unit)
        metrics["trace.overhead_pct"] = (100.0 * (
            median(doc["scaled_wall_s"] for doc in traced)
            / median(doc["scaled_wall_s"] for doc in plain) - 1), "%")
        return ops, metrics, record
    metrics["scaled_wall_s"] = (median(doc["scaled_wall_s"] for doc in plain),
                                "s")
    if timed:
        for name, value in zip(("p50", "p90", "p99"),
                               percentiles("scaled_ms")):
            metrics[f"scaled_job_ms_{name}"] = (value, "ms")
    metrics["peak_rss_mb"] = (median(doc["peak_rss_mb"] for doc in plain),
                              "MB")
    if setup:
        metrics["setup_s"] = (median(t * k for t, k in setup), "s")
    # reported for reference, not in the result line
    metrics["wall_s"] = (median(doc["wall_s"] for doc in plain), "s")
    metrics["cpu_s"] = (median(doc["cpu_s"] for doc in plain), "s")
    if timed:
        for name, value in zip(("p50", "p90", "p99"), percentiles("ms")):
            metrics[f"job_ms_{name}"] = (value, "ms")
    metrics["reference_ms"] = (
        1000.0 * median(doc["reference_s"] for doc in plain), "ms")
    if setup:
        metrics["setup_wall_s"] = (median(t for t, _ in setup), "s")
    return ops, metrics, record


def environment(seed):
    """What each result is recorded with.  The revision is known only in a
    git working tree; an exported checkout reports "unknown"."""
    revision = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else revision
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_revision": revision, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=33)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "rostcalc", "cli.py")):
        print(f"no rostcalc source under {ROOT}/src: run from a source "
              "checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    attempted = failed = 0
    combined = {}
    for workload in names:
        ops, metrics, record = run_workload(workload, args.seed, args.seconds,
                                            args.trace)
        attempted += ops.attempted
        failed += len(ops.failures)
        n = record["samples"]
        print(f"{workload}: {ops.attempted} operations, "
              f"{len(ops.failures)} failed, "
              f"fail_frac = {len(ops.failures) / max(ops.attempted, 1)!r} 1; "
              f"samples {json.dumps(n)}")
        for failure in ops.failures[:20]:
            print(f"  FAILED {failure}")
        for name, (value, unit) in metrics.items():
            note = f"  [moves: {PREDICTS[name]}]" if args.trace else ""
            print(f"  {name} = {value!r} {unit}{note}")
        record.update(environment=env, workload=workload, trace=args.trace,
                      seconds=args.seconds, attempted=ops.attempted,
                      failures=ops.failures,
                      metrics={k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()})
        path = os.path.join(OUT_DIR, f"result-{workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit) in metrics.items():
            if args.trace or name in dict(END_TO_END):
                combined[prefix + name] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
