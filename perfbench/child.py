"""One pass of one workload, in a process of its own.

    python3 perfbench/child.py --workload W --seed S --trace 0|1

Prints one JSON line per job as it completes, {"job", "failure", "ms",
"start", "end"} (start and end on this process's performance counter), then
a final line with the pass totals.  A failed job has no time, and the
pass's wall_s and cpu_s sum the times of the jobs that passed.  About every
REF_EVERY_S, a timer signal makes the child time reference.reference() (and
leave that time out of the job it interrupted), so that the parent can
scale the pass's times by the host's speed while it ran.  The parent sets
this process's address-space cap before it starts; a job that runs out of
memory or past JOB_SECONDS is recorded as failed and the pass goes on.  A
traced pass writes its spans to .perfbench/spans-<workload>.tsv in the
checkout.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from rostcalc import steenrod  # noqa: E402

import jobs  # noqa: E402
import workloads  # noqa: E402
from reference import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

#: wall-time limit of one job
JOB_SECONDS = 60.0
#: the reference work runs about this often (in seconds of CPU time)
REF_EVERY_S = 0.1


class JobTimeout(BaseException):
    """Raised from the interval timer; a BaseException so that no handler
    in the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class Sampler:
    """Times reference.reference() from a profiling-timer signal about
    every REF_EVERY_S, in the middle of a job as often as between jobs.
    Keeps (time, seconds) of each sample, and the wall and CPU time the
    samples took, which clock() leaves out."""

    def __init__(self):
        self.samples = []
        self.wall = self.cpu = 0.0

    def sample(self, signum=None, frame=None):
        wall, cpu = time.perf_counter(), time.process_time()
        self.samples.append((wall, reference()))
        self.wall += time.perf_counter() - wall
        self.cpu += time.process_time() - cpu

    def clock(self):
        """Wall and CPU seconds, less the time samples took."""
        return (time.perf_counter() - self.wall,
                time.process_time() - self.cpu)

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


def _emit(doc):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    job_list = workloads.jobs_for(args.workload, args.seed)
    sampler = Sampler()
    runner = jobs.Runner(jobs.load_expected(), clock=sampler.clock)
    # spans leave out the reference samples taken inside them
    tracer = (Tracer(clock=lambda: time.perf_counter() - sampler.wall)
              if args.trace else None)
    if tracer:
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    digest = hashlib.sha256()

    for _ in range(3):
        sampler.sample()
    sampler.start()
    wall = cpu = 0.0
    for index, job in enumerate(job_list):
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, JOB_SECONDS)
        try:
            (job_wall, job_cpu), out, failure = runner.run(job)
        except JobTimeout:
            out, failure = "", "time limit"
        except MemoryError:
            out, failure = "", "memory limit"
        except Exception as exc:  # a crashing job is one failed operation
            out, failure = "", f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if failure and tracer:
            tracer.reset_stack()
        digest.update(out.encode() + b"\0")
        if not failure:
            wall += job_wall
            cpu += job_cpu
        _emit({"job": index, "failure": failure,
               "ms": None if failure else job_wall * 1000.0,
               "start": start, "end": time.perf_counter()})
    sampler.stop()

    checks = runner.final_checks(args.workload)
    doc = {
        "done": True,
        "jobs": len(job_list),
        "wall_s": wall,
        "cpu_s": cpu,
        "reference": sampler.samples,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
        "totals": {" ".join(map(str, k)): v
                   for k, v in sorted(runner.totals.items())},
        "checks": checks,
    }
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics(
            steenrod._cartan_expand_cached.cache_info())
        grid = [0, 0, 0]
        for (part, _, _), counts in runner.totals.items():
            if part == "grid":
                grid = [a + b for a, b in zip(grid, counts)]
        layers["steenrod.grid_zero"], layers["steenrod.grid_at_least"], \
            layers["steenrod.grid_exact"] = grid
        doc["layers"] = layers
        tracer.write_spans(os.path.join(
            ROOT, ".perfbench", f"spans-{args.workload}.tsv"))
    _emit(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
