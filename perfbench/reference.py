"""The host-speed reference that the benchmark's times are scaled by.

On a shared virtual machine the host's speed shifts by up to 1.7x, for
seconds to minutes at a time, and CPU time shifts with it.  So every run
also times a fixed piece of pure-Python work next to the program, and each
time is multiplied by ``scale()`` of the reference times taken alongside
it: it then reads as seconds on a host where ``reference()`` takes REF_S.
A change to rostcalc does not change the reference, so a slower program
still reads slower.  The correction is only as good as the reference's
likeness to the program: in a spell where the reference ran 2x slower,
the requests workload ran only 1.5x slower, and its scaled times read low.
"""

import bisect
import gc
import statistics
import time

#: the reference's duration on the host the scaled times are quoted for
REF_S = 0.005
#: a job is scaled by the reference samples taken during it and within this
#: many seconds before its start or after its end
WINDOW_S = 0.25


def reference():
    """Seconds one fixed piece of pure-Python work takes: building a dict
    of tuple keys, sorting its items, modular arithmetic and string joins.
    The collector is off while it runs, so the size of the caller's heap
    does not change the result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(6000):
            table[(i * 7919) % 6007, i & 15] = str(i * i)
        rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        acc = 1
        for (a, b), text in rows:
            acc = (acc * (a + 1) + len(text) + b) % 1000003
        " ".join(text for _, text in rows[:2000]).split()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples):
    """REF_S over the mean of the reference times, without the highest and
    lowest tenth.  The host's speed flips between two levels many times a
    second, so the mean (the share of time spent at each level) tracks it
    where the median would jump between the two."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return REF_S / statistics.mean(ordered[cut:len(ordered) - cut])


def job_scales(spans, samples):
    """The scale of each job, given as (start, end), from the samples,
    (time, seconds) in time order, taken during it or within WINDOW_S of
    it, and at least the two nearest.  The host's speed shifts within a
    pass, so a job is scaled by the speed around it, not the pass's mean."""
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        while hi - lo < min(2, len(times)):
            if hi == len(times) or (lo > 0 and
                                    start - times[lo - 1] < times[hi] - end):
                lo -= 1
            else:
                hi += 1
        out.append(scale([seconds for _, seconds in samples[lo:hi]]))
    return out
