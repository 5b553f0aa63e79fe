"""A fixed reference kernel that reads how fast the host is right now.

On a shared host the program's speed drifts by a third within minutes with
no change to the program: other tenants contend for the shared last-level
cache and memory.  ``perfbench/run.py`` therefore reads this kernel before
and after the set-ups and after every timed unit, and reports host times in
*reference seconds*: measured seconds times ``REFERENCE_S`` over the median
of the run's readings.  A program change moves the units' time and not the
readings, so it shows in full; host contention moves both.

The kernel is memory-bound on purpose: random gathers over a 128 MiB array
and lookups in a dict of 400k entries, a working set like the program's.
Over a 10-minute stretch in which campaign units on a 2-vCPU shared VM
drifted between 9 and 15 s, its readings correlated 0.82 with the unit
times, against 0.67 for a cache-resident kernel (small NumPy ray sampling
and object arithmetic).
It imports nothing from the program, so no program change can move it, and
it runs in a fresh interpreter so it neither sees nor changes the
program's heap.

Usage: ``python3 perfbench/reference.py`` prints the median seconds of
``PASSES`` passes.
"""

import gc
import statistics
import time

import numpy as np

#: A reading on a quiet 2-CPU host; only the scale of reference seconds
#: depends on it.
REFERENCE_S = 0.16
PASSES = 5


def main() -> None:
    gc.disable()
    rng = np.random.default_rng(7)
    values = rng.random(16_000_000)
    picks = rng.integers(0, values.size, 2_000_000)
    table = {i * 7919: i for i in range(400_000)}
    keys = [int(k) * 7919 for k in rng.integers(0, 400_000, 300_000)]

    def one_pass() -> float:
        total = float(values[picks].sum()) + float(np.take(values, picks[::-1]).sum())
        for key in keys:
            total += table[key]
        return total

    one_pass()
    samples = []
    for _ in range(PASSES):
        start = time.perf_counter()
        one_pass()
        samples.append(time.perf_counter() - start)
    print(statistics.median(samples))


if __name__ == "__main__":
    main()
