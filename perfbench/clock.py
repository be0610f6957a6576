"""Operation times corrected for the speed drift of a shared machine.

On a small shared VM the same Python code runs 10-20% faster or slower from
one half minute to the next, so raw times of identical work spread between
runs by more than a useful regression bound.  The drift is slow: the speed
of one second is within about 2% of the next.  So while the operations run,
a fixed pure-Python kernel is timed every ``INTERVAL_S`` from a ``SIGALRM``
handler (a signal, not a thread), and each operation's time, less the time
the handler took inside it, is scaled by ``REFERENCE_KERNEL_S`` over the
median kernel time of the samples within ``WINDOW_S`` of the operation.

The kernel has a compute part and a memory part, because the drift does not
slow both alike: work that waits on memory (the monadicity and Set-Fmla
workloads build hundreds of thousands of formulas) followed the sum of the
two more closely than either alone, and compute-bound proof search lost
little by it.

Corrected times are therefore seconds of a machine on which the kernel takes
``REFERENCE_KERNEL_S``: about its median on the 2-vCPU x86-64 VM the
baseline was measured on.  A change to mvlogic moves them as it moves raw
times; the kernel uses no mvlogic code.
"""

import gc
import itertools
import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.1
WINDOW_S = 1.0
REFERENCE_KERNEL_S = 0.0015
# the memory part walks this table, larger than a core's private caches, in
# an order no prefetcher follows: each index depends on the value just read
WALK = array("i", [0]) * (1 << 21)  # 8 MiB
WALK_STEPS = 3000


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2


def scale_here(samples=11, warmup=5):
    """Reference kernel time over the median of ``samples`` timings of the
    kernel now, after ``warmup`` untimed calls."""
    for _ in range(warmup):
        kernel()
    times = []
    for _ in range(samples):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return REFERENCE_KERNEL_S / median(times)


def kernel():
    """Interning, frozenset algebra and tuple enumeration, as in mvlogic's
    hot paths, then a walk of dependent reads over ``WALK``; about 1.5 ms."""
    table = {}
    acc = 0
    for i in range(600):
        key = ("k", i % 29, (i * 7) % 11)
        node = table.get(key)
        if node is None:
            node = table[key] = frozenset(key[1:])
        acc += len(node & {1, 2, 3, 5, 8})
    for combo in itertools.product(range(6), repeat=3):
        acc += combo[0] * 6 + combo[1] - combo[2]
    mask = len(WALK) - 1
    i = 0
    for _ in range(WALK_STEPS):
        i = (WALK[i] + i * 1103515245 + 12345) & mask
    return acc + i + len(sorted(table, key=repr))


class Clock:
    """Samples the kernel while active (``with Clock() as clock:``)."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.stolen = 0.0  # seconds spent in the handler so far

    def _sample(self, signum=None, frame=None):
        enter = perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection here would belong to the operation
        try:
            start = perf_counter()
            kernel()
            end = perf_counter()
        except RecursionError:
            # the interrupted operation was at the recursion limit; leave
            # the error to the operation itself
            return
        finally:
            if collecting:
                gc.enable()
            self.stolen += perf_counter() - enter
        self.starts.append(start)
        self.durations.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def scale(self, start, end):
        """Reference kernel time over the median kernel time of the samples
        within ``WINDOW_S`` of [start, end]."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        window = self.durations[lo:hi]
        if not window:
            nearest = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - start))
            window = [self.durations[nearest]]
        return REFERENCE_KERNEL_S / median(window)

    def speed(self):
        """Reference kernel time over the median of all samples: how fast
        the machine ran, for the run's detail line."""
        return REFERENCE_KERNEL_S / median(self.durations)
