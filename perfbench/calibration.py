"""Machine-speed calibration for run.py.

On a shared virtual machine the interpreter's speed switches between levels
up to 2x apart within seconds, and CPU time tracks wall time. The benchmark
therefore times a fixed loop of its own, ``calibration_s``, next to the work
it measures and reports times scaled to a machine where that loop takes
CAL_NOMINAL_S.
"""

import bisect
import signal
import statistics
import time

CAL_NOMINAL_S = 0.0005  # about what the calibration loop takes on a quiet core
SAMPLE_PERIOD_S = 0.02
SAMPLE_MARGIN_S = 0.03


def calibration_s():
    """Wall time of a fixed loop of integer, dict and string work, shaped like
    the solvers' bitmask code."""
    start = time.perf_counter()
    table, x, acc = {}, 0x9E3779B97F4A7C15, 0
    for _ in range(375):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = x >> 52
        table[key] = table.get(key, 0) + bin(x & 0xFFFF).count("1")
        acc ^= x & (x >> 7)
    return time.perf_counter() - start


class SpeedSampler:
    """Samples calibration_s() from a SIGALRM handler while active.

    The handler runs between bytecodes of the main thread, so no thread is
    started; the time it spends is recorded and taken out of instance times.
    """

    def __init__(self):
        self.samples = []  # (end time, calibration seconds)
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        cal = calibration_s()
        self._busy = False
        self.samples.append((time.perf_counter(), cal))
        self.spent += cal

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def factor(self, start, end):
        """CAL_NOMINAL_S over the mean calibration near [start, end]."""
        samples = self.samples
        lo = bisect.bisect_left(samples, start - SAMPLE_MARGIN_S, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, end + SAMPLE_MARGIN_S, lo=lo, key=lambda s: s[0])
        return CAL_NOMINAL_S / statistics.fmean(c for _, c in samples[lo:hi])
