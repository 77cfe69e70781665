"""Host speed probe: the time of a fixed piece of pure-Python work.

The 2-vCPU VM this benchmark was tuned on changes speed by up to 2x over
seconds to minutes, with no steal time, so raw times of one run drift with
the host rather than with the program.  The benchmark therefore probes the
host's speed alongside every measurement and reports a time ``t`` measured
while the probe took ``p`` seconds as ``t * REFERENCE_S / p``: the time it
would have taken on a host where the probe takes ``REFERENCE_S``.  The
probe uses only builtins, so no change to the package can move it.
"""

import signal
import time

# probe time on the reference host: the median on the VM the benchmark was tuned on
REFERENCE_S = 100e-6
# a probe costs about 0.3 ms, so probing every 5 ms takes about 6% of a pass
PROBE_EVERY_S = 0.005

_DATA = bytes((i * i + 3 * i) % 3 for i in range(96))


def _work() -> int:
    acc = 0
    for b in range(1, 9):
        acc += len({_DATA[t * b : (t + 1) * b] for t in range(8)})
        table = {}
        for i in range(40):
            table[_DATA[i : i + b]] = i
        acc += len(table)
    return acc


def probe() -> float:
    """Seconds the fixed work takes now; the best of three skips interrupts."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Job time corrected to the reference host speed, probed on a timer.

    Between ``start`` and ``stop`` a real-time interval timer probes the
    host every ``PROBE_EVERY_S``, also in the middle of a long job.  Each
    interval of job time is scaled by ``REFERENCE_S`` over the mean of the
    probes at its two ends; the probes' own time is left out.
    """

    def __init__(self) -> None:
        self.corrected = self.raw = 0.0
        self._last_probe = self._last_end = 0.0

    def _tick(self, *_) -> None:
        interval = time.perf_counter() - self._last_end
        p = probe()
        self.corrected += interval * REFERENCE_S * 2 / (self._last_probe + p)
        self.raw += interval
        self._last_probe = p
        self._last_end = time.perf_counter()

    def start(self) -> None:
        self._last_probe = probe()
        signal.signal(signal.SIGALRM, self._tick)
        self._last_end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
