"""CPU clock corrected for the host's speed.

On a shared host, the same Python code takes up to twice as much CPU time
while other tenants load the physical cores, and that load changes within
seconds. ``SpeedClock`` follows it with a probe: a fixed piece of pure-Python
arithmetic (``_kernel``) whose CPU time is measured at the start of each call
and, inside long calls, every ``PROBE_EVERY_S`` seconds when a ticker thread
signals the main thread. Each stretch of CPU time between probes counts as

    stretch * REFERENCE_PROBE_S / (CPU time of the probe that began it)

so a stretch run while the host was slow counts as what it would have taken
at the reference speed. The probes' own time counts for nothing. The probe
is harness code, so a change to matint moves the clock only through the
CPU time it spends.

The ticker is a thread rather than an ``ITIMER_PROF`` timer because, while
a process CPU timer is armed, Linux reads ``time.process_time`` in whole
scheduler ticks (4 ms).
"""

from __future__ import annotations

import gc
import operator
import signal
import threading
import time
from fractions import Fraction

PROBE_EVERY_S = 0.1
# CPU time of one probe at the reference speed: about what it takes on an
# idle 2-vCPU x86 host of the kind the benchmark was tuned on.
REFERENCE_PROBE_S = 0.0027


_INTS = [[(i * 7 + j * 3) % 5 for j in range(32)] for i in range(32)]
_COLS = [list(c) for c in zip(*_INTS)]


def _kernel():
    """The probe's work: small Fraction and int matrix products, a dict of
    string keys and a dim-32 product of int lists. Other tenants slow these
    kinds of work by different amounts: the Fraction part alone followed
    Fraction-heavy calls but not dim-112 products, the dim-32 product alone
    the reverse, so the probe does both."""
    for _ in range(2):
        a = [[Fraction(i + j + 1, 3) for j in range(4)] for i in range(4)]
        b = [[i * j + 1 for j in range(4)] for i in range(4)]
        for _ in range(3):
            a = [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
                 for i in range(4)]
        d: dict[str, int] = {}
        for i in range(200):
            key = str(i % 31)
            d[key] = d.get(key, 0) + i
    for row in _INTS:
        [sum(map(operator.mul, row, col)) for col in _COLS]


class SpeedClock:
    """Corrected CPU seconds since the clock was made.

    ``probe()`` measures the host's speed now and returns the time;
    ``now()`` only reads it. While the clock is entered as a context, the
    main thread is also made to probe every ``PROBE_EVERY_S`` seconds.
    """

    def __init__(self):
        # (corrected time at the last probe, CPU time when it ended, scale)
        self.state = (0.0, time.process_time(), 1.0)
        self.scales: list[float] = []
        self._busy = False
        self.probe()

    def probe(self) -> float:
        if self._busy:          # a ticker probe during an explicit one
            return self.now()
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            _kernel()
            end = time.process_time()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        corrected, last, scale = self.state
        corrected += (start - last) * scale
        self.scales.append(REFERENCE_PROBE_S / (end - start))
        self.state = (corrected, end, self.scales[-1])
        return corrected

    def now(self) -> float:
        while True:
            state = self.state
            value = state[0] + (time.process_time() - state[1]) * state[2]
            if self.state is state:     # no ticker probe in between
                return value

    def __enter__(self):
        self._previous = signal.signal(signal.SIGUSR1, lambda signum, frame: self.probe())
        self._stop = threading.Event()
        main = threading.get_ident()

        def tick():
            while not self._stop.wait(PROBE_EVERY_S):
                signal.pthread_kill(main, signal.SIGUSR1)

        self._ticker = threading.Thread(target=tick, daemon=True)
        self._ticker.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._ticker.join()
        signal.signal(signal.SIGUSR1, self._previous)
