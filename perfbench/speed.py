"""The speed of the machine, sampled while the benchmark measures.

On a shared virtual machine the work one CPU second does is not fixed:
when other tenants load the same physical cores it drops, by up to 1.8x
for minutes at a time.  CPU time alone then moves with the machine, and
two sets of runs made minutes apart disagree.  While a run measures, a
thread wakes every ``PERIOD`` seconds and times ``reference()``, a fixed
piece of interpreter work that belongs to the benchmark, by its own CPU
clock.  The gated timings are scaled by ``NOMINAL_S`` over the median
reference time of the same run: they read as the CPU time the program
would take on a machine where the reference takes ``NOMINAL_S``.

The probe's own CPU time is left out of every operation's CPU time
(``probe_cpu``).  The reference builds only strings and integers, which
the garbage collector does not track, so it never starts a collection of
the program's objects.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD = 0.1
# About the reference's median CPU time on the 2-vCPU x86_64 machine the
# benchmark was written on, so that scaled figures stay near CPU seconds.
NOMINAL_S = 0.002

_probe: SpeedProbe | None = None


def reference(n: int = 2000) -> int:
    h = 0
    for i in range(n):
        s = str(i * 2654435761 % 1000003)
        h ^= hash(s[::-1] + s[:3])
    return h


class SpeedProbe:
    """A thread timing ``reference()`` every ``PERIOD`` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._clock = None

    def _run(self) -> None:
        while True:
            t0 = time.thread_time()
            reference()
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(PERIOD):
                return

    def __enter__(self) -> SpeedProbe:
        global _probe
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)
        _probe = self
        return self

    def __exit__(self, *exc) -> None:
        global _probe
        _probe = None
        self._stop.set()
        self._thread.join()

    def cpu(self) -> float:
        return time.clock_gettime(self._clock)

    def scale(self) -> float:
        """``NOMINAL_S`` over the median reference time so far."""
        return NOMINAL_S / statistics.median(self.samples)


def probe_cpu() -> float:
    """CPU seconds the running probe has used (0 when none runs)."""
    return _probe.cpu() if _probe is not None else 0.0
