"""A speed probe: how fast this machine runs fixed Python work right now.

Other tenants slow this shared machine by up to 1.8x, in phases that last
from seconds to minutes, so two runs of the same code minutes apart can
differ by that much in wall and CPU time alike. The probe times a fixed
pure-Python loop from a SIGALRM handler, which runs between the measured
program's bytecodes, at random intervals of 1 to 9 ms (random, so that it
does not fall in step with the host's scheduling period). The mean loop
time over a span says how slow the machine was over that span; `scaled`
divides it out.

Of the probes tried, this one tracked the program best: on repeats of one
`bound` command, raw wall times that ranged over 1.5x scaled to within
6%. A probe timing small numpy calls tracked it worse than the unscaled
time did.
"""

from __future__ import annotations

import random
import signal
import time

MIN_INTERVAL_S, MAX_INTERVAL_S = 0.001, 0.009
LOOP = 400
# A fixed reference loop time, about the probe's time in a calm spell on
# this machine: scaled times read as seconds at that speed.
REF_LOOP_S = 1.6e-5


class Reading:
    """Cumulative wall and CPU time, and probe time and count, at one instant."""

    __slots__ = ("wall", "cpu", "probe_s", "probes")

    def __init__(self, wall: float, cpu: float, probe_s: float, probes: int):
        self.wall, self.cpu, self.probe_s, self.probes = wall, cpu, probe_s, probes


class SpeedProbe:
    def __init__(self):
        self.probe_s = 0.0
        self.probes = 0
        self.rng = random.Random(0)
        self.old = None

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.rng.uniform(MIN_INTERVAL_S, MAX_INTERVAL_S))

    def _fire(self, signum, frame) -> None:
        t = time.perf_counter()
        x = 0
        for i in range(LOOP):
            x += i
        self.probe_s += time.perf_counter() - t
        self.probes += 1
        self._arm()

    def start(self) -> None:
        self.old = signal.signal(signal.SIGALRM, self._fire)
        self._arm()

    def stop(self) -> None:
        if self.old is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.old)
            self.old = None

    def read(self) -> Reading:
        return Reading(time.perf_counter(), time.process_time(), self.probe_s, self.probes)


def scaled(a: Reading, b: Reading) -> tuple[float, float, float]:
    """Wall and CPU time from a to b less the probe's own time, each scaled
    to the reference speed by the mean probe time over the span, and the
    slow-down factor used. CPU time stretches with the slow-down as much as
    wall time does, so the factor applies to both."""
    probes = b.probes - a.probes
    probe_s = b.probe_s - a.probe_s
    factor = probe_s / probes / REF_LOOP_S if probes else 1.0
    wall = (b.wall - a.wall - probe_s) / factor
    cpu = (b.cpu - a.cpu - probe_s) / factor
    return wall, cpu, factor
