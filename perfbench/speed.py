"""Gauge how fast the machine runs during a run, so that its drift divides out.

This host shares its cores with other guests, and its speed drifts over
minutes: the same `verify` operation takes 1.1 s in one minute and 1.9 s a
few minutes later, all of it user time, with no steal time reported. The
drift lasts longer than a run, so a median over one run cannot remove it,
and runs of the same code spread by 20-30%.

A `Probe` runs a fixed computation on request, between set-ups and between
operations, and keeps its times. Over a stretch of a run, the operation
time divided by the probe time follows the code and not the drift: in a
six-minute loop of `verify` operations on a 2-vCPU Xeon guest, whose
22-second medians spread by 28% (the slowest 1.7 times the fastest), that
ratio spread by 9%. `run.py` reports times rescaled to the speed at which
the probe takes REFERENCE_S, each phase by the probes taken during it:

    rescaled = measured * REFERENCE_S / mean(probe times of the phase)

The set-up phase of a cheap set-up lasts a second or two and must not
lend its speed to the operations that follow.

The host flips between a fast and a slow state every few seconds, so probe
times are bimodal. Their mean moves with the share of the run spent in
each state, as operation times do; their median jumps from one state to
the other.

The computation mixes the kinds of work the workloads do: Python that
formats and parses floats as text (the writers, the CSV and OBJ readers),
numpy passes over an array that fits in a core's cache and over arrays
that do not (the solvers and the chart), and fresh allocations of large
arrays (page faults). It touches nothing of `isoembed`, so no change to the
package can move it. It runs in a child process, which waits on a pipe
while an operation runs, so its memory is not counted in the workload's
peak RSS.

    python3 speed.py      # the child: one line of seconds per line read
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

REFERENCE_S = 0.3  # about one probe on a 2-vCPU Xeon guest

TEXT = [f"{0.001 * i:.6f}" for i in range(2000)]


def _text():
    total = 0.0
    for _ in range(40):
        line = ",".join(f"{float(x) * 1.5:.6f}" for x in TEXT)
        total += sum(float(x) for x in line.split(","))
    return total


def _cached(np):
    a = np.linspace(0.0, 1.0, 1 << 18)
    b = np.empty_like(a)
    for _ in range(15):
        np.sin(a, out=b)
        np.multiply(b, a, out=b)
        np.sqrt(b, out=b)
    return float(b[-1])


def _streamed(np):
    a = np.linspace(0.0, 1.0, 1 << 22)
    out = 0.0
    for _ in range(2):
        out += float(np.sqrt(np.sin(a) * a + 1.0)[-1])
    return out


def _allocated(np):
    out = 0.0
    for _ in range(4):
        x = np.empty(1 << 22)
        x.fill(1.0)
        out += float(x.copy()[-1])
    return out


def measure() -> float:
    """Seconds the fixed computation takes now."""
    import numpy as np

    t0 = time.perf_counter()
    total = _text() + _cached(np) + _streamed(np) + _allocated(np)
    elapsed = time.perf_counter() - t0
    if total != total:
        raise RuntimeError("the speed probe computed NaN")
    return elapsed


class Probe:
    """A child process that runs `measure()` on request; use it in a `with`."""

    def __init__(self):
        # the child inherits the pinned BLAS/OpenMP thread counts
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = []

    def sample(self) -> float:
        """Run the computation once in the child and keep its time."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"the speed probe exited with code {self._child.wait()}")
        self.samples.append(float(line))
        return self.samples[-1]

    def factor(self, first: int = 0, stop: int = None) -> float:
        """Multiply a time measured while samples[first:stop] were taken by this."""
        return REFERENCE_S / statistics.mean(self.samples[first:stop])

    def close(self):
        self._child.stdin.close()
        try:
            self._child.wait(timeout=60)
        finally:
            if self._child.poll() is None:
                self._child.kill()
                self._child.wait()
            self._child.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main():
    for _ in sys.stdin:
        print(f"{measure():.6f}", flush=True)


if __name__ == "__main__":
    main()
