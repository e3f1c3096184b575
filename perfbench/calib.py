"""Calibration kernel: a fixed piece of pure-Python work timed right before
and after every sample (and during it, for a child process), so that a
timing can be expressed in seconds of a machine at a fixed reference speed.

calibrated = raw * NOMINAL_S / mean kernel seconds around the sample

The kernel mixes exact `Fraction` arithmetic (as in the exact layers) with
float loops (as in the numeric layers).  It uses the standard library only.
"""

from __future__ import annotations

import math
import os
import select
import subprocess
import tempfile
import time
from fractions import Fraction

#: the reference speed: kernel_time() takes 2.5-2.8 ms in the fast state of
#: a 2-core x86-64 container under Python 3.11.7 (4-5 ms in its slow state)
NOMINAL_S = 0.0026


def kernel() -> float:
    acc = Fraction(0)
    for k in range(1, 160):
        a = Fraction(k, k + 3)
        b = Fraction(2 * k + 1, 7)
        acc = (a * b - Fraction(1, k)) / (a + 1) + Fraction(acc.numerator % 97, 13)
    s = 0.0
    for i in range(6000):
        x = i * 1e-3
        s += math.sqrt(x + 1.0) * (x - s * 1e-6)
    return float(acc) + s


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def kernel_time() -> float:
    """Kernel seconds now: the faster of two kernel runs, so that one
    preemption does not skew it.  The collector is left alone, so the
    collections that an op's garbage causes stay in the timed samples."""
    return min(kernel_seconds(), kernel_seconds())


def factor(kernels) -> float:
    """Calibration factor of a sample from the kernel times taken around
    (and, for a child process, during) it.  This machine switches between a
    fast and a slow state within a second, so the mean of several kernel
    times estimates the speed a sample ran at better than one before it."""
    return NOMINAL_S * len(kernels) / sum(kernels)


#: interval between kernel runs while a child process runs
POLL_S = 0.05


class Sampler:
    """Runs child processes and times the kernel every POLL_S meanwhile.

    The run is pinned to one CPU, so the kernel measures the speed of the
    core the child runs on; it takes that core from the child for its CPU
    time, which is therefore kept (`busy`) and deducted from the sample.
    `take()` hands out and resets both."""

    def __init__(self, tmpdir):
        self.tmpdir = tmpdir
        self.during = []
        self.busy = 0.0

    def take(self):
        out = (self.during, self.busy)
        self.during, self.busy = [], 0.0
        return out

    def run_child(self, cmd, env, cwd, timeout: float):
        """(exit code, stdout, stderr) of cmd.  The wait returns as soon as
        the child exits (through a pidfd), at most one kernel run late."""
        with tempfile.TemporaryFile(dir=self.tmpdir) as out, \
                tempfile.TemporaryFile(dir=self.tmpdir) as err:
            proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
            deadline = time.monotonic() + timeout
            fd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                while not poller.poll(POLL_S * 1000):
                    if time.monotonic() > deadline:
                        raise subprocess.TimeoutExpired(cmd, timeout)
                    c0 = time.thread_time()
                    kernel()
                    cpu = time.thread_time() - c0
                    self.during.append(cpu)
                    self.busy += cpu
            finally:
                os.close(fd)
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"))
