"""Bookkeeping shared by the runner and the workloads."""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def child_env() -> dict:
    """This environment, with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Log:
    """What one run attempted, how long its requests took, and what went
    wrong.

    An operation is one call into the program; ``attempted`` and
    ``failed`` count operations. A request is what a user waits for,
    usually one operation (a sweep call, a search, a cold CLI call) and
    on ``instance`` the whole verification of one instance. Every round
    makes the same requests in the same order, so a request is known by
    its position in the round; its time is the median over the rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[list[tuple]] = []
        # Peak resident set of the processes the requests ran in, when
        # that is not this process.
        self.peak_kb: int | None = None

    def start_round(self) -> None:
        self.rounds.append([])

    def op(self, failed: bool = False) -> None:
        self.attempted += 1
        self.failed += int(failed)

    def request(self, seconds: float, work: int, tag: str = "") -> None:
        self.rounds[-1].append((seconds, work, tag))

    def call(self, seconds: float, work: int, failed: bool = False,
             tag: str = "") -> None:
        """One operation that is also one request."""
        self.op(failed)
        self.request(seconds, work, tag)

    def typical(self) -> list[tuple]:
        """(median seconds over the rounds, work, tag) per request."""
        return [(statistics.median(r[i][0] for r in self.rounds),)
                + self.rounds[0][i][1:] for i in range(len(self.rounds[0]))]

    def work_per_s(self) -> float:
        typical = self.typical()
        return sum(w for _, w, _ in typical) / sum(t for t, _, _ in typical)

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems)


def interpreter_kernel() -> None:
    """Interpreter work (an integer loop, dict stores) and a small numpy
    reduction: what the checkers, the search loop and enumeration do."""
    acc = 0
    table = {}
    for i in range(8000):
        acc += (i * i) % 7
        table[i & 63] = acc
    float(np.abs(_SMALL[:, None] - _SMALL[None, :]).sum())


def memory_kernel() -> None:
    """A pass over arrays larger than the caches: what theorem_flags'
    m x n^2 blocks and a cold interpreter start lean on."""
    np.multiply(_LARGE, 1.0001, out=_LARGE_OUT)
    float(_LARGE_OUT.sum())


_SMALL = np.linspace(0.0, 1.0, 128)
_LARGE = np.linspace(0.0, 1.0, 1 << 19)
_LARGE_OUT = np.empty_like(_LARGE)

# Seconds each kernel takes at the reference speed: about what it takes on
# the README's reference VM when that VM is not slowed down.
INTERPRETER = (interpreter_kernel, 7.5e-4)
MEMORY = (memory_kernel, 5.5e-4)
KERNEL_REPS = 7


class Timer:
    """Times calls in seconds at a reference speed.

    A machine shared with other tenants (such as the 2-CPU VM of the
    README's reference figures) drifts in speed by up to a third over
    tens of seconds. Each kernel is timed just before and just after the
    call; the slowdown is the geometric mean over the kernels of their
    time over their reference time, and the call's wall time is divided
    by the mean slowdown before and after. A workload uses the kernels
    whose work resembles its own: on that VM the interpreter kernel
    alone tracks search and instance best, and with the memory kernel
    added it tracks sweep and cold CLI calls best."""

    def __init__(self, *kernels):
        self.kernels = kernels

    def slowdown(self) -> float:
        product = 1.0
        for kernel, reference_s in self.kernels:
            times = []
            for _ in range(KERNEL_REPS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            product *= sorted(times)[KERNEL_REPS // 2] / reference_s
        return product ** (1.0 / len(self.kernels))

    def scale(self, seconds: float, before: float, after: float) -> float:
        """Wall seconds to seconds at the reference speed."""
        return seconds / ((before + after) / 2)

    def timed(self, fn, *args, **kwargs):
        """(result, seconds at the reference speed)."""
        before = self.slowdown()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        return result, self.scale(elapsed, before, self.slowdown())
