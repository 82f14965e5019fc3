"""The host's current speed, from a fixed pure-Python reference workload.

The host this benchmark runs on is shared: its speed moves by up to 1.6x
in stretches of seconds to minutes, and CPU time moves with wall time.
So every timed piece of ``fieldc`` work is flanked by short blocks of a
reference workload that never changes and uses no code under test: a
tree-walking evaluator over frozen dataclasses with dict environments,
the same kind of work as the ``fieldcalc`` interpreters. While a command
runs, a ``Sampler`` takes one more reference sample every ``INTERVAL_S``,
so that the speed is known during a command of seconds too. A time
multiplied by the mean of ``REFERENCE_S / sample`` over the samples taken
during and around it is that time at the reference speed: what it would
have been on a host where one reference sample takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

# one reference sample on the 2-vCPU Xeon VM the benchmark was built on,
# at its faster stretches; a scale only, so that normalised times read
# as seconds of about the size a user sees there
REFERENCE_S = 0.0012
SAMPLES = 5  # samples in a block; the block's value is their median
INTERVAL_S = 0.1  # between the samples a Sampler takes


@dataclass(frozen=True)
class Num:
    v: float


@dataclass(frozen=True)
class Var:
    n: str


@dataclass(frozen=True)
class Add:
    a: object
    b: object


@dataclass(frozen=True)
class Let:
    n: str
    e: object
    body: object


def _tree(depth: int, i: int = 0):
    if depth == 0:
        return Num(float(i)) if i % 2 else Var("y")
    return Let(f"x{depth}", _tree(depth - 1, 2 * i),
               Add(Var(f"x{depth}"), _tree(depth - 1, 2 * i + 1)))


TREE = _tree(9)
EXPECTED = None  # the evaluator's result, fixed by the first sample


def _eval(e, env):
    if isinstance(e, Num):
        return e.v
    if isinstance(e, Var):
        return env[e.n]
    if isinstance(e, Add):
        return _eval(e.a, env) + _eval(e.b, env)
    inner = dict(env)
    inner[e.n] = _eval(e.e, env)
    return _eval(e.body, inner)


def sample() -> float:
    """Seconds for two evaluations of the reference tree."""
    global EXPECTED
    t0 = time.perf_counter()
    a = _eval(TREE, {"y": 1.0})
    b = _eval(TREE, {"y": 1.0})
    seconds = time.perf_counter() - t0
    if EXPECTED is None:
        EXPECTED = a
    if a != EXPECTED or b != EXPECTED:
        raise AssertionError("reference workload gave a different result")
    return seconds


def _samples(n: int) -> list:
    """``n`` reference samples, with the garbage collector off so that the
    heap of the code under test does not slow them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [sample() for _ in range(n)]
    finally:
        if enabled:
            gc.enable()


def block() -> float:
    """Median of ``SAMPLES`` reference samples."""
    return statistics.median(_samples(SAMPLES))


class Sampler:
    """While active, takes a reference sample every ``INTERVAL_S`` from a
    SIGALRM handler, which runs between the bytecodes of the code it
    interrupts. ``spent`` is the time the handler took, to be taken off
    the time measured around that code. Inactive, it does nothing (traced
    passes, whose spans would count the handler)."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples += _samples(1)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        if self.active:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)


def at_reference(seconds: float, samples) -> float:
    """``seconds`` scaled to the reference speed by the reference samples
    taken during and around them."""
    return seconds * statistics.fmean(REFERENCE_S / s for s in samples)
