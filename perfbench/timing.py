"""The benchmark's one clock and timing helper, and its host-speed scale.

Every time the benchmark reports is CPU time of this process
(time.process_time). The workloads run on one thread with BLAS pinned to
one thread, so on an idle machine CPU time equals wall time; on a shared
machine, time the process spends waiting for a CPU shows in wall time but
not here, so CPU time measures the program rather than its neighbours.

Neighbours still change how fast a CPU second goes (shared caches, the
hypervisor's other guests), from one second to the next by up to 1.7x.
So at_reference_speed times a fixed reference work, none of it btvc's
code, right before and right after the call it measures, and scales the
call's CPU time by REFERENCE_S / (the reference work's median time): the
result is CPU seconds at the host speed at which the reference work takes
REFERENCE_S.
"""

import statistics
import time

import numpy as np

now = time.process_time


def timed(fn, *args, **kwargs):
    """Call fn; returns (its result, CPU seconds the call took)."""
    t0 = now()
    out = fn(*args, **kwargs)
    return out, now() - t0


# The reference work's CPU time on an idle core of a 2 GHz Xeon.
REFERENCE_S = 0.0015
# Reference-work samples taken on each side of a call.
SAMPLES_PER_SIDE = 3

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((3000, 100))
_VECTOR = _rng.standard_normal(100)
_SMALL = _rng.standard_normal((2, 400))


def _reference_work() -> float:
    """A fixed mix of the work btvc does, none of it btvc's code: dense
    matrix-vector products over a matrix larger than L2, small-array numpy
    calls and plain Python."""
    total = 0.0
    for _ in range(5):
        total += float((_MATRIX @ _VECTOR).sum())
    a, b = _SMALL
    for _ in range(200):
        total += float((a * b + a).sum())
    seen = {}
    for i in range(2000):
        seen[i % 97] = seen.get(i % 97, 0) + i
    return total + sum(seen.values())


def host_sample() -> float:
    """CPU seconds the fixed reference work takes now."""
    return timed(_reference_work)[1]


def speed_scale(samples) -> float:
    """The factor that turns CPU seconds measured alongside these host
    samples into seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


def host_samples(n: int = SAMPLES_PER_SIDE) -> list[float]:
    return [host_sample() for _ in range(n)]


def at_reference_speed(fn, *args, **kwargs):
    """Call fn; returns (its result, the CPU seconds it took, scaled to the
    reference speed by samples of the reference work on both sides)."""
    before = host_samples()
    out, seconds = timed(fn, *args, **kwargs)
    return out, seconds * speed_scale(before + host_samples())
