"""Machine-speed samples, to put the run's times on one reference speed.

The benchmark's host is a shared VM whose speed drifts by up to 1.7x over
seconds to minutes: every time a run measures moves with it, and two runs of
the same code a minute apart can differ by more than a regression bound.  So
each pass of a DSL workload also times a fixed piece of pure-Python work
that touches nothing of thickcalc, interleaved with the ops (``worker.py``).
Its trimmed mean over the pass,
divided by ``REF_S``, is the pass's slowness; the end-to-end times are the
measured times divided by it, i.e. seconds on a machine where the sample
takes ``REF_S``.  The raw wall-clock figures are printed beside them in the
details line.

The work is what thickcalc spends its time on: ``Fraction`` arithmetic and
the recursive evaluation of a small expression tree of float products and
sums; in a side-by-side trial a plain integer loop tracked the drift of
the workloads less well.  The work is the same on every
commit, so a change to thickcalc cannot move the slowness; it only cancels
the machine's drift.
"""

import time
from fractions import Fraction

#: Time of one sample at the reference speed, about what the 2-vCPU x86_64
#: VM the benchmark was tuned on gives when it is not slowed.
REF_S = 0.002

#: Least time between two samples inside a pass.
GAP_NS = 50_000_000


class _Power:
    def __init__(self, k):
        self.k = k

    def value(self, x):
        return x ** self.k if self.k else 1.0


class _Sum:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self, x):
        return self.a.value(x) + self.b.value(x)


class _Product(_Sum):
    def value(self, x):
        return self.a.value(x) * self.b.value(x)


def _tree(depth, i=0):
    if depth == 0:
        return _Power(i % 3)
    node = _Sum if depth % 2 else _Product
    return node(_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


_TREE = _tree(7)


def sample_ns() -> int:
    """Nanoseconds the fixed work takes now."""
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i % 7, i % 5 + 1) * Fraction(3, i)
    s = 0.0
    for j in range(42):
        s += _TREE.value(0.1 * (j % 14))
    return time.perf_counter_ns() - t0


def factor(samples_ns) -> float:
    """Slowness of the machine over these samples, relative to ``REF_S``.

    The mean without the fastest and slowest fifth: a sample that a pause
    of the machine or a collection lands on would otherwise move the
    slowness of a whole pass.
    """
    ordered = sorted(samples_ns)
    cut = len(ordered) // 5
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept) * 1e-9 / REF_S
