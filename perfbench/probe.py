"""Fixed work that uses no part of ``risingbandits``: the host-speed probe.

``run.py`` times ``probe()`` in its own process right before and right
after every timed run.  The work never changes, so on a quiet host its
time is constant, and a change in it measures how fast the shared machine
is at that moment.  The mix mirrors the interpreter-bound work of the
workloads: generator sweeps that compare attributes of small objects, and
list, dict and float updates.  It imports nothing, so ``run.py`` stays
small and children's peak RSS is unaffected.
"""

from __future__ import annotations

from time import perf_counter


class _Slot:
    __slots__ = ("lower", "upper")

    def __init__(self, value: float) -> None:
        self.lower = value
        self.upper = value + 0.5


def probe() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    start = perf_counter()
    slots = [_Slot(i / 64) for i in range(64)]
    values = [i / 64 for i in range(64)]
    best: dict[int, float] = {}
    history: list[float] = []
    dominated = 0
    for step in range(15000):
        arm = step % 64
        x = values[arm] * 0.999 + 0.001
        values[arm] = x
        history.append(x)
        best[arm] = max(best.get(arm, 0.0), x)
        if step % 32 == 0:
            dominated += sum(1 for j in slots if any(i.lower >= j.upper for i in slots if i is not j))
    return perf_counter() - start
