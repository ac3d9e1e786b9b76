"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared host the speed of plain Python code changes by up to 1.5-1.9x in
phases of seconds to minutes, and a run cannot tell such a phase from a
slower program.  The benchmark therefore times a reference kernel between
its operations and scales every operation's time by the kernel's nominal
time over its time measured next to the operation.  The kernels are the
benchmark's own code and never call outerlabel, so a change to the program
moves the scaled times fully while a change in the machine's speed mostly
cancels.

A phase does not slow all code alike, so each workload is scaled by the
kernel whose work resembles its own:

- ``walk``: breadth-first search, edge listing and degree counting over
  dicts and sets of a fixed 1,500-vertex graph, like the labelers'
  recognition, block and verification walks.
- ``search``: a backtracking search for L(2,1)-labelings of a fixed
  14-vertex graph, k rising until one exists, like the exact oracle.
- ``both``: the two in turn, for the CLI workloads, which parse, recognize,
  label and search.

Over 20 s windows of a 3-minute trial on a 2-vCPU VM, wall times of the
labelers and of ``lambda_exact`` spread 0.26-0.32 (quartile distance over
median of the window medians); scaled by ``walk`` the labelers spread
0.05, and scaled by ``search`` the oracle spread 0.02.  Over five 20 s runs
of ``block`` with far-apart seeds, its times spread 0.09-0.10 scaled by
``walk`` and 0.04-0.05 scaled by ``both``.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# The run takes a kernel sample between operations once this much time has
# passed since the last one.
EVERY_S = 0.1

_N = 1500
_rng = random.Random(20240917)
_ADJ: dict[int, set[int]] = {v: set() for v in range(_N)}
for _v in range(_N):
    for _w in _rng.sample(range(_N), 3):
        if _w != _v:
            _ADJ[_v].add(_w)
            _ADJ[_w].add(_v)


def walk() -> int:
    """Breadth-first search, edge listing and degree counting on a fixed graph."""
    depth = {0: 0}
    order = [0]
    for u in order:
        for w in sorted(_ADJ[u]):
            if w not in depth:
                depth[w] = depth[u] + 1
                order.append(w)
    edges = [(u, w) for u in order for w in _ADJ[u] if u < w]
    degree: dict[int, int] = {}
    for u, w in edges:
        degree[u] = degree.get(u, 0) + 1
    return len(edges) + max(depth.values())


# A 14-cycle with six chords; vertices in order of falling degree.
_SN = 14
_SADJ: dict[int, set[int]] = {v: set() for v in range(_SN)}
for _u, _w in [(i, (i + 1) % _SN) for i in range(_SN)] + [
        (0, 5), (1, 4), (6, 10), (7, 9), (11, 13), (0, 10)]:
    _SADJ[_u].add(_w)
    _SADJ[_w].add(_u)
_SDIST2 = {v: set().union(*(_SADJ[w] for w in _SADJ[v])) - _SADJ[v] - {v}
           for v in range(_SN)}
_SORDER = sorted(range(_SN), key=lambda v: -len(_SADJ[v]))


def _labelable(k: int) -> tuple[bool, int]:
    """Whether the fixed graph has an L(2,1)-labeling of span k; search nodes."""
    label: dict[int, int] = {}
    nodes = 0

    def extend(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        if i == _SN:
            return True
        v = _SORDER[i]
        for c in range(k + 1):
            if any(abs(label[w] - c) < 2 for w in _SADJ[v] if w in label):
                continue
            if any(label[w] == c for w in _SDIST2[v] if w in label):
                continue
            label[v] = c
            if extend(i + 1):
                return True
            del label[v]
        return False

    return extend(0), nodes


def search() -> int:
    """The least span of the fixed graph times 1,000, plus the nodes searched."""
    nodes = 0
    for k in range(3, 12):
        found, more = _labelable(k)
        nodes += more
        if found:
            return 1000 * k + nodes
    raise AssertionError("no labeling of span below 12")


def both() -> int:
    """``walk`` and then ``search``."""
    return walk() + search()


class Reference:
    """One kernel, its nominal time and its expected result.

    Scaled times are those of a machine on which one kernel call takes
    ``nominal`` seconds, about its time on a 2-vCPU cloud VM.
    """

    KERNELS = {"walk": (walk, 0.004), "search": (search, 0.003),
               "both": (both, 0.007)}

    def __init__(self, name: str) -> None:
        self.name = name
        self.kernel, self.nominal = self.KERNELS[name]
        self.expected = self.kernel()

    def sample(self) -> float:
        """One kernel call's wall time, in seconds.

        The collector is off during the call, so that the sample does not
        pay for collecting the program's garbage.
        """
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        result = self.kernel()
        dt = perf_counter() - t0
        if enabled:
            gc.enable()
        if result != self.expected:
            raise RuntimeError(f"reference kernel {self.name} returned {result}")
        return dt

    def scaled(self, wall: float, measured: float) -> float:
        """``wall`` seconds at the nominal speed, given the kernel's ``measured`` time."""
        return wall * self.nominal / measured
