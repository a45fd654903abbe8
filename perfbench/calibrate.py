"""Host-speed calibration for the benchmark's timings.

Other virtual machines on the host slow pure-Python code on a vCPU by up
to 2x, in phases that last from seconds to many minutes, so raw timings
of the same program spread by 30-50 % between runs. The benchmark
therefore pins itself and the program to one CPU and, while the program
runs, runs ``unit`` in a loop beside it. The scheduler interleaves the two
every few milliseconds, so both see the same host speed. The program's
CPU time times the kernel's speed (units per CPU second) is its cost in
kernel units, which does not depend on the host speed; dividing by
``REFERENCE_RATE`` gives seconds on the reference host.

The kernel is a fixed pure-Python workload in the style of the program's
inner loops: a three-string edit-distance lattice over small frozen
dataclasses, with a function call per pair cost. It does not use the
program, so a change to the program does not change it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Kernel units per CPU second on the reference host: about the speed of an
# unloaded 2-vCPU Xeon VM at 2.0 GHz.
REFERENCE_RATE = 200.0


@dataclass(frozen=True)
class _Symbol:
    char: str
    vowel: bool


def _pair_cost(u, v) -> float:
    if u is None and v is None:
        return 0.0
    if u is None or v is None:
        return 1.0
    if u.vowel != v.vowel:
        return math.inf
    return 0.0 if u.char == v.char else 1.0


_MOVES = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)
)


def _lattice(sx, sy, sz) -> float:
    inf = math.inf
    cost = [
        [[inf] * (len(sz) + 1) for _ in range(len(sy) + 1)] for _ in range(len(sx) + 1)
    ]
    cost[0][0][0] = 0.0
    for i in range(len(sx) + 1):
        for j in range(len(sy) + 1):
            for k in range(len(sz) + 1):
                best = cost[i][j][k]
                for dx, dy, dz in _MOVES:
                    pi, pj, pk = i - dx, j - dy, k - dz
                    if pi < 0 or pj < 0 or pk < 0 or cost[pi][pj][pk] == inf:
                        continue
                    x = sx[pi] if dx else None
                    y = sy[pj] if dy else None
                    z = sz[pk] if dz else None
                    c = cost[pi][pj][pk] + _pair_cost(x, y) + _pair_cost(x, z)
                    best = min(best, c + _pair_cost(y, z))
                cost[i][j][k] = best
    return cost[-1][-1][-1]


_rng = random.Random(2)
_LETTERS = [[_rng.choice("ptkbdgaeiou") for _ in range(9)] for _ in range(3)]
_WORDS = [tuple(_Symbol(c, c in "aeiou") for c in word) for word in _LETTERS]


def unit() -> float:
    """One unit of calibration work: a 10 x 10 x 10 lattice (~5 ms)."""
    return _lattice(*_WORDS)
