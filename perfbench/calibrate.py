"""Host-speed calibration: a fixed reference kernel timed beside every op.

On a shared host the speed of one core changes by a third from one
20-s window to the next, while the work of an op stays the same.  The
runner times the kernel below right before and after every op.  It does
the three kinds of work the workloads do: interpreter-bound dict and
float work (the enumeration DFS, graph rebuilds), small dense solves and
eigenvalues (resolvent and curve steps) and a power iteration on a
cache-resident dense matrix (the dart-matrix eigen-solve).  Different
work slows by different amounts on a busy host, so the kernel mixes all
three.  It never touches ``entrograph``, so a program change does not
change it.  With ``t`` the kernel's median time around an op,

    ref_seconds = seconds * REF_S / t

is the op's time on a host where the kernel takes ``REF_S``: about the
time the op takes on a 2-core x86-64 VM when nothing else loads it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SMALL = np.arange(1.0, 1601.0).reshape(40, 40) % 7 + 40.0 * np.eye(40)
_DENSE = np.random.default_rng(0).random((400, 400))


def _python() -> None:
    acc: dict[int, float] = {}
    for i in range(10_000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5


def _lapack() -> None:
    for _ in range(10):
        np.linalg.solve(_SMALL, _SMALL[:, 0])
        np.linalg.eigvals(_SMALL[:20, :20])


def _matvec() -> None:
    v = np.ones(len(_DENSE))
    for _ in range(60):
        w = _DENSE @ v
        v = w / np.linalg.norm(w)


def _kernel() -> None:
    _python()
    _lapack()
    _matvec()


REF_S = 0.004   # the kernel's time on the reference host, by definition


def kernel_seconds(reps: int = 2) -> list[float]:
    """Wall times of ``reps`` runs of the reference kernel."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t0)
    return out


def speed(times: list[float]) -> float:
    """Host speed relative to the reference host (1.0 = reference)."""
    return REF_S / statistics.median(times)
