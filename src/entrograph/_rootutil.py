"""Bracketed scalar root finding: secant steps with bracket projection
and Brent's bisection fallback down to ``XTOL_REL`` relative, within
``MAX_ITER`` evaluations (``bracketed_root``); and the search for a
bracket above a base point where the equation may diverge, from
``REL_MARGIN`` relative above it (``root_above``).  Used for the
monotone defining equations of the incremental formulas and the
primitive-cycle roots."""

from __future__ import annotations

import math
from typing import Callable

from .errors import DivergentSeries, NonConvergence

XTOL_REL = 1e-15
MAX_ITER = 240
REL_MARGIN = 1e-6


def bracketed_root(fn: Callable[[float], float], lo: float, hi: float,
                   f_lo: float | None = None, f_hi: float | None = None
                   ) -> tuple[float, float, int]:
    """Root of a continuous, finite function with a sign change on
    [lo, hi].

    Returns (x, f(x), evaluations).  Secant iterates falling outside the
    current bracket, or stepping farther than half the step before the
    last one, are replaced by midpoints.
    It stops once a secant step or the bracket falls below ``XTOL_REL``
    relative, or after ``MAX_ITER`` evaluations.
    """
    evals = 0
    if f_lo is None:
        f_lo = fn(lo)
        evals += 1
    if f_hi is None:
        f_hi = fn(hi)
        evals += 1
    if f_lo == 0.0:
        return lo, 0.0, evals
    if f_hi == 0.0:
        return hi, 0.0, evals
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")

    x_prev, f_prev = lo, f_lo
    x_cur, f_cur = hi, f_hi
    if abs(f_lo) < abs(f_hi):
        x_prev, f_prev, x_cur, f_cur = hi, f_hi, lo, f_lo
    best = (x_cur, f_cur)
    step_last = step_before = math.inf
    while evals < MAX_ITER:
        denom = f_cur - f_prev
        if denom != 0.0:
            x_next = x_cur - f_cur * (x_cur - x_prev) / denom
            if abs(x_next - x_cur) <= XTOL_REL * max(1.0, abs(x_cur)):
                break  # the secant correction is below resolution
        else:
            x_next = 0.5 * (lo + hi)
        # Brent's rule: a secant step longer than half the step before
        # the last one is not converging, so bisect
        if not (lo < x_next < hi) \
                or abs(x_next - x_cur) > 0.5 * step_before:
            x_next = 0.5 * (lo + hi)
        step = abs(x_next - x_cur)
        step_last, step_before = step, step_last
        f_next = fn(x_next)
        evals += 1
        if (f_next > 0.0) == (f_lo > 0.0):
            lo, f_lo = x_next, f_next
        else:
            hi, f_hi = x_next, f_next
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_next, f_next
        if abs(f_cur) < abs(best[1]):
            best = (x_cur, f_cur)
        if f_next == 0.0 or step <= XTOL_REL * max(1.0, abs(x_next)) \
                or hi - lo <= XTOL_REL * max(1.0, abs(x_next)):
            break
    return best[0], best[1], evals


def root_above(radius: Callable[[float], float], base: float
               ) -> tuple[float, float, int]:
    """Root above ``base`` of radius(t) = 1, for a nonnegative radius
    that exceeds 1 between ``base`` and the root and stays below 1 above
    it, such as the spectral radius of a matrix of series that converge
    only above ``base``; ``radius`` may raise DivergentSeries close to
    ``base``.

    The search runs on fn = (1 - r)/(1 + r) = -tanh(log(r)/2), r the
    radius: the root of 1 - r, but bounded in [-1, 1], near-linear where
    r has its pole at ``base``, and -1 in the limit there, the value a
    divergent evaluation counts as.

    The lower end starts at ``base + REL_MARGIN * max(base, 1)``, grows
    on divergence and shrinks while fn >= 0; once both a divergent and a
    non-negative offset are known it bisects between them.  When the non-negative end
    comes within 1e-16 * max(base, 1) of ``base``, of the divergent end
    or of the negative end, or is the float next to the negative end,
    the root is pinched and that end is returned.  The upper end is the
    non-negative offset when one was met; otherwise it doubles its gap
    until fn > 0.  Then ``bracketed_root`` finishes.
    Returns (x, residual, evaluations), counting every call of
    ``radius``.  The residual is |1 - r(x)|, or for a pinched root the
    width of the certified bracket relative to max(base, 1), at most
    max(1e-16, one ulp of the root relative to max(base, 1)), where the
    radius carries no information.

    Just above ``base`` the equation is rounding noise: a ``base`` from an
    earlier solve may sit a few ulps below the true pole, and the noise
    band can be wider than the gap to a root that is nearly pinched (a
    long edge).  So DivergentSeries may also come from a point above the
    found lower end; ``bracketed_root`` then sees -1, the limit of fn at
    the pole, which keeps that point below the root.
    """
    def fn(t: float) -> float:
        r = radius(t)
        return (1.0 - r) / (1.0 + r)

    evals = 0
    scale = max(base, 1.0)
    floor = 1e-16 * scale
    off = REL_MARGIN * scale
    divergent, nonneg = 0.0, None  # largest divergent, smallest fn >= 0
    t_lo = f_lo = None
    for _ in range(240):
        evals += 1
        try:
            f_try = fn(base + off)
        except DivergentSeries:
            divergent = off
        else:
            if f_try < 0.0:
                t_lo, f_lo = base + off, f_try
                break
            nonneg, f_nonneg = off, f_try
            if nonneg - divergent <= floor:
                return base + nonneg, (nonneg - divergent) / scale, evals
        if nonneg is None:
            off *= 2.0
        elif divergent == 0.0:
            off /= 8.0
        else:
            off = 0.5 * (divergent + nonneg)
    if t_lo is None:
        raise NonConvergence(f"failed to bracket the root above {base!r}")

    if nonneg is not None:
        if nonneg - off <= floor \
                or math.nextafter(base + off, math.inf) >= base + nonneg:
            return base + nonneg, (nonneg - off) / scale, evals
        t_hi, f_hi = base + nonneg, f_nonneg
    else:
        gap = max(4.0 * (t_lo - base), 0.25)
        for _ in range(200):
            evals += 1
            t_hi = base + gap
            f_hi = fn(t_hi)
            if f_hi > 0.0:
                break
            gap *= 2.0
        else:  # pragma: no cover
            raise NonConvergence(f"failed to bracket the root above "
                                 f"{base!r} from above")
    def fn_or_pole(t: float) -> float:
        try:
            return fn(t)
        except DivergentSeries:
            return -1.0

    root, q, evals_root = bracketed_root(fn_or_pole, t_lo, t_hi, f_lo, f_hi)
    # |1 - r| = 2|q| / (1 + q) for q = (1 - r)/(1 + r)
    return root, 2.0 * abs(q) / (1.0 + q), evals + evals_root
