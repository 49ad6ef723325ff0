"""Brent's bracketed root finder (Brent 1973, *Algorithms for Minimization
without Derivatives*, ch. 4), the one scalar solver of the package.

A line-for-line port of SciPy's ``brentq.c``, with its iterates, except
that the caller hands over the values at the bracket ends, which are not
evaluated again, and that the value at the root is returned with it.
"""
from __future__ import annotations

import math
import sys

from .errors import BracketError, DomainError, NoConvergence

EPS = sys.float_info.epsilon
RTOL = 4 * EPS      # relative part of the stopping width, SciPy's default
MAXITER = 100


def brent(f, a, b, fa, fb, xtol):
    """Root ``x`` of ``f`` in ``[a, b]`` and its value, ``(x, f(x))``.

    ``fa = f(a)`` and ``fb = f(b)`` differ in sign (else BracketError), or
    one is zero and its end is the root.  The search stops at an iterate
    ``x`` whose bracket is narrower than ``xtol + RTOL |x|``, or where
    ``f`` is zero.  A NaN value raises DomainError, and MAXITER
    iterations without convergence raise NoConvergence.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _valued(xpre, fa), _valued(xcur, fb)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre, fpre
    if fcur == 0:
        return xcur, fcur
    if (fpre < 0) == (fcur < 0):
        raise BracketError(f"f has the same sign at both ends of "
                           f"[{xpre!r}, {xcur!r}] ({fpre:+.3e}, {fcur:+.3e})")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:                   # the step is too long: bisect
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _valued(xcur, f(xcur))
    raise NoConvergence(f"no root to within {xtol:.1e} after {MAXITER} "
                        f"iterations; last iterate {xcur!r}")


def _valued(x, fx):
    """``fx`` as a float; DomainError if it is NaN."""
    fx = float(fx)
    if math.isnan(fx):
        raise DomainError(f"the function value at x={x!r} is NaN")
    return fx
