"""The one scalar solver of the package and the one grid scan that feeds it.

``brent`` is Brent's bracketed root finder (Brent 1973, *Algorithms for
Minimization without Derivatives*, ch. 4): a line-for-line port of SciPy's
``brentq.c``, with its iterates, except that the caller hands over the
values at the bracket ends, which are not evaluated again, and that the
value at the root is returned with it.

``sample``, ``sign_changes`` and ``grid_roots`` are the scan every grid
search uses.  Its rule: a grid node where the value is zero is a root, once;
a cell whose end values have strictly opposite signs holds one; a NaN value
(a point where the function failed) is neither, so it never brackets.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import BracketError, DomainError, HetContourError, NoConvergence

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


def sample(f, xs):
    """``f`` at each grid point of ``xs`` as floats, NaN where ``f`` raises
    a HetContourError."""
    vals = []
    for x in xs:
        try:
            vals.append(float(f(x)))
        except HetContourError:
            vals.append(math.nan)
    return vals


def sign_changes(vals):
    """The zero nodes ``(i, i)`` and the cells ``(i, i + 1)`` whose values
    have strictly opposite signs, in grid order; NaN is neither."""
    v = np.asarray(vals, float)
    neg, pos = v < 0, v > 0
    cells = (neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:])
    return sorted([(i, i) for i in np.flatnonzero(v == 0).tolist()]
                  + [(i, i + 1) for i in np.flatnonzero(cells).tolist()])


def grid_roots(f, xs, vals, xtol):
    """``(x, f(x))`` for each sign change of ``vals = f(xs)``, in grid order:
    a zero node as it is, and a cell by ``brent`` from its held end values,
    which are not evaluated again."""
    for i, j in sign_changes(vals):
        if i == j:
            yield float(xs[i]), vals[i]
        else:
            yield brent(f, xs[i], xs[j], vals[i], vals[j], xtol)
