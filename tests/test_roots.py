"""The package's Brent solver against scipy's brentq, iterate for iterate,
and the grid scan that feeds it."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hetcontour.errors import BracketError, DomainError, NoConvergence
from hetcontour.roots import (EPS, MAXITER, brent, grid_roots, sample,
                              sign_changes)

# the tolerances the package solves at: event location, curve starts,
# model-map curves and model-map fixed points
XTOLS = (4 * EPS, 1e-7, 1e-14, 1e-15)


def _functions(rng):
    """Smooth functions with random coefficients, several root shapes."""
    c = rng.uniform(-2, 2, 4)
    s = rng.uniform(0.1, 5)
    return [
        lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3],
        lambda x: math.tanh(s * (x - c[0])) + 0.1 * c[1],
        lambda x: math.exp(c[0] * x) - 1.5 - c[1] * x,
        lambda x: (x - c[0]) ** 3,
        lambda x: math.sin(s * x) - 0.5 * c[2],
    ]


def _brackets(seed, n):
    rng = np.random.default_rng(seed)
    found = 0
    while found < n:
        for f in _functions(rng):
            a, b = rng.uniform(-3, 3, 2)
            if rng.random() < 0.5:
                b = a + 10.0 ** rng.uniform(-12, 0)
            fa, fb = f(a), f(b)
            if fa * fb < 0 and found < n:
                found += 1
                yield f, float(a), float(b), fa, fb


def _recorded(f):
    xs = []

    def g(x):
        xs.append(x)
        return f(x)
    return g, xs


def _outcome(solve):
    """The root, or the error type when the solve fails."""
    try:
        return solve()
    except (RuntimeError, NoConvergence) as exc:
        return type(exc)


@pytest.mark.parametrize("xtol", XTOLS)
def test_iterates_and_roots_match_brentq(xtol):
    failed = 0
    for f, a, b, fa, fb in _brackets(int(-math.log10(xtol)), 600):
        g, theirs = _recorded(f)
        want = _outcome(lambda: brentq(g, a, b, xtol=xtol))
        h, ours = _recorded(f)
        got = _outcome(lambda: brent(h, a, b, fa, fb, xtol))
        # scipy evaluates the two ends first; the port is handed them
        assert theirs[:2] == [a, b]
        assert ours == theirs[2:]
        if want is RuntimeError:
            # the triple root converges linearly: 100 iterations fall short
            # of the tightest tolerances, in both
            assert got is NoConvergence
            failed += 1
        else:
            assert got == (want, f(want))
    assert failed < 200


def test_end_values_are_not_evaluated_again():
    for f, a, b, fa, fb in _brackets(5, 200):
        h, xs = _recorded(f)
        _outcome(lambda: brent(h, a, b, fa, fb, 1e-12))
        assert a not in xs and b not in xs


def test_a_zero_end_is_the_root_without_evaluations():
    h, xs = _recorded(lambda x: x)
    assert brent(h, 0.0, 1.0, 0.0, 1.0, 1e-12) == (0.0, 0.0)
    assert brent(h, -1.0, 0.0, -1.0, 0.0, 1e-12) == (0.0, 0.0)
    assert xs == []


def test_same_sign_bracket_raises_bracket_error():
    with pytest.raises(BracketError, match="same sign"):
        brent(lambda x: x * x + 1, -1.0, 1.0, 2.0, 2.0, 1e-12)


def test_nan_values_raise_domain_error():
    with pytest.raises(DomainError, match="NaN"):
        brent(lambda x: x, -1.0, 1.0, math.nan, 1.0, 1e-12)
    with pytest.raises(DomainError, match="NaN"):
        brent(lambda x: math.nan, -1.0, 2.0, -1.0, 2.0, 1e-12)


def test_running_out_of_iterations_raises_no_convergence():
    f = lambda x: x - 1 / 3
    assert brent(f, 0.0, 1.0, f(0.0), f(1.0), 4 * EPS)[0] == pytest.approx(
        1 / 3, abs=1e-15)
    # a triple root converges linearly: MAXITER iterations fall short of
    # 4 eps, in scipy's brentq too
    g = lambda x: (x - 1 / 3) ** 3
    with pytest.raises(RuntimeError):
        brentq(g, 0.0, 1.0, xtol=4 * EPS)
    with pytest.raises(NoConvergence,
                       match=f"after {MAXITER} iterations"):
        brent(g, 0.0, 1.0, g(0.0), g(1.0), 4 * EPS)


def test_sample_turns_failures_into_nan():
    def f(x):
        if x == 1.0:
            raise DomainError("undefined")
        return x
    vals = sample(f, np.array([0.0, 1.0, 2.0]))
    assert vals[0] == 0.0 and math.isnan(vals[1]) and vals[2] == 2.0


def test_sign_changes_in_grid_order():
    nan = math.nan
    vals = [1.0, 0.0, -1.0, -2.0, 3.0, 4.0, -0.0, 2.0, -1.0]
    assert sign_changes(vals) == [(1, 1), (3, 4), (6, 6), (7, 8)]
    assert sign_changes(np.array(vals)) == sign_changes(vals)
    assert sign_changes([]) == [] and sign_changes([0.0]) == [(0, 0)]
    # NaN is neither sign: it never brackets, not even between two signs
    assert sign_changes([1.0, nan, -1.0, nan, 0.0]) == [(4, 4)]


def test_grid_roots_takes_a_zero_node_once_without_evaluations():
    h, xs = _recorded(lambda x: x - 0.5)
    grid = np.linspace(0.0, 1.0, 5)
    vals = [x - 0.5 for x in grid]
    assert list(grid_roots(h, grid, vals, 1e-12)) == [(0.5, 0.0)]
    assert xs == []


def test_grid_roots_reuse_the_end_values():
    rng = np.random.default_rng(3)
    found = 0
    for f in _functions(rng):
        grid = np.sort(rng.uniform(-3, 3, 15))
        vals = sample(f, grid)
        h, xs = _recorded(f)
        roots = [x for x, _ in grid_roots(h, grid, vals, 1e-7)]
        assert not set(xs) & set(grid)
        want = [brent(f, a, b, fa, fb, 1e-7)[0]
                for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1],
                                        vals[1:]) if fa * fb < 0]
        assert roots == want
        found += len(roots)
    assert found > 0
