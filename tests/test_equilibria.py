"""Saddle data, symbolic eigenvalue checks, subcase classification."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hetcontour import equilibria as eq
from hetcontour import vectorfield as vf
from hetcontour.errors import DomainError, NoConvergence, NotASaddle


@pytest.fixture(scope="module")
def mono():
    return vf.builtin("mono_unperturbed")


def test_find_equilibrium_locates_saddles(mono):
    params = mono.full_params()
    for guess, expected in (((0.1, -0.05), (0.0, 0.0)),
                            ((0.9, 0.1), (1.0, 0.0)),
                            ((0.6, 0.12), (2 / 3, 1 / 9))):
        loc, _ = eq.find_equilibrium(mono, params, guess)
        assert np.allclose(loc, expected, atol=1e-10)


def test_symbolic_eigenvalues_on_parameter_grid(mono):
    # at (0,0) the eigenvalues are a and a+b; at (1,0) they are -a, -a-b-c
    for a in np.linspace(0.5, 2.5, 5):
        for b in np.linspace(-4.0, -2.0, 5):
            for c in np.linspace(0.5, 2.0, 5):
                if a + b >= 0 or -a - b - c <= 0:
                    continue       # either point fails to be a saddle
                params = mono.full_params({"a": a, "b": b, "c": c})
                sL = eq.saddle_data(mono, params, (0.0, 0.0))
                assert abs(sL.lambda_u - a) < 1e-12 * max(1, abs(a))
                assert abs(sL.lambda_s - (a + b)) < 1e-12 * max(1, abs(a + b))
                sM = eq.saddle_data(mono, params, (1.0, 0.0))
                assert abs(sM.lambda_s + a) < 1e-12 * max(1, abs(a))
                assert abs(sM.lambda_u + a + b + c) < 1e-11


def test_index_duality_under_time_reversal(mono):
    params = mono.full_params()
    s = eq.saddle_data(mono, params, (0.0, 0.0))
    s_rev = eq.saddle_data(mono.time_reversed(), params, (0.0, 0.0))
    assert abs(s_rev.index - 1.0 / s.index) < 1e-10


def test_classify_types(mono):
    params = mono.full_params()
    assert eq.classify(mono, params, (0.0, 0.0)) is eq.EquilibriumType.SADDLE
    focus_type = eq.classify(mono, params, (2 / 3, 1 / 9))
    assert focus_type in (eq.EquilibriumType.UNSTABLE_FOCUS,
                          eq.EquilibriumType.STABLE_FOCUS)


def test_saddle_data_rejects_focus(mono):
    with pytest.raises(NotASaddle):
        eq.saddle_data(mono, mono.full_params(), (2 / 3, 1 / 9))


@pytest.mark.parametrize("lambda_s,lambda_u", [
    (0.5, 1.0), (-0.5, -1.0), (0.0, 1.0), (-1.0, 0.0)])
def test_saddle_rejects_eigenvalues_of_one_sign(lambda_s, lambda_u):
    with pytest.raises(NotASaddle):
        eq.Saddle((0.0, 0.0), lambda_s, lambda_u, (1.0, 0.0), (0.0, 1.0))


def test_saddle_check_survives_optimized_mode():
    # the check must not be an assert, which ``python -O`` strips
    code = ("from hetcontour import equilibria as eq\n"
            "from hetcontour.errors import NotASaddle\n"
            "try:\n"
            "    eq.Saddle((0.0, 0.0), 0.5, 1.0, (1.0, 0.0), (0.0, 1.0))\n"
            "except NotASaddle:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(3)\n")
    src = str(Path(eq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          timeout=120)
    assert done.returncode == 0


def test_newton_no_convergence_far_from_roots(mono):
    with pytest.raises(NoConvergence):
        eq.find_equilibrium(mono, mono.full_params(), (500.0, 500.0),
                            max_iter=5)


def _fake_saddle(index):
    # any hyperbolic pair with the requested index -lambda_s / lambda_u
    return eq.Saddle((0.0, 0.0), -index, 1.0, (1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize("lam,mu", [
    (2.0, 3.0), (0.5, 3.0), (3.0, 0.5), (0.5, 0.5),
    (0.5, 1.5), (1.5, 0.5), (2.0, 0.4), (0.4, 2.0),
])
def test_subcase_canonicalization(lam, mu):
    tag = eq.classify_subcase(_fake_saddle(lam), _fake_saddle(mu))
    assert tag.canonical_id in (1, 2, 6)
    if tag.case_id == tag.canonical_id:
        assert tag.reductions == ()


def test_subcase_reduction_idempotent():
    # a canonical case classifies to itself with no further reductions
    for lam, mu in ((2.0, 3.0), (0.5, 3.0), (0.5, 0.5)):
        tag = eq.classify_subcase(_fake_saddle(lam), _fake_saddle(mu))
        if tag.reductions:
            continue
        again = eq.classify_subcase(_fake_saddle(lam), _fake_saddle(mu))
        assert again.case_id == tag.canonical_id


def test_eigenvectors_are_eigenvectors(mono):
    params = mono.full_params()
    s = eq.saddle_data(mono, params, (1.0, 0.0))
    j = np.asarray(mono.jacobian(1.0, 0.0, params))
    for v, lam in ((s.v_s, s.lambda_s), (s.v_u, s.lambda_u)):
        v = np.asarray(v)
        assert np.linalg.norm(j @ v - lam * v) < 1e-9


def test_find_equilibrium_builds_the_field_once(monkeypatch):
    sys_ = vf.builtin("diss_heart")
    built = []
    fields = vf.ParametricSystem.fields

    def counted(self, params):
        built.append(params)
        return fields(self, params)
    monkeypatch.setattr(vf.ParametricSystem, "fields", counted)
    params = sys_.full_params()
    for guess in ((0.05, -0.05), (-0.57, -2.6), (0.55, -2.6)):
        built.clear()
        loc, kind = eq.find_equilibrium(sys_, params, guess)
        assert len(built) == 1
        assert kind is eq.EquilibriumType.SADDLE
        assert np.hypot(*sys_.rhs(*loc, params)) <= 1e-12


def test_find_equilibrium_rejects_a_non_finite_state(mono):
    with pytest.raises(DomainError, match="non-finite state"):
        eq.find_equilibrium(mono, mono.full_params(), (math.nan, 0.0))
