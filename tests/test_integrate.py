"""Adaptive integration against a fixed-step RK4 oracle and scipy's DOP853,
events, sections."""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hetcontour import integrate as hi
from hetcontour import vectorfield as vf
from hetcontour.errors import DomainError, NoReturn, StiffnessError


def rk4_oracle(sys_, params, x0, t_end, dt=1e-5):
    """Classical fixed-step RK4; the independent reference solution."""
    f = sys_.compiled_rhs(params)
    n = int(round(t_end / dt))
    z = np.asarray(x0, float)
    t = 0.0
    for _ in range(n):
        k1 = np.asarray(f(t, z))
        k2 = np.asarray(f(t + dt / 2, z + dt / 2 * k1))
        k3 = np.asarray(f(t + dt / 2, z + dt / 2 * k2))
        k4 = np.asarray(f(t + dt, z + dt * k3))
        z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return z


@pytest.fixture(scope="module")
def revers():
    sys_ = vf.builtin("revers_base")
    return sys_, sys_.full_params()


def test_convergence_against_rk4_oracle(revers):
    sys_, params = revers
    x0 = (0.3, 0.2)
    ref = rk4_oracle(sys_, params, x0, 1.0)
    errors = []
    # an eighth-order run of 3-6 steps: halving the tolerance moves each
    # step by 2^(1/8), too little to order the errors, so it falls by decades
    for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        traj = hi.integrate(sys_, params, x0, (0.0, 1.0), tol=(tol, tol))
        errors.append(np.linalg.norm(traj.end - ref))
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-9


def dop853_oracle(sys_, params, x0, t_span, tol=hi.DEFAULT_TOL, **kwargs):
    """scipy's DOP853: the steps, events and dense output the stepper keeps."""
    return solve_ivp(sys_.compiled_rhs(params), t_span, x0, method="DOP853",
                     rtol=tol[1], atol=tol[0], dense_output=True, **kwargs)


def test_tableau_matches_scipy_dop853():
    # scipy is imported here only: the package itself runs without it
    from scipy.integrate._ivp import dop853_coefficients as ref

    def table(prefix, rows, cols):
        """The module's ``prefix<i><j>`` constants as a dense matrix; with
        j < i for A, where i and j alone would not tell A111 apart."""
        m = np.zeros((rows, cols))
        for i in range(rows):
            for j in range(min(cols, i) if prefix == "A" else cols):
                m[i, j] = getattr(hi, f"{prefix}{i + 1}{j + 1}", 0.0)
        return m

    want = ref.A.copy()
    want[12] = 0.0        # row 13 is B, kept under its own names
    assert np.array_equal(table("A", 16, 16), want)
    B = np.array([getattr(hi, f"B{j + 1}", 0.0) for j in range(12)])
    assert np.array_equal(B, ref.B)
    E5 = [getattr(hi, f"ER{j + 1}", 0.0) for j in range(12)] + [0.0]
    assert np.array_equal(E5, ref.E5)
    E3 = np.append(B, 0.0)
    E3[[0, 8, 11]] -= hi.BHH1, hi.BHH2, hi.BHH3
    assert np.array_equal(E3, ref.E3)
    assert np.array_equal(table("D", 7, 16)[3:], ref.D)
    # no constant of the module is left unchecked: A, B, BHH, ER and D
    names = {n for n in vars(hi) if n[0] in "ABDE" and n[-1].isdigit()}
    assert len(names) == (np.count_nonzero(ref.A) + 3
                          + np.count_nonzero(ref.E5) + np.count_nonzero(ref.D))


@pytest.fixture(scope="module")
def gamma():
    sys_ = vf.builtin("revers_gamma")
    return sys_, sys_.full_params()


# at 1e-6 a third of the step attempts are rejected.  scipy sums the stages
# with BLAS dot products, whose rounding differs from the stepper's; the
# fifth-order error sum cancels from terms of order 1 down to about 1e-11,
# so accepted step sizes differ by about 1e-8 relative, and at 1e-6 the
# ends drift apart by a few 1e-11
@pytest.mark.parametrize("tol, end_tol", [
    pytest.param(1e-10, 1e-12, id="1e-10"),
    pytest.param(1e-6, 1e-10, id="1e-06")])
def test_steps_match_scipy_dop853(gamma, tol, end_tol):
    sys_, params = gamma
    x0, tol = (0.3, 0.2), (tol, tol)
    fwd = hi.integrate(sys_, params, x0, (0.0, 30.0), tol=tol)
    back = hi.integrate(sys_, params, fwd.end, (30.0, 0.0), tol=tol)
    for traj, start, span in ((fwd, x0, (0.0, 30.0)),
                              (back, fwd.end, (30.0, 0.0))):
        ref = dop853_oracle(sys_, params, start, span, tol=tol)
        assert len(traj.t) == len(ref.t) > 40
        assert traj.t[-1] == ref.t[-1]
        assert np.max(np.abs(traj.end - ref.y[:, -1])) < end_tol
        assert traj.termination is hi.Termination.TIME_LIMIT


@pytest.mark.parametrize("span, direction", [((0.0, 50.0), -1),
                                             ((0.0, -50.0), 1)])
def test_section_event_matches_scipy_dop853(gamma, span, direction):
    sys_, params = gamma
    x0 = (0.3, 0.2)
    sec = hi.CrossSection.at((0.0, 0.0), (1.0, 0.0))   # the line x = 0
    traj = hi.integrate(sys_, params, x0, span, events=[sec],
                        directions=[direction], terminal=[0])

    def crossing(t, z):
        return sec.offset(z)
    crossing.terminal = True
    crossing.direction = direction * np.sign(span[1] - span[0])
    ref = dop853_oracle(sys_, params, x0, span, events=[crossing])
    assert traj.termination is hi.Termination.EVENT
    (_, t_hit, z_hit), = traj.event_hits
    assert abs(t_hit - ref.t_events[0][0]) < 1e-12
    assert np.max(np.abs(np.subtract(z_hit, ref.y_events[0][0]))) < 1e-12
    assert traj.t[-1] == t_hit and len(traj.t) == len(ref.t)
    assert np.max(np.abs(traj.end - np.asarray(z_hit))) == 0.0
    # the last step is cut at the hit, but its polynomial spans the whole step
    inside = np.linspace(traj.t[-2], traj.t[-1], 9)
    assert np.max(np.abs(traj(inside) - ref.sol(inside))) < 1e-12


def test_step_underflow_raises_stiffness_error():
    # x' = x^2 from x = 1 blows up at t = 1; with no radius to stop at, the
    # steps shrink until they fall below the spacing of floats near t = 1
    sys_ = vf.from_dict({"name": "square", "parameters": [],
                         "x_dot": [{"coeff": "1", "px": 2, "py": 0}],
                         "y_dot": []})
    assert dop853_oracle(sys_, {}, (1.0, 0.0), (0.0, 2.0)).status == -1
    with pytest.raises(StiffnessError):
        hi.integrate(sys_, {}, (1.0, 0.0), (0.0, 2.0), blowup_radius=np.inf)


def test_zero_length_span_returns_the_start(revers):
    sys_, params = revers
    traj = hi.integrate(sys_, params, (0.3, 0.2), (1.0, 1.0))
    assert list(traj.t) == [1.0, 1.0]
    assert traj.xy.tolist() == [[0.3, 0.2], [0.3, 0.2]]
    assert traj(1.0).tolist() == [0.3, 0.2]
    assert traj.termination is hi.Termination.TIME_LIMIT


def test_time_reversal_returns_to_start(revers):
    sys_, params = revers
    x0 = (0.25, -0.1)
    tol = (1e-10, 1e-10)
    fwd = hi.integrate(sys_, params, x0, (0.0, 5.0), tol=tol)
    back = hi.integrate(sys_, params, fwd.end, (5.0, 0.0), tol=tol)
    assert np.linalg.norm(back.end - np.asarray(x0)) < 10 * 1e-8


def test_dense_output_matches_samples(revers):
    sys_, params = revers
    traj = hi.integrate(sys_, params, (0.3, 0.2), (0.0, 2.0))
    mid = 0.5 * (traj.t[3] + traj.t[4])
    z = traj(mid)
    assert traj.t[3] < mid < traj.t[4]
    assert np.all(np.isfinite(z))


def test_section_event_located(revers):
    sys_, params = revers
    sec = hi.CrossSection.at((0.0, 0.0), (1.0, 0.0))   # the line x = 0
    traj = hi.integrate(sys_, params, (0.3, 0.2), (0.0, 50.0),
                        events=[sec], directions=[0], terminal=[0])
    assert traj.termination is hi.Termination.EVENT
    idx, t_hit, z_hit = traj.event_hits[0]
    assert abs(z_hit[0]) < 1e-9


def test_event_idempotence(revers):
    # restarting from a detected crossing does not instantly re-fire it
    sys_, params = revers
    sec = hi.CrossSection.at((0.0, 0.0), (1.0, 0.0))
    traj = hi.integrate(sys_, params, (0.3, 0.2), (0.0, 50.0),
                        events=[sec], directions=[-1], terminal=[0])
    _, t_hit, z_hit = traj.event_hits[0]
    again = hi.integrate(sys_, params, z_hit, (0.0, 50.0),
                         events=[sec], directions=[-1], terminal=[0])
    if again.event_hits:
        assert again.event_hits[0][1] > 1e-3


def test_blowup_detected():
    sys_ = vf.builtin("mono_unperturbed")
    params = sys_.full_params()
    traj = hi.integrate(sys_, params, (50.0, 50.0), (0.0, 100.0))
    assert traj.termination is hi.Termination.BLOWUP


def test_nonfinite_start_rejected():
    sys_ = vf.builtin("mono_unperturbed")
    with pytest.raises(DomainError):
        hi.integrate(sys_, sys_.full_params(), (np.nan, 0.0), (0.0, 1.0))


def test_nonpositive_absolute_tolerance_rejected(revers):
    # with atol = 0 a zero state component has a zero error scale
    sys_, params = revers
    for atol in (0.0, -1e-10, np.nan):
        with pytest.raises(DomainError):
            hi.integrate(sys_, params, (0.0, 0.5), (0.0, 1.0),
                         tol=(atol, 1e-10))


def test_section_coordinates_roundtrip():
    sec = hi.CrossSection.at((1.0, 2.0), (0.6, 0.8))
    for c in (-1.5, 0.0, 2.25):
        p = sec.point_at(c)
        assert abs(sec.coord(p) - c) < 1e-12
        assert abs(sec.offset(p)) < 1e-12


def test_poincare_requires_point_on_section():
    sys_ = vf.builtin("mono_unperturbed")
    sec = hi.CrossSection.at((0.5, 0.0), (0.0, 1.0))
    with pytest.raises(DomainError):
        hi.poincare_map(sys_, sys_.full_params(), sec, (0.5, 0.5), 10.0)


def _linear(name, fx, fy):
    """x' = fx[0] x + fx[1] y, y' = fy[0] x + fy[1] y."""
    term = lambda c, px, py: {"coeff": c, "px": px, "py": py}
    return vf.from_dict({
        "name": name, "parameters": [],
        "x_dot": [term(c, 1 - i, i) for i, c in enumerate(fx) if c != "0"],
        "y_dot": [term(c, 1 - i, i) for i, c in enumerate(fy) if c != "0"]})


def test_far_excursion_inside_the_escape_disc_returns():
    # x' = -16 y, y' = x / 16: from (0, 1) the orbit swings out to |x| = 16,
    # 8 times the extent 1 + max |p| of the call's start and section base,
    # and comes back after 2 pi, inside the escape radius 20
    sys_ = _linear("ellipse", ("0", "-16"), ("1/16", "0"))
    sec = hi.CrossSection.at((0.0, 0.0), (1.0, 0.0))
    x0 = (0.0, 1.0)
    assert hi.escape_radius(x0, sec.base) == 20.0
    coord, period = hi.poincare_map(sys_, {}, sec, x0, 500.0)
    # one run to max_time out to the default radius
    traj = hi.integrate(sys_, {}, x0, (0.0, 500.0), events=[sec],
                        directions=[-1], terminal=[0])
    swing = traj(np.linspace(0.0, traj.t[-1], 1001))
    assert np.abs(swing[0]).max() > 15.99
    assert (coord, period) == (sec.coord(traj.end), float(traj.t[-1]))
    assert period == pytest.approx(2 * np.pi, rel=1e-8)


def test_no_return_names_its_reason():
    # the saddle x' = x, y' = -y carries (1, 0.5) off the section x = 1
    saddle = _linear("saddle", ("1", "0"), ("0", "-1"))
    sec = hi.CrossSection.at((1.0, 0.0), (1.0, 0.0))
    with pytest.raises(NoReturn, match=r"escaped past \|z\| = 21\.1803"):
        hi.poincare_map(saddle, {}, sec, (1.0, 0.5), 500.0)
    # a period of 2 pi is not over by t = 1
    ellipse = _linear("ellipse", ("0", "-16"), ("1/16", "0"))
    sec = hi.CrossSection.at((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(NoReturn, match=r"no return by t = 1\.0$"):
        hi.poincare_map(ellipse, {}, sec, (0.0, 1.0), 1.0)


def test_bare_integrate_runs_out_to_the_default_radius():
    saddle = _linear("saddle", ("1", "0"), ("0", "-1"))
    traj = hi.integrate(saddle, {}, (1.0, 0.0), (0.0, 100.0))
    assert traj.termination is hi.Termination.BLOWUP
    assert np.hypot(*traj.end) == pytest.approx(hi.BLOWUP_RADIUS, rel=1e-12)
