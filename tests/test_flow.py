import dataclasses
import gc
import math

import numpy as np
import pytest
from scipy.integrate import DOP853

from flowlab import flow
from flowlab import (
    ConservedQuantity,
    FlowDivergenceError,
    VectorFieldSpec,
    coord_difference,
    distance,
    flow_at,
    integrate,
    tangent_flow,
    validate_jacobian,
    wrap_point,
)
from flowlab.scenarios import scenario_names

from oracles import (
    CLOSED_FLOWS,
    CLOSED_TANGENTS,
    TIME_RANGES,
    linear_saddle_flow,
    sample_box_points,
)

ALL_NAMES = scenario_names()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_flow_matches_closed_form(name, scenarios, rng):
    scen = scenarios[name]
    oracle = CLOSED_FLOWS[name]
    t_lo, t_hi = TIME_RANGES[name]
    for x in sample_box_points(scen, rng, 8):
        for t in rng.uniform(t_lo, t_hi, size=3):
            got = flow_at(scen.spec, x, t)
            want = oracle(x, t)
            assert distance(scen.spec, got, want) <= 1e-7 * (
                1.0 + np.linalg.norm(want)
            )


def test_trajectory_dense_output(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    x0 = np.array([0.8, -0.6, 0.3])
    traj = integrate(spec, x0, (0.0, 3.0))
    assert traj.span == (0.0, 3.0)
    ts = np.linspace(0.0, 3.0, 13)
    pts = traj.at_many(ts)
    for t, p in zip(ts, pts):
        assert np.linalg.norm(p - linear_saddle_flow(x0, t)) <= 1e-7
    # the initial time returns the initial state bit for bit
    assert np.array_equal(traj.at(0.0), x0)
    assert np.array_equal(traj(np.array([0.0]))[0], x0)
    assert traj(1.5).shape == (3,)
    with pytest.raises(ValueError, match="outside"):
        traj.at(3.5)
    with pytest.raises(ValueError, match="outside"):
        traj.at(-0.1)


def test_integrate_rejects_bad_input(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    with pytest.raises(ValueError, match="nonzero length"):
        integrate(spec, [0.1, 0.1, 0.1], (1.0, 1.0))
    with pytest.raises(ValueError, match="shape"):
        integrate(spec, [0.1, 0.1], (0.0, 1.0))
    with pytest.raises(ValueError, match=r"x has shape \(1, 3\), expected \(3,\)"):
        flow_at(spec, [[0.1, 0.1, 0.1]], 1.0)
    with pytest.raises(ValueError, match="finite"):
        integrate(spec, [np.nan, 0.0, 0.0], (0.0, 1.0))
    with pytest.raises(ValueError, match="on_escape"):
        integrate(spec, [0.1, 0.1, 0.1], (0.0, 1.0), on_escape="ignore")
    start_beyond = r"^linear_saddle3d: orbit from \[0\. 0\. 2\.\] crossed norm 1 at t=0 during"
    with pytest.raises(FlowDivergenceError, match=start_beyond) as err:
        integrate(spec, [0.0, 0.0, 2.0], (0.0, 1.0), norm_bound=1.0)
    assert err.value.rows.tolist() == [0]
    with pytest.raises(ValueError, match=r"integration times must be finite \(got 0.0 to nan\)"):
        integrate(spec, [0.1, 0.1, 0.1], (0.0, math.nan))
    with pytest.raises(ValueError, match=r"variational integration times must be finite"):
        tangent_flow(spec, [0.1, 0.1, 0.1], math.nan)
    with pytest.raises(ValueError, match=r"t must be finite \(got t=inf\)"):
        flow_at(spec, [0.1, 0.1, 0.1], math.inf)


def test_flow_at_zero_time_returns_the_point_without_solving(scenarios, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("flow_at(x, 0) integrated")

    monkeypatch.setattr(flow, "_solve", no_solve)
    for name in ALL_NAMES:
        spec = scenarios[name].spec
        x = np.linspace(0.1, 0.7, spec.dim) / 3.0
        got = flow_at(spec, x, 0.0)
        assert np.array_equal(got, x) and got is not x


def test_terminal_caller_event_is_no_escape(scenarios):
    """A caller's terminal event stops the solve with status 1 but is not an
    escape: z = e^t reaches 10 at ln 10, far inside the bound of 100."""
    spec = scenarios["linear_saddle3d"].spec

    def reach_ten(t, y):
        return y[2] - 10.0

    reach_ten.terminal = True
    for on_escape in ("raise", "truncate"):
        sol = flow._solve(spec, lambda t, y: spec.field_at(y), (0.0, 20.0), [0.0, 0.0, 1.0],
                          1e-9, 100.0, "integration", on_escape=on_escape, events=(reach_ten,))
        assert sol.status == 1
        assert len(sol.t_events[0]) == 0
        assert sol.t_events[1] == pytest.approx([math.log(10.0)], abs=1e-9)
        assert sol.t[-1] == sol.t_events[1][0]


def test_escape_raise_and_truncate(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    x0 = np.array([0.0, 0.0, 1.0])
    with pytest.raises(FlowDivergenceError, match="crossed norm"):
        integrate(spec, x0, (0.0, 20.0), norm_bound=100.0)
    # integrate and flow_at share the message form of _solve; z = e^t hits 100 at ln 100
    form = (
        r"^linear_saddle3d: orbit from \[0\. 0\. 1\.\] crossed norm 100 at t=4\.60517 "
        r"during integration$"
    )
    for call in (
        lambda: integrate(spec, x0, (0.0, 20.0), norm_bound=100.0),
        lambda: flow_at(spec, x0, 20.0, norm_bound=100.0),
    ):
        with pytest.raises(FlowDivergenceError, match=form) as err:
            call()
        assert err.value.rows.tolist() == [0]
    traj = integrate(spec, x0, (0.0, 20.0), norm_bound=100.0, on_escape="truncate")
    assert traj.escaped
    assert traj.requested_t1 == 20.0
    assert abs(traj.t_end - np.log(100.0)) <= 1e-3
    assert np.linalg.norm(traj.at(4.0) - linear_saddle_flow(x0, 4.0)) <= 1e-6
    with pytest.raises(FlowDivergenceError, match="escaped"):
        traj.at(6.0)


def test_at_many_names_first_time_outside_span(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    x0 = np.array([0.0, 0.0, 1.0])
    traj = integrate(spec, x0, (0.0, 2.0))
    assert np.array_equal(traj.at_many([0.0, 1.0]), [traj.at(0.0), traj.at(1.0)])
    with pytest.raises(ValueError, match=r"t=3 outside integrated span \[0, 2\]"):
        traj.at_many([0.5, 3.0, -1.0, 4.0])
    with pytest.raises(ValueError, match="t=-1 outside"):
        traj.at_many([-1.0, 3.0])
    escaped = integrate(spec, x0, (0.0, 20.0), norm_bound=100.0, on_escape="truncate")
    with pytest.raises(FlowDivergenceError, match=r"escaped at t=4\.6.*requested t=6$"):
        escaped.at_many([1.0, 6.0, 7.0])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtin_fields_accept_batches(name, scenarios, rng):
    """Row i of a batched field or Jacobian is the per-point value at row i."""
    spec = scenarios[name].spec
    xs = sample_box_points(scenarios[name], rng, 7)
    fields = spec.field(xs)
    jacs = np.broadcast_to(spec.jacobian(xs), (7, spec.dim, spec.dim))
    assert fields.shape == xs.shape
    for i, x in enumerate(xs):
        assert np.array_equal(fields[i], spec.field_at(x))
        assert np.array_equal(jacs[i], spec.jacobian_at(x))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_batched_tangent_flow_matches_solo(name, scenarios, rng):
    spec = scenarios[name].spec
    xs = sample_box_points(scenarios[name], rng, 6)
    ends, derivs = tangent_flow(spec, xs, 0.7)
    assert ends.shape == (6, spec.dim) and derivs.shape == (6, spec.dim, spec.dim)
    for x, end, deriv in zip(xs, ends, derivs):
        solo_end, solo_deriv = tangent_flow(spec, x, 0.7)
        assert np.max(np.abs(end - solo_end)) <= 1e-9 * (1.0 + np.max(np.abs(solo_end)))
        assert np.max(np.abs(deriv - solo_deriv)) <= 1e-9 * (1.0 + np.max(np.abs(solo_deriv)))
    one_end, one_deriv = tangent_flow(spec, xs[:1], 0.7)
    solo_end, solo_deriv = tangent_flow(spec, xs[0], 0.7)
    assert np.array_equal(one_end[0], solo_end) and np.array_equal(one_deriv[0], solo_deriv)


def test_batch_contract_probed_once_per_spec(scenarios):
    # the probe compares dim + 1 per-point Jacobians with one batched call
    base = scenarios["linear_saddle3d"].spec
    probed = []

    def jacobian(x):
        if np.ndim(x) == 1:
            probed.append(x)
        return base.jacobian(x)

    spec = dataclasses.replace(base, jacobian=jacobian)
    xs = np.array([[0.1, 0.2, 0.3], [0.2, 0.1, 0.0]])
    for _ in range(3):
        tangent_flow(spec, xs, 0.5)
    assert len(probed) == spec.dim + 1


def test_solver_is_freed_when_its_solve_returns(scenarios):
    """A solver and its ``fun`` wrapper form a reference cycle; the solve frees
    it at once, so a batch's stage arrays never wait for a full collection."""
    spec = scenarios["saddle_cycle"].spec
    xs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.1]])
    gc.collect()
    tangent_flow(spec, xs, 0.5)
    assert not [obj for obj in gc.get_objects() if isinstance(obj, DOP853)]


def test_batched_tangent_flow_escape(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    xs = np.array([[0.1, 0.0, 0.1], [0.0, 0.0, 5.0], [0.2, 0.1, 0.0]])
    with pytest.raises(
        FlowDivergenceError, match=r"orbit from \[0\. 0\. 5\.\] crossed norm"
    ) as err:
        tangent_flow(spec, xs, 1.0, norm_bound=10.0)
    # z = 5 e^t hits 10 at ln 2
    assert str(err.value) == (
        "linear_saddle3d: orbit from [0. 0. 5.] crossed norm 10 at t=0.693147 "
        "during variational integration"
    )
    assert err.value.rows.tolist() == [1]
    ends, _ = tangent_flow(spec, xs[[0, 2]], 1.0, norm_bound=10.0)
    assert np.max(np.linalg.norm(ends, axis=1)) < 10.0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_group_property(name, scenarios, rng):
    """X_s(X_t(x)) = X_{s+t}(x) within ten times the integrator tolerance."""
    scen = scenarios[name]
    for x in sample_box_points(scen, rng, 20):
        s, t = rng.uniform(0.2, 1.0, size=2)
        two_step = flow_at(scen.spec, flow_at(scen.spec, x, t), s)
        direct = flow_at(scen.spec, x, s + t)
        assert distance(scen.spec, two_step, direct) <= 1e-8


@pytest.mark.parametrize("name", ALL_NAMES)
def test_group_inverse(name, scenarios, rng):
    scen = scenarios[name]
    t_hi = 1.5 if name != "saddle_cycle" else 0.8
    for x in sample_box_points(scen, rng, 10):
        t = rng.uniform(0.2, t_hi)
        back = flow_at(scen.spec, flow_at(scen.spec, x, t), -t)
        assert distance(scen.spec, back, x) <= 1e-7


@pytest.mark.parametrize("name", sorted(CLOSED_TANGENTS))
def test_tangent_flow_matches_closed_form(name, scenarios, rng):
    scen = scenarios[name]
    oracle = CLOSED_TANGENTS[name]
    for x in sample_box_points(scen, rng, 5):
        t = rng.uniform(0.3, 2.0)
        x_t, deriv = tangent_flow(scen.spec, x, t)
        assert distance(scen.spec, x_t, CLOSED_FLOWS[name](x, t)) <= 1e-7
        assert np.max(np.abs(deriv - oracle(t))) <= 1e-7


def test_tangent_flow_transports_velocity(scenarios, rng):
    # No closed-form derivative off the invariant sets of saddle_cycle, but
    # the variational solution must always carry the field along the orbit.
    scen = scenarios["saddle_cycle"]
    for x in sample_box_points(scen, rng, 10):
        t = rng.uniform(0.3, 2.0)
        x_t, deriv = tangent_flow(scen.spec, x, t)
        v_end = scen.spec.field_at(x_t)
        err = np.linalg.norm(deriv @ scen.spec.field_at(x) - v_end)
        assert err <= 1e-7 * (1.0 + np.linalg.norm(v_end))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_tangent_cocycle_law(name, scenarios, rng):
    scen = scenarios[name]
    for x in sample_box_points(scen, rng, 8):
        s, t = rng.uniform(0.2, 1.0, size=2)
        x_t, d_t = tangent_flow(scen.spec, x, t)
        _, d_s = tangent_flow(scen.spec, x_t, s)
        _, d_st = tangent_flow(scen.spec, x, s + t)
        assert np.max(np.abs(d_s @ d_t - d_st)) <= 1e-5


def test_conserved_drift(scenarios, rng):
    """|Q(X_t(x)) - Q(x)| stays below 100 x tol out to t = 50."""
    for name in ALL_NAMES:
        scen = scenarios[name]
        if scen.spec.conserved is None:
            continue
        q = scen.spec.conserved.func
        for x in sample_box_points(scen, rng, 5):
            traj = integrate(scen.spec, x, (0.0, 50.0))
            q0 = q(x)
            for t in np.linspace(5.0, 50.0, 6):
                assert abs(q(traj.at(t)) - q0) <= 1e-7


def test_wrap_and_distance(scenarios):
    spec = scenarios["center_cycle"].spec
    period = 2.0 * np.pi
    w = wrap_point(spec, [period + 0.1, 0.5, -0.2])
    assert np.allclose(w, [0.1, 0.5, -0.2])
    a = np.array([0.05, 0.0, 0.0])
    b = np.array([period - 0.05, 0.0, 0.0])
    assert abs(distance(spec, a, b) - 0.1) <= 1e-12
    # shortest-arc difference keeps its sign and leaves linear coords alone
    d = coord_difference(spec, a, b)
    assert abs(d[0] - 0.1) <= 1e-12 and d[1] == 0.0 and d[2] == 0.0
    assert np.isnan(spec.periods[1]) and spec.periods[0] == period
    flat = scenarios["linear_saddle3d"].spec
    assert not flat.angle_mask.any()
    assert np.array_equal(wrap_point(flat, [5.0, -3.0, 9.0]), [5.0, -3.0, 9.0])


def test_spec_validation():
    ok = lambda x: np.zeros(2)
    jac = lambda x: np.zeros((2, 2))
    with pytest.raises(ValueError, match="dim"):
        VectorFieldSpec(name="bad", dim=0, field=ok, jacobian=jac)
    with pytest.raises(ValueError, match="entries"):
        VectorFieldSpec(name="bad", dim=2, field=ok, jacobian=jac, coord_kinds=("linear",))
    with pytest.raises(ValueError, match="unknown kind"):
        VectorFieldSpec(name="bad", dim=2, field=ok, jacobian=jac, coord_kinds=("linear", "torus"))
    with pytest.raises(ValueError, match="period must be positive"):
        VectorFieldSpec(
            name="bad", dim=2, field=ok, jacobian=jac, coord_kinds=(("angle", -1.0), "linear")
        )
    with pytest.raises(ValueError, match=r"coordinate 1 angle period must be .* \(got .*=nan\)"):
        VectorFieldSpec(
            name="bad", dim=2, field=ok, jacobian=jac, coord_kinds=("linear", ("angle", math.nan))
        )
    with pytest.raises(ValueError, match="lipschitz"):
        ConservedQuantity(lambda x: 0.0, 0.0)
    with pytest.raises(ValueError, match=r"lipschitz must be .* \(got lipschitz=nan\)"):
        ConservedQuantity(lambda x: 0.0, math.nan)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_validate_jacobian_on_builtins(name, scenarios, rng):
    scen = scenarios[name]
    worst = validate_jacobian(scen.spec, sample_box_points(scen, rng, 10))
    assert worst <= 1e-6


def test_validate_jacobian_catches_mistakes(scenarios, rng):
    good = scenarios["linear_saddle3d"].spec
    bad = VectorFieldSpec(
        name="bad-jac",
        dim=3,
        field=good.field,
        jacobian=lambda x: np.diag([-2.0, -1.0, 1.4]),
    )
    scen = scenarios["linear_saddle3d"]
    assert validate_jacobian(bad, sample_box_points(scen, rng, 10)) >= 0.05
