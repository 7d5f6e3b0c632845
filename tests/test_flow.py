import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput

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


def _loop_case(name, scenarios):
    """``(fun, t_span, y0, tol, options)`` of one solve that the step loop
    must take exactly as ``scipy.integrate.solve_ivp`` does."""
    cycle, saddle = scenarios["saddle_cycle"].spec, scenarios["linear_saddle3d"].spec
    x0, z0 = np.array([math.cos(0.3), math.sin(0.3), 0.0]), np.array([0.0, 0.0, 1.0])
    on_cycle, on_saddle = (lambda t, y: cycle.field_at(y)), (lambda t, y: saddle.field_at(y))
    if name == "3200 outputs":
        return on_cycle, (0.0, 16.0), x0, 1e-9, {"t_eval": 0.005 * np.arange(1, 3201)}
    if name == "backward":
        return on_cycle, (0.0, -3.0), x0, 1e-9, {"t_eval": np.linspace(-0.05, -3.0, 60)}
    if name == "40 rows, 7 outputs":
        rows = x0 + 0.2 * np.random.default_rng(5).normal(size=(40, 3))
        fun, outputs = lambda t, z: cycle.field(z.reshape(40, 3)).ravel(), np.linspace(0.3, 2.0, 7)
        return fun, (0.0, 2.0), rows.ravel(), 1e-9 / math.sqrt(40), {"t_eval": outputs}
    if name == "variational endpoint":
        def fun(t, y):
            jv = cycle.jacobian_at(y[:3]) @ y[3:].reshape(3, 3)
            return np.concatenate([cycle.field_at(y[:3]), jv.ravel()])

        return fun, (0.0, 2 * math.pi), np.concatenate([x0, np.eye(3).ravel()]), 1e-9, {}
    if name == "dense":
        return on_cycle, (0.0, 7.0), x0, 1e-9, {"dense_output": True}
    if name == "dense, backward":
        return on_cycle, (0.0, -7.0), x0, 1e-9, {"dense_output": True}
    if name == "escape with outputs":
        outputs = {"t_eval": np.linspace(0.0, 20.0, 100), "events": [flow._escape_event(100.0, 3)]}
        return on_saddle, (0.0, 20.0), z0, 1e-9, outputs
    if name == "one output":  # flow_at's solve: its one output time is its last step's end
        options = {"t_eval": np.array([1.3]), "events": [flow._escape_event(1e6, 3)]}
        return on_cycle, (0.0, 1.3), x0, 1e-9, options
    if name in ("end-only step among pending ones", "pending steps 1 and 4"):
        # step 2's one output is its end, between steps 1, 4 and 5 of 10 interior outputs each;
        # or only steps 1 and 4 hold outputs, so one read flushes the two non-adjacent steps
        ts = scipy.integrate.solve_ivp(on_cycle, (0.0, 7.0), x0, method="DOP853", rtol=1e-9,
                                       atol=1e-11).t
        inside = [np.linspace(ts[k], ts[k + 1], 12)[1:-1] for k in (1, 4, 5)]
        outputs = [inside[0], ts[3:4], *inside[1:]] if name.startswith("end-only") else inside[:2]
        return on_cycle, (0.0, 7.0), x0, 1e-9, {"t_eval": np.concatenate(outputs)}
    if name == "blow-up":  # y = 1 / (1 - t): the step shrinks below the spacing of times
        return (lambda t, y: y * y), (0.0, 2.0), np.array([1.0]), 1e-9, {}
    if name == "equilibrium":  # zero field: the initial step is 1e-6, and the errors are 0
        return on_saddle, (0.0, 2.0), np.zeros(3), 1e-9, {"t_eval": np.linspace(0.5, 2.0, 4)}
    if name == "section":
        normal = cycle.field_at(x0) / np.linalg.norm(cycle.field_at(x0))

        def section(t, z):
            return float(normal @ (z - x0))

        section.direction = 1
        events = [flow._escape_event(flow.DEFAULT_NORM_BOUND, 3), section]
        return on_cycle, (0.0, 4 * math.pi), x0 + 0.01, 1e-9, {"events": events}

    def reach_ten(t, y):
        return y[2] - 10.0

    reach_ten.terminal = True
    return on_saddle, (0.0, 20.0), z0, 1e-9, {"events": [flow._escape_event(100.0, 3), reach_ten]}


def _end_only_steps(steps, t_eval):
    """How many of the steps ending at ``steps[1:]`` (from ``steps[0]``) hold
    output times of ``t_eval``, every one of them at the step's end."""
    if t_eval is None:
        return 0
    sign = np.sign(steps[-1] - steps[0])
    hi = np.searchsorted(sign * np.asarray(t_eval), sign * steps[1:], side="right")
    lo = np.r_[0, hi[:-1]]
    return sum(int(b > a and t_eval[a] == end) for a, b, end in zip(lo, hi, steps[1:]))


@pytest.mark.parametrize("name", [
    "3200 outputs", "backward", "40 rows, 7 outputs", "variational endpoint", "dense",
    "dense, backward", "escape with outputs", "section", "terminal event, no direction",
    "one output", "end-only step among pending ones", "pending steps 1 and 4", "blow-up",
    "equilibrium",
])
def test_step_loop_matches_scipy_bit_for_bit(name, scenarios):
    """flowlab's DOP853 takes scipy's steps, finds its event roots and
    interpolates its outputs with the same bits.  A step whose only output
    time is its end takes none of the 3 dense stages, so ``nfev`` is scipy's
    less 3 for each such step, and scipy's for every other."""
    fun, t_span, y0, tol, options = _loop_case(name, scenarios)
    options.setdefault("events", ())
    ours = flow.solve_ivp(fun, t_span, y0, rtol=tol, atol=tol / 100.0, **options)
    ref = scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=tol, atol=tol / 100.0,
                                    **options)
    for key in ("t", "y", "status"):
        assert np.array_equal(getattr(ours, key), getattr(ref, key)), key
    steps = scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=tol, atol=tol / 100.0,
                                      events=options["events"]).t
    end_only = _end_only_steps(steps, options.get("t_eval"))
    end_only_cases = ("40 rows, 7 outputs", "one output", "end-only step among pending ones")
    assert end_only == int(name in end_only_cases)
    assert ours.nfev == ref.nfev - 3 * end_only
    assert len(ours.t_events) == len(ref.t_events)
    for a, b in zip(ours.t_events + ours.y_events, ref.t_events + ref.y_events):
        assert np.array_equal(a, b)
    if name == "dense":
        ts = np.linspace(0.0, 7.0, 500)
        assert np.array_equal(ours.sol(ts), ref.sol(ts))
    if name == "dense, backward":
        ts = np.linspace(0.0, -7.0, 500)
        assert np.array_equal(ours.sol(ts), ref.sol(ts))
    if name.startswith("dense"):  # every step end, where two steps meet
        assert np.array_equal(ours.sol(ref.t), ref.sol(ref.t))
    if name == "section":
        assert len(ours.t_events[1]) >= 2
    if name.startswith(("escape", "terminal")):
        assert ours.status == 1 and ours.t.size > 1
    if name == "blow-up":
        assert ours.status == -1 and ours.message == ref.message == (
            "Required step size is less than spacing between numbers.")


def test_dense_steps_read_the_earlier_step_at_a_step_end():
    """Where two steps meet, a dense solution reads the earlier one in either time
    direction, as scipy's ``OdeSolution`` does.  Real steps agree there to the bit unless
    the end value is below the rounding unit of the start, so these two synthetic steps
    disagree instead: the first ends at its ``y_old + F[0]`` = 1, and the second starts
    at its ``y_old`` = 5."""
    F = np.zeros((7, 1))
    F[0] = 1.0
    for h in (1.0, -1.0):
        steps = [(0.0, h, np.zeros(1), F), (h, h, np.full(1, 5.0), F)]
        ts = np.array([0.0, h, 2 * h])
        ours = flow._DenseSteps(np.sign(h), steps)
        ref = OdeSolution(ts, [Dop853DenseOutput(t0, t0 + dt, y, f) for t0, dt, y, f in steps])
        assert ours(ts).tolist() == ref(ts).tolist() == [[0.0, 1.0, 6.0]]
        assert ours(h).tolist() == [1.0]


@pytest.mark.parametrize("end", [3.0, -3.0])
def test_dense_steps_read_a_row_as_the_full_read_does(scenarios, end):
    """A per-row read of a 4-row solve is the full read's entries of that row, bit for
    bit, at times across its steps and at every step end, in either time direction; and
    a reader of one step, which skips the search, reads that step as the whole solve does."""
    spec = scenarios["saddle_cycle"].spec
    rng = np.random.default_rng(4)
    angle = rng.uniform(0.0, 2 * math.pi, 4)
    y0 = np.column_stack([np.cos(angle), np.sin(angle), rng.uniform(-0.1, 0.1, 4)])
    sol = flow.solve_ivp(lambda t, z: spec.field(z.reshape(4, 3)).ravel(), (0.0, end),
                         y0.ravel(), rtol=1e-9, atol=1e-11, dense_output=True)
    dense = sol.sol
    assert len(dense.h) >= 5
    ts = np.concatenate([end * rng.uniform(0.0, 1.0, 300), sol.t])
    row = rng.integers(0, 4, len(ts))
    full = dense(ts).T.reshape(len(ts), 4, 3)[np.arange(len(ts)), row]
    assert dense.rows(ts, row, 4).tobytes() == full.tobytes()
    for k in (0, 2, len(dense.h) - 1):
        step = (dense.t_old[k], dense.h[k], dense.y_old[k], dense.F[k])
        inside = dense.t_old[k] + dense.h[k] * np.linspace(0.0, 1.0, 9)
        one = flow._DenseSteps(np.sign(end), [step])
        assert one(inside).tobytes() == dense(inside).tobytes()
        assert one(inside[3]).tobytes() == dense(inside[3]).tobytes()


def test_armed_terminal_event_matches_scipy_until_it_stops(scenarios):
    """A terminal event armed at ``after`` records its roots before ``after``
    and stops the solve at its first root at or after it, with scipy's steps,
    roots and bits up to there; scipy runs a non-terminal copy of the event.
    The section case's span is stretched from 4 pi to 6 pi, so that its second
    root no longer sits in the last step: scipy's run goes on to the escape at
    ln 1e8 = 18.4."""
    fun, (t0, t1), y0, tol, options = _loop_case("section", scenarios)
    t_span, (escape, section) = (t0, 1.5 * t1), options["events"]
    ref = scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", rtol=tol, atol=tol / 100.0,
                                    events=[escape, section])
    roots = ref.t_events[1]
    assert len(roots) >= 2

    def armed(t, z):
        return section(t, z)

    for after in ((roots[0] + roots[1]) / 2, roots[1]):
        armed.direction, armed.terminal, armed.after = 1, True, after
        ours = flow.solve_ivp(fun, t_span, y0, rtol=tol, atol=tol / 100.0, events=[escape, armed])
        assert ours.status == 1 and ours.t[-1] == roots[1]
        assert np.array_equal(ours.t[:-1], ref.t[: ours.t.size - 1])
        assert np.array_equal(ours.y[:, -1], ref.y_events[1][1])
        assert ours.t_events[0].size == 0 and ref.t_events[0].size == 1
        assert np.array_equal(ours.t_events[1], roots[:2])
        assert np.array_equal(ours.y_events[1], ref.y_events[1][:2])
        assert ours.nfev < ref.nfev


def test_step_loop_rejects_outputs_against_the_span():
    """Output times are read in the span's direction; unsorted ones would
    be read at the wrong steps, so they are refused."""
    decay = lambda t, y: -y
    for span, t_eval in (((0.0, 1.0), [0.5, 0.2]), ((0.0, -1.0), [-0.5, -0.2])):
        with pytest.raises(ValueError, match="^t_eval must run in the direction of t_span$"):
            flow.solve_ivp(decay, span, [1.0], 1e-9, 1e-11, t_eval=t_eval)
    sol = flow.solve_ivp(decay, (0.0, -1.0), [1.0], 1e-9, 1e-11, t_eval=[-0.2, -0.5, -0.5])
    assert np.allclose(sol.y[0], np.exp([0.2, 0.5, 0.5]), rtol=1e-8)


def test_step_loop_keeps_scipys_memory(scenarios, monkeypatch):
    """Batched interpolation holds no more than the outputs: 200 rows with 7
    output times peak within 1.1x of the same call through scipy's loop."""
    spec = scenarios["saddle_cycle"].spec
    rows = np.array([1.0, 0.0, 0.0]) + 0.2 * np.random.default_rng(9).normal(size=(200, 3))
    u = np.linspace(0.3, 2.0, 7)

    def peak():
        flow._orbit_points(spec, rows, u, 1e-9)
        tracemalloc.start()
        try:
            flow._orbit_points(spec, rows, u, 1e-9)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ours = peak()
    monkeypatch.setattr(flow, "solve_ivp", lambda *args, **kwargs: scipy.integrate.solve_ivp(
        *args, method="DOP853", **kwargs))
    assert ours <= 1.1 * peak()


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


def test_at_many_reads_no_times_one_time_or_a_row_of_times(scenarios):
    """No times give ``(0, dim)`` and a scalar ``(dim,)``; a 2-D array is
    refused by name.  The start, read from the first step at ``x = 0``, is the
    initial state exactly in either time direction."""
    spec = scenarios["linear_saddle3d"].spec
    x0 = np.array([0.8, -0.6, 0.3])
    traj = integrate(spec, x0, (0.0, 2.0))
    assert traj.at_many([]).shape == (0, 3) and traj(np.empty(0)).shape == (0, 3)
    assert np.array_equal(traj.at_many(1.0), traj.at(1.0)) and traj.at_many(1.0).shape == (3,)
    refused = r"^ts must be a time or a 1-D array of times \(got shape \(2, 1\)\)$"
    with pytest.raises(ValueError, match=refused):
        traj.at_many([[0.5], [1.0]])
    back = integrate(spec, x0, (0.0, -1.0))
    assert np.array_equal(back.at_many([0.0, -0.5, 0.0]), [x0, back.at(-0.5), x0])


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
    """A solve leaves no reference cycle behind, so its stage arrays are freed
    as it returns, with no collection: not after a long dense ``integrate``,
    whose interpolants would trigger collections mid-solve, nor after
    batched orbit points or a batched tangent flow."""
    cycle, center = scenarios["saddle_cycle"].spec, scenarios["center_cycle"].spec
    xs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.1]])
    for solve in (
        lambda: integrate(center, (0.0, 0.2, 0.3), (0.0, 20000.0)),
        lambda: flow._orbit_points(cycle, xs, np.linspace(0.3, 2.0, 7), 1e-9),
        lambda: tangent_flow(cycle, xs, 0.5),
    ):
        gc.collect()
        solve()
        assert gc.collect() == 0


def test_tol_below_the_stepper_floor_names_tol(scenarios, monkeypatch):
    """A row's share ``tol / sqrt(rows)`` below ``100 eps`` would be clamped
    silently by scipy's stepper; it raises ``ValueError`` naming ``tol``
    instead, before any step (a solve here would call ``None``)."""
    spec = scenarios["linear_saddle3d"].spec
    monkeypatch.setattr(flow, "solve_ivp", None)
    with pytest.raises(ValueError, match=r"^tol must be at least 2\.22e-14 \(got tol=1e-15\)$"):
        flow_at(spec, (0.9, 0.9, 0.1), 1.0, tol=1e-15)
    rows = np.random.default_rng(4).uniform(-0.5, 0.5, size=(10000, 3))
    with pytest.raises(ValueError, match=r"^tol must be at least 2\.22e-12 \(got tol=1e-12\)$"):
        flow._orbit_points(spec, rows, [0.5, 1.0], 1e-12)


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
