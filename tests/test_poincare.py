import math

import numpy as np
import pytest

from flowlab import (
    ConcatEvaluator,
    ConsistencyError,
    NewtonDivergedError,
    NewtonSingularError,
    NoCrossingError,
    PseudoOrbit,
    SearchBudget,
    TangentialCrossingError,
    VectorFieldSpec,
    build_cocycle,
    classify_periodic,
    classify_singularity,
    distance,
    find_periodic_newton,
    flow_at,
    linear_poincare,
    normal_frame,
    search_shadowing,
    section_map,
    tangent_flow,
    verify_chain,
)
from flowlab.scenarios import scenario_names

from oracles import sample_box_points

TWO_PI = 2.0 * math.pi


def broken_jacobian_spec():
    # field and jacobian disagree in the expanding rate; transport checks
    # along any orbit with a third component must notice
    a = np.diag([-2.0, -1.0, 1.0])
    return VectorFieldSpec(
        name="broken",
        dim=3,
        field=lambda x: x @ a.T,
        jacobian=lambda x: np.diag([-2.0, -1.0, 1.2]),
    )


@pytest.mark.parametrize("name", scenario_names())
def test_normal_frame_properties(name, scenarios, rng):
    scen = scenarios[name]
    checked = 0
    for x in sample_box_points(scen, rng, 40):
        v = scen.spec.field_at(x)
        speed = np.linalg.norm(v)
        if speed < 1e-6:
            continue
        f = normal_frame(scen.spec, x)
        assert f.shape == (scen.spec.dim, scen.spec.dim - 1)
        assert np.max(np.abs(f.T @ f - np.eye(scen.spec.dim - 1))) <= 1e-10
        assert np.max(np.abs(f.T @ (v / speed))) <= 1e-10
        assert np.array_equal(f, normal_frame(scen.spec, x))
        checked += 1
    assert checked >= 20


def test_normal_frame_rejects_singularity(scenarios):
    with pytest.raises(ValueError, match="no normal frame"):
        normal_frame(scenarios["linear_saddle3d"].spec, np.zeros(3))


def test_section_map_periodic_return(scenarios):
    spec = scenarios["saddle_cycle"].spec
    p = np.array([1.0, 0.0, 0.0])
    crossing = section_map(spec, p, p, TWO_PI)
    assert abs(crossing.tau - TWO_PI) <= 1e-9
    assert distance(spec, crossing.point, p) <= 1e-9
    assert crossing.in_window

    spec = scenarios["center_cycle"].spec
    y = np.array([0.0, 0.3, 0.1])
    crossing = section_map(spec, np.zeros(3), y, TWO_PI)
    assert abs(crossing.tau - TWO_PI) <= 1e-9
    want = np.array([0.0, 0.3, 0.1 * math.exp(-TWO_PI)])
    assert distance(spec, crossing.point, want) <= 1e-9
    # angles come back wrapped into their fundamental interval
    assert 0.0 <= crossing.point[0] < TWO_PI


def test_section_map_out_of_window_crossing(scenarios):
    spec = scenarios["saddle_cycle"].spec
    p = np.array([1.0, 0.0, 0.0])
    crossing = section_map(spec, p, p, 20.0)
    assert not crossing.in_window
    assert abs(crossing.tau - (20.0 - 2.0 * TWO_PI)) <= 1e-6


def test_section_map_validation(scenarios):
    spec = scenarios["saddle_cycle"].spec
    p = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="t must be positive"):
        section_map(spec, p, p, 0.0)
    with pytest.raises(ValueError, match="singularity"):
        section_map(scenarios["linear_saddle3d"].spec, np.zeros(3), p, 1.0)
    with pytest.raises(ValueError, match="shape"):
        section_map(spec, p, p[:2], TWO_PI)


def test_section_map_disc_radius(scenarios):
    # the orbit pierces the plane, but far above the periodic point
    spec = scenarios["saddle_cycle"].spec
    p = np.array([1.0, 0.0, 0.0])
    y = np.array([1.3, 0.0, 0.2])
    crossing = section_map(spec, p, y, TWO_PI)
    assert distance(spec, crossing.point, p) > 10.0
    with pytest.raises(NoCrossingError, match="section disc"):
        section_map(spec, p, y, TWO_PI, radius=0.5)


def test_section_map_no_crossing(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    with pytest.raises(NoCrossingError, match="no forward crossing"):
        section_map(spec, np.array([0.0, 0.0, 0.5]), np.array([0.3, 0.0, 0.01]), 1.0)


def test_section_map_tangential_crossing(scenarios):
    # a microscopic orbit grazes every plane through the anchor circle
    spec = scenarios["neutral_rotation"].spec
    x = np.array([0.1, 0.0, 0.0])
    y = np.array([1e-9, 0.0, 0.0])
    with pytest.raises(TangentialCrossingError, match="tangential"):
        section_map(spec, x, y, 7.0)


def test_linear_poincare_on_cycle(scenarios):
    spec = scenarios["saddle_cycle"].spec
    p = np.array([1.0, 0.0, 0.0])
    psi = linear_poincare(spec, p, TWO_PI)
    want = np.diag([math.exp(-4.0 * math.pi), math.exp(2.0 * math.pi)])
    assert np.max(np.abs(psi - want) / (1.0 + np.abs(want))) <= 1e-5


def test_linear_poincare_transport_guard():
    spec = broken_jacobian_spec()
    with pytest.raises(ConsistencyError, match="flow-direction transport"):
        linear_poincare(spec, np.array([0.3, 0.3, 1.0]), 1.0)


def test_build_cocycle_grid(scenarios):
    spec = scenarios["saddle_cycle"].spec
    p = np.array([1.0, 0.0, 0.0])
    coc = build_cocycle(spec, p, t_total=2.0, dt=0.25, t_start=-1.0)
    assert coc.steps == 8
    assert abs(coc.dt - 0.25) <= 1e-15
    assert np.allclose(coc.times, -1.0 + 0.25 * np.arange(9))
    assert coc.points.shape == (9, 3)
    assert coc.frames.shape == (9, 3, 2)
    for k in range(9):
        f = coc.frames[k]
        assert np.max(np.abs(f.T @ f - np.eye(2))) <= 1e-10
    assert coc.index_of_time(-1.0) == 0
    assert coc.index_of_time(0.25) == 5
    assert coc.index_of_time(1.0) == 8
    with pytest.raises(IndexError, match="outside"):
        coc.index_of_time(2.0)
    with pytest.raises(IndexError, match="outside"):
        coc.index_of_time(-1.4)
    # off-grid times inside the span snap to the nearest sample
    assert coc.index_of_time(0.1) == 4
    assert np.array_equal(coc.window_product(3, 3), np.eye(2))
    with pytest.raises(IndexError, match="window"):
        coc.window_product(5, 2)
    with pytest.raises(IndexError, match="window"):
        coc.window_product(0, 9)
    # requested dt is adjusted to divide the span evenly
    coc2 = build_cocycle(spec, p, t_total=2.0, dt=0.3)
    assert coc2.steps == 7
    assert abs(coc2.dt - 2.0 / 7.0) <= 1e-15


def test_build_cocycle_validation(scenarios):
    spec = scenarios["saddle_cycle"].spec
    p = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        build_cocycle(spec, p, t_total=2.0, dt=0.0)
    with pytest.raises(ValueError, match="two steps"):
        build_cocycle(spec, p, t_total=0.001, dt=0.001)
    with pytest.raises(ConsistencyError, match="at step"):
        build_cocycle(broken_jacobian_spec(), np.array([0.3, 0.3, 1.0]), 2.0, 0.5)


def per_point_specs():
    # fields written for one point at a time: they mix or drop batch rows
    a = np.array([[-2.0, 1.0, 0.0], [0.0, -1.0, 0.5], [0.0, 0.0, 1.0]])
    matrix = VectorFieldSpec(name="matrix", dim=3, field=lambda x: a @ x, jacobian=lambda x: a)

    def field(x):
        r2 = x[0] * x[0] + x[1] * x[1]
        return np.array([x[0] * (1.0 - r2) - x[1], x[1] * (1.0 - r2) + x[0], x[2]])

    def jacobian(x):
        r2 = x[0] * x[0] + x[1] * x[1]
        return np.array(
            [
                [1.0 - r2 - 2.0 * x[0] * x[0], -2.0 * x[0] * x[1] - 1.0, 0.0],
                [-2.0 * x[0] * x[1] + 1.0, 1.0 - r2 - 2.0 * x[1] * x[1], 0.0],
                [0.0, 0.0, 1.0],
            ]
        )

    indexed = VectorFieldSpec(name="indexed", dim=3, field=field, jacobian=jacobian)
    return [matrix, indexed]


@pytest.mark.parametrize("spec", per_point_specs(), ids=lambda s: s.name)
def test_batched_calls_reject_per_point_fields(spec):
    x = np.array([1.0, 0.2, 0.1])
    # a single point still works; batches of any size, including a square
    # one (3 steps of a 3-dimensional field), are refused
    tangent_flow(spec, x, 0.1)
    msg = r"must accept \(N, 3\) batches"
    for rows in (1, 2, 3, 4, 5):
        with pytest.raises(ValueError, match=msg):
            tangent_flow(spec, np.tile(x, (rows, 1)) + 0.01 * np.arange(rows)[:, None], 0.1)
    for steps in (3, 40):
        with pytest.raises(ValueError, match=msg):
            build_cocycle(spec, x, 0.1 * steps, 0.1)
    # the shadowing search scores its lattice in batches, a one-point lattice too;
    # chain checks and concatenations solve their segments as one batch, one segment too
    po = PseudoOrbit(spec, np.array([x]), np.array([1.0]), 0.1)
    with pytest.raises(ValueError, match=msg):
        verify_chain(po)
    with pytest.raises(ValueError, match=msg):
        ConcatEvaluator(po).at_many([0.0, 0.5])
    region = np.column_stack([x - 0.01, x + 0.01])
    for candidates in (2, 40):
        budget = SearchBudget(candidates=candidates, refine_evals=1, eval_samples=17)
        with pytest.raises(ValueError, match=msg):
            search_shadowing(spec, po, 0.1, region, budget=budget)


@pytest.mark.parametrize(
    "t_total, dt, steps",
    [(16.0, 0.005, 3200), (14.0, 0.05, 280)],  # the second is splitting.cfg's grid
)
def test_criterion_4_cocycle_matches_closed_form(scenarios, t_total, dt, steps):
    """On the cycle every normal step has singular values e^dt and e^-2dt,
    and each step of the one batched solve equals a solo linear Poincare map."""
    spec = scenarios["saddle_cycle"].spec
    coc = build_cocycle(spec, np.array([1.0, 0.0, 0.0]), t_total, dt, t_start=-3.0)
    dt = coc.dt
    assert coc.steps == steps
    sv = np.linalg.svd(coc.trans, compute_uv=False)
    assert np.max(np.abs(sv[:, 0] - math.exp(dt))) <= 1e-9
    assert np.max(np.abs(sv[:, 1] - math.exp(-2.0 * dt))) <= 1e-9
    for k in (0, 31, 32, steps // 3, steps - 1):
        assert np.max(np.abs(coc.trans[k] - linear_poincare(spec, coc.points[k], dt))) <= 1e-12
    assert np.array_equal(coc.points[0], flow_at(spec, np.array([1.0, 0.0, 0.0]), -3.0))


@pytest.mark.parametrize(
    "name,x0,t_total",
    [
        ("saddle_cycle", (1.0, 0.0, 0.0), 3.0),
        ("linear_saddle3d", (0.9, 0.9, 0.05), 3.0),
        ("neutral_rotation", (0.15, 0.0, 0.1), 3.0),
        ("center_cycle", (0.0, 0.2, 0.3), 3.0),
        ("neutral_line", (0.1, 0.3), 3.0),
    ],
)
def test_window_products_match_direct_compression(name, x0, t_total, scenarios, rng):
    """Composing per-step normal transitions over a window agrees with the
    one-shot frame-compressed derivative over the same span: the flow
    direction is transported, so nothing leaks out of the normal bundle."""
    scen = scenarios[name]
    coc = build_cocycle(scen.spec, np.asarray(x0, dtype=float), t_total, 0.1)
    m = coc.steps
    for _ in range(50):
        i = int(rng.integers(0, m - 1))
        j = int(rng.integers(i + 1, min(i + 21, m) + 1))
        merged = coc.window_product(i, j)
        direct = linear_poincare(scen.spec, coc.points[i], (j - i) * coc.dt)
        assert np.max(np.abs(merged - direct)) <= 1e-5


def test_window_product_composition(scenarios, rng):
    spec = scenarios["saddle_cycle"].spec
    coc = build_cocycle(spec, np.array([1.0, 0.0, 0.0]), 3.0, 0.1)
    for _ in range(20):
        i, j, k = sorted(int(v) for v in rng.integers(0, coc.steps + 1, size=3))
        left = coc.window_product(j, k) @ coc.window_product(i, j)
        assert np.max(np.abs(left - coc.window_product(i, k))) <= 1e-10


def test_find_periodic_newton_converges(scenarios):
    spec = scenarios["saddle_cycle"].spec
    got = find_periodic_newton(spec, (1.1, 0.0, 1e-3), 6.5)
    assert got.residual <= 1e-9
    assert abs(got.period - TWO_PI) <= 1e-6
    assert got.iterations <= 10
    assert abs(math.hypot(got.point[0], got.point[1]) - 1.0) <= 1e-8
    assert abs(got.point[2]) <= 1e-8
    closure = distance(spec, flow_at(spec, got.point, got.period), got.point)
    assert closure <= 1e-8


def test_find_periodic_newton_errors(scenarios):
    cyc = scenarios["saddle_cycle"].spec
    with pytest.raises(ValueError, match="guess is a singularity"):
        find_periodic_newton(cyc, np.zeros(3), 6.0)
    with pytest.raises(NewtonDivergedError, match="no convergence in 1"):
        find_periodic_newton(cyc, (1.02, 0.0, 0.01), 6.0, max_iter=1)
    # a non-isolated orbit shows itself as a unit multiplier of the return
    # derivative, which aborts before any step is taken
    rot = scenarios["neutral_rotation"].spec
    with pytest.raises(NewtonSingularError, match="unit multiplier"):
        find_periodic_newton(rot, (0.1, 0.0, 0.02), TWO_PI)


def test_classify_singularity_saddle(scenarios):
    rep = classify_singularity(scenarios["linear_saddle3d"].spec, (1e-3, -2e-3, 5e-4))
    assert rep.kind == "singularity"
    assert rep.period is None
    assert np.allclose(rep.point, 0.0, atol=1e-10)
    assert np.allclose(rep.spectrum, [-2.0, -1.0, 1.0], atol=1e-9)
    assert np.allclose(rep.margins, [2.0, 1.0, 1.0], atol=1e-9)
    assert rep.hyperbolic
    assert rep.index == 2 and rep.index_with_flow == 2


def test_classify_singularity_on_equilibrium_line(scenarios):
    rep = classify_singularity(scenarios["neutral_line"].spec, (0.05, 0.02))
    assert not rep.hyperbolic
    assert np.allclose(rep.point, [0.05, 0.0], atol=1e-12)
    assert np.allclose(rep.spectrum, [-1.0, 0.0], atol=1e-12)
    assert rep.margins[1] <= 1e-12
    assert rep.index == 1


def test_classify_singularity_spiral(scenarios):
    rep = classify_singularity(scenarios["saddle_cycle"].spec, (1e-4, 0.0, 0.0))
    assert rep.hyperbolic
    assert rep.index == 0
    assert np.allclose(rep.spectrum, [1.0 - 1.0j, 1.0, 1.0 + 1.0j], atol=1e-9)


def test_classify_singularity_requires_equilibrium(scenarios):
    with pytest.raises(ValueError, match="no equilibrium near"):
        classify_singularity(scenarios["center_cycle"].spec, (0.3, 0.1, 0.2))


def test_classify_periodic_hyperbolic_cycle(scenarios):
    spec = scenarios["saddle_cycle"].spec
    rep = classify_periodic(spec, (1.0, 0.0, 0.0), TWO_PI)
    assert rep.kind == "periodic"
    assert rep.period == TWO_PI
    mods = np.abs(rep.spectrum)
    assert abs(mods[0] - math.exp(-4.0 * math.pi)) <= 1e-6
    assert abs(mods[1] - math.exp(2.0 * math.pi)) / math.exp(2.0 * math.pi) <= 1e-5
    assert rep.hyperbolic
    assert rep.index == 1 and rep.index_with_flow == 2


@pytest.mark.parametrize("theta", [0.0, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("y", [0.0, 0.2, -0.3])
def test_classify_periodic_family_never_hyperbolic(theta, y, scenarios):
    """Every member of the periodic family keeps a multiplier pinned at 1."""
    spec = scenarios["center_cycle"].spec
    rep = classify_periodic(spec, (theta, y, 0.0), TWO_PI)
    assert not rep.hyperbolic
    assert min(rep.margins) <= 1e-9
    assert rep.index == 1
    assert rep.index_with_flow == 2


def test_classify_periodic_rejects_nonperiodic(scenarios):
    spec = scenarios["saddle_cycle"].spec
    with pytest.raises(ValueError, match="closure gap"):
        classify_periodic(spec, (1.1, 0.0, 0.0), TWO_PI)
