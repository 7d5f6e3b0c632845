import math

import numpy as np
import pytest

from flowlab import (
    ConcatEvaluator,
    FlowDivergenceError,
    PseudoOrbit,
    accumulated_time,
    builtin,
    distance,
    equilibrium_segment_chain,
    eval_concat,
    flow_at,
    generate_noisy,
    integrate,
    load_chain,
    periodic_family_chain,
    save_chain,
    verify_chain,
)
from flowlab import flow, poincare

from oracles import CLOSED_FLOWS, sample_box_points

TWO_PI = 2.0 * np.pi


def exact_orbit_chain(scen, x0, n_steps, delta, oracle, head_tail=False):
    """Chain whose points sit on a true orbit, spaced by closed-form steps."""
    pts = [np.asarray(x0, dtype=float)]
    for _ in range(n_steps):
        pts.append(oracle(pts[-1], 1.0))
    kw = {}
    if head_tail:
        kw = {"head": (pts[0], 1.0), "tail": (pts[-1], 1.0)}
    return PseudoOrbit(
        spec=scen.spec,
        points=np.array(pts),
        durations=np.ones(n_steps + 1),
        delta=delta,
        **kw,
    )


def test_pseudo_orbit_validation(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    pts = np.zeros((3, 3))
    ones = np.ones(3)
    with pytest.raises(ValueError, match="shape"):
        PseudoOrbit(spec=spec, points=np.zeros((3, 2)), durations=ones, delta=0.1)
    with pytest.raises(ValueError, match="durations must match"):
        PseudoOrbit(spec=spec, points=pts, durations=np.ones(2), delta=0.1)
    with pytest.raises(ValueError, match="must be >= 1"):
        PseudoOrbit(spec=spec, points=pts, durations=0.5 * ones, delta=0.1)
    with pytest.raises(ValueError, match="delta must be positive"):
        PseudoOrbit(spec=spec, points=pts, durations=ones, delta=0.0)
    with pytest.raises(ValueError, match="finite"):
        PseudoOrbit(spec=spec, points=np.full((3, 3), np.inf), durations=ones, delta=0.1)
    with pytest.raises(ValueError, match="head point must have shape"):
        PseudoOrbit(
            spec=spec, points=pts, durations=ones, delta=0.1, head=(np.zeros(2), 1.0)
        )
    with pytest.raises(ValueError, match="tail duration"):
        PseudoOrbit(
            spec=spec, points=pts, durations=ones, delta=0.1, tail=(np.zeros(3), 0.2)
        )


def test_boundary_and_accumulated_times(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    po = PseudoOrbit(
        spec=spec,
        points=np.zeros((3, 3)),
        durations=np.array([1.0, 2.0, 4.0]),
        delta=0.1,
        head=(np.zeros(3), 2.0),
        tail=(np.zeros(3), 3.0),
    )
    assert po.size == 3
    assert np.allclose(po.boundary_times, [0.0, 1.0, 3.0, 7.0])
    assert po.total_time == 7.0
    assert accumulated_time(po, 0) == 0.0
    assert accumulated_time(po, 2) == 3.0
    assert accumulated_time(po, 3) == 7.0
    assert accumulated_time(po, -2) == -4.0
    assert accumulated_time(po, 5) == 13.0

    bare = PseudoOrbit(spec=spec, points=np.zeros((3, 3)), durations=np.ones(3), delta=0.1)
    with pytest.raises(IndexError, match="head extension"):
        accumulated_time(bare, -1)
    with pytest.raises(IndexError, match="tail extension"):
        accumulated_time(bare, 4)


@pytest.mark.parametrize(
    "name,x0",
    [
        ("linear_saddle3d", (0.9, 0.9, 0.002)),
        ("saddle_cycle", (0.8, 0.0, 0.01)),
        ("center_cycle", (0.3, 0.2, 0.4)),
        ("neutral_line", (0.15, 0.3)),
        ("neutral_rotation", (0.2, 0.1, 0.3)),
    ],
)
def test_exact_orbit_verifies(name, x0, scenarios):
    """Points lifted off a true orbit leave gaps at the integrator's noise
    floor, and any delta above ten times the tolerance accepts the chain."""
    scen = scenarios[name]
    po = exact_orbit_chain(scen, x0, 4, delta=2e-8, oracle=CLOSED_FLOWS[name])
    check = verify_chain(po)
    assert check.max_gap <= 1e-9
    assert check.ok


def test_verify_reports_labels_and_breaks(scenarios):
    scen = scenarios["linear_saddle3d"]
    po = exact_orbit_chain(
        scen, (0.5, 0.4, 0.01), 3, delta=1e-4, oracle=CLOSED_FLOWS["linear_saddle3d"]
    )
    pts = po.points.copy()
    pts[2] += np.array([1e-3, 0.0, 0.0])
    broken = PseudoOrbit(
        spec=scen.spec,
        points=pts,
        durations=po.durations,
        delta=1e-4,
        head=(pts[0], 1.0),
        tail=(pts[-1], 1.0),
    )
    check = verify_chain(broken)
    assert not check.ok
    labels = [label for label, _ in check.gaps]
    assert labels == ["head->head", "head->0", "0->1", "1->2", "2->3", "3->tail", "tail->tail"]
    # each gap at the start of its source segment; the unit head begins at -1
    assert check.times == (-1.0, -1.0, *broken.boundary_times.tolist())
    by_label = dict(check.gaps)
    assert abs(by_label["1->2"] - 1e-3) <= 1e-5
    assert check.max_gap == max(v for _, v in check.gaps)


def test_eval_concat_segment_property(scenarios, rng):
    """On [S_i, S_{i+1}] the concatenation is the flow from x_i, nothing else."""
    name = "saddle_cycle"
    scen = scenarios[name]
    oracle = CLOSED_FLOWS[name]
    po = exact_orbit_chain(scen, (0.7, 0.1, 0.02), 4, delta=1e-6, oracle=oracle)
    ev = ConcatEvaluator(po)
    cum = po.boundary_times
    for t in rng.uniform(0.0, po.total_time - 1e-9, size=25):
        i = int(np.searchsorted(cum, t, side="right")) - 1
        want = oracle(po.points[i], t - cum[i])
        assert np.linalg.norm(ev.at(t) - want) <= 1e-8
    assert np.array_equal(ev.at(0.0), po.points[0])
    many = ev.at_many([0.5, 1.5, 2.5])
    assert many.shape == (3, 3)
    with pytest.raises(ValueError, match="precedes the chain"):
        ev.at(-0.5)
    with pytest.raises(ValueError, match="past the chain"):
        ev.at(po.total_time + 1.0)


def test_eval_concat_extensions(scenarios):
    scen = scenarios["center_cycle"]
    p = np.zeros(3)
    po = periodic_family_chain(scen.spec, p, (0.0, 0.2, 0.0), 10, TWO_PI)
    # head times wind backward around the recorded periodic orbit
    got = eval_concat(po, -np.pi)
    want = flow_at(scen.spec, p, np.pi)
    assert distance(scen.spec, got, want) <= 1e-6
    beyond = eval_concat(po, po.total_time + 0.25)
    want = flow_at(scen.spec, po.tail[0], 0.25)
    assert distance(scen.spec, beyond, want) <= 1e-6


@pytest.fixture(scope="module")
def family_chain(scenarios):
    # criterion 2's 200-point chain: distinct durations, a head and a tail
    spec = scenarios["center_cycle"].spec
    return periodic_family_chain(spec, np.zeros(3), (0.0, 0.2, 0.0), 200, TWO_PI)


NOISY = {
    "saddle_cycle": ((1.0, 0.0, 0.0), 12, np.eye(3)[:, :2]),
    "linear_saddle3d": ((0.9, 0.9, 0.0), 40, np.eye(3)[:, :2]),
    "neutral_rotation": ((0.2, 0.1, 0.3), 30, None),
}


def chain_case(case, scenarios, family_chain):
    if case in NOISY:
        x0, count, sub = NOISY[case]
        return generate_noisy(scenarios[case].spec, x0, count, 1e-3, rng=5, noise_subspace=sub)
    if case == "periodic_family":
        return family_chain
    return equilibrium_segment_chain(scenarios["neutral_line"].spec, 0.4, 0.05)


def per_step_gaps(po):
    """The gaps of :func:`verify_chain`, one solo trajectory per image."""
    spec = po.spec

    def image(p, t):
        return integrate(spec, p, (0.0, t)).at(t)

    gaps = []
    if po.head is not None:
        hp, ht = po.head
        img = image(hp, ht)
        gaps.append(("head->head", distance(spec, img, hp)))
        gaps.append(("head->0", distance(spec, img, po.points[0])))
    images = [image(p, t) for p, t in zip(po.points, po.durations)]
    for i in range(po.size - 1):
        gaps.append((f"{i}->{i + 1}", distance(spec, images[i], po.points[i + 1])))
    if po.tail is not None:
        tp, tt = po.tail
        gaps.append((f"{po.size - 1}->tail", distance(spec, images[-1], tp)))
        gaps.append(("tail->tail", distance(spec, image(tp, tt), tp)))
    return gaps


@pytest.mark.parametrize("case", [*NOISY, "periodic_family", "equilibrium_segment"])
def test_batched_verify_chain_matches_per_step_gaps(case, scenarios, family_chain):
    """The images from one batched solve give every gap of one trajectory per
    image to 1e-9, a tenth of the ``10 * tol`` that a noisy chain's delta allows."""
    po = chain_case(case, scenarios, family_chain)
    check = verify_chain(po)
    want = per_step_gaps(po)
    assert [label for label, _ in check.gaps] == [label for label, _ in want]
    assert max(abs(got - ref) for (_, got), (_, ref) in zip(check.gaps, want)) <= 1e-9
    assert check.max_gap == max(got for _, got in check.gaps)
    assert check.ok == (max(ref for _, ref in want) < po.delta)


def per_segment_values(po, ts):
    """The concatenation at each time from one ``integrate`` per segment, and
    whether the time falls on a segment start."""
    cum, total = po.boundary_times, po.total_time
    segments, out, starts = {}, [], []
    for t in ts:
        if t < 0.0:
            key, (point, dur) = "head", po.head
            local = t - math.floor(t / dur) * dur
        elif t >= total and po.tail is not None:
            key, (point, dur) = "tail", po.tail
            local = (t - total) - math.floor((t - total) / dur) * dur
        else:
            key = min(int(np.searchsorted(cum, t, side="right")) - 1, po.size - 1)
            point, dur, local = po.points[key], po.durations[key], t - cum[key]
        if key not in segments:
            segments[key] = integrate(po.spec, point, (0.0, dur))
        out.append(segments[key].at(local))
        starts.append(local == 0.0)
    return np.array(out), np.array(starts)


@pytest.mark.parametrize("case", ["periodic_family", "linear_saddle3d"])
def test_concat_eval_matches_per_segment_integration(case, scenarios, family_chain):
    """Head, body and tail times agree with per-segment trajectories to
    ``1e-8 (1 + |x|)``; segment starts return the stored point bit for bit."""
    po = chain_case(case, scenarios, family_chain)
    total = po.total_time
    ts = [po.boundary_times, np.linspace(0.0, total, 301)]
    if po.head is not None:
        ht, tt = po.head[1], po.tail[1]
        ts.append([-2.0 * ht, -1.5 * ht, -ht, -0.3, total + 0.4, total + tt, total + 2.5 * tt])
    ts = np.concatenate(ts)
    got = ConcatEvaluator(po).at_many(ts)
    want, starts = per_segment_values(po, ts)
    assert np.all(np.abs(got - want) <= 1e-8 * (1.0 + np.abs(want)))
    assert starts.sum() >= po.size + 2 * (po.head is not None)
    assert np.array_equal(got[starts], want[starts])
    assert np.array_equal(ConcatEvaluator(po).at(ts[1]), got[1])


def test_concat_eval_raises_on_a_queried_escaping_segment(scenarios):
    # z = 5 e^t crosses 100 at t = ln 20 inside segment 1, which spans times 1 to 6
    spec = scenarios["linear_saddle3d"].spec
    pts = np.array([[0.1, 0.0, 0.1], [0.0, 0.0, 5.0], [0.2, 0.1, 0.0]])
    po = PseudoOrbit(spec, pts, np.array([1.0, 5.0, 1.0]), 0.1)
    ev = ConcatEvaluator(po, norm_bound=100.0)
    assert np.array_equal(ev.at(1.0), pts[1])
    assert ev.at_many([0.5, 6.5, 7.0]).shape == (3, 3)
    # the crossing is reported in chain time, 1 + ln 20, and rows name chain segment 1
    for ts in ([1.5], [0.5, 4.5, 6.5]):
        with pytest.raises(FlowDivergenceError, match="crossed norm 100") as err:
            ev.at_many(ts)
        assert str(err.value) == (
            "linear_saddle3d: orbit from [0. 0. 5.] crossed norm 100 at t=3.99573 "
            "during integration"
        )
        assert list(err.value.rows) == [1]
        assert err.value.t == pytest.approx(1.0 + math.log(20.0), abs=1e-6)
    # a head segment begins at -15 and z = 5 e^t crosses 1e6 at t = ln 2e5 into it;
    # a query at -10, 5 into the segment, comes before the crossing and raises too
    head = PseudoOrbit(spec, pts[:1], np.array([1.0]), 0.1, head=((0.0, 0.0, 5.0), 15.0))
    for ts in ([-1.0], [-10.0]):
        with pytest.raises(FlowDivergenceError, match=r"crossed norm 1e\+06 at t=-2.79393 ") as err:
            ConcatEvaluator(head).at_many(ts)
        assert list(err.value.rows) == [-1]
        assert err.value.t == pytest.approx(-15.0 + math.log(2e5), abs=1e-6)


def test_read_stretches_a_piece_row_to_its_latest_time(scenarios):
    """An extra piece read past its duration gets a row that reaches its latest time, so
    that time is integrated, not extrapolated from the row's last step.  A divergence of
    the piece alone is raised at its local time, with the piece as its row."""
    spec = scenarios["linear_saddle3d"].spec
    po = PseudoOrbit(spec, np.array([[0.1, 0.0, 0.1], [0.2, 0.1, 0.0]]), np.ones(2), 0.5)
    ev, x, n = ConcatEvaluator(po, norm_bound=100.0), np.array([0.3, 0.2, 1.0]), len(po._starts)
    local = np.array([0.5, 1.0, 3.0])
    got = ev.read(np.full(3, n), local, [x], [1.0])
    want = CLOSED_FLOWS["linear_saddle3d"](x, local[:, None])
    assert np.all(np.abs(got - want) <= 1e-8 * (1.0 + np.abs(want)))
    # z = e^t crosses 100 at t = ln 100 on the piece; the chain's own row stays bounded
    message = r"\[0\.3 0\.2 1\. \] crossed norm 100 at t=4\.60"
    with pytest.raises(FlowDivergenceError, match=message) as err:
        ev.read(np.array([1, n]), np.array([0.5, 5.0]), [x], [1.0])
    assert list(err.value.rows) == [0]


@pytest.mark.parametrize(
    "points, durations, head, begin, t, rows",
    [
        # z = 5 e^t crosses 1e6 at t = ln 2e5 into segment 1, which begins at 1
        ([[0.1, 0.0, 0.1], [0.0, 0.0, 5.0], [0.2, 0.1, 0.0]], [1.0, 15.0, 1.0], None,
         1.0, "13.2061", [1]),
        # the head segment begins at -15
        ([[0.1, 0.0, 0.1]], [1.0], ([0.0, 0.0, 5.0], 15.0), -15.0, "-2.79393", [-1]),
    ],
    ids=["body", "head"],
)
def test_verify_chain_reports_divergence_in_chain_time(
    scenarios, points, durations, head, begin, t, rows
):
    """``verify_chain`` reports a divergence as ``ConcatEvaluator`` does: in
    chain time, with chain segments as rows."""
    spec = scenarios["linear_saddle3d"].spec
    po = PseudoOrbit(spec, np.array(points), np.array(durations), 0.1, head=head)
    with pytest.raises(FlowDivergenceError) as err:
        verify_chain(po)
    assert str(err.value) == (
        f"linear_saddle3d: orbit from [0. 0. 5.] crossed norm 1e+06 at t={t} during integration"
    )
    assert list(err.value.rows) == rows
    assert err.value.t == pytest.approx(begin + math.log(2e5), abs=1e-6)


def test_generate_noisy_basic(scenarios):
    # isotropic kicks feed the expanding axis, so keep the chain short
    # enough that e^count * noise stays far from the divergence bound
    scen = scenarios["linear_saddle3d"]
    po = generate_noisy(scen.spec, (0.2, 0.2, 0.0), count=12, noise=1e-3, rng=7)
    assert po.size == 13
    assert np.all(po.durations == 1.0)
    assert 1e-3 < po.delta <= 1e-3 + 1.1e-8
    check = verify_chain(po)
    assert check.ok
    assert check.max_gap <= 1e-3 + 1e-8
    # the same seed reproduces the chain bit for bit
    again = generate_noisy(scen.spec, (0.2, 0.2, 0.0), count=12, noise=1e-3, rng=7)
    assert np.array_equal(po.points, again.points)
    other = generate_noisy(scen.spec, (0.2, 0.2, 0.0), count=12, noise=1e-3, rng=8)
    assert not np.array_equal(po.points, other.points)


def test_generate_noisy_subspace(scenarios):
    scen = scenarios["linear_saddle3d"]
    sub = np.eye(3)[:, :2]
    po = generate_noisy(
        scen.spec, (0.5, 0.5, 0.0), count=20, noise=1e-3, rng=3, noise_subspace=sub
    )
    # kicks confined to the contracting plane never touch the third axis
    assert np.all(po.points[:, 2] == 0.0)
    flow = CLOSED_FLOWS["linear_saddle3d"]
    for i in range(po.size - 1):
        jump = po.points[i + 1] - flow(po.points[i], 1.0)
        assert np.linalg.norm(jump) <= 1e-3 + 1e-8
    assert verify_chain(po).ok


def test_generate_noisy_validation(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    with pytest.raises(ValueError, match="count"):
        generate_noisy(spec, (0.1, 0.1, 0.0), count=0, noise=1e-3)
    with pytest.raises(ValueError, match="noise"):
        generate_noisy(spec, (0.1, 0.1, 0.0), count=1, noise=0.0)
    with pytest.raises(ValueError, match="step"):
        generate_noisy(spec, (0.1, 0.1, 0.0), count=1, noise=1e-3, step=0.5)
    with pytest.raises(ValueError, match="noise_subspace"):
        generate_noisy(
            spec, (0.1, 0.1, 0.0), count=1, noise=1e-3, noise_subspace=np.zeros((2, 1))
        )
    # a repeated axis would let reduced QR spread the noise onto a third one
    with pytest.raises(ValueError, match="noise_subspace columns must be linearly independent"):
        generate_noisy(
            spec, (0.1, 0.1, 0.0), count=1, noise=1e-3, noise_subspace=np.eye(3)[:, [2, 2]]
        )


def test_equilibrium_segment_chain_spacing(scenarios):
    scen = scenarios["neutral_line"]
    po = equilibrium_segment_chain(scen.spec, 0.4, 0.05)
    assert po.size == 6
    assert np.allclose(np.diff(po.points[:, 0]), 0.04)
    assert np.all(po.points[:, 1] == 0.0)
    assert po.head is not None and po.tail is not None
    assert np.array_equal(po.head[0], po.points[0])
    assert np.array_equal(po.tail[0], po.points[-1])
    check = verify_chain(po)
    assert check.ok
    # equilibria do not move, so each gap is the spatial spacing itself
    body = [v for label, v in check.gaps if "->" in label and "head" not in label and "tail" not in label]
    assert np.allclose(body, 0.04, atol=1e-9)


def test_equilibrium_segment_chain_rejects_moving_points(scenarios):
    with pytest.raises(ValueError, match="not an equilibrium"):
        equilibrium_segment_chain(scenarios["saddle_cycle"].spec, 0.4, 0.05)
    with pytest.raises(ValueError, match="positive"):
        equilibrium_segment_chain(scenarios["neutral_line"].spec, 0.0, 0.05)
    with pytest.raises(ValueError, match="positive"):
        equilibrium_segment_chain(scenarios["neutral_line"].spec, 0.4, -0.1)


def test_periodic_family_chain_structure(scenarios):
    scen = scenarios["center_cycle"]
    p = np.zeros(3)
    po = periodic_family_chain(scen.spec, p, (0.0, 0.2, 0.0), 20, TWO_PI)
    assert po.size == 20
    assert np.max(np.abs(po.durations - TWO_PI)) <= 1e-6
    assert abs(po.head[1] - TWO_PI) <= 1e-6
    # drift along the family advances the conserved coordinate uniformly
    assert np.allclose(np.diff(po.points[:, 1]), 0.01, atol=1e-7)
    check = verify_chain(po)
    assert check.ok
    gaps = [v for label, v in check.gaps if label not in ("head->head",)]
    assert max(gaps) <= 0.01 + 1e-6
    assert abs(po.delta - 1.5 * 0.2 / 20) <= 1e-12
    assert distance(scen.spec, po.tail[0], np.array([0.0, 0.2, 0.0])) <= 1e-6


def test_periodic_family_chain_builds_its_section_once(scenarios, monkeypatch):
    """A 50-point chain takes 55 solves: two for the period (the hinted
    section and p's return to it), one for the return derivative, one for the
    target section and one first return per point and for the tail.  Each
    duration is section_map's own return time, to the bit."""
    spec = scenarios["center_cycle"].spec
    solves = []
    solve = flow._solve

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow, "_solve", counted_solve)
    monkeypatch.setattr(poincare, "_solve", counted_solve)
    po = periodic_family_chain(spec, np.zeros(3), (0.0, 0.2, 0.0), 50, TWO_PI)
    assert len(solves) == 55
    monkeypatch.undo()
    for y, tau in [*zip(po.points[[0, 17, 49]], po.durations[[0, 17, 49]]), po.tail]:
        assert tau == poincare.section_map(spec, np.zeros(3), y, po.head[1], tol=1e-10).tau


def test_periodic_family_chain_validation(scenarios):
    scen = scenarios["center_cycle"]
    p = np.zeros(3)
    with pytest.raises(ValueError, match="at least 2"):
        periodic_family_chain(scen.spec, p, (0.0, 0.1, 0.0), 1, TWO_PI)
    with pytest.raises(ValueError, match="does not return"):
        periodic_family_chain(scen.spec, (0.0, 0.0, 0.3), (0.0, 0.1, 0.0), 5, TWO_PI)
    with pytest.raises(ValueError, match="normal space"):
        periodic_family_chain(scen.spec, p, (0.5, 0.1, 0.0), 5, TWO_PI)
    with pytest.raises(ValueError, match="nonzero"):
        periodic_family_chain(scen.spec, p, (0.0, 0.0, 0.0), 5, TWO_PI)
    with pytest.raises(ValueError, match="modulus-one"):
        periodic_family_chain(scen.spec, p, (0.0, 0.0, 0.1), 5, TWO_PI)
    cyc = scenarios["saddle_cycle"]
    with pytest.raises(ValueError, match="modulus-one"):
        periodic_family_chain(cyc.spec, (1.0, 0.0, 0.0), (0.1, 0.0, 0.0), 5, TWO_PI)


@pytest.mark.parametrize(
    "has_head, has_tail",
    [(0, 0), (1, 1), (0, 1), (1, 0)],
    ids=["no-ends", "both-ends", "tail-only", "head-only"],
)
def test_save_load_roundtrip(tmp_path, scenarios, has_head, has_tail):
    scen = scenarios["linear_saddle3d"]
    po = generate_noisy(scen.spec, (0.3, -0.4, 0.1), count=12, noise=2e-3, rng=11)
    po = PseudoOrbit(
        spec=scen.spec,
        points=po.points,
        durations=po.durations,
        delta=po.delta,
        head=(po.points[0], 1.25) if has_head else None,
        tail=(po.points[-1], 2.5) if has_tail else None,
    )
    path = tmp_path / "chain.txt"
    save_chain(po, path)
    lines = path.read_text().splitlines()
    assert lines[0].split()[2:] == [str(has_head), str(has_tail)]
    assert [line.split()[0] for line in lines[1:]] == [
        str(i) for i in range(-has_head, po.size + has_tail)
    ]
    back = load_chain(scen.spec, path)
    assert np.array_equal(back.points, po.points)
    assert np.array_equal(back.durations, po.durations)
    assert back.delta == po.delta
    if has_head:
        assert np.array_equal(back.head[0], po.head[0]) and back.head[1] == 1.25
    else:
        assert back.head is None
    if has_tail:
        assert np.array_equal(back.tail[0], po.tail[0]) and back.tail[1] == 2.5
    else:
        assert back.tail is None
    path2 = tmp_path / "chain2.txt"
    save_chain(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_chain_rejects_malformed(tmp_path, scenarios):
    spec = scenarios["linear_saddle3d"].spec
    p = tmp_path / "bad.txt"

    p.write_text("")
    with pytest.raises(ValueError, match="empty chain"):
        load_chain(spec, p)

    p.write_text("3 0.1\n")
    with pytest.raises(ValueError, match="header"):
        load_chain(spec, p)

    p.write_text("2 0.1 0 0\n0 1.0 0.0 0.0\n")
    with pytest.raises(ValueError, match="does not match spec"):
        load_chain(spec, p)

    p.write_text("3 0.1 1 1\n-1 1.0 0.0 0.0 0.0\n3 1.0 0.0 0.0 0.0\n")
    with pytest.raises(ValueError, match="no body rows"):
        load_chain(spec, p)

    p.write_text("3 0.1 0 0\n0 1.0 0.0 0.0\n")
    with pytest.raises(ValueError, match="fields"):
        load_chain(spec, p)

    p.write_text("3 0.1 0 0\n1 1.0 0.0 0.0 0.0\n")
    with pytest.raises(ValueError, match="row index"):
        load_chain(spec, p)

    # a flag other than 0 or 1 would misplace or drop rows
    rows = "".join(f"{i} 1.0 0.0 0.0 0.0\n" for i in (-1, 0, 1, 2))
    p.write_text("3 0.1 2 0\n" + rows)
    with pytest.raises(ValueError, match="header flags .* must be 0 or 1"):
        load_chain(spec, p)
