"""Acceptance checks: end-to-end behavior with pinned tolerances and budgets.

Each check runs inside the :func:`criterion` context manager, which records
a single PASS or FAIL line (echoed in the terminal summary) and enforces a
wall-clock budget.  Expected values are closed-form: segment length over
two, exponential rates of the built-in fields, ln(2)/3 for the domination
threshold, and the Green-function correction for the linear saddle.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import CLOSED_FLOWS, linear_chain_correction, sample_box_points
from flowlab.chain_graph import (
    build_chain_graph,
    chain_recurrent_cells,
    is_chain_transitive,
)
from flowlab.chains import (
    equilibrium_segment_chain,
    generate_noisy,
    periodic_family_chain,
    verify_chain,
)
from flowlab.flow import coord_difference, distance, flow_at, integrate, tangent_flow
from flowlab.poincare import (
    build_cocycle,
    classify_periodic,
    linear_poincare,
    normal_frame,
    section_map,
)
from flowlab.shadowing import (
    Reparametrization,
    SearchBudget,
    refute_by_conservation,
    search_shadowing,
)
from flowlab.splitting import (
    arc_to_periodic_orbit,
    check_domination,
    check_quasi_hyperbolic,
    estimate_splitting,
    fit_hyperbolic,
    uniform_periodic_estimates,
)

ACCEPTANCE_LINES = []


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.monotonic()
    try:
        yield
    except Exception:
        line = f"ACCEPTANCE {number} FAIL: {description}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_seconds:
        line = (
            f"ACCEPTANCE {number} FAIL: {description} "
            f"[{elapsed:.1f}s over the {budget_seconds:.0f}s budget]"
        )
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise AssertionError(line)
    line = (
        f"ACCEPTANCE {number} PASS: {description} "
        f"[{elapsed:.1f}s of {budget_seconds:.0f}s]"
    )
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_1_segment_chain_refuted_not_shadowed(scenarios):
    with criterion(1, 30.0, "equilibrium segment: chain verifies, bound 0.1, no witness"):
        spec = scenarios["neutral_line"].spec
        po = equilibrium_segment_chain(spec, 0.4, 0.05)
        check = verify_chain(po)
        assert check.ok

        cert = refute_by_conservation(spec, po, 0.05)
        assert cert is not None
        assert abs(cert.lower_bound - 0.1) <= 1e-9

        seed_region = np.array([[-0.1, 0.3], [-0.1, 0.1]])
        report = search_shadowing(spec, po, 0.05, seed_region, budget=SearchBudget())
        assert report.verdict == "not_found"
        assert report.stage == "lattice"
        assert report.distance >= 0.08
        assert "not a proof" in report.notes[0]


def test_criterion_2_periodic_family_chain(scenarios):
    with criterion(2, 60.0, "periodic family: gaps |v|/N, non-hyperbolic cycle, refuted"):
        spec = scenarios["center_cycle"].spec
        p0 = np.zeros(3)
        v = np.array([0.0, 0.2, 0.0])
        for n in (50, 100, 200):
            po = periodic_family_chain(spec, p0, v, n, period_hint=2.0 * math.pi)
            check = verify_chain(po)
            assert check.ok
            for label, gap in check.gaps:
                if label.startswith("head"):
                    assert gap <= 1e-8
                elif label == "tail->tail":
                    assert gap <= 1e-8
                else:
                    assert abs(gap - 0.2 / n) <= 1e-6
            cert = refute_by_conservation(spec, po, np.linalg.norm(v) / 4.0)
            assert cert is not None
            assert abs(cert.lower_bound - 0.1) <= 1e-9

        rep = classify_periodic(spec, p0, 2.0 * math.pi)
        assert not rep.hyperbolic
        assert min(abs(mu - 1.0) for mu in rep.spectrum) <= 1e-9


def test_criterion_3_noisy_saddle_chains_shadowed(scenarios):
    with criterion(3, 60.0, "noisy linear saddle: shadowed and matching the exact correction"):
        spec = scenarios["linear_saddle3d"].spec
        closed = CLOSED_FLOWS["linear_saddle3d"]
        x0 = np.array([0.9, 0.9, 0.0])
        seed_region = np.array([[0.898, 0.902], [0.898, 0.902], [0.0, 0.0]])
        budget = SearchBudget(candidates=50, refine_evals=40)
        for seed in (101, 202):
            po = generate_noisy(
                spec,
                x0,
                200,
                1e-4,
                rng=np.random.default_rng(seed),
                noise_subspace=np.eye(3)[:, :2],
            )
            assert verify_chain(po).ok
            report = search_shadowing(spec, po, 5e-3, seed_region, budget=budget)
            assert report.verdict == "shadowed"
            assert report.stage == "newton"
            assert report.distance <= 5e-3
            # |J^+| at the chain: above 1.5, at most the saddle's 1/(1 - e^-1)
            assert report.newton_residual <= 1e-9
            assert 1.5 < report.operator_inverse_norm <= 1.0 / (1.0 - math.exp(-1.0))

            # the corrected chain is an exact orbit of the diagonal flow
            green = po.points + linear_chain_correction(
                (-2.0, -1.0, 1.0), po.points, po.durations
            )
            h = Reparametrization(
                np.asarray(report.reparam_knots_t), np.asarray(report.reparam_knots_u)
            )
            worst = max(
                float(np.linalg.norm(closed(report.witness, h(float(i))) - green[i]))
                for i in range(po.size)
            )
            assert worst <= 1e-3


def test_criterion_4_domination_threshold_and_rates(scenarios):
    with criterion(4, 30.0, "domination flips at ln(2)/3 and the fit recovers both rates"):
        spec = scenarios["saddle_cycle"].spec
        cocycle = build_cocycle(spec, (1.0, 0.0, 0.0), 16.0, 0.005, t_start=-3.0)
        est = estimate_splitting(cocycle, 1)

        ls = np.round(np.arange(0.18, 0.3001, 0.004), 10)
        oks = np.array([check_domination(est, l).ok for l in ls])
        assert oks.any() and not oks.all()
        first_pass = float(ls[int(np.argmax(oks))])
        assert 0.21950 <= first_pass <= 0.24260
        assert not oks[: int(np.argmax(oks))].any()
        assert oks[int(np.argmax(oks)) :].all()

        fit = fit_hyperbolic(est)
        assert fit.ok
        assert fit.lambda_stable == pytest.approx(math.exp(-2.0), rel=0.02)
        assert fit.lambda_unstable == pytest.approx(math.exp(-1.0), rel=0.02)


def test_criterion_5_quasi_hyperbolic_arcs_and_closing(scenarios):
    with criterion(5, 60.0, "arc estimates split at the rate gap and the near-loop closes"):
        spec = scenarios["saddle_cycle"].spec
        on_cycle = np.array([1.0, 0.0, 0.0])
        cocycle = build_cocycle(spec, on_cycle, 16.0, 0.01, t_start=-3.0)
        est = estimate_splitting(cocycle, 1)
        good = check_quasi_hyperbolic(spec, on_cycle, 10.0, est, 0.5, 1.0)
        assert good.ok
        assert good.worst_slack == pytest.approx(0.5, abs=0.05)
        # the log-rate gap along the cycle is 3, so eta above 1.5 must fail
        assert np.allclose(good.slack_stepwise, 2.0, atol=0.1)
        bad = check_quasi_hyperbolic(spec, on_cycle, 10.0, est, 1.6, 1.0)
        assert not bad.ok
        assert bad.worst_slack == pytest.approx(-0.6, abs=0.05)

        arc_start = np.array([1.001, 0.0, 1e-5])
        tau = 2.0 * math.pi
        gap = distance(spec, flow_at(spec, arc_start, tau), arc_start)
        assert gap < 0.01
        arc_cocycle = build_cocycle(spec, arc_start, 10.84, 0.01, t_start=-2.0)
        arc_est = estimate_splitting(arc_cocycle, 1, window_time=2.0)
        cert = check_quasi_hyperbolic(spec, arc_start, tau, arc_est, 0.5, 1.0)
        assert cert.ok
        shadow = arc_to_periodic_orbit(spec, arc_start, tau, cert, 0.01)
        assert abs(shadow.period - 2.0 * math.pi) <= 1e-5
        assert shadow.distance <= 0.01


def test_criterion_6_uniform_periodic_estimates(scenarios):
    with criterion(6, 10.0, "uniform estimates: rate-gap slack equals 3 - 2*eta"):
        spec = scenarios["saddle_cycle"].spec
        rep = classify_periodic(spec, (1.0, 0.0, 0.0), 2.0 * math.pi)
        for eta, expected in ((0.5, 2.0), (1.0, 1.0)):
            out = uniform_periodic_estimates(spec, [rep], 1.0, eta)
            assert out.ok
            orbit = out.orbits[0]
            assert orbit["ok"]
            assert orbit["slack_rate_gap"] == pytest.approx(expected, rel=0.02)


def test_criterion_7_chain_graphs(scenarios):
    with criterion(7, 120.0, "recurrence localizes at the origin and covers the cycle"):
        saddle = scenarios["linear_saddle3d"].spec
        g1 = build_chain_graph(saddle, [[-1.0, 1.0]] * 3, 0.1, 0.05, 2.0, t_samples=4)
        assert g1.edge_count() == 66_984
        rec1 = chain_recurrent_cells(g1)
        assert len(rec1) > 0
        assert np.linalg.norm(g1.cell_center(rec1), axis=1).max() <= 0.2

        cyc = scenarios["saddle_cycle"].spec
        region = [[-1.25, 1.25], [-1.25, 1.25], [-0.25, 0.25]]
        g2 = build_chain_graph(cyc, region, 0.1, 0.05, 2.0, t_samples=4)
        assert g2.edge_count() == 33_289
        theta = np.linspace(0.0, 2.0 * math.pi, 129)[:-1]
        pts = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
        idx = np.floor((pts - np.asarray(region)[:, 0]) / 0.1).astype(int)
        cover = np.unique(np.ravel_multi_index(idx.T, g2.shape))
        rec2 = chain_recurrent_cells(g2)
        assert np.all(np.isin(cover, rec2))
        labels = g2.scc_labels()
        assert len(set(labels[cover].tolist())) == 1
        assert is_chain_transitive(g2, cover)


def _fast_points(scen, rng, count, min_speed):
    kept = []
    for _ in range(50):
        for x in sample_box_points(scen, rng, count):
            if np.linalg.norm(scen.spec.field_at(x)) >= min_speed:
                kept.append(x)
        if len(kept) >= count:
            return np.asarray(kept[:count])
    raise AssertionError(f"not enough fast points in {scen.facts.name}")


def test_criterion_8_numerical_hygiene(scenarios, rng):
    with criterion(8, 120.0, "group law, cocycle law, section maps, frames, invariants"):
        for name in sorted(scenarios):
            scen = scenarios[name]
            spec = scen.spec

            for x in sample_box_points(scen, rng, 100):
                s, t = rng.uniform(0.2, 1.0, size=2)
                two_step = flow_at(spec, flow_at(spec, x, t), s)
                assert distance(spec, two_step, flow_at(spec, x, s + t)) <= 1e-8

            for x in sample_box_points(scen, rng, 100):
                s, t = rng.uniform(0.2, 1.0, size=2)
                x_t, d_t = tangent_flow(spec, x, t)
                _, d_s = tangent_flow(spec, x_t, s)
                _, d_st = tangent_flow(spec, x, s + t)
                assert np.max(np.abs(d_s @ d_t - d_st)) <= 1e-5

            # derivative of the section-to-section map against differences
            # of actual crossings
            h = 1e-5
            for x in _fast_points(scen, rng, 100, 0.05):
                psi = linear_poincare(spec, x, 0.5)
                frame = normal_frame(spec, x)
                end_frame = normal_frame(spec, flow_at(spec, x, 0.5))
                for j in range(frame.shape[1]):
                    plus = section_map(spec, x, x + h * frame[:, j], 0.5).point
                    minus = section_map(spec, x, x - h * frame[:, j], 0.5).point
                    col = end_frame.T @ coord_difference(spec, plus, minus) / (2.0 * h)
                    assert np.max(np.abs(col - psi[:, j])) <= 1e-3

            for x in _fast_points(scen, rng, 100, 1e-3):
                frame = normal_frame(spec, x)
                gram = frame.T @ frame
                assert np.max(np.abs(gram - np.eye(frame.shape[1]))) <= 1e-10
                v = spec.field_at(x)
                assert np.max(np.abs(frame.T @ (v / np.linalg.norm(v)))) <= 1e-10

            if spec.conserved is not None:
                for x in sample_box_points(scen, rng, 100):
                    q0 = spec.conserved.func(x)
                    traj = integrate(spec, x, (0.0, 50.0))
                    for t in np.linspace(0.0, 50.0, 11):
                        assert abs(spec.conserved.func(traj.at(t)) - q0) <= 1e-7
