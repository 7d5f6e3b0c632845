"""Curve matching, reparametrized shadowing search, and refutation."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from flowlab import (
    FlowDivergenceError,
    PseudoOrbit,
    Reparametrization,
    SearchBudget,
    best_reparam,
    distance,
    equilibrium_segment_chain,
    flow_at,
    frechet_match,
    generate_noisy,
    pairwise_distances,
    refute_by_conservation,
    search_shadowing,
    shadow_distance,
)
from flowlab import flow, shadowing
from oracles import brute_frechet, brute_frechet_pairs, linear_saddle_flow, sample_box_points


@pytest.fixture(scope="module")
def cycle_chain(scenarios):
    # exact orbit of saddle_cycle cut into four unit-time segments
    spec = scenarios["saddle_cycle"].spec
    pts = [np.array([1.1, 0.0, 1e-3])]
    for _ in range(4):
        pts.append(flow_at(spec, pts[-1], 1.0))
    po = PseudoOrbit(spec, np.array(pts[:-1]), np.full(4, 1.0), 1e-6)
    return spec, po


@pytest.fixture(scope="module")
def noisy_saddle_chain(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    po = generate_noisy(
        spec,
        np.array([0.9, 0.9, 0.0]),
        10,
        1e-4,
        rng=np.random.default_rng(7),
        noise_subspace=np.eye(3)[:, :2],
    )
    return spec, po


@pytest.mark.parametrize(
    "kt, ku, message",
    [
        ([0.0, 1.0], [0.0], "matching 1-d knot arrays"),
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing"),
        ([0.0, 1.0], [0.0, 20.0], "segment slopes"),
        ([0.0, 1.0], [0.0, 0.01], "segment slopes"),
        ([1.0, 2.0], [1.0, 2.0], "is required"),
        ([0.0, math.nan], [0.0, 1.0], "finite and strictly increasing"),
        ([0.0, 1.0], [0.0, math.nan], "segment slopes"),
    ],
)
def test_reparametrization_validation(kt, ku, message):
    with pytest.raises(ValueError, match=message):
        Reparametrization(kt, ku)


def test_reparametrization_evaluation():
    h = Reparametrization([-1.0, 0.0, 2.0], [-2.0, 0.0, 1.0])
    assert h(0.0) == 0.0
    assert isinstance(h(0.3), float)
    assert h(-0.5) == pytest.approx(-1.0)
    assert h(1.0) == pytest.approx(0.5)
    # extrapolation continues the end segment slopes
    assert h(-2.0) == pytest.approx(-4.0)
    assert h(3.0) == pytest.approx(1.5)
    assert h(np.array([-1.0, 0.0, 2.0])) == pytest.approx([-2.0, 0.0, 1.0])
    ident = Reparametrization.identity((-2.0, 5.0))
    ts = np.linspace(-4.0, 7.0, 23)
    assert ident(ts) == pytest.approx(ts)
    # a knot within 1e-9 of the origin is snapped onto it
    snapped = Reparametrization([-1e-10, 1.0], [5e-10, 1.0])
    assert snapped.knots_t[0] == 0.0
    assert snapped.knots_u[0] == 0.0


def test_pairwise_distances_equal_the_coordinate_difference_norm(scenarios, rng):
    """The per-coordinate kernel gives np.linalg.norm of coord_difference bit for
    bit on every built-in, for a 2-d and a stacked ``b``; angle coordinates are
    moved by whole periods so that wrapping matters."""
    for name, scen in scenarios.items():
        spec = scen.spec
        a = sample_box_points(scen, rng, 7)
        b = sample_box_points(scen, rng, 3 * 5).reshape(3, 5, spec.dim)
        turns = rng.integers(-2, 3, size=b.shape) * np.where(spec.angle_mask, spec.periods, 0.0)
        b = b + turns
        for other in (b[0], b, b[None]):
            expected = np.linalg.norm(
                flow.coord_difference(spec, a[:, None], other[..., None, :, :]), axis=-1
            )
            got = pairwise_distances(spec, a, other)
            assert got.shape == other.shape[:-2] + (7, 5)
            assert np.array_equal(got, expected), name
    assert scenarios["center_cycle"].spec.angle_mask.any()


def test_pairwise_distances_wrap_angles(scenarios, rng):
    scen = scenarios["center_cycle"]
    d = pairwise_distances(
        scen.spec,
        np.array([[0.1, 0.0, 0.0]]),
        np.array([[2.0 * math.pi - 0.1, 0.5, 0.0]]),
    )
    assert d.shape == (1, 1)
    assert d[0, 0] == pytest.approx(math.hypot(0.2, 0.5), abs=1e-12)
    a = sample_box_points(scen, rng, 5)
    b = sample_box_points(scen, rng, 7)
    d = pairwise_distances(scen.spec, a, b)
    assert d.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            assert d[i, j] == pytest.approx(distance(scen.spec, a[i], b[j]), abs=1e-12)


def test_frechet_match_agrees_with_bruteforce(rng):
    for _ in range(25):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        d = rng.uniform(0.0, 1.0, size=(m, k))
        value, pairs = frechet_match(d)
        assert value == pytest.approx(brute_frechet(d), abs=1e-12)
        assert tuple(pairs[0]) == (0, 0)
        assert tuple(pairs[-1]) == (m - 1, k - 1)
        steps = np.diff(pairs, axis=0)
        assert np.all((steps >= 0) & (steps <= 1))
        assert np.all(steps.sum(axis=1) >= 1)
        # every row and every column is visited, and the value is attained
        assert set(pairs[:, 0].tolist()) == set(range(m))
        assert set(pairs[:, 1].tolist()) == set(range(k))
        assert value == pytest.approx(max(d[i, j] for i, j in pairs), abs=1e-12)
        # the same path as the nested-loop table with the same tie order
        assert np.array_equal(pairs, brute_frechet_pairs(d))


def test_stacked_frechet_values_equal_per_matrix_match(rng):
    """The lattice's stacked DP gives each matrix's frechet_match value bit
    for bit, on random, non-square, one-row, one-column and all-tie stacks."""
    shapes = [(4, 9, 7), (3, 1, 6), (5, 6, 1), (2, 1, 1), (6, 8, 8)]
    for n, m, k in shapes:
        stacks = [rng.uniform(0.0, 1.0, size=(n, m, k)), np.round(rng.uniform(size=(n, m, k)))]
        stacks.append(np.full((n, m, k), 0.25))
        for d in stacks:
            skew, view = shadowing._skewed(d.shape)
            view[...] = d
            values = shadowing._frechet_values(skew)
            assert values.shape == (n,)
            for row, value in zip(d, values):
                assert value == frechet_match(row)[0]
                assert value == brute_frechet(row)
    # a constant matrix ties everywhere: read back from the end, the path
    # takes the diagonal while it can
    _, pairs = frechet_match(np.full((3, 5), 0.25))
    assert pairs.tolist() == [[0, 0], [0, 1], [0, 2], [1, 3], [2, 4]]


def objective(obj, y):
    # the objective of one candidate, scored on its own
    try:
        return obj.fit(y).distance
    except FlowDivergenceError:
        return np.inf


def per_candidate_scan(self, lattice):
    # the lattice as the per-candidate objective scores it, in one block
    ys = np.array(list(lattice), dtype=float)
    yield ys, np.array([objective(self, y) for y in ys])


def scanned(obj, region, n_points):
    blocks = list(obj.scan(itertools.product(*shadowing._coarse_axes(region, n_points))))
    return [len(ys) for ys, _ in blocks], np.concatenate([ys for ys, _ in blocks]), np.concatenate(
        [v for _, v in blocks]
    )


def recorded_scans(monkeypatch):
    # every (ys, values) block the search scores, in order
    blocks = []
    scan = shadowing._MatchObjective.scan

    def recording(self, lattice):
        for ys, values in scan(self, lattice):
            blocks.append((ys, values))
            yield ys, values

    monkeypatch.setattr(shadowing._MatchObjective, "scan", recording)
    return blocks


def test_coarse_axes_share_the_budget_among_live_axes():
    # criterion 3's box is flat in z: its budget of 10 gives 3 x 3 points
    axes = shadowing._coarse_axes(np.array([[0.898, 0.902], [0.898, 0.902], [0.0, 0.0]]), 10)
    assert [len(a) for a in axes] == [3, 3, 1]
    assert axes[2].tolist() == [0.0]
    # criterion 1's box: 0.5 * (lo + hi) - 0.5 * (hi - lo) rounds below lo = -0.1
    region = np.array([[-0.1, 0.3], [-0.1, 0.1]])
    axes = shadowing._coarse_axes(region, 800)
    assert [len(a) for a in axes] == [27, 27]
    assert all(a[0] == lo and a[-1] == hi for a, (lo, hi) in zip(axes, region))
    # an exact integer root: 125 ** (1/3) reads 4.999..., which floors to 3 x 3 x 3
    cube = np.array([[0.0, 1.0]] * 3)
    sizes = [[len(a) for a in shadowing._coarse_axes(cube, n)] for n in (26, 27, 124, 125, 342, 343)]
    assert sizes == [[k] * 3 for k in (1, 3, 3, 5, 5, 7)]


def test_lattice_scan_matches_per_candidate_objective(scenarios, monkeypatch):
    """Criterion 1's 729-point lattice: one batched block whose values agree
    with the per-candidate objective to 1e-9, so the search is unchanged when
    the lattice and the refinement are scored point by point."""
    spec = scenarios["neutral_line"].spec
    po = equilibrium_segment_chain(spec, 0.4, 0.05)
    region = np.array([[-0.1, 0.3], [-0.1, 0.1]])
    horizon = (-3.0, po.total_time + 3.0)
    obj = shadowing._MatchObjective(spec, po, horizon)
    sizes, ys, batched = scanned(obj, region, 800)
    assert sizes == [729]
    assert obj.evaluations == 729
    solo = np.array([objective(obj, y) for y in ys])
    assert np.all(np.isfinite(solo))
    assert np.max(np.abs(batched - solo)) <= 1e-9
    assert np.argmin(batched) == np.argmin(solo)

    report = search_shadowing(spec, po, 0.05, region, budget=SearchBudget())
    assert report.coarse_candidates == 729

    def replay(self, lattice):
        # the lattice's per-candidate values computed above, without scoring
        # them again; the refinement is scored point by point
        lattice = list(lattice)
        if np.array_equal(lattice, ys):
            self.evaluations += len(ys)
            yield ys, solo
            return
        yield from per_candidate_scan(self, lattice)

    monkeypatch.setattr(shadowing._MatchObjective, "scan", replay)
    assert search_shadowing(spec, po, 0.05, region, budget=SearchBudget()) == report


def test_lattice_scan_across_blocks(scenarios, monkeypatch):
    """Blocks are sized by orbit entries (9 times x 2 coordinates per row) and
    matched in stacks of at most ``_SKEW_ENTRIES`` skew entries (17 x 10 per row)."""
    spec = scenarios["neutral_line"].spec
    po = equilibrium_segment_chain(spec, 0.4, 0.05)
    region = np.array([[-0.1, 0.3], [-0.1, 0.1]])
    obj = shadowing._MatchObjective(spec, po, (-3.0, po.total_time + 3.0))
    assert (len(obj.t_grid), len(obj.u_grid), spec.dim) == (9, 9, 2)
    stacks = []
    frechet = shadowing._frechet_values

    def recorded(skew, choice=None):
        if choice is None:  # a stack of the scan, not a solo frechet_match
            stacks.append(skew.shape)
        return frechet(skew, choice)

    monkeypatch.setattr(shadowing, "_frechet_values", recorded)
    # solves of 40 rows over a 169-point lattice, matched 9 rows at a time
    monkeypatch.setattr(shadowing, "_SCAN_ENTRIES", 18 * 40 + 17)
    monkeypatch.setattr(shadowing, "_SKEW_ENTRIES", 170 * 9 + 169)
    sizes, ys, batched = scanned(obj, region, 200)
    assert sizes == [40, 40, 40, 40, 9]
    assert [n for _, n, _ in stacks] == [9, 9, 9, 9, 4] * 4 + [9]
    assert {(d, w) for d, _, w in stacks} == {(17, 10)}
    assert obj.evaluations == 169
    solo = np.array([objective(obj, y) for y in ys])
    assert np.max(np.abs(batched - solo)) <= 1e-9
    assert np.argmin(batched) == np.argmin(solo)
    # one row per solve and per stack when a single candidate exceeds the bound
    monkeypatch.setattr(shadowing, "_SCAN_ENTRIES", 17)
    monkeypatch.setattr(shadowing, "_SKEW_ENTRIES", 169)
    stacks.clear()
    sizes, ys1, batched1 = scanned(obj, region, 9)
    assert sizes == [1] * 9
    assert [n for _, n, _ in stacks] == [1] * 9
    assert np.max(np.abs(batched1 - np.array([objective(obj, y) for y in ys1]))) <= 1e-9


def test_scan_stacks_stay_within_the_skew_cap_and_match_exactly(scenarios, monkeypatch):
    """On a 202-sample chain a row takes 403 x 203 skew entries, so the default
    cap stacks 3 rows: a 9-point block is matched in 3 sweeps, each within the
    cap, and every value equals frechet_match of pairwise_distances bit for bit
    on the orbit points the scan solved for."""
    spec = scenarios["linear_saddle3d"].spec
    po = generate_noisy(
        spec, np.array([0.9, 0.9, 0.0]), 200, 1e-4,
        rng=np.random.default_rng(101), noise_subspace=np.eye(3)[:, :2],
    )
    obj = shadowing._MatchObjective(spec, po, (0.0, po.total_time))
    assert len(obj.t_grid) == len(obj.u_grid) == 202
    solved, stacks = [], []
    orbit_points, frechet = shadowing._orbit_points, shadowing._frechet_values

    def recorded_orbits(*args):
        solved.append(orbit_points(*args))
        return solved[-1]

    def recorded_stacks(skew, choice=None):
        stacks.append(skew.shape)
        assert skew.size <= shadowing._SKEW_ENTRIES
        return frechet(skew, choice)

    monkeypatch.setattr(shadowing, "_orbit_points", recorded_orbits)
    monkeypatch.setattr(shadowing, "_frechet_values", recorded_stacks)
    region = np.array([[0.898, 0.902], [0.898, 0.902], [0.0, 0.0]])
    sizes, ys, batched = scanned(obj, region, 9)
    assert sizes == [9]
    assert stacks == [(403, 3, 203)] * 3
    monkeypatch.undo()
    assert len(solved) == 1
    for o_pts, value in zip(solved[0], batched):
        assert value == frechet_match(pairwise_distances(spec, obj.c_pts, o_pts))[0]


def test_lattice_scan_scores_escaping_candidates_inf(scenarios):
    """z grows like e^t over the 41-unit horizon, so every lattice point off
    the z = 0 plane leaves the divergence bound; those read inf and only those."""
    spec = scenarios["linear_saddle3d"].spec
    po = generate_noisy(
        spec,
        np.array([0.9, 0.9, 0.0]),
        40,
        1e-4,
        rng=np.random.default_rng(7),
        noise_subspace=np.eye(3)[:, :2],
    )
    region = np.array([[0.899, 0.901], [0.899, 0.901], [-0.01, 0.01]])
    obj = shadowing._MatchObjective(spec, po, (0.0, po.total_time))
    sizes, ys, batched = scanned(obj, region, 27)
    assert sizes == [27]
    assert obj.evaluations == 27
    solo = np.array([objective(obj, y) for y in ys])
    assert np.isinf(solo).sum() == 18
    assert np.array_equal(np.isinf(batched), np.isinf(solo))
    assert np.array_equal(np.isinf(batched), ys[:, 2] != 0.0)
    finite = np.isfinite(solo)
    assert np.max(np.abs(batched[finite] - solo[finite])) <= 1e-9


def test_search_budget_validation():
    assert SearchBudget(candidates=5, refine_evals=4).refine_evals == 4
    assert SearchBudget(candidates=1, refine_evals=0).candidates == 1
    for candidates, refine_evals in ((5, 30), (5, 5)):
        with pytest.raises(ValueError, match="0 <= refine_evals < candidates"):
            SearchBudget(candidates=candidates, refine_evals=refine_evals)
    # each count's own least comes first
    for name, least, value, budget in (("candidates", 1, 0, (0, 0)), ("refine_evals", 0, -1, (10, -1))):
        message = rf"^{name} must be at least {least}, as an integer \(got {name}={value}\)$"
        with pytest.raises(ValueError, match=message):
            SearchBudget(*budget)


def test_frechet_match_prefers_diagonal():
    d = np.full((4, 4), 1.0)
    np.fill_diagonal(d, 0.0)
    value, pairs = frechet_match(d)
    assert value == 0.0
    assert np.array_equal(pairs, np.column_stack([np.arange(4), np.arange(4)]))


def test_frechet_match_rejects_bad_matrix():
    with pytest.raises(ValueError, match="2-d and nonempty"):
        frechet_match(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="2-d and nonempty"):
        frechet_match(np.zeros(4))


def test_shadow_distance_identity_on_exact_chain(cycle_chain):
    spec, po = cycle_chain
    h = Reparametrization.identity((0.0, po.total_time))
    sd = shadow_distance(spec, po.points[0], h, po, (0.0, po.total_time))
    assert sd <= 1e-8


def test_shadow_distance_sees_divergence(cycle_chain):
    # a vertical offset grows like e^t along the cycle
    spec, po = cycle_chain
    h = Reparametrization.identity((0.0, po.total_time))
    y = po.points[0] + np.array([0.0, 0.0, 1e-3])
    sd = shadow_distance(spec, y, h, po, (0.0, po.total_time))
    assert sd >= 1e-3 * math.exp(4.0) * 0.9


def test_shadow_distance_rejects_empty_horizon(cycle_chain):
    spec, po = cycle_chain
    h = Reparametrization.identity((0.0, 1.0))
    with pytest.raises(ValueError, match="positive length"):
        shadow_distance(spec, po.points[0], h, po, (1.0, 1.0))
    with pytest.raises(ValueError, match=r"finite with positive length \(got 0.0 to nan\)"):
        shadow_distance(spec, po.points[0], h, po, (0.0, math.nan))


def test_best_reparam_identity_on_exact_chain(cycle_chain):
    spec, po = cycle_chain
    for kwargs in ({}, {"chain_samples": 41, "orbit_samples": 41}):
        fit = best_reparam(spec, po.points[0], po, (0.0, po.total_time), **kwargs)
        assert fit.distance <= 1e-8
        assert fit.shift == 0.0
        assert np.array_equal(fit.y_anchored, po.points[0])
        ts = np.linspace(0.0, po.total_time, 101)
        assert np.max(np.abs(fit.h(ts) - ts)) <= 1e-8


def test_best_reparam_shift_anchors_candidate(cycle_chain):
    """Averaged matched clocks shift the candidate so that h(0) = 0."""
    spec, po = cycle_chain
    fit = best_reparam(spec, po.points[0], po, (0.0, po.total_time), orbit_samples=81)
    # each sparse chain knot collects a range of orbit clocks, so the
    # anchor row's mean is strictly positive and absorbed into the shift
    assert 0.05 <= fit.shift <= 0.5
    assert fit.h(0.0) == 0.0
    assert distance(spec, fit.y_anchored, flow_at(spec, po.points[0], fit.shift)) <= 1e-9
    assert fit.distance <= 0.7


def test_best_reparam_on_time_shifted_candidate(cycle_chain):
    """A pure time shift costs about shift x speed at the pinned corners."""
    spec, po = cycle_chain
    y = flow_at(spec, po.points[0], -0.3)
    fit = best_reparam(
        spec, y, po, (0.0, po.total_time), chain_samples=81, orbit_samples=81
    )
    assert 0.15 <= fit.distance <= 0.5
    assert fit.h(0.0) == 0.0
    assert distance(spec, fit.y_anchored, flow_at(spec, y, fit.shift)) <= 1e-9
    slopes = np.diff(fit.h.knots_u) / np.diff(fit.h.knots_t)
    assert np.all(slopes >= 0.1 - 1e-9)
    assert np.all(slopes <= 10.0 + 1e-9)


def test_best_reparam_needs_zero_in_horizon(cycle_chain):
    spec, po = cycle_chain
    with pytest.raises(ValueError, match="contain t = 0"):
        best_reparam(spec, po.points[0], po, (1.0, 2.0))


def test_search_shadowing_finds_witness(noisy_saddle_chain):
    # the lattice stage, which search_shadowing skips on this chain
    spec, po = noisy_saddle_chain
    budget = SearchBudget(candidates=60, refine_evals=25, eval_samples=65)
    region = np.array([[0.898, 0.902], [0.898, 0.902], [0.0, 0.0]])
    report = shadowing._lattice_search(spec, po, 5e-3, region, budget)
    assert report.verdict == "shadowed"
    assert report.distance < 5e-3
    w = np.asarray(report.witness)
    assert np.linalg.norm(w - np.array([0.9, 0.9, 0.0])) <= 5e-3
    assert report.horizon == (0.0, po.total_time)
    assert report.coarse_candidates == 25
    assert report.evaluations >= report.coarse_candidates
    assert "not a proof" in report.notes[0]
    # the witness survives re-verification on a four times finer grid
    h = Reparametrization(report.reparam_knots_t, report.reparam_knots_u)
    dense = shadow_distance(spec, w, h, po, report.horizon, samples=1041)
    assert dense < 5e-3
    payload = report.to_dict()
    assert payload["schema"] == "flowlab.shadow-search/1"
    assert payload["verdict"] == "shadowed"
    assert payload["witness"] == list(report.witness)


def test_search_shadowing_deterministic(noisy_saddle_chain):
    spec, po = noisy_saddle_chain
    budget = SearchBudget(candidates=30, refine_evals=10, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [0.0, 0.0]])
    a = search_shadowing(spec, po, 2e-3, region, budget=budget)
    b = search_shadowing(spec, po, 2e-3, region, budget=budget)
    assert a == b
    assert a.stage == "newton"
    a = shadowing._lattice_search(spec, po, 2e-3, region, budget)
    b = shadowing._lattice_search(spec, po, 2e-3, region, budget)
    assert a == b


def test_search_counts_each_diverging_evaluation_once(noisy_saddle_chain, monkeypatch):
    # z grows like e^t, so the seed box's outer z layers leave the divergence
    # bound within the chain's horizon while its middle layer does not; the
    # scans score escaped points inf, and only the final fit calls fit
    spec, po = noisy_saddle_chain
    blocks = recorded_scans(monkeypatch)
    fits = []
    fit = shadowing._MatchObjective.fit

    def counted_fit(self, y):
        fits.append(y)
        return fit(self, y)

    monkeypatch.setattr(shadowing._MatchObjective, "fit", counted_fit)
    budget = SearchBudget(candidates=54, refine_evals=27, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [-100.0, 100.0]])
    report = shadowing._lattice_search(spec, po, 2e-3, region, budget)
    assert report.coarse_candidates == 27
    assert len(fits) == 1 and fits[0][2] == 0.0
    values = np.concatenate([v for _, v in blocks])
    assert np.isinf(values).any() and np.isfinite(values).any()
    assert len(values) == 27 + 26 and np.isinf(values[27:]).any()
    assert report.evaluations == len(values) + len(fits)


def refinement_points(blocks, coarse):
    # the points and values the refinement scored, after the lattice's
    ys = np.concatenate([ys for ys, _ in blocks])
    values = np.concatenate([v for _, v in blocks])
    return ys[coarse:], values[coarse:]


def test_refinement_stays_in_the_seed_box(noisy_saddle_chain, monkeypatch):
    """The box's lower x edge sits above the witness (x near 0.9), so the
    lattice's best point lies on that edge and its cell is clipped there; no
    scored point leaves the box and the flat z axis never moves."""
    spec, po = noisy_saddle_chain
    blocks = recorded_scans(monkeypatch)
    region = np.array([[0.9005, 0.902], [0.898, 0.902], [0.0, 0.0]])
    budget = SearchBudget(candidates=60, refine_evals=25, eval_samples=65)
    report = shadowing._lattice_search(spec, po, 5e-3, region, budget)
    ys, values = refinement_points(blocks, report.coarse_candidates)
    assert len(ys) == 24
    assert np.all(np.isfinite(values))
    assert np.all((region[:, 0] <= ys) & (ys <= region[:, 1]))
    assert np.all(ys[:, 2] == 0.0)
    assert np.any(ys[:, 0] == region[0, 0])


@pytest.mark.parametrize(
    "candidates, refine_evals, k", [(30, 10, 3), (60, 25, 5), (12, 11, 3), (10, 0, 1)]
)
def test_search_evaluations_within_budget(noisy_saddle_chain, candidates, refine_evals, k):
    # the refinement scores a k x k lattice over the best point's cell, less
    # that point, with k the largest odd k with k**2 <= refine_evals
    spec, po = noisy_saddle_chain
    budget = SearchBudget(candidates=candidates, refine_evals=refine_evals, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [0.0, 0.0]])
    report = shadowing._lattice_search(spec, po, 2e-3, region, budget)
    assert report.evaluations <= report.coarse_candidates + refine_evals + 1
    assert report.evaluations <= candidates + 1
    assert report.evaluations == report.coarse_candidates + k**2 - 1 + 1


def test_refinement_values_match_solo_objective(noisy_saddle_chain, monkeypatch):
    """The refinement is one batched scan; its values equal the objective of
    each point on its own to 1e-9 (relative above 1), and escaped points read
    inf in both."""
    spec, po = noisy_saddle_chain
    blocks = recorded_scans(monkeypatch)
    budget = SearchBudget(candidates=57, refine_evals=30, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [-100.0, 100.0]])
    report = shadowing._lattice_search(spec, po, 2e-3, region, budget)
    ys, batched = refinement_points(blocks, report.coarse_candidates)
    assert len(ys) == 26
    obj = shadowing._MatchObjective(spec, po, report.horizon)
    solo = np.array([objective(obj, y) for y in ys])
    assert np.isinf(solo).any() and np.isfinite(solo).any()
    assert np.array_equal(np.isinf(batched), np.isinf(solo))
    finite = np.isfinite(solo)
    assert np.all(np.abs(batched[finite] - solo[finite]) <= 1e-9 * (1.0 + solo[finite]))


@pytest.mark.parametrize(
    "region",
    [[[0.899, 0.901], [0.899, 0.901], [0.0, 0.0]], [[0.9005, 0.902], [0.898, 0.902], [0.0, 0.0]]],
)
def test_refinement_lies_in_the_best_cell(noisy_saddle_chain, monkeypatch, region):
    """Every refinement point lies within half a lattice spacing of the
    lattice's best point on each axis and inside the seed box, and none is a
    lattice point; the second box clips the best point's cell at its x edge."""
    spec, po = noisy_saddle_chain
    blocks = recorded_scans(monkeypatch)
    region = np.array(region)
    budget = SearchBudget(candidates=60, refine_evals=25, eval_samples=65)
    shadowing._lattice_search(spec, po, 5e-3, region, budget)
    coarse = np.concatenate([ys for ys, _ in blocks])[:25]
    best = coarse[np.argmin(np.concatenate([v for _, v in blocks])[:25])]
    ys, _ = refinement_points(blocks, 25)
    assert len(ys) == 24
    spacing = np.array([a[1] - a[0] for a in shadowing._coarse_axes(region, 35)[:2]])
    assert np.all(np.abs(ys[:, :2] - best[:2]) <= 0.5 * spacing * (1.0 + 1e-12))
    assert np.all((region[:, 0] <= ys) & (ys <= region[:, 1]))
    assert not np.any(np.all(ys[:, None, :] == coarse[None, :, :], axis=2))


def test_refinement_is_one_scan_after_the_lattice(noisy_saddle_chain, monkeypatch):
    spec, po = noisy_saddle_chain
    calls = []
    scan = shadowing._MatchObjective.scan

    def counted_scan(self, lattice):
        calls.append(len(lattice := list(lattice)))
        yield from scan(self, lattice)

    monkeypatch.setattr(shadowing._MatchObjective, "scan", counted_scan)
    budget = SearchBudget(candidates=60, refine_evals=25, eval_samples=65)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [0.0, 0.0]])
    report = shadowing._lattice_search(spec, po, 5e-3, region, budget)
    assert calls == [25, 24]
    assert report.evaluations == 25 + 24 + 1


def test_refinement_needs_three_points_per_live_axis(noisy_saddle_chain, monkeypatch):
    """With 3 live axes a refinement budget below 27 holds a 1-point lattice,
    the best point itself: nothing is refined and the lattice best is fitted."""
    spec, po = noisy_saddle_chain
    blocks = recorded_scans(monkeypatch)
    fits = []
    fit = shadowing._MatchObjective.fit

    def counted_fit(self, y):
        fits.append(y)
        return fit(self, y)

    monkeypatch.setattr(shadowing._MatchObjective, "fit", counted_fit)
    budget = SearchBudget(candidates=53, refine_evals=26, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [-1e-3, 1e-3]])
    report = shadowing._lattice_search(spec, po, 2e-3, region, budget)
    ys = np.concatenate([ys for ys, _ in blocks])
    values = np.concatenate([v for _, v in blocks])
    assert report.coarse_candidates == len(ys) == 27
    assert report.evaluations == 27 + 1
    assert np.array_equal(fits, [ys[np.argmin(values)]])


def test_escaping_rows_cost_one_solve_per_escape_time(scenarios, monkeypatch):
    """Rows at the divergence bound are dropped and the rest solved again as
    one batch: 1 + (distinct escape times) solves.  +-z escape together, and
    a row that starts beyond the bound escapes at t = 0."""
    spec = scenarios["linear_saddle3d"].spec
    po = generate_noisy(
        spec,
        np.array([0.9, 0.9, 0.0]),
        40,
        1e-4,
        rng=np.random.default_rng(7),
        noise_subspace=np.eye(3)[:, :2],
    )
    obj = shadowing._MatchObjective(spec, po, (0.0, po.total_time))
    rows = []
    solve = flow._solve

    def counted_solve(*args, **kwargs):
        rows.append(kwargs["rows"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow, "_solve", counted_solve)
    zs = [0.0, 1e-2, -1e-2, 1e-3, 2e6, 0.0, 2e-3, -2e-3]
    lattice = [[0.9, 0.9 + 1e-4 * i, z] for i, z in enumerate(zs)]
    ((ys, batched),) = obj.scan(lattice)
    assert rows == [8, 7, 5, 3, 2]
    assert obj.evaluations == 8
    assert np.array_equal(np.isinf(batched), ys[:, 2] != 0.0)
    monkeypatch.setattr(flow, "_solve", solve)
    solo = np.array([objective(obj, y) for y in ys])
    assert np.array_equal(np.isinf(batched), np.isinf(solo))
    finite = np.isfinite(solo)
    assert np.max(np.abs(batched[finite] - solo[finite])) <= 1e-9


def test_criterion_3_search_solves_once_per_round(scenarios, monkeypatch):
    """Criterion 3's lattice stage (seed 101) solves the chain samples, the
    9-point lattice, the 24-point refinement, the final fit and the dense
    verification's chain and orbit: 6 solves in all.  A chain read is one dense
    solve of one row per queried segment over its whole duration, and reads each
    time from its segment's row: 1 segment for the chain samples and all 201
    for the dense verification.  When a read also took one row per time off a
    boundary, ending at it, these were 2 rows and 1,229 (201 and 1,028 times)."""
    spec = scenarios["linear_saddle3d"].spec
    po = generate_noisy(
        spec,
        np.array([0.9, 0.9, 0.0]),
        200,
        1e-4,
        rng=np.random.default_rng(101),
        noise_subspace=np.eye(3)[:, :2],
    )
    rows = []
    solve = flow._solve

    def counted_solve(*args, **kwargs):
        rows.append(kwargs.get("rows", 1))
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow, "_solve", counted_solve)
    region = np.array([[0.898, 0.902], [0.898, 0.902], [0.0, 0.0]])
    budget = SearchBudget(candidates=50, refine_evals=40)
    report = shadowing._lattice_search(spec, po, 5e-3, region, budget)
    assert report.verdict == "shadowed"
    assert (report.coarse_candidates, report.evaluations) == (9, 34)
    assert rows == [1, 9, 24, 1, 201, 1]


def test_search_distance_independent_of_epsilon(noisy_saddle_chain):
    # the scan and refinement never look at epsilon, only the verdict does
    spec, po = noisy_saddle_chain
    budget = SearchBudget(candidates=30, refine_evals=10, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [0.0, 0.0]])
    tight = shadowing._lattice_search(spec, po, 1e-7, region, budget)
    loose = shadowing._lattice_search(spec, po, 2e-3, region, budget)
    assert tight.verdict == "not_found"
    assert loose.verdict == "shadowed"
    assert tight.witness == loose.witness
    assert tight.distance < 1e-3
    assert loose.distance < 2e-3


# noise-1e-6 chain starts; the expanding z axis of the saddles gets no noise
NEWTON_CHAINS = {
    "neutral_line": ([0.1, 0.05], None),
    "neutral_rotation": ([0.1, 0.0, 0.0], None),
    "center_cycle": ([5.0, 0.1, 0.05], None),
    "linear_saddle3d": ([0.9, 0.9, 0.0], np.eye(3)[:, :2]),
    "saddle_cycle": ([1.0, 0.0, 0.0], np.eye(3)[:, :2]),
}


def newton_chain(scenarios, name, m):
    start, subspace = NEWTON_CHAINS[name]
    spec = scenarios[name].spec
    po = generate_noisy(
        spec, np.array(start), m - 1, 1e-6, rng=np.random.default_rng(m), noise_subspace=subspace
    )
    return spec, po


@pytest.mark.parametrize("m", [26, 51, 101])
@pytest.mark.parametrize("name", sorted(NEWTON_CHAINS))
def test_operator_inverse_norm_closed_forms(scenarios, name, m):
    """|J^+| of an m-point chain.  A neutral coordinate orthogonal to the flow
    makes J the difference operator there, |J^+| = 1/(2 sin(pi/(2m))).  A
    multiplier lambda < 1 per step gives 1/sqrt(1 + lambda^2 - 2 lambda cos(pi/m)),
    below 1/(1 - lambda) and within 1% of it at m = 101; the time shifts absorb
    the neutral flow direction of the cycles."""
    spec, po = newton_chain(scenarios, name, m)
    newton = shadowing.newton_shadow(spec, po)
    assert newton.iterations == 1
    assert newton.residual <= 1e-9
    assert np.linalg.norm(newton.corrections, axis=1).max() <= 1e-5
    assert newton.corrections.shape == po.points.shape
    assert newton.shifts.shape == (m - 1,)
    limit = {"linear_saddle3d": 1.0 / (1.0 - math.exp(-1.0)),
             "saddle_cycle": 1.0 / (1.0 - math.exp(-2.0))}.get(name)
    if limit is None:
        assert newton.inverse_norm == pytest.approx(0.5 / math.sin(math.pi / (2 * m)), rel=1e-9)
    else:
        assert newton.inverse_norm < limit
        assert m < 101 or newton.inverse_norm > 0.99 * limit
    if name == "center_cycle":
        # the chain passes theta = 2 pi, where its stored angle drops
        assert np.any(np.diff(po.points[:, 0]) < 0.0)


def test_operator_inverse_norm_matches_a_dense_svd(scenarios):
    """On a 26-point saddle_cycle chain the banded eigenvalue gives 1/sigma_min
    of the dense Jacobian [A_i | -I | X(end_i)] at the chain itself (no corrections,
    no shifts), each A_i from a solo tangent_flow."""
    spec, po = newton_chain(scenarios, "saddle_cycle", 26)
    newton = shadowing.newton_shadow(spec, po)
    m, n = po.points.shape
    jac = np.zeros(((m - 1) * n, m * n + m - 1))
    for i in range(m - 1):
        end, a = flow.tangent_flow(spec, po.points[i], po.durations[i])
        rows = slice(i * n, (i + 1) * n)
        jac[rows, i * n : (i + 1) * n] = a
        jac[rows, (i + 1) * n : (i + 2) * n] = -np.eye(n)
        jac[rows, m * n + i] = spec.field_at(end)
    dense = 1.0 / np.linalg.svd(jac, compute_uv=False).min()
    assert newton.inverse_norm == pytest.approx(dense, rel=1e-8)


def test_newton_shadow_validation(scenarios):
    spec = scenarios["neutral_line"].spec
    for po in (
        equilibrium_segment_chain(spec, 0.4, 0.05),
        PseudoOrbit(spec, np.array([[0.1, 0.0]]), np.array([1.0]), 0.1),
    ):
        with pytest.raises(ValueError, match="at least 2 points without head or tail"):
            shadowing.newton_shadow(spec, po)


def test_newton_shadow_solves_through_tangent_flow(noisy_saddle_chain, monkeypatch):
    """The chord iteration's one batched variational solve, at the chain itself, is
    a call of the public ``tangent_flow``, so a wrapper on that name sees it: one
    batch of ``m - 1`` rows, and none at the converged iterate."""
    spec, po = noisy_saddle_chain
    batches = []
    tangent = shadowing.tangent_flow

    def counted(spec, x, *args, **kwargs):
        batches.append(len(x))
        return tangent(spec, x, *args, **kwargs)

    monkeypatch.setattr(shadowing, "tangent_flow", counted)
    newton = shadowing.newton_shadow(spec, po)
    assert newton.iterations == 1
    assert batches == [po.size - 1]


def test_newton_stage_takes_one_variational_solve(scenarios, monkeypatch):
    """Criterion 3's seed-101 Newton stage makes three solves: the chain's variational
    solve (200 rows of ``dim + dim^2``), the orbit-only check of the corrected pieces
    (200 rows of ``dim``, output at their ends only) and the dense read (402 rows)."""
    spec = scenarios["linear_saddle3d"].spec
    po = generate_noisy(spec, np.array([0.9, 0.9, 0.0]), 200, 1e-4,
                        rng=np.random.default_rng(101), noise_subspace=np.eye(3)[:, :2])
    solves = []
    solve = flow._solve

    def counted_solve(spec, rhs, t_span, y0, *args, **kwargs):
        rows, t_eval = kwargs.get("rows", 1), kwargs.get("t_eval")
        solves.append((rows, len(y0) // rows, bool(kwargs.get("dense_output")),
                       None if t_eval is None else list(t_eval)))
        return solve(spec, rhs, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(flow, "_solve", counted_solve)
    region = np.array([[0.898, 0.902], [0.898, 0.902], [0.0, 0.0]])
    report = search_shadowing(spec, po, 5e-3, region, SearchBudget(candidates=50, refine_evals=40))
    assert (report.stage, report.verdict) == ("newton", "shadowed")
    assert solves == [(200, 12, False, None), (200, 3, False, [1.0]), (402, 3, True, None)]


@pytest.mark.parametrize("m, noise, fewest, limit", [
    (21, 1e-2, 2, 1.0 / (1.0 - math.exp(-2.0))),
    (65, 0.2, 9, math.inf),
])
def test_newton_chord_steps_join_a_noisy_saddle_cycle_chain(scenarios, monkeypatch, m, noise,
                                                           fewest, limit):
    """An m-point saddle_cycle chain with noise in the xy-plane takes ``fewest`` chord
    steps or more on the chain's own factor, within ``_NEWTON_STEPS``: 9 at noise 0.2.
    The factor is formed once.
    Every corrected piece, flowed alone, ends within 1e-9 of the next piece's start.
    At noise 1e-2 ``|J^+|`` at the chain stays below the contraction bound
    1/(1 - e^-2); at 0.2 the chain lies too far from the cycle for that bound."""
    spec = scenarios["saddle_cycle"].spec
    po = generate_noisy(spec, np.array([1.0, 0.0, 0.0]), m - 1, noise,
                        rng=np.random.default_rng(3), noise_subspace=np.eye(3)[:, :2])
    factors = []
    cholesky = shadowing.cholesky_banded

    def counted(band):
        factors.append(band.shape)
        return cholesky(band)

    monkeypatch.setattr(shadowing, "cholesky_banded", counted)
    newton = shadowing.newton_shadow(spec, po)
    assert fewest <= newton.iterations <= shadowing._NEWTON_STEPS
    assert factors == [(6, 3 * (m - 1))]
    assert newton.residual <= 1e-9
    starts = po.points + newton.corrections
    tau = po.durations[:-1] + newton.shifts
    for i in range(po.size - 1):
        assert distance(spec, flow_at(spec, starts[i], tau[i]), starts[i + 1]) <= 1e-9
    assert newton.inverse_norm < limit


def test_search_takes_the_newton_stage(noisy_saddle_chain, monkeypatch):
    """The 10-step chain's Newton witness x_0 + c_0 is kept, with knots at the
    boundary times and the shifted durations, and no lattice objective is built.
    Its distance is the dense bound read along the corrected pieces; on this
    chain the witness's single orbit gives the same bound within 1e-9."""
    spec, po = noisy_saddle_chain
    newton = shadowing.newton_shadow(spec, po)

    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice objective was built")

    monkeypatch.setattr(shadowing, "_MatchObjective", no_lattice)
    budget = SearchBudget(candidates=30, refine_evals=10, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [0.0, 0.0]])
    report = search_shadowing(spec, po, 2e-3, region, budget=budget)
    assert (report.stage, report.verdict) == ("newton", "shadowed")
    assert (report.coarse_candidates, report.evaluations) == (0, 0)
    assert report.operator_inverse_norm == newton.inverse_norm
    assert report.newton_residual == newton.residual <= 1e-9
    assert report.witness == tuple(po.points[0] + newton.corrections[0])
    assert report.reparam_knots_t == tuple(po.boundary_times)
    tau = po.durations + np.append(newton.shifts, 0.0)
    assert report.reparam_knots_u == tuple(np.append(0.0, np.cumsum(tau)))
    assert report.horizon == (0.0, po.total_time)
    h = Reparametrization(report.reparam_knots_t, report.reparam_knots_u)
    dense = shadow_distance(spec, po.points + newton.corrections, h, po, report.horizon, 133)
    assert report.distance == dense < 2e-3
    single = shadow_distance(spec, report.witness, h, po, report.horizon, samples=133)
    assert abs(report.distance - single) <= 1e-9
    assert report.notes == ()
    payload = report.to_dict()
    assert (payload["stage"], payload["newton_residual"]) == ("newton", newton.residual)


def test_search_falls_back_to_the_lattice(noisy_saddle_chain):
    """Below the largest correction, or with x_0 + c_0 outside the seed box,
    the lattice runs exactly as on its own and the Newton numbers stay."""
    spec, po = noisy_saddle_chain
    newton = shadowing.newton_shadow(spec, po)
    largest = np.linalg.norm(newton.corrections, axis=1).max()
    assert 1e-7 < largest < 2e-3
    budget = SearchBudget(candidates=30, refine_evals=10, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [0.0, 0.0]])
    y = po.points[0] + newton.corrections[0]
    excluding = region.copy()
    excluding[0, 0] = y[0] + 1e-6
    for epsilon, box, reason in (
        (1e-7, region, "largest correction"),
        (2e-3, excluding, "outside the seed box"),
    ):
        report = search_shadowing(spec, po, epsilon, box, budget=budget)
        assert report.stage == "lattice"
        assert report.operator_inverse_norm == newton.inverse_norm
        assert report.newton_residual == newton.residual
        assert reason in report.notes[-1]
        alone = shadowing._lattice_search(spec, po, epsilon, box, budget)
        assert (alone.operator_inverse_norm, alone.newton_residual) == (None, None)
        assert report == dataclasses.replace(
            alone,
            operator_inverse_norm=newton.inverse_norm,
            newton_residual=newton.residual,
            notes=alone.notes + report.notes[-1:],
        )


def test_search_falls_back_when_newton_diverges(noisy_saddle_chain, monkeypatch):
    spec, po = noisy_saddle_chain

    def diverging(*args, **kwargs):
        raise FlowDivergenceError("orbit escaped")

    monkeypatch.setattr(shadowing, "newton_shadow", diverging)
    budget = SearchBudget(candidates=30, refine_evals=10, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [0.0, 0.0]])
    report = search_shadowing(spec, po, 2e-3, region, budget=budget)
    assert (report.stage, report.verdict) == ("lattice", "shadowed")
    assert (report.operator_inverse_norm, report.newton_residual) == (None, None)
    assert report.notes[-1] == "the newton stage failed: orbit escaped"


def test_search_falls_back_when_the_pieces_diverge(noisy_saddle_chain, monkeypatch):
    """A divergence of a witness piece in the Newton stage's dense read refuses the
    witness with a note, and the lattice runs as it does on its own.  A divergence
    of a chain row in that read is no fault of the witness: the lattice stage reads
    the chain too, and it raises there, in chain terms."""
    spec, po = noisy_saddle_chain
    newton = shadowing.newton_shadow(spec, po)
    solve = flow._solve
    escaping = [lambda rows: rows - 1 if rows == 2 * po.size else None]  # the last piece

    def diverging(*args, **kwargs):  # the dense reads raise at the row escaping[0] names
        row = escaping[0](kwargs.get("rows", 1)) if kwargs.get("dense_output") else None
        if row is not None:
            raise FlowDivergenceError("escaped", np.array([row]), 0.5)
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow, "_solve", diverging)
    budget = SearchBudget(candidates=30, refine_evals=10, eval_samples=33)
    region = np.array([[0.899, 0.901], [0.899, 0.901], [0.0, 0.0]])
    report = search_shadowing(spec, po, 2e-3, region, budget=budget)
    note = "the newton witness was not kept: its pieces left the divergence bound"
    assert report.notes[-1] == note
    alone = shadowing._lattice_search(spec, po, 2e-3, region, budget)
    assert report == dataclasses.replace(
        alone,
        operator_inverse_norm=newton.inverse_norm,
        newton_residual=newton.residual,
        notes=alone.notes + report.notes[-1:],
    )

    escaping[0] = lambda rows: 0  # the first chain segment that a read holds
    with pytest.raises(FlowDivergenceError, match=r" crossed norm 1e\+06 at t=\S+ during ") as err:
        search_shadowing(spec, po, 2e-3, region, budget=budget)
    (k,) = err.value.rows.tolist()
    assert err.value.t == po.boundary_times[k] + 0.5 * po.durations[k]


def test_shadow_distance_reads_pieces_as_the_chain_is_read(noisy_saddle_chain, monkeypatch):
    """The chain and its pieces are read in one dense solve, one row per segment and
    per piece: the chain's own points as pieces on the identity time change lie within
    rounding of it (a row's bits depend on its place in the batch), and moved pieces
    read each time along their own piece.  A divergence of pieces alone is raised in
    piece terms, and a ``y`` of the wrong shape or piece count is refused by name."""
    spec, po = noisy_saddle_chain
    identity = Reparametrization(po.boundary_times, po.boundary_times)
    horizon = (0.0, po.total_time)
    rows = []
    solve = flow._solve

    def counted_solve(*args, **kwargs):
        rows.append(kwargs.get("rows", 1))
        if kwargs.get("dense_output") and rows[0] == -1:
            raise FlowDivergenceError("escaped", np.array([rows[-1] - 1]), 0.5)
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow, "_solve", counted_solve)
    assert shadow_distance(spec, po.points, identity, po, horizon, samples=33) < 1e-20  # 4.96e-21
    assert rows == [2 * po.size]  # the chain's segments, then the pieces

    starts = po.points + 1e-5
    h = Reparametrization(po.boundary_times, np.append(0.0, np.cumsum(po.durations * 1.01)))
    moved = shadow_distance(spec, starts, h, po, horizon, samples=33)
    assert 1e-5 < moved < 2e-2
    rows[:] = [-1]
    with pytest.raises(FlowDivergenceError, match=r"crossed norm 1e\+06 at t=0\.505 ") as err:
        shadow_distance(spec, starts, h, po, horizon, samples=33)
    assert err.value.rows.tolist() == [po.size - 1]
    assert str(starts[-1]) in str(err.value)
    with pytest.raises(ValueError, match=r"^need one piece per segment of h \(11\), got 10$"):
        shadow_distance(spec, po.points[:-1], identity, po, horizon)
    for shape in [(1, 11, 3), (2,), (11, 2)]:
        got = re.escape(str(shape))
        message = rf"^y must be a point \(3,\) or pieces \(m, 3\) \(got shape {got}\)$"
        with pytest.raises(ValueError, match=message):
            shadow_distance(spec, np.zeros(shape), identity, po, horizon)
    with pytest.raises(ValueError, match=r"^pieces start at h's first knot 0 \(horizon from -1"):
        shadow_distance(spec, po.points, identity, po, (-1.0, 1.0))


@pytest.mark.parametrize("seed", [101, 202])
def test_newton_dense_check_reads_in_one_solve_on_the_closed_form(scenarios, monkeypatch, seed):
    """Criterion 3's Newton-stage dense check (1029 sample times and the knots) makes
    one solve, of one row per chain segment and one per corrected piece: ``2 m`` rows.
    Every chain point and piece point it reads lies within ``1e-9 (1 + |x|)`` of the
    closed-form flow from that segment's or piece's start."""
    spec = scenarios["linear_saddle3d"].spec
    po = generate_noisy(spec, np.array([0.9, 0.9, 0.0]), 200, 1e-4,
                        rng=np.random.default_rng(seed), noise_subspace=np.eye(3)[:, :2])
    rows, reads = [], []
    solve, read, check = flow._solve, shadowing.ConcatEvaluator.read, shadowing.shadow_distance

    def counted_solve(*args, **kwargs):
        rows.append(kwargs.get("rows", 1))
        return solve(*args, **kwargs)

    def recorded_read(self, entry, local, starts=(), taus=()):
        points = read(self, entry, local, starts, taus)
        reads.append((np.vstack([self.po._starts, starts])[entry], local, points))
        return points

    def dense_check(*args, **kwargs):
        rows.clear()
        monkeypatch.setattr(flow, "_solve", counted_solve)
        monkeypatch.setattr(shadowing.ConcatEvaluator, "read", recorded_read)
        return check(*args, **kwargs)

    monkeypatch.setattr(shadowing, "shadow_distance", dense_check)
    region = np.array([[0.898, 0.902], [0.898, 0.902], [0.0, 0.0]])
    report = search_shadowing(spec, po, 5e-3, region, SearchBudget(candidates=50, refine_evals=40))
    assert (report.stage, report.verdict) == ("newton", "shadowed")
    assert rows == [2 * po.size] and len(reads) == 1
    x, local, points = reads[0]
    assert len(points) == 2 * (1029 + 200)  # the samples and the 200 inner boundary times
    exact = linear_saddle_flow(x, local[:, None])
    error = np.linalg.norm(points - exact, axis=1) / (1 + np.linalg.norm(exact, axis=1))
    assert error.max() <= 1e-9


@pytest.mark.parametrize("count", [40, 60])
def test_newton_shadows_long_hyperbolic_chains(scenarios, count):
    """Chains of ``count`` unit steps on saddle_cycle's unit circle, each point
    moved by up to 1e-4: Newton corrects them, and the dense check along the
    corrected pieces keeps the witness, and the pieces re-check the report.  The
    witness's single orbit over the whole chain grows round-off exponentially in
    ``count``: at 40 steps its dense distance is above epsilon, and at 60 it
    leaves the divergence bound."""
    spec = scenarios["saddle_cycle"].spec
    k = np.arange(count + 1.0)
    noise = np.random.default_rng(5).uniform(-1e-4, 1e-4, (count + 1, 3))
    points = np.column_stack([np.cos(k), np.sin(k), np.zeros_like(k)]) + noise
    po = PseudoOrbit(spec, points, np.ones(count + 1), 1e-3)
    newton = shadowing.newton_shadow(spec, po)
    y = points[0] + newton.corrections[0]
    region = np.column_stack([y - 1e-3, y + 1e-3])
    budget = SearchBudget(candidates=30, refine_evals=0)
    report = search_shadowing(spec, po, 5e-3, region, budget=budget)
    assert (report.verdict, report.stage) == ("shadowed", "newton")
    assert report.distance < 5e-4
    assert report.witness == tuple(y)
    h = Reparametrization(report.reparam_knots_t, report.reparam_knots_u)
    samples = 4 * budget.eval_samples + 1
    recheck = (spec, po.points + newton.corrections, h, po, report.horizon, samples)
    assert shadow_distance(*recheck) == report.distance
    single = (spec, report.witness) + recheck[2:]
    if count == 40:
        assert shadow_distance(*single) > 5e-3
    else:
        with pytest.raises(FlowDivergenceError):
            shadow_distance(*single)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize(
    "duration, error",
    [(400.0, "J J^T of the chain overflows"), (800.0, "variational integration failed")],
)
def test_search_falls_back_when_newton_fails(scenarios, duration, error):
    """A 3-point chain in the stable plane of linear_saddle3d with long segments:
    D X_h grows like e^h along z, so at h = 400 J J^T overflows and at h = 800
    the variational solve fails; the lattice then runs as it does on its own."""
    spec = scenarios["linear_saddle3d"].spec
    x0 = np.array([0.5, 0.5, 0.0])
    pts = np.array([x0, x0 * [math.exp(-2.0 * duration), math.exp(-duration), 0.0], [0.0] * 3])
    po = PseudoOrbit(spec, pts, np.full(3, duration), 1e-3)
    with pytest.raises((RuntimeError, np.linalg.LinAlgError), match=re.escape(error)):
        shadowing.newton_shadow(spec, po)
    budget = SearchBudget(candidates=20, refine_evals=5, eval_samples=33)
    region = np.column_stack([x0 - 0.01, x0 + 0.01])
    report = search_shadowing(spec, po, 1e-2, region, budget=budget)
    assert report.stage == "lattice"
    assert (report.operator_inverse_norm, report.newton_residual) == (None, None)
    assert report.notes[-1].startswith(f"the newton stage failed: {error}")
    alone = shadowing._lattice_search(spec, po, 1e-2, region, budget)
    assert report == dataclasses.replace(alone, notes=alone.notes + report.notes[-1:])


def test_chains_with_ends_never_take_newton(scenarios, monkeypatch):
    """Criterion 1's chain has a head and a tail: the lattice alone runs, with
    the distance and evaluation count it had before the Newton stage existed."""
    def no_newton(*args, **kwargs):
        raise AssertionError("newton_shadow ran on a chain with ends")

    monkeypatch.setattr(shadowing, "newton_shadow", no_newton)
    spec = scenarios["neutral_line"].spec
    po = equilibrium_segment_chain(spec, 0.4, 0.05)
    region = np.array([[-0.1, 0.3], [-0.1, 0.1]])
    report = search_shadowing(spec, po, 0.05, region, budget=SearchBudget())
    assert (report.stage, report.verdict) == ("lattice", "not_found")
    assert (report.operator_inverse_norm, report.newton_residual) == (None, None)
    assert (report.distance, report.evaluations) == (0.10000000000000002, 898)
    assert len(report.notes) == 1


def test_search_reports_total_divergence(noisy_saddle_chain):
    spec, po = noisy_saddle_chain
    budget = SearchBudget(candidates=8, refine_evals=4, eval_samples=33)
    region = np.array([[0.9, 0.9], [0.9, 0.9], [2e5, 3e5]])
    report = shadowing._lattice_search(spec, po, 1e-2, region, budget)
    assert report.verdict == "not_found"
    assert math.isinf(report.distance)
    assert report.witness is None
    assert report.reparam_knots_t is None
    assert any("divergence bound" in note for note in report.notes)
    payload = report.to_dict()
    assert payload["witness"] is None
    assert payload["reparam_knots_u"] is None


def test_search_validation(noisy_saddle_chain):
    spec, po = noisy_saddle_chain
    with pytest.raises(ValueError, match="epsilon must be positive"):
        search_shadowing(spec, po, 0.0, np.array([[0.0, 1.0]] * 3))
    with pytest.raises(ValueError, match="seed_region must have shape"):
        search_shadowing(spec, po, 0.1, np.array([[0.0, 1.0]] * 2))
    for bad in ([1.0, 0.0], [0.0, math.nan], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="finite with lo <= hi"):
            search_shadowing(spec, po, 0.1, np.array([[0.0, 1.0], bad, [0.0, 0.0]]))


def test_refute_by_conservation_certificate(scenarios):
    spec = scenarios["neutral_line"].spec
    po = equilibrium_segment_chain(spec, 0.4, 0.05)
    cert = refute_by_conservation(spec, po, 0.05)
    assert cert is not None
    assert cert.lower_bound == pytest.approx(0.1, abs=1e-12)
    assert cert.epsilon == 0.05
    assert cert.q_min == pytest.approx(0.0, abs=1e-12)
    assert cert.q_max == pytest.approx(0.2, abs=1e-12)
    assert cert.lipschitz == 1.0
    assert cert.n_points == po.size + 2
    payload = cert.to_dict()
    assert payload["schema"] == "flowlab.conservation-refutation/1"
    assert payload["lower_bound"] == cert.lower_bound
    # epsilon at or above the bound yields no certificate
    assert refute_by_conservation(spec, po, 0.099) is not None
    assert refute_by_conservation(spec, po, 0.1) is None


def test_refute_validation(scenarios):
    nl = scenarios["neutral_line"].spec
    po = equilibrium_segment_chain(nl, 0.4, 0.05)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        refute_by_conservation(nl, po, 0.0)
    sc = scenarios["saddle_cycle"].spec
    po2 = PseudoOrbit(sc, np.array([[1.0, 0.0, 0.0]]), np.array([1.0]), 0.1)
    with pytest.raises(ValueError, match="no conserved quantity"):
        refute_by_conservation(sc, po2, 0.1)


def test_refutation_is_sound_against_search(scenarios):
    """No finite search may beat a conservation lower bound by much."""
    spec = scenarios["neutral_line"].spec
    po = equilibrium_segment_chain(spec, 0.4, 0.05)
    cert = refute_by_conservation(spec, po, 0.05)
    budget = SearchBudget(candidates=80, refine_evals=30, eval_samples=65)
    region = np.array([[-0.15, 0.15], [-0.05, 0.05]])
    report = search_shadowing(spec, po, 0.05, region, budget=budget)
    assert report.verdict == "not_found"
    assert report.horizon == (-3.0, po.total_time + 3.0)
    assert report.coarse_candidates == 49
    assert report.distance >= cert.lower_bound - 0.02
