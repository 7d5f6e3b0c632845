"""Splitting estimates, domination checks, fits, and arc certificates."""

import dataclasses
import math

import numpy as np
import pytest

from flowlab import (
    ConsistencyError,
    DominationGapError,
    NormalCocycle,
    VectorFieldSpec,
    arc_to_periodic_orbit,
    build_cocycle,
    check_domination,
    check_quasi_hyperbolic,
    classify_periodic,
    classify_singularity,
    estimate_splitting,
    fit_hyperbolic,
    uniform_periodic_estimates,
)
from flowlab import splitting
from flowlab.splitting import _partition_log_norms, _window_log_norms

# Normal rates on the r = 1 cycle of saddle_cycle: radial e^{-2t}, vertical e^{t}.
RADIAL_RATE = -2.0
VERTICAL_RATE = 1.0


@pytest.fixture(scope="module")
def saddle_est(scenarios):
    spec = scenarios["saddle_cycle"].spec
    cocycle = build_cocycle(spec, np.array([1.0, 0.0, 0.0]), 10.0, 0.05, t_start=-3.0)
    return spec, estimate_splitting(cocycle, 1)


@pytest.fixture(scope="module")
def zaxis_est(scenarios):
    # the z axis of linear_saddle3d is an orbit whose normal rates both contract
    spec = scenarios["linear_saddle3d"].spec
    cocycle = build_cocycle(spec, np.array([0.0, 0.0, 0.2]), 8.0, 0.05, t_start=-3.0)
    return spec, estimate_splitting(cocycle, 1)


@pytest.fixture(scope="module")
def cycle_arc_est(scenarios):
    # longer-span estimate so arcs up to tau = 10 stay one window inside the grid
    spec = scenarios["saddle_cycle"].spec
    cocycle = build_cocycle(spec, np.array([1.0, 0.0, 0.0]), 16.0, 0.05, t_start=-3.0)
    return spec, estimate_splitting(cocycle, 1)


@pytest.fixture(scope="module")
def cycle_report(scenarios):
    spec = scenarios["saddle_cycle"].spec
    return classify_periodic(spec, np.array([1.0, 0.0, 0.0]), 2.0 * math.pi)


def test_estimate_structure(saddle_est):
    _, est = saddle_est
    assert est.p == 1
    assert est.window_steps == 60
    assert est.k_lo == 60
    assert est.k_hi == 140
    for k in range(est.k_lo, est.k_hi + 1, 10):
        bs, bu = est.basis_at(k)
        assert bs.shape == (2, 1)
        assert bu.shape == (2, 1)
        assert abs(np.linalg.norm(bs[:, 0]) - 1.0) <= 1e-10
        assert abs(np.linalg.norm(bu[:, 0]) - 1.0) <= 1e-10
    # singular-value gap over a 3-unit window is e^{3 (1 - (-2))}, far above 1.2
    assert est.gap_ratio_min > 100.0
    assert est.residual <= 1e-5


def test_estimate_bases_match_analytic_bundles(saddle_est):
    """Stable bundle is the radial direction, unstable the vertical one."""
    _, est = saddle_est
    coc = est.cocycle
    for k in range(est.k_lo, est.k_hi + 1, 16):
        x = coc.points[k]
        radial = np.array([x[0], x[1], 0.0])
        radial /= np.linalg.norm(radial)
        bs, bu = est.basis_at(k)
        stable_dir = coc.frames[k] @ bs[:, 0]
        unstable_dir = coc.frames[k] @ bu[:, 0]
        assert abs(stable_dir @ radial) >= 1.0 - 1e-5
        assert abs(unstable_dir[2]) >= 1.0 - 1e-5


def test_basis_at_rejects_out_of_range(saddle_est):
    _, est = saddle_est
    with pytest.raises(IndexError, match="outside the valid range"):
        est.basis_at(est.k_lo - 1)
    with pytest.raises(IndexError, match="outside the valid range"):
        est.basis_at(est.k_hi + 1)


def test_estimate_rejects_bad_rank(saddle_est):
    _, est = saddle_est
    for p in (0, 2):
        with pytest.raises(ValueError, match="p must be between 1 and 1"):
            estimate_splitting(est.cocycle, p)


def test_estimate_rejects_planar_normal_space(scenarios):
    # dim 2 leaves a single normal direction, too few to split
    coc = build_cocycle(scenarios["neutral_line"].spec, np.array([0.0, 0.3]), 2.0, 0.05)
    with pytest.raises(ValueError, match="p must be between 1 and 0"):
        estimate_splitting(coc, 1)


def test_estimate_rejects_short_cocycle(scenarios):
    spec = scenarios["saddle_cycle"].spec
    coc = build_cocycle(spec, np.array([1.0, 0.0, 0.0]), 2.0, 0.05)
    with pytest.raises(ValueError, match="need more than"):
        estimate_splitting(coc, 1)


def test_estimate_reports_missing_gap():
    # an isotropic sink has equal singular values at every rank
    iso = VectorFieldSpec(
        name="isotropic_sink",
        dim=3,
        field=lambda x: -x,
        jacobian=lambda x: -np.eye(3),
    )
    coc = build_cocycle(iso, np.array([0.4, 0.3, 0.5]), 8.0, 0.05)
    with pytest.raises(DominationGapError, match="singular-value ratio"):
        estimate_splitting(coc, 1)
    # a window shorter than one step is one step long, and the message says so
    with pytest.raises(DominationGapError, match="over windows of 0.05 time units"):
        estimate_splitting(coc, 1, 0.001)


def test_check_domination_passes_beyond_threshold(saddle_est):
    _, est = saddle_est
    dom = check_domination(est, 0.4)
    assert dom.ok
    assert dom.l == 0.4
    # the checked product is e^{-3t}, worst at the smallest grid time t = l
    assert dom.worst_product == pytest.approx(math.exp(-1.2), rel=1e-3)
    assert dom.worst_t == pytest.approx(0.4, abs=1e-12)
    assert dom.n_bases == 81
    ts = [t for t, _ in dom.products_per_t]
    assert len(ts) == 17
    assert ts[0] == pytest.approx(0.4)
    assert ts[-1] == pytest.approx(1.2)
    assert dom.worst_product == max(v for _, v in dom.products_per_t)
    values = [v for _, v in dom.products_per_t]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_check_domination_fails_below_threshold(saddle_est):
    _, est = saddle_est
    dom = check_domination(est, 0.15)
    assert not dom.ok
    assert dom.worst_product == pytest.approx(math.exp(-0.45), rel=1e-3)
    assert dom.worst_product > 0.5
    assert dom.worst_t == pytest.approx(0.15, abs=1e-12)


@pytest.mark.parametrize(
    "l, message",
    [
        (0.0, "l must be positive"),
        (-1.0, "l must be positive"),
        (0.01, "no grid times inside"),
        (5.0, "cocycle too short"),
        (math.nan, r"l must be positive and finite \(got l=nan\)"),
        (math.inf, r"l must be positive and finite \(got l=inf\)"),
    ],
)
def test_check_domination_validation(saddle_est, l, message):
    _, est = saddle_est
    with pytest.raises(ValueError, match=message):
        check_domination(est, l)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda est, x: estimate_splitting(est.cocycle, 1, 0.0), "window_time must be positive"),
        (lambda est, x: estimate_splitting(est.cocycle, 1, -1.0), "window_time must be positive"),
        (lambda est, x: estimate_splitting(est.cocycle, 1, math.nan), "window_time must be positive"),
        (lambda est, x: check_quasi_hyperbolic(None, x, 6.0, est, math.nan, 1.0), "got eta=nan"),
        (lambda est, x: check_quasi_hyperbolic(None, x, 6.0, est, math.inf, 1.0), "got eta=inf"),
        (lambda est, x: check_quasi_hyperbolic(None, x, 6.0, est, 0.5, math.nan), "big_t=nan"),
        (lambda est, x: fit_hyperbolic(est, n_times=1), "n_times must be at least 2"),
        (lambda est, x: fit_hyperbolic(est, n_times=0), "n_times must be at least 2"),
        (lambda est, x: fit_hyperbolic(est, n_bases=0), "n_bases must be at least 1"),
        (lambda est, x: fit_hyperbolic(est, n_times=math.nan), "n_times must be at least 2"),
        (lambda est, x: fit_hyperbolic(est, n_bases=math.nan), "n_bases must be at least 1"),
        (lambda est, x: fit_hyperbolic(est, t_lo=math.nan), r"t_lo must .* \(got t_lo=nan\)"),
        (lambda est, x: fit_hyperbolic(est, t_lo=math.inf), r"t_lo must .* \(got t_lo=inf\)"),
        (lambda est, x: fit_hyperbolic(est, t_lo=0.0), r"t_lo must .* \(got t_lo=0.0\)"),
        (lambda est, x: fit_hyperbolic(est, t_hi=math.nan), r"t_hi must .* \(got t_hi=nan\)"),
        (lambda est, x: fit_hyperbolic(est, t_hi=math.inf), r"t_hi must .* \(got t_hi=inf\)"),
        (lambda est, x: fit_hyperbolic(est, t_hi=0.0), r"t_hi must .* \(got t_hi=0.0\)"),
    ],
)
def test_splitting_arguments_must_be_positive_and_finite(cycle_arc_est, call, message):
    """Non-finite or non-positive scales, and fits without two times or one
    base, raise ``ValueError`` naming the argument."""
    _, est = cycle_arc_est
    with pytest.raises(ValueError, match=message):
        call(est, np.array([1.0, 0.0, 0.0]))


def _scan(est, ks, js):
    """``{j: (norms, conorms)}`` from both sides of the log-norm scan."""
    stable, unstable = (_window_log_norms(est, side, ks, js) for side in (0, 1))
    return {j: (np.exp(ls), np.exp(lu)) for j, ls, lu in zip(js, stable, unstable)}


def _assert_scan_matches_svd(est, ks, js, scanned=None):
    """The scan's norms/conorms equal direct SVDs of the restricted window
    products ``window_product(k, k + j) @ basis`` to relative 1e-12."""
    scanned = _scan(est, ks, js) if scanned is None else scanned
    assert sorted(scanned) == sorted(js)
    for j in js:
        norms, conorms = scanned[j]
        for i, k in enumerate(ks):
            w = est.cocycle.window_product(int(k), int(k) + j)
            bs, bu = est.basis_at(int(k))
            norm = np.linalg.svd(w @ bs, compute_uv=False)[0]
            conorm = np.linalg.svd(w @ bu, compute_uv=False)[-1]
            assert norms[i] == pytest.approx(norm, rel=1e-12)
            assert conorms[i] == pytest.approx(conorm, rel=1e-12)


def test_window_scan_matches_direct_svd_rank_one(saddle_est):
    _, est = saddle_est
    _assert_scan_matches_svd(est, [60, 77, 100], (1, 7, 40))


def test_log_growth_table_matches_direct_products(saddle_est):
    """For rank-1 bundles the table gives every window norm as
    ``exp(P[k + j] - P[k])``, to relative 1e-12 of the direct SVD, also for
    windows that run past ``k_hi`` into the forward stable extension."""
    _, est = saddle_est
    m = est.cocycle.steps
    assert est.log_prefix.shape == (2, m + 1)
    assert np.all(np.isfinite(est.log_prefix[0]))
    assert np.all(np.isnan(est.log_prefix[1, : est.k_lo]))
    assert np.all(np.isfinite(est.log_prefix[1, est.k_lo :]))
    assert np.all(np.isfinite(est.stable))
    # k + j reaches m = 200 from bases up to k_hi = 140
    _assert_scan_matches_svd(est, [60, 99, 123, 139, 140], (1, 17, 60))
    for side, bases in enumerate((est.stable, est.unstable)):
        table = est.log_prefix[side]
        for k, j in ((140, 60), (150, 50), (61, 139), (est.k_lo, m - est.k_lo)):
            direct = np.linalg.norm(est.cocycle.window_product(k, k + j) @ bases[k])
            assert math.exp(table[k + j] - table[k]) == pytest.approx(direct, rel=1e-12)


def test_tie_rule_on_constant_diagonal_cocycle():
    """Rates -2 and +1 in every frame: every base gives the product e^{-3t}.
    The worst product is the first maximum in scan order (t ascending, then
    base ascending), and it lies within 1e-9 of every base's direct product."""
    dt, m, l = 0.01, 700, 0.3
    step = np.diag(np.exp(np.array([-2.0, 1.0]) * dt))
    coc = NormalCocycle(
        None,
        -3.0 + dt * np.arange(m + 1),
        np.zeros((m + 1, 3)),
        np.broadcast_to(np.eye(3)[:, 1:], (m + 1, 3, 2)),
        np.broadcast_to(step, (m, 2, 2)).copy(),
        1e-10,
    )
    est = estimate_splitting(coc, 1)
    dom = check_domination(est, l)
    assert dom.ok
    assert dom.worst_t == pytest.approx(l, abs=1e-12)
    assert dom.worst_product == pytest.approx(math.exp(-3.0 * dom.worst_t), rel=1e-12)

    j = round(dom.worst_t / dt)
    ks = np.arange(est.k_lo, min(est.k_hi, m - math.floor(3.0 * l / dt + 1e-9)) + 1)
    assert len(ks) == dom.n_bases
    norms, conorms = _scan(est, ks, [j])[j]
    products = norms / conorms
    first = int(np.flatnonzero(products == products.max())[0])
    assert dom.worst_base_time == coc.times[ks[first]]
    direct = [
        np.linalg.norm(coc.window_product(k, k + j) @ est.stable[k])
        / np.linalg.norm(coc.window_product(k, k + j) @ est.unstable[k])
        for k in ks
    ]
    assert max(direct) - dom.worst_product <= 1e-9 * max(direct)


def test_tie_rule_reports_first_maximum_on_exact_ties(saddle_est, monkeypatch):
    """With every product equal, the first base of the first time wins."""
    _, est = saddle_est

    def flat_scan(est, side, ks, js):
        return (np.full(len(ks), math.log(0.25) if side == 0 else 0.0) for j in js)

    monkeypatch.setattr(splitting, "_window_log_norms", flat_scan)
    dom = check_domination(est, 0.4)
    assert dom.worst_product == 0.25
    assert dom.worst_t == pytest.approx(0.4, abs=1e-12)
    assert dom.worst_base_time == est.cocycle.times[est.k_lo]


@pytest.fixture(scope="module")
def rotated_diagonal_cocycle():
    """A constant normal cocycle with three normal directions and rates
    -2, 1, 2, seen in a fixed random orthonormal frame."""
    dt, m = 0.01, 700
    q = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))[0]
    step = q @ np.diag(np.exp(np.array([-2.0, 1.0, 2.0]) * dt)) @ q.T
    times = -3.0 + dt * np.arange(m + 1)
    points = np.zeros((m + 1, 4))
    frames = np.broadcast_to(np.eye(4)[:, 1:], (m + 1, 4, 3))
    trans = np.broadcast_to(step, (m, 3, 3)).copy()
    return NormalCocycle(None, times, points, frames, trans, 1e-10)


@pytest.mark.parametrize("p", [1, 2])
def test_window_scan_matches_direct_svd_wide_bundles(rotated_diagonal_cocycle, p, monkeypatch):
    """The rank-2 bundle takes the pushed-basis SVD branch, the rank-1 one
    the log-growth table."""
    est = estimate_splitting(rotated_diagonal_cocycle, p)
    assert est.stable.shape[2] == p and est.unstable.shape[2] == 3 - p
    wide = 0 if p == 2 else 1
    assert np.all(np.isnan(est.log_prefix[wide]))
    assert np.all(np.isfinite(est.log_prefix[1 - wide, est.k_lo :]))
    seen = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        seen.append(a.shape)
        return svd(a, *args, **kwargs)

    ks, js = [300, 333, 380], (1, 9, 50)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", counted)
        scanned = _scan(est, ks, js)
    _assert_scan_matches_svd(est, ks, js, scanned)
    # one batched SVD of the three pushed rank-2 bases per length, none for rank 1
    assert seen == [(3, 3, 2)] * 3


@pytest.mark.parametrize("p", [1, 2])
def test_partition_log_norms_match_direct_svd_wide_bundles(rotated_diagonal_cocycle, p):
    """Each partition step is a one-base window of the scan: its values equal
    the logs of direct SVDs of ``window_product(i, j) @ basis`` to relative
    1e-12, on both the rank-1 and the rank-2 bundle."""
    est = estimate_splitting(rotated_diagonal_cocycle, p)
    coc = est.cocycle
    # the spec only measures the anchor gap, and every cocycle point is the origin
    still = VectorFieldSpec("still", 4, lambda x: 0.0 * x, lambda x: np.zeros((4, 4)))
    cert = check_quasi_hyperbolic(still, np.zeros(4), 0.5, est, 0.1, 0.15)
    idx = [coc.index_of_time(b) for b in cert.boundaries]
    assert len(idx) == 4
    a, b = _partition_log_norms(est, idx)
    assert cert.log_norms_stable == tuple(a) and cert.log_conorms_unstable == tuple(b)
    for step, (i, j) in enumerate(zip(idx, idx[1:])):
        w = coc.window_product(i, j)
        bs, bu = est.basis_at(i)
        norm = np.log(np.linalg.svd(w @ bs, compute_uv=False)[0])
        conorm = np.log(np.linalg.svd(w @ bu, compute_uv=False)[-1])
        assert a[step] == pytest.approx(norm, rel=1e-12)
        assert b[step] == pytest.approx(conorm, rel=1e-12)


def test_check_domination_flips_at_closed_form_with_wide_bundle(rotated_diagonal_cocycle):
    """Stable rate -2 against the rank-2 unstable bundle's weakest rate 1:
    the checked product is e^{-3t}, so the verdict flips at l = ln(2)/3."""
    est = estimate_splitting(rotated_diagonal_cocycle, 1)
    l_star = math.log(2.0) / 3.0
    below = check_domination(est, l_star - 0.01)
    above = check_domination(est, l_star + 0.01)
    assert not below.ok and above.ok
    for dom in (below, above):
        assert dom.worst_product == pytest.approx(math.exp(-3.0 * dom.worst_t), rel=1e-9)


def test_fit_recovers_cycle_rates(saddle_est):
    _, est = saddle_est
    fit = fit_hyperbolic(est)
    assert fit.ok and fit.stable_ok and fit.unstable_ok
    assert fit.reason == "both bundles contract"
    assert fit.lambda_stable == pytest.approx(math.exp(RADIAL_RATE), rel=0.02)
    assert fit.lambda_unstable == pytest.approx(math.exp(-VERTICAL_RATE), rel=0.02)
    assert fit.t_range[0] == pytest.approx(1.0)
    assert fit.t_range[1] == pytest.approx(4.2)
    assert 0.5 <= fit.c_stable <= 2.0
    assert 0.5 <= fit.c_unstable <= 2.0


def test_fit_envelopes_dominate_samples(saddle_est, rng):
    _, est = saddle_est
    fit = fit_hyperbolic(est)
    coc = est.cocycle
    for _ in range(40):
        k = int(rng.integers(est.k_lo, 117))
        j = int(rng.integers(20, 85))
        w = coc.window_product(k, k + j)
        bs, bu = est.basis_at(k)
        t = j * coc.dt
        norm_s = np.linalg.norm(w @ bs, 2)
        back_u = 1.0 / np.linalg.svd(w @ bu, compute_uv=False)[-1]
        assert norm_s <= fit.c_stable * fit.lambda_stable**t * (1 + 1e-6)
        assert back_u <= fit.c_unstable * fit.lambda_unstable**t * (1 + 1e-6)


def test_fit_rate_prescribes_domination_scale(saddle_est):
    # the time scale where the fitted envelope halves must pass check_domination
    _, est = saddle_est
    fit = fit_hyperbolic(est)
    l = math.ceil(1.1 * math.log(2.0) / -math.log(fit.lambda_unstable))
    assert l == 1
    assert check_domination(est, float(l)).ok


def test_fit_rejects_short_span(saddle_est):
    _, est = saddle_est
    with pytest.raises(ValueError, match="sampled span too short"):
        fit_hyperbolic(est, t_lo=2.9, t_hi=3.0)


def test_fit_flags_normally_contracting_orbit(zaxis_est):
    """Domination without expansion: the backward unstable fit must fail."""
    _, est = zaxis_est
    fit = fit_hyperbolic(est)
    assert not fit.ok
    assert fit.stable_ok
    assert not fit.unstable_ok
    assert "unstable bundle backward rate" in fit.reason
    assert fit.lambda_stable == pytest.approx(math.exp(-2.0), rel=0.02)
    assert fit.lambda_unstable == pytest.approx(math.exp(1.0), rel=0.02)
    dom = check_domination(est, 1.0)
    assert dom.ok
    assert dom.worst_product == pytest.approx(math.exp(-1.0), rel=1e-3)


def test_splitting_invariant_under_frame_rotation(saddle_est, rng):
    """A gauge change of the normal frames moves no reported quantity."""
    spec, est = saddle_est
    coc = est.cocycle
    qs = np.linalg.qr(rng.normal(size=(coc.steps + 1, 2, 2)))[0]
    frames = np.matmul(coc.frames, qs)
    trans = np.matmul(np.matmul(qs[1:].transpose(0, 2, 1), coc.trans), qs[:-1])
    rotated = NormalCocycle(spec, coc.times, coc.points, frames, trans, coc.tol)
    est_rot = estimate_splitting(rotated, 1)
    for l in (0.15, 0.4):
        a = check_domination(est, l).worst_product
        b = check_domination(est_rot, l).worst_product
        assert abs(a - b) <= 1e-8
    fit = fit_hyperbolic(est)
    fit_rot = fit_hyperbolic(est_rot)
    assert abs(fit.lambda_stable - fit_rot.lambda_stable) <= 1e-8
    assert abs(fit.lambda_unstable - fit_rot.lambda_unstable) <= 1e-8


def test_quasi_hyperbolic_certificate_on_cycle(cycle_arc_est):
    spec, est = cycle_arc_est
    cert = check_quasi_hyperbolic(spec, np.array([1.0, 0.0, 0.0]), 6.0, est, 0.5, 1.0)
    assert cert.ok
    assert cert.eta == 0.5
    assert cert.boundaries == pytest.approx([float(j) for j in range(7)], abs=1e-9)
    assert cert.log_norms_stable == pytest.approx((-2.0,) * 6, abs=1e-4)
    assert cert.log_conorms_unstable == pytest.approx((1.0,) * 6, abs=1e-4)
    # the binding constraint is the trailing unstable average: 1 - eta
    assert cert.worst_slack == pytest.approx(0.5, abs=1e-3)
    assert min(cert.slack_trailing) == pytest.approx(0.5, abs=1e-3)
    assert min(cert.slack_leading) == pytest.approx(1.5, abs=1e-3)
    assert min(cert.slack_stepwise) == pytest.approx(2.0, abs=1e-3)


def test_quasi_hyperbolic_fails_at_large_eta(cycle_arc_est):
    spec, est = cycle_arc_est
    cert = check_quasi_hyperbolic(spec, np.array([1.0, 0.0, 0.0]), 6.0, est, 1.6, 1.0)
    assert not cert.ok
    assert cert.worst_slack == pytest.approx(-0.6, abs=1e-3)
    assert min(cert.slack_trailing) == pytest.approx(-0.6, abs=1e-3)
    assert min(cert.slack_leading) == pytest.approx(0.4, abs=1e-3)
    assert min(cert.slack_stepwise) == pytest.approx(-0.2, abs=1e-3)


def test_quasi_hyperbolic_absorbs_remainder_step(cycle_arc_est):
    spec, est = cycle_arc_est
    cert = check_quasi_hyperbolic(spec, np.array([1.0, 0.0, 0.0]), 6.5, est, 0.5, 1.0)
    assert cert.ok
    assert len(cert.boundaries) == 7
    assert cert.boundaries[-1] == pytest.approx(6.5)
    assert cert.boundaries[-2] == pytest.approx(5.0)


def test_quasi_hyperbolic_validation(cycle_arc_est):
    spec, est = cycle_arc_est
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="eta and big_t must be positive"):
        check_quasi_hyperbolic(spec, x, 6.0, est, 0.0, 1.0)
    with pytest.raises(ValueError, match="shorter than one step"):
        check_quasi_hyperbolic(spec, x, 0.5, est, 0.5, 1.0)
    with pytest.raises(ValueError, match="anchored"):
        check_quasi_hyperbolic(spec, np.array([1.2, 0.0, 0.0]), 6.0, est, 0.5, 1.0)
    with pytest.raises(ValueError, match="big_t is too small"):
        check_quasi_hyperbolic(spec, x, 6.0, est, 0.5, 0.01)
    with pytest.raises(ValueError, match="does not cover the arc"):
        check_quasi_hyperbolic(spec, x, 12.0, est, 0.5, 1.0)


def test_uniform_estimates_on_saddle_cycle(scenarios, cycle_report):
    spec = scenarios["saddle_cycle"].spec
    out = uniform_periodic_estimates(spec, [cycle_report], t_min=1.0, eta=0.5)
    assert out.ok
    assert out.eta == 0.5
    assert len(out.orbits) == 1
    orb = out.orbits[0]
    assert orb["ok"]
    assert orb["period"] == pytest.approx(2.0 * math.pi, abs=1e-6)
    # rate gap 3 against 2 eta = 1, per unit of time
    assert orb["slack_rate_gap"] == pytest.approx(2.0, abs=0.05)
    assert orb["slack_stable_sum"] == pytest.approx(1.5, abs=0.02)
    assert orb["slack_unstable_sum"] == pytest.approx(0.5, abs=0.02)


def test_uniform_estimates_t_min_beyond_one_period(scenarios, cycle_report):
    """With t_min above the period, the period is partitioned as one step."""
    spec = scenarios["saddle_cycle"].spec
    eta = 0.5
    out = uniform_periodic_estimates(spec, [cycle_report], t_min=7.0, eta=eta)
    assert out.ok
    orb = out.orbits[0]
    assert orb["ok"]
    assert orb["slack_rate_gap"] == pytest.approx(3.0 - 2.0 * eta, rel=1e-2)
    assert orb["slack_stable_sum"] == pytest.approx(2.0 - eta, rel=1e-2)
    assert orb["slack_unstable_sum"] == pytest.approx(1.0 - eta, rel=1e-2)


def test_uniform_estimates_fail_beyond_gap(scenarios, cycle_report):
    spec = scenarios["saddle_cycle"].spec
    out = uniform_periodic_estimates(spec, [cycle_report], t_min=1.0, eta=1.6)
    assert not out.ok
    assert not out.orbits[0]["ok"]
    assert out.orbits[0]["slack_rate_gap"] == pytest.approx(-0.2, abs=0.02)


def test_uniform_estimates_marginal_eta_is_accepted(scenarios, cycle_report):
    """eta equal to the unstable rate leaves zero slack; roundoff must not
    flip the verdict."""
    spec = scenarios["saddle_cycle"].spec
    out = uniform_periodic_estimates(spec, [cycle_report], t_min=1.0, eta=1.0)
    assert out.ok
    orb = out.orbits[0]
    assert orb["ok"]
    assert orb["slack_unstable_sum"] == pytest.approx(0.0, abs=1e-9)
    assert orb["slack_rate_gap"] == pytest.approx(1.0, abs=0.05)


def test_uniform_estimates_validation(scenarios, cycle_report):
    spec = scenarios["saddle_cycle"].spec
    with pytest.raises(ValueError, match="t_min and eta must be positive"):
        uniform_periodic_estimates(spec, [cycle_report], t_min=0.0, eta=0.5)
    with pytest.raises(ValueError, match="exceeds three periods"):
        uniform_periodic_estimates(spec, [cycle_report], t_min=25.0, eta=0.5)
    # dt snaps to period / 126, so t_min = 3 * period is itself a grid time
    out = uniform_periodic_estimates(spec, [cycle_report], t_min=3.0 * cycle_report.period, eta=0.5)
    assert out.ok and out.orbits[0]["slack_rate_gap"] == pytest.approx(2.0, rel=1e-2)
    sing = classify_singularity(scenarios["linear_saddle3d"].spec, np.zeros(3))
    with pytest.raises(ValueError, match="periodic-orbit reports only"):
        uniform_periodic_estimates(spec, [sing], t_min=1.0, eta=0.5)
    out = uniform_periodic_estimates(spec, [], t_min=1.0, eta=0.5)
    assert out.ok and out.orbits == ()


@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_uniform_estimates_hold_off_the_cycle(scenarios, cycle_report, eta):
    """A point 1e-9 off the cycle, the accuracy of find_periodic_newton, must
    not drift along the unstable direction into the rate gap."""
    spec = scenarios["saddle_cycle"].spec
    rep = dataclasses.replace(cycle_report, point=cycle_report.point + np.array([0.0, 0.0, 1e-9]))
    out = uniform_periodic_estimates(spec, [rep], t_min=1.0, eta=eta)
    assert out.ok
    assert out.orbits[0]["slack_rate_gap"] == pytest.approx(3.0 - 2.0 * eta, rel=2e-2)


def test_uniform_estimates_reject_a_wrong_period(scenarios, cycle_report):
    """One period is glued end to start, so a period that does not close the
    orbit must raise rather than join two points that do not match."""
    spec = scenarios["saddle_cycle"].spec
    rep = dataclasses.replace(cycle_report, period=1.01 * cycle_report.period)
    with pytest.raises(ConsistencyError, match="off its start after period 6.34602"):
        uniform_periodic_estimates(spec, [rep], t_min=1.0, eta=0.5)


def test_uniform_estimates_reject_nonhyperbolic(scenarios):
    spec = scenarios["center_cycle"].spec
    rep = classify_periodic(spec, np.array([0.0, 0.2, 0.0]), 2.0 * math.pi)
    with pytest.raises(ValueError, match="cannot satisfy uniform estimates"):
        uniform_periodic_estimates(spec, [rep], t_min=1.0, eta=0.5)


def test_uniform_estimates_need_both_bundles():
    # attracting cycle: r' = r (1 - r^2), theta' = 1, z' = -z; index 2 of 2
    def field(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array(
            [x[0] * (1 - r2) - x[1], x[1] * (1 - r2) + x[0], -x[2]]
        )

    def jacobian(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array(
            [
                [1 - r2 - 2 * x[0] ** 2, -2 * x[0] * x[1] - 1, 0.0],
                [-2 * x[0] * x[1] + 1, 1 - r2 - 2 * x[1] ** 2, 0.0],
                [0.0, 0.0, -1.0],
            ]
        )

    sink = VectorFieldSpec(name="cycle_sink", dim=3, field=field, jacobian=jacobian)
    rep = classify_periodic(sink, np.array([1.0, 0.0, 0.0]), 2.0 * math.pi)
    assert rep.hyperbolic and rep.index == 2
    with pytest.raises(ValueError, match="nontrivial stable and unstable parts"):
        uniform_periodic_estimates(sink, [rep], t_min=1.0, eta=0.1)


def test_arc_to_periodic_orbit_closes_arc(scenarios):
    """A certified near-closing arc yields a periodic orbit that tracks it."""
    spec = scenarios["saddle_cycle"].spec
    x = np.array([1.001, 0.0, 1e-5])
    tau = 2.0 * math.pi
    # backward time blows up off the cycle near t = -3.1, so pad only 2 units
    coc = build_cocycle(spec, x, 10.8, 0.05, t_start=-2.0)
    est = estimate_splitting(coc, 1, window_time=2.0)
    cert = check_quasi_hyperbolic(spec, x, tau, est, 0.5, 1.0)
    assert cert.ok
    shadow = arc_to_periodic_orbit(spec, x, tau, cert, 0.01)
    assert shadow.period == pytest.approx(tau, abs=1e-6)
    assert shadow.newton_residual <= 1e-9
    assert math.hypot(shadow.point[0], shadow.point[1]) == pytest.approx(1.0, abs=1e-6)
    assert abs(shadow.point[2]) <= 1e-8
    assert 1e-4 <= shadow.distance <= 0.01


def test_arc_to_periodic_orbit_validation(cycle_arc_est):
    spec, est = cycle_arc_est
    x = np.array([1.0, 0.0, 0.0])
    good = check_quasi_hyperbolic(spec, x, 6.0, est, 0.5, 1.0)
    bad = check_quasi_hyperbolic(spec, x, 6.0, est, 1.6, 1.0)
    with pytest.raises(ValueError, match="certificate does not hold"):
        arc_to_periodic_orbit(spec, x, 6.0, bad, 0.01)
    # theta advances 6 radians, 0.28 short of closing the loop
    with pytest.raises(ValueError, match="does not nearly close up"):
        arc_to_periodic_orbit(spec, x, 6.0, good, 0.01)
    # the arc runs forward in time from x
    with pytest.raises(ValueError, match=r"^tau and delta must be positive and finite \(got tau=-6.0"):
        arc_to_periodic_orbit(spec, x, -6.0, good, 0.01)
    # one sample is the arc's start alone, and its gap to itself is 0
    with pytest.raises(ValueError, match=r"^samples must be at least 2 and finite \(got samples=1\)$"):
        arc_to_periodic_orbit(spec, x, 6.0, good, 0.01, samples=1)
