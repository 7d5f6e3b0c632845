"""Splitting estimates, domination checks, fits, and arc certificates."""

import collections
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from flowlab import (
    ConsistencyError,
    DominationGapError,
    NormalCocycle,
    SplittingDegenerateError,
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
from flowlab import flow, poincare, splitting
from flowlab.flow import _plain
from flowlab.splitting import _partition_log_norms, _push_basis, _window_log_norms

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
        with pytest.raises(ValueError, match="p must be an integer between 1 and 1"):
            estimate_splitting(est.cocycle, p)


@pytest.mark.parametrize("p", [True, 1.0, 1.5, np.float64(1.0), "1"])
def test_estimate_requires_an_integer_rank(saddle_est, p):
    """A bool, a float (even an integral one) or a string is not a rank."""
    with pytest.raises(ValueError, match=rf"^p must be an integer between 1 and 1 \(got p={p}\)$"):
        estimate_splitting(saddle_est[1].cocycle, p)


def test_estimate_accepts_a_numpy_integer_rank(saddle_est):
    est = estimate_splitting(saddle_est[1].cocycle, np.int64(1))
    assert est.p == 1 and est.gap_ratio_min == saddle_est[1].gap_ratio_min


def test_estimate_rejects_planar_normal_space(scenarios):
    # dim 2 leaves a single normal direction, too few to split
    coc = build_cocycle(scenarios["neutral_line"].spec, np.array([0.0, 0.3]), 2.0, 0.05)
    with pytest.raises(ValueError, match="p must be an integer between 1 and 0"):
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


def test_estimate_reports_nearly_tangent_bundles():
    """A constant cocycle whose contracting and expanding eigenvectors are
    1e-8 apart has a wide gap but bundles at angle 1e-8, so the first probed
    sample fails with sigma_min = 1e-8 / sqrt(2)."""
    dt, m = 0.05, 400
    v = np.array([[1.0, 1.0], [0.0, 1e-8]])
    step = v @ np.diag(np.exp(np.array([-2.0, 1.0]) * dt)) @ np.linalg.inv(v)
    coc = NormalCocycle(
        None,
        dt * np.arange(m + 1),
        np.zeros((m + 1, 3)),
        np.broadcast_to(np.eye(3)[:, 1:], (m + 1, 3, 2)),
        np.broadcast_to(step, (m, 2, 2)).copy(),
        1e-10,
    )
    with pytest.raises(
        SplittingDegenerateError,
        match=r"nearly tangent at sample 60 \(sigma_min = 7\.07e-09\)$",
    ):
        estimate_splitting(coc, 1, 3.0)


def _sequential_push(mats, basis):
    """``_push_basis`` one step at a time: each image re-orthonormalised,
    and a single column's log norms summed step by step."""
    bases = np.empty((len(mats) + 1,) + basis.shape)
    logs = np.full(len(mats) + 1, np.nan)
    bases[0] = basis
    if basis.shape[1] == 1:
        logs[0] = 0.0
    for i, a in enumerate(mats):
        img = a @ bases[i]
        if basis.shape[1] > 1:
            bases[i + 1] = np.linalg.qr(img)[0]
        else:
            norm = np.linalg.norm(img)
            bases[i + 1] = img / norm
            logs[i + 1] = logs[i] + math.log(norm)
    return bases, logs


def _assert_push_matches(got, ref):
    """Bases within 1e-12 (spans, through their projectors, for a wider
    basis, whose QR column signs may differ) and logs within
    ``1e-12 * max(1, |P|)``."""
    (bases, logs), (ref_bases, ref_logs) = got, ref
    assert bases.shape == ref_bases.shape and np.all(np.isfinite(bases))
    if bases.shape[2] > 1:
        bases, ref_bases = (b @ np.swapaxes(b, 1, 2) for b in (bases, ref_bases))
        assert np.all(np.isnan(logs)) and np.all(np.isnan(ref_logs))
    else:
        assert np.all(np.abs(logs - ref_logs) <= 1e-12 * np.maximum(1.0, np.abs(ref_logs)))
    assert np.max(np.abs(bases - ref_bases)) <= 1e-12


def _sequential_estimate(coc, p, window):
    """The estimate's seeds, bundles, log-growth table, gap and residual
    rebuilt one ``window_product``, one step and one sample at a time.

    The stable bundle is rebuilt from two seeds: the last window's trailing
    right singular vectors pulled back from ``m - window``, and across that
    window its trailing left ones pulled back from ``m``.  The estimate
    pulls back only the left ones, from ``m``, so matching this reference
    shows the identity ``W^-1 u_i = v_i / s_i`` between the two seeds."""
    trans, m = coc.trans, coc.steps
    n1 = trans.shape[1]
    q = n1 - p
    first = np.linalg.svd(coc.window_product(0, window))[0][:, :q]
    left, _, right = np.linalg.svd(coc.window_product(m - window, m))
    last = right.T[:, n1 - p :]
    unstable, unstable_logs = _sequential_push(trans[window:], first)
    inverse = np.linalg.inv(trans)[::-1]
    back, back_logs = _sequential_push(inverse[window:], last)
    tail, tail_logs = _sequential_push(inverse[:window], left[:, n1 - p :])
    stable = np.concatenate([back[::-1], tail[-2::-1]])
    stable_logs = np.concatenate([back_logs[::-1], tail_logs[-2::-1] - tail_logs[-1]])
    gap = np.inf
    for k in np.unique(np.linspace(0, m - window, 8).astype(int)):
        svals = np.linalg.svd(coc.window_product(k, k + window), compute_uv=False)
        gap = min(gap, float(svals[q - 1] / svals[q]))
    residual = 0.0
    for k in np.unique(np.linspace(window, m - window, min(50, m - 2 * window + 1)).astype(int)):
        if k < m - window:
            img = trans[k] @ stable[k]
            proj = stable[k + 1] @ (stable[k + 1].T @ img)
            residual = max(residual, float(np.linalg.norm(img - proj) / np.linalg.norm(img)))
    return first, last, stable, unstable, stable_logs, unstable_logs, gap, residual


def _assert_estimate_matches_sequential(coc, p, window_time):
    """The seeds, through their projectors ``B B^T``, and the gap match the
    ones rebuilt from sequential window products within 1e-12 (relative, for
    the gap): the estimate forms its windows from blocks of steps, which
    rounds differently.  The bundles and the log-growth table match the
    step-by-step push within 1e-12.  Returns the estimate and the reference's
    residual."""
    est = estimate_splitting(coc, p, window_time)
    w, m = est.window_steps, coc.steps
    first, last, stable, unstable, stable_logs, unstable_logs, gap, residual = (
        _sequential_estimate(coc, p, w)
    )
    for seed, ref in ((est.unstable[w], first), (est.stable[m - w], last)):
        assert np.max(np.abs(seed @ seed.T - ref @ ref.T)) <= 1e-12
    _assert_push_matches((est.stable, est.log_prefix[0]), (stable, stable_logs))
    _assert_push_matches((est.unstable[w:], est.log_prefix[1, w:]), (unstable, unstable_logs))
    assert np.all(np.isnan(est.unstable[:w])) and np.all(np.isnan(est.log_prefix[1, :w]))
    assert abs(est.gap_ratio_min - gap) <= 1e-12 * gap
    return est, residual


@pytest.mark.parametrize("name, p", [("saddle", 1), ("rotated", 1), ("rotated", 2)])
def test_batched_estimate_matches_sequential_windows(
    name, p, saddle_est, rotated_diagonal_cocycle
):
    """The residual, rounding on these invariant bundles, also lies within
    four units of rounding of the one the step-by-step bundles give."""
    coc = {"saddle": saddle_est[1].cocycle, "rotated": rotated_diagonal_cocycle}[name]
    est, residual = _assert_estimate_matches_sequential(coc, p, 3.0)
    assert abs(est.residual - residual) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("window", [16, 17, 1])
@pytest.mark.parametrize("p", [1, 2])
def test_blocked_gap_windows_match_sequential_products(window, p):
    """A window of a square number of steps is whole blocks (4 of 4); one
    more step pads a fifth block with three identities; a single step is
    one block of one.  Rates -4, 0 and 4 at dt 0.05 leave a gap of e^0.2
    at either rank even over a single step."""
    dt = 0.05
    coc = _rotated_cocycle((-4.0, 0.0, 4.0), dt, 200)
    est, _ = _assert_estimate_matches_sequential(coc, p, window * dt)
    assert est.window_steps == window


def _constant_cocycle(step, m, dt):
    """``m`` copies of the normal step ``step``, ``dt`` apart from time -3,
    along an orbit resting at the origin."""
    n = len(step)
    return NormalCocycle(
        None,
        -3.0 + dt * np.arange(m + 1),
        np.zeros((m + 1, n + 1)),
        np.broadcast_to(np.eye(n + 1)[:, 1:], (m + 1, n + 1, n)),
        np.broadcast_to(step, (m, n, n)).copy(),
        1e-10,
    )


def _rotated_cocycle(rates, dt, m, seed=7):
    """A constant cocycle with the given normal rates, seen in a fixed
    random orthonormal frame."""
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(rates), len(rates))))[0]
    return _constant_cocycle(q @ np.diag(np.exp(np.array(rates) * dt)) @ q.T, m, dt)


def _random_steps(m, n, seed):
    """``m`` well-conditioned steps near the identity with a drift that
    expands the first axis."""
    rng = np.random.default_rng(seed)
    drift = np.diag(np.linspace(0.3, -0.3, n))
    return np.array([np.eye(n) + drift + 0.2 * rng.normal(size=(n, n)) for _ in range(m)])


@pytest.mark.parametrize("m", [1, 2, 15, 16, 17])
def test_push_matches_sequential_across_block_boundaries(m):
    """One step; two blocks of one step; whole blocks (5 of 3 steps, 4 of 4);
    and 17 steps, whose fifth block is one step padded with three identities."""
    mats = _random_steps(m, 2, m)
    basis = np.array([[0.6], [0.8]])
    _assert_push_matches(_push_basis(mats, basis), _sequential_push(mats, basis))


@pytest.mark.parametrize("m", [1, 16, 17, 700])
def test_push_matches_sequential_wide_basis(m, rotated_diagonal_cocycle):
    """A rank-2 basis in three normal directions takes the batched QR path;
    its spans match the step-by-step push."""
    mats = _random_steps(m, 3, m) if m < 700 else rotated_diagonal_cocycle.trans
    basis = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 2)))[0]
    _assert_push_matches(_push_basis(mats, basis), _sequential_push(mats, basis))


def test_push_keeps_wide_basis_on_exact_span_over_long_cocycle():
    """A constant step with rates -2, 1, 2 in a rotated frame over 40,000
    steps of 0.05: blocks of ``isqrt(m)`` = 200 steps would spread the
    pushed span's singular values by e^200 forward and e^600 pulled back.
    Pushed forward from the exact unstable span, and pulled back from the
    exact stable span through the inverted step, every base stays on it."""
    frame = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))[0]
    step = frame @ np.diag(np.exp(np.array([-2.0, 1.0, 2.0]) * 0.05)) @ frame.T
    for a, span in ((step, frame[:, 1:]), (np.linalg.inv(step), frame[:, :2])):
        bases, logs = _push_basis(np.broadcast_to(a, (40_000, 3, 3)), span)
        assert bases.shape == (40_001, 3, 2) and np.all(np.isnan(logs))
        exact = span @ span.T
        assert np.max(np.abs(bases @ np.swapaxes(bases, 1, 2) - exact)) <= 1e-12


def test_push_matches_sequential_pull_back(saddle_est):
    """The stable seed pulled back through the inverted steps of saddle_cycle."""
    est = saddle_est[1]
    w, trans = est.window_steps, est.cocycle.trans
    inverse = np.linalg.inv(trans[: est.cocycle.steps - w])[::-1]
    seed = est.stable[est.k_hi]
    _assert_push_matches(_push_basis(inverse, seed), _sequential_push(inverse, seed))


def test_push_cannot_overflow():
    """A constant step ``R diag(e^8, e^-8) R^T`` over 10,000 steps grows each
    block's product by e^800, past the largest double: the scaled prefixes
    keep every log and basis finite and on the step-by-step push."""
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    mats = np.broadcast_to(rot @ np.diag([math.exp(8.0), math.exp(-8.0)]) @ rot.T, (10_000, 2, 2))
    for basis in (np.array([[1.0], [0.0]]), rot[:, :1]):
        bases, logs = _push_basis(mats, basis)
        ref_bases, ref_logs = _sequential_push(mats, basis)
        assert np.all(np.isfinite(bases)) and np.all(np.isfinite(logs))
        assert np.all(np.abs(logs - ref_logs) <= 1e-12 * np.abs(ref_logs).clip(min=1.0))
        assert np.max(np.abs(bases - ref_bases)) <= 1e-12
    # from the expanding eigenvector the growth is exactly e^8 per step
    np.testing.assert_allclose(logs[1:], 8.0 * np.arange(1, 10_001), rtol=1e-12)


def _line_counts(call):
    """How many times each line of ``splitting`` runs during ``call()``."""
    counts = collections.Counter()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != splitting.__file__:
            return None
        if event == "line":
            counts[frame.f_lineno] += 1
        return tracer

    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
    return counts


def test_push_has_no_per_step_loop():
    """The push loops once per position in a block and once per block
    carried across, about ``2 sqrt(m)`` iterations of a few lines each: far
    fewer lines of ``splitting`` run than there are steps (3200, as in a
    cocycle over 16 time units at dt 0.005)."""
    trans = _random_steps(3200, 2, 0)
    lines = sum(_line_counts(lambda: _push_basis(trans, np.array([[0.0], [1.0]]))).values())
    m = len(trans)
    assert 0 < lines <= 16 * math.isqrt(m)  # 896 lines; the push runs 700


def test_estimate_forms_no_sequential_window_product(saddle_est, monkeypatch):
    def refuse(self, i, j):
        raise AssertionError("estimate_splitting formed a sequential window product")

    coc = saddle_est[1].cocycle
    monkeypatch.setattr(NormalCocycle, "window_product", refuse)
    est = estimate_splitting(coc, 1)
    assert est.gap_ratio_min > 100.0


def test_estimate_seeds_and_pushes_each_bundle_once(sweep_est, monkeypatch):
    """A rank-1 estimate pushes each bundle once and takes two SVDs: one of
    the eight gap windows, which gives the gap and both seeds, and one of
    the probed bases."""
    calls = collections.Counter()

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(splitting, "_push_basis", counted("push", _push_basis))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    estimate_splitting(sweep_est.cocycle, 1)
    assert calls == {"push": 2, "svd": 2}


def test_estimate_checks_the_gap_before_any_push(monkeypatch):
    """Equal normal rates leave no gap, and the estimate says so before it
    pushes a bundle."""

    def refuse(mats, basis):
        raise AssertionError("estimate_splitting pushed a bundle before checking the gap")

    monkeypatch.setattr(splitting, "_push_basis", refuse)
    step = np.diag(np.exp(np.array([-1.0, -1.0]) * 0.01))
    with pytest.raises(DominationGapError, match="singular-value ratio 1.000 < 1.2"):
        estimate_splitting(_constant_cocycle(step, 700, 0.01), 1)


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
        (lambda est, x: fit_hyperbolic(est, n_times=12.0), r"n_times must .* \(got n_times=12.0\)"),
        (lambda est, x: fit_hyperbolic(est, n_times=2.5), r"n_times must .* \(got n_times=2.5\)"),
        (lambda est, x: fit_hyperbolic(est, n_bases=2.5), r"n_bases must .* \(got n_bases=2.5\)"),
        (lambda est, x: fit_hyperbolic(est, n_bases=True), r"n_bases must .* \(got n_bases=True\)"),
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
    """With every product equal, the first base of the first time wins.  The
    log-growth tables are blanked, as a wider bundle's are, so the check
    reads every length's log products from the scan."""
    _, est = saddle_est
    est = dataclasses.replace(est, log_prefix=np.full_like(est.log_prefix, np.nan))

    def flat_scan(est, side, ks, js):
        return np.full((len(js), len(ks)), math.log(0.25) if side == 0 else 0.0)

    monkeypatch.setattr(splitting, "_window_log_norms", flat_scan)
    dom = check_domination(est, 0.4)
    assert dom.worst_product == 0.25
    assert dom.worst_t == pytest.approx(0.4, abs=1e-12)
    assert dom.worst_base_time == est.cocycle.times[est.k_lo]


def _integer_table_estimate(est):
    """``est`` with integer log-growth tables, -2k stable and k unstable."""
    k = np.arange(est.cocycle.steps + 1, dtype=float)
    return dataclasses.replace(est, log_prefix=np.array([-2.0 * k, k]))


def test_tie_rule_on_exact_integer_tables(saddle_est):
    """Integer log-growth tables, -2k stable and k unstable, give every base
    the same log product ``D[k + j] - D[k] = -3j``, bit for bit: the first
    base of the first length wins, and its product is ``exp(-3j)``."""
    est = _integer_table_estimate(saddle_est[1])
    dom = check_domination(est, 0.4)
    assert dom == _sequential_domination(est, 0.4)
    assert dom.worst_product == math.exp(-24.0)
    assert dom.worst_t == pytest.approx(0.4, abs=1e-12)
    assert dom.worst_base_time == est.cocycle.times[est.k_lo]


def _domination_loop(est, l, values, product):
    """``check_domination`` as one loop over the window lengths: each
    length's ``values(j, ks, ls, lu)`` over the bases, its first maximum
    kept, and the first length whose maximum is largest the worst; the
    reported products are ``product`` of those maxima."""
    dt = est.cocycle.dt
    j_lo = max(1, math.ceil(l / dt - 1e-9))
    j_hi = math.floor(3.0 * l / dt + 1e-9)
    ks = np.arange(est.k_lo, min(est.k_hi, est.cocycle.steps - j_hi) + 1)
    worst, worst_base, worst_t, per_t = -np.inf, 0.0, 0.0, []
    js = range(j_lo, j_hi + 1)
    stable, unstable = (_window_log_norms(est, side, ks, js) for side in (0, 1))
    for j, ls, lu in zip(js, stable, unstable):
        row = values(j, ks, ls, lu)
        idx = int(np.argmax(row))
        if row[idx] > worst:
            worst, worst_base, worst_t = row[idx], float(est.cocycle.times[ks[idx]]), j * dt
        per_t.append((j * dt, float(product(row[idx]))))
    worst = float(product(worst))
    return splitting.DominationCheck(
        bool(worst <= 0.5 + 1e-12), float(l), worst, worst_base, worst_t, tuple(per_t), len(ks)
    )


def _sequential_domination(est, l):
    """The log-space loop: ``D[k + j] - D[k]`` with ``D = P_stable -
    P_unstable`` between rank-1 bundles, ``ls - lu`` for a wider bundle,
    and ``exp`` of each length's first maximum only."""
    d = est.log_prefix[0] - est.log_prefix[1]
    rank_1 = est.stable.shape[2] == est.unstable.shape[2] == 1

    def log_products(j, ks, ls, lu):
        return d[ks + j] - d[ks] if rank_1 else ls - lu

    return _domination_loop(est, l, log_products, np.exp)


def _quotient_domination(est, l):
    """The earlier loop, forming every product as ``exp(ls) / exp(lu)``."""
    return _domination_loop(est, l, lambda j, ks, ls, lu: np.exp(ls) / np.exp(lu), float)


# the splitting-sweep benchmark's l values, on both sides of ln(2)/3
SWEEP_LS = (0.192, 0.212, 0.232, 0.252, 0.272, 0.292)


@pytest.fixture(scope="module", params=[0.3, 2.0, 4.4])
def sweep_est(request, scenarios):
    """A 3200-step saddle_cycle cocycle at dt 0.005 from a phase of the cycle."""
    x = np.array([math.cos(request.param), math.sin(request.param), 0.0])
    coc = build_cocycle(scenarios["saddle_cycle"].spec, x, 16.0, 0.005, t_start=-3.0)
    return estimate_splitting(coc, 1)


def test_domination_scan_equals_sequential_loop(sweep_est):
    """Field by field, bit for bit."""
    for l in SWEEP_LS:
        assert check_domination(sweep_est, l) == _sequential_domination(sweep_est, l)


@pytest.mark.parametrize("p, ls", [(1, (0.19, 0.3)), (2, (0.5, 0.8))])
def test_domination_scan_equals_sequential_loop_on_constant_cocycles(
    rotated_diagonal_cocycle, p, ls
):
    """The exact ties of rates -2 and 1, and both wide bundles of the rotated
    cocycle (read from the scan)."""
    step = np.diag(np.exp(np.array([-2.0, 1.0]) * 0.01))
    tie = estimate_splitting(_constant_cocycle(step, 700, 0.01), 1)
    wide = estimate_splitting(rotated_diagonal_cocycle, p)
    for est, l in [(tie, 0.3), (tie, 0.15)] + [(wide, l) for l in ls]:
        assert check_domination(est, l) == _sequential_domination(est, l)


def _assert_keeps_quotient_picks(est, l):
    """The log-space check picks the base and time the quotient loop picks,
    with the same verdict, and its products lie within 1e-12 relative."""
    dom, ref = check_domination(est, l), _quotient_domination(est, l)
    assert (dom.ok, dom.worst_base_time, dom.worst_t, dom.n_bases) == (
        ref.ok, ref.worst_base_time, ref.worst_t, ref.n_bases
    )
    got, want = (np.array([v for _, v in c.products_per_t]) for c in (dom, ref))
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_domination_keeps_quotient_picks_on_sweep(sweep_est):
    for l in SWEEP_LS + (0.15, 0.26, 0.4, 1.0):
        _assert_keeps_quotient_picks(sweep_est, l)


def test_domination_keeps_quotient_picks_on_ties(saddle_est):
    """The -2/1 tie cocycle and the integer tables keep their first bases."""
    step = np.diag(np.exp(np.array([-2.0, 1.0]) * 0.01))
    tie = estimate_splitting(_constant_cocycle(step, 700, 0.01), 1)
    for est, l in ((tie, 0.3), (tie, 0.15), (_integer_table_estimate(saddle_est[1]), 0.4)):
        _assert_keeps_quotient_picks(est, l)


@pytest.mark.parametrize("m, dt", [(10_000, 0.01), (40_000, 0.007)])
def test_domination_products_of_large_tables_meet_closed_form(m, dt):
    """Rates -8 and 8 in every frame, so every base's product is e^{-16t}
    in exact arithmetic, while the tables reach ``|P| = 8 (m - w) dt`` for a
    window of ``w`` steps: 776 and 2216.  Subtracting nearby entries of one
    table is exact, so a log product misses ``-16t`` only by the rounding of
    ``D = P_s - P_u`` and of the tables themselves: every product lies within
    ``8 eps (1 + max |D|)`` relative of the closed form."""
    step = np.diag(np.exp(np.array([-8.0, 8.0]) * dt))
    est = estimate_splitting(_constant_cocycle(step, m, dt), 1)
    span = est.log_prefix[:, est.k_lo :]
    assert np.max(np.abs(span)) == pytest.approx(8.0 * (m - est.window_steps) * dt)
    bound = 8.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(span[0] - span[1])))
    for l in (dt, 2 * dt):
        dom = check_domination(est, l)
        assert dom == _sequential_domination(est, l)
        for t, value in dom.products_per_t:
            closed = math.exp(-16.0 * round(t / dt) * dt)
            assert abs(value - closed) <= bound * closed


@pytest.mark.parametrize("rates", [(10.0, 20.0), (-20.0, -10.0)])
def test_domination_of_tables_beyond_exp_range(rates):
    """Normal rates 10 and 20 (or -20 and -10) over 200 time units: at
    ``l = 30`` every window's log norm and log conorm lies beyond 700, where
    ``exp`` overflows or underflows, while the log product is ``-10t``.  The
    check reads the closed form ``e^{-300}`` at ``t = l``, with no warning."""
    step = np.diag(np.exp(np.array(rates) * 0.05))
    est = estimate_splitting(_constant_cocycle(step, 4000, 0.05), 1)
    dom = check_domination(est, 30.0)
    assert dom == _sequential_domination(est, 30.0)
    assert dom.ok
    assert dom.worst_t == pytest.approx(30.0, abs=1e-9)
    assert dom.worst_product == pytest.approx(math.exp(-300.0), rel=1e-12)


def test_domination_scan_memory(sweep_est):
    """The sweep's six checks peak below 2 MB of traced allocations: the
    lengths are scanned 16 at a time."""
    tracemalloc.start()
    try:
        for l in SWEEP_LS:
            check_domination(sweep_est, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_domination_has_no_per_length_loop(sweep_est):
    """With rank-1 bundles no line of ``splitting`` runs once per window
    length: at l = 0.292 the 117 lengths are 8 chunks of at most 16."""
    counts = _line_counts(lambda: check_domination(sweep_est, 0.292))
    assert len(check_domination(sweep_est, 0.292).products_per_t) == 117
    assert 0 < max(counts.values()) <= 117 // 8


def test_estimate_has_no_per_step_loop(sweep_est):
    """The gap windows of 600 steps are formed from blocks of 24, and the
    pushes from blocks of about ``sqrt(m)``: no line of ``splitting`` runs
    once per step of a window."""
    assert sweep_est.window_steps == 600
    counts = _line_counts(lambda: estimate_splitting(sweep_est.cocycle, 1))
    assert 0 < max(counts.values()) <= 600 // 4


def test_domination_scans_each_row_once(sweep_est, monkeypatch):
    """Checks on one estimate scan each (length, last base) pair once: the
    sweep's l values shuffled and repeated, with l = 1.2, whose last base
    is 2480 where the sweep's is 2600, each equal the sequential loop.  A
    copy made by ``dataclasses.replace`` starts with no rows, and its first
    check scans 16 lengths at a time within 2 MB."""
    fresh = dataclasses.replace(sweep_est)
    assert not fresh._rows
    counts = _line_counts(lambda: check_domination(fresh, 0.292))
    assert 0 < max(counts.values()) <= 117 // 8
    tracemalloc.start()
    try:
        for l in SWEEP_LS:
            check_domination(dataclasses.replace(sweep_est), l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6

    est = dataclasses.replace(sweep_est)
    scanned = collections.Counter()
    scan = splitting._scan_rows

    def counted_scan(d, n, js, tops, picks):
        scanned.update((int(j), n) for j in js)
        scan(d, n, js, tops, picks)

    monkeypatch.setattr(splitting, "_scan_rows", counted_scan)
    ls = [*SWEEP_LS, *SWEEP_LS[::2], 1.2]
    np.random.default_rng(26).shuffle(ls)
    needed = set()
    for l in ls:
        dom = check_domination(est, l)
        assert dom == _sequential_domination(est, l)
        needed |= {(round(t / est.cocycle.dt), dom.n_bases) for t, _ in dom.products_per_t}
    assert set(scanned) == needed and max(scanned.values()) == 1
    assert sorted(est._rows) == [2480, 2600]
    assert sorted(j for j, n in scanned if n == 2600 - 600 + 1) == list(range(39, 176))
    assert not dataclasses.replace(est, log_prefix=est.log_prefix.copy())._rows


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
def test_estimate_lies_on_exact_bundles_of_rotated_cocycle(rotated_diagonal_cocycle, p):
    """Both bundles lie on the cocycle's invariant spans, the stable one also
    across the last window, where pushing it forward against its contraction
    would amplify rounding by e^12; the rank-1 bundle's log-growth table is
    its rate times the elapsed time."""
    coc = rotated_diagonal_cocycle
    est = estimate_splitting(coc, p)
    w, m, dt = est.window_steps, coc.steps, coc.dt
    frame = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))[0]
    for bases, span in ((est.stable, frame[:, :p]), (est.unstable[w:], frame[:, p:])):
        assert np.max(np.abs(bases @ np.swapaxes(bases, 1, 2) - span @ span.T)) <= 1e-12
    side, rate, origin = (0, -2.0, m - w) if p == 1 else (1, 2.0, w)
    exact = rate * dt * (np.arange(origin if side else 0, m + 1) - origin)
    logs = est.log_prefix[side, origin if side else 0 :]
    assert np.all(np.abs(logs - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))


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
    # one batched SVD of the three restricted 2 x 2 products per length, none for rank 1
    assert seen == [(3, 2, 2)] * 3


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


@pytest.mark.parametrize("rates", [(-10.0, -9.0, 9.0, 10.0), (-4.0, -3.0, 2.0, 3.0)])
def test_wide_bundles_meet_closed_forms(rates):
    """Rank-2 bundles in four normal directions, seen in a rotated frame:
    the stable bundle's norm is ``e^{r_2 t}`` and the unstable one's conorm
    ``e^{r_3 t}``, so the fit reads those rates with both constants 1, and
    the checked product is ``e^{(r_2 - r_3) t}`` at ``t = l``.  The wide
    stable bundle is read inside itself: pushed forward in the full space,
    its bases pick up the unstable rates' rounding, and the fit read a rate
    of 6360 on the first cocycle."""
    est = estimate_splitting(_rotated_cocycle(rates, 0.01, 2000, seed=3), 2)
    assert est.stable.shape[2] == est.unstable.shape[2] == 2
    fit = fit_hyperbolic(est)
    assert fit.ok
    closed = (math.exp(rates[1]), 1.0, math.exp(-rates[2]), 1.0)
    got = (fit.lambda_stable, fit.c_stable, fit.lambda_unstable, fit.c_unstable)
    assert got == pytest.approx(closed, rel=1e-12)
    for l in (0.5, 2.5):
        dom = check_domination(est, l)
        assert dom.ok and dom.worst_t == pytest.approx(l, abs=1e-12)
        closed = math.exp((rates[1] - rates[2]) * dom.worst_t)
        assert dom.worst_product == pytest.approx(closed, rel=1e-12)


def test_wide_bundle_windows_do_not_overflow():
    """Rates 10, 11 | 20, 21 over windows up to t = 90 (1800 steps): the
    unscaled restricted products passed e^{709}, overflowed, and their SVD
    failed to converge.  Rescaled,
    the checked product is ``e^{-9t}`` (down to e^{-270}) and the fit reads
    the rates ``e^{11}`` and ``e^{-20}``; each within 1e-11 relative, which
    is 1e-11 absolute on the log."""
    est = estimate_splitting(_rotated_cocycle((10.0, 11.0, 20.0, 21.0), 0.05, 4000, seed=3), 2)
    for l in (1.0, 10.0, 30.0):
        dom = check_domination(est, l)
        assert dom.ok and dom.worst_t == pytest.approx(l, abs=1e-12)
        assert dom.worst_product == pytest.approx(math.exp(-9.0 * dom.worst_t), rel=1e-11)
    fit = fit_hyperbolic(est, t_hi=60.0)
    assert fit.lambda_stable == pytest.approx(math.exp(11.0), rel=1e-11)
    assert fit.lambda_unstable == pytest.approx(math.exp(-20.0), rel=1e-11)


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


def test_uniform_estimates_refuse_an_empty_family(scenarios):
    """No orbit gives no verdict, and the arguments are checked before the family is."""
    spec = scenarios["saddle_cycle"].spec
    with pytest.raises(ValueError, match=r"^reports must hold at least one periodic orbit"):
        uniform_periodic_estimates(spec, [], t_min=1.0, eta=0.5)
    with pytest.raises(ValueError, match=r"\(got dt=nan, window_time=-1\)$"):
        uniform_periodic_estimates(spec, [], 1.0, 0.5, dt=math.nan, window_time=-1)


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


def test_uniform_estimates_reuse_the_reports_build(scenarios, monkeypatch):
    """A classification and three eta calls on its report take 3 solves: the
    classification's, and one one-period cocycle's orbit and tangent.  Each
    result equals the call on a fresh report.  A report with another point,
    or a call with another spec object, builds afresh; a wrong period
    raises on every call and keeps nothing."""
    spec = scenarios["saddle_cycle"].spec
    solves = []
    solve = flow._solve

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow, "_solve", counted_solve)
    monkeypatch.setattr(poincare, "_solve", counted_solve)
    rep = classify_periodic(spec, np.array([1.0, 0.0, 0.0]), 2.0 * math.pi)
    etas = (0.5, 1.0, 1.6)
    outs = [uniform_periodic_estimates(spec, [rep], 1.0, eta) for eta in etas]
    assert len(solves) == 3
    for eta, out in zip(etas, outs):
        assert out == uniform_periodic_estimates(spec, [dataclasses.replace(rep)], 1.0, eta)
    assert len(solves) == 3 + 2 * len(etas)

    moved = dataclasses.replace(rep, point=rep.point + np.array([0.0, 0.0, 1e-9]))
    assert not moved._builds
    uniform_periodic_estimates(spec, [moved], 1.0, 0.5)
    assert len(solves) == 11
    other = dataclasses.replace(spec)
    assert uniform_periodic_estimates(other, [rep], 1.0, 0.5) == outs[0]
    assert len(solves) == 13
    ((cocycle, _),) = rep._builds.values()
    assert cocycle.spec is other

    wrong = dataclasses.replace(rep, period=1.01 * rep.period)
    for _ in range(2):
        with pytest.raises(ConsistencyError, match="off its start after period 6.34602"):
            uniform_periodic_estimates(spec, [wrong], t_min=1.0, eta=0.5)
    assert not wrong._builds


def test_report_json_has_only_public_fields(scenarios, cycle_report):
    """A report carrying a periodic build still writes its 8 public fields."""
    uniform_periodic_estimates(scenarios["saddle_cycle"].spec, [cycle_report], 1.0, 0.5)
    assert cycle_report._builds
    assert list(_plain(cycle_report)) == [
        "kind", "point", "period", "spectrum", "margins", "hyperbolic", "index",
        "index_with_flow",
    ]


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
    with pytest.raises(ValueError, match=r"^samples must be at least 2, as an integer \(got samples=1\)$"):
        arc_to_periodic_orbit(spec, x, 6.0, good, 0.01, samples=1)
