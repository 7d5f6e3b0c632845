"""Dominated splittings, hyperbolicity fits, and quasi-hyperbolic arcs.

All diagnostics run over a sampled :class:`~flowlab.poincare.NormalCocycle`.
The estimate forms its eight gap windows from blocks of steps, takes one
SVD of them and seeds each bundle once where its window ends, the unstable
one at the first, the stable one at the last.  Each is pushed once, only
the way it dominates: forward along the per-step transitions, or backward
through them (inverting only single steps), which keeps conditioning under
control even along strongly hyperbolic orbits.  The push is a blocked
prefix scan, about ``2 sqrt(m)`` batched steps over ``m`` transitions,
each prefix product rescaled as it is formed so that none overflows.

Both bundles are invariant by construction, so a rank-1 bundle's window
norms need no window products: the estimate keeps one log-growth table per
rank-1 bundle, the prefix sums ``P`` of its per-step log growths, and the
log norm over the window of length ``j`` at base ``k`` is
``P[k + j] - P[k]``.  One scan over ``P``, :func:`_window_log_norms`,
gives the log norms at every length and base as one array and serves every
diagnostic: domination, the fit, the arc partitions and the periodic
estimates.  Domination compares log products and exponentiates only each
length's largest.  Only a bundle of rank 2 or more is scanned with SVDs,
its steps restricted to it and multiplied one batch at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .flow import (DEFAULT_TOL, VectorFieldSpec, _orbit_points, _require_count,
                   _require_positive, distance)
from .poincare import (_PERIOD_DT, CriticalElementReport, NormalCocycle, _period_step,
                       _periodic_cocycle, find_periodic_newton)
from .shadowing import frechet_match, pairwise_distances

__all__ = [
    "DominationGapError",
    "SplittingDegenerateError",
    "SplittingEstimate",
    "estimate_splitting",
    "DominationCheck",
    "check_domination",
    "HyperbolicFit",
    "fit_hyperbolic",
    "QuasiHyperbolicCertificate",
    "check_quasi_hyperbolic",
    "UniformEstimates",
    "uniform_periodic_estimates",
    "PeriodicShadow",
    "arc_to_periodic_orbit",
]


class DominationGapError(RuntimeError):
    """Window products show no usable singular-value gap at the requested rank."""


class SplittingDegenerateError(RuntimeError):
    """Estimated stable and unstable bundles are nearly tangent somewhere."""


@dataclass(eq=False, repr=False)
class SplittingEstimate:
    """Sampled stable/unstable normal bundles along one orbit.

    ``basis_at(k)`` returns orthonormal bases ``(Bs, Bu)`` of the candidate
    stable (dimension ``p``) and unstable bundles at sample ``k``; valid
    samples are ``k_lo <= k <= k_hi`` (one finite-time window away from each
    end of the cocycle).

    ``log_prefix`` is the log-growth table of the rank-1 bundles, row 0 for
    the stable bundle and row 1 for the unstable one: entry ``k`` sums the
    log growth of the bundle's basis over the steps before sample ``k``, so
    the window norm at base ``k`` and length ``j`` is
    ``exp(P[k + j] - P[k])``.  The row of a wider bundle is NaN, and so is
    the unstable row below ``k_lo``.

    ``_rows`` keeps the rows :func:`check_domination` has scanned between
    rank-1 bundles, by last base: for each, the worst log product at each
    window length and the offset of its base, NaN where no row is scanned
    yet.  It is empty in a copy made by ``dataclasses.replace``.
    """

    cocycle: NormalCocycle
    p: int
    window_steps: int
    stable: np.ndarray
    unstable: np.ndarray
    gap_ratio_min: float
    residual: float
    log_prefix: np.ndarray
    _rows: dict = field(default_factory=dict, init=False)

    @property
    def k_lo(self) -> int:
        return self.window_steps

    @property
    def k_hi(self) -> int:
        return self.cocycle.steps - self.window_steps

    def basis_at(self, k: int):
        if not self.k_lo <= k <= self.k_hi:
            raise IndexError(f"sample {k} outside the valid range [{self.k_lo}, {self.k_hi}]")
        return self.stable[k], self.unstable[k]


def _push_basis(mats, basis):
    """Images of the orthonormal ``basis`` under ``mats[0]``, then
    ``mats[1] @ mats[0]``, and so on, each image re-orthonormalised.

    Returns the bases (``basis`` first) and, for a single column, ``logs``
    with ``logs[i]`` the log norm of ``mats[i-1] @ ... @ mats[0] @ basis``
    (all NaN for a wider basis).

    A blocked prefix scan with no loop over single steps.  The ``m`` steps
    are cut into blocks of ``isqrt(m)``, the last padded with identities,
    and every block's prefix products are formed together, one batched
    multiply per position in the block.  Each prefix is divided by its norm
    as it is formed and the log of that scale is summed along the block, so
    no product overflows.  The basis is carried across the blocks one
    multiply each; then every image is one batched multiply and one batched
    normalisation: norms for a single column, QR for a wider basis.

    A wider basis spanning the dominant directions loses the spread
    ``s_1 / s_c`` of a prefix's singular values to rounding when that
    prefix's image is orthonormalised, and the spread grows with the block.
    Its blocks are therefore cut short, to the first position where some
    prefix spreads by more than 1e3, until none does.
    """
    m, (n, c) = len(mats), basis.shape
    size = max(1, math.isqrt(m))
    while True:
        blocks = -(-m // size)
        prefix = np.concatenate([mats, np.broadcast_to(np.eye(n), (blocks * size - m, n, n))])
        prefix = prefix.reshape(blocks, size, n, n)
        norms = np.empty((blocks, size))
        for r in range(size):
            if r:
                prefix[:, r] = prefix[:, r] @ prefix[:, r - 1]
            norms[:, r] = np.linalg.norm(prefix[:, r], axis=(1, 2))
            prefix[:, r] /= norms[:, r, None, None]
        if c == 1 or size == 1:
            break
        svals = np.linalg.svd(prefix, compute_uv=False)
        kept = np.all(svals[..., 0] <= 1e3 * svals[..., c - 1], axis=0)
        if kept.all():
            break
        size = max(1, int(np.argmin(kept)))
    scale = np.cumsum(np.log(norms), axis=1)

    def orthonormal(imgs):
        if c > 1:
            return np.linalg.qr(imgs)[0], 0.0
        norm = np.linalg.norm(imgs, axis=(-2, -1))
        return imgs / norm[..., None, None], np.log(norm)

    starts, offsets = [basis], [0.0]
    for b in range(blocks - 1):
        start, log_norm = orthonormal(prefix[b, -1] @ starts[-1])
        starts.append(start)
        offsets.append(offsets[-1] + scale[b, -1] + log_norm)
    images, log_norms = orthonormal(prefix @ np.array(starts)[:, None])
    bases = np.concatenate([basis[None], images.reshape(-1, n, c)[:m]])
    if c > 1:
        return bases, np.full(m + 1, np.nan)
    logs = log_norms + scale + np.array(offsets)[:, None]
    return bases, np.concatenate([[0.0], logs.ravel()[:m]])


def estimate_splitting(
    cocycle: NormalCocycle, p: int, window_time: float = 3.0
) -> SplittingEstimate:
    """Estimate a rank-``p`` stable / rank-``(n-1-p)`` unstable splitting.

    The eight gap windows' products are formed together from blocks of
    steps, the first at the cocycle's start and the last at its end, and
    take one SVD.  A singular-value ratio below 1.2 between ranks ``q`` and
    ``q+1`` raises :class:`DominationGapError` before any push.  Each
    bundle is seeded once, where its window ends, and pushed once: the
    first window's dominant left singular vectors seed the unstable bundle,
    pushed forward, and the last's trailing left ones seed the stable
    bundle at the cocycle's end, pulled backward through all the inverted
    steps.  Nearly tangent bundles raise :class:`SplittingDegenerateError`.
    """
    trans = cocycle.trans
    n1 = trans.shape[1]
    if isinstance(p, bool) or not (isinstance(p, (int, np.integer)) and 1 <= p <= n1 - 1):
        raise ValueError(f"p must be an integer between 1 and {n1 - 1} (got p={p})")
    _require_positive(window_time=window_time)
    q = n1 - p
    dt = cocycle.dt
    window = max(1, int(round(window_time / dt)))
    m = cocycle.steps
    if m < 2 * window + 2:
        raise ValueError(
            f"cocycle has {m} steps; need more than {2 * window + 2} for window {window_time}"
        )

    # the eight gap windows, each the product of its blocks of isqrt(window) steps
    # (the last padded with identities); the first and last seed the bundles
    ks = np.unique(np.linspace(0, m - window, 8).astype(int))
    size = math.isqrt(window)
    steps = trans[ks[:, None] + np.minimum(np.arange(-(-window // size) * size), window - 1)]
    steps[:, window:] = np.eye(n1)
    steps = steps.reshape(len(ks), -1, size, n1, n1)
    block = reduce(lambda prod, step: step @ prod, np.moveaxis(steps, 2, 0))
    prods = reduce(lambda prod, step: step @ prod, np.moveaxis(block, 1, 0))
    u, svals, _ = np.linalg.svd(prods)
    gap_min = float(np.min(svals[:, q - 1] / svals[:, q]))
    if gap_min < 1.2:
        raise DominationGapError(
            f"singular-value ratio {gap_min:.3f} < 1.2 at rank {q} over windows of "
            f"{window * dt:.3g} time units; no dominated splitting at this rank"
        )
    log_prefix = np.full((2, m + 1), np.nan)
    unstable = np.full((m + 1, n1, q), np.nan)
    unstable[window:], log_prefix[1, window:] = _push_basis(trans[window:], u[0][:, :q])

    # the stable bundle dominates the inverted steps, so it is only pulled
    # back, from m; its table is anchored at P[m - window] = 0, and
    # P[k + j] - P[k] is the log growth of the forward steps from k
    stable, logs = _push_basis(np.linalg.inv(trans)[::-1], u[-1][:, n1 - p :])
    stable, log_prefix[0] = stable[::-1], logs[::-1] - logs[window]

    probe = np.unique(np.linspace(window, m - window, min(50, m - 2 * window + 1)).astype(int))
    smin = np.linalg.svd(np.dstack([stable[probe], unstable[probe]]), compute_uv=False)[:, -1]
    if np.any(smin < 1e-6):
        i = int(np.argmax(smin < 1e-6))
        raise SplittingDegenerateError(
            f"stable and unstable bundles nearly tangent at sample {probe[i]} "
            f"(sigma_min = {smin[i]:.3g})"
        )
    inner = probe[:-1]  # every probe but the last, k_hi
    img, nxt = trans[inner] @ stable[inner], stable[inner + 1]
    proj = nxt @ (np.swapaxes(nxt, 1, 2) @ img)
    miss, size = (np.linalg.norm(a, axis=(1, 2)) for a in (img - proj, img))
    residual = float(max([0.0, *(miss / np.maximum(size, 1e-300))]))
    return SplittingEstimate(cocycle, p, window, stable, unstable, gap_min, residual, log_prefix)


def _window_log_norms(est: SplittingEstimate, side: int, ks, js) -> np.ndarray:
    """The log of the extreme singular value of the window product
    restricted to one bundle, at row ``r`` and column ``c`` for length
    ``js[r]`` (ascending) and base ``ks[c]``: the largest on the stable side
    (``side`` 0), the smallest on the unstable side (1).

    A rank-1 bundle is one gather from the log-growth table,
    ``P[k + j] - P[k]``.  A wider one multiplies its steps restricted to the
    invariant bundle, ``T_k = B_{k+1}^T Psi_k B_k``, formed together once,
    and takes one batched SVD per length: rounding off the bundle is dropped
    at every step, where pushed ``n x c`` bases let the directions the
    bundle does not dominate amplify it.  Each running product is rescaled
    as it is formed, its log scale summed as in :func:`_push_basis`.
    """
    ks, js = np.asarray(ks), np.asarray(js)
    bundle = (est.stable, est.unstable)[side]
    if bundle.shape[-1] == 1:
        table = est.log_prefix[side]
        return table[ks + js[:, None]] - table[ks]
    lo, hi = ks.min(), ks.max() + js[-1]
    bases = bundle[lo : hi + 1]
    restricted = np.swapaxes(bases[1:], 1, 2) @ est.cocycle.trans[lo:hi] @ bases[:-1]
    prods, scale, rows = np.eye(bundle.shape[-1]), 0.0, []
    for j, done in zip(js, [0, *js]):
        for i in range(done, j):
            prods = restricted[ks - lo + i] @ prods
            norms = np.linalg.norm(prods, axis=(1, 2))
            prods /= norms[:, None, None]
            scale += np.log(norms)
        svals = np.linalg.svd(prods, compute_uv=False)[:, 0 if side == 0 else -1]
        rows.append(np.log(svals) + scale)
    return np.array(rows)


def _scan_rows(d, n, js, tops, picks) -> None:
    """Set ``tops[j]`` to the largest of ``d[c + j] - d[c]`` over the bases
    ``0 <= c < n`` and ``picks[j]`` to its first ``c``, for every length
    ``j`` in ``js``: one strided difference per 16 lengths."""
    windows = sliding_window_view(d, n)
    for lo in range(0, len(js), 16):
        rows = js[lo : lo + 16]
        diff = windows[rows]
        diff -= d[:n]
        picks[rows] = np.argmax(diff, axis=1)
        tops[rows] = diff[np.arange(len(rows)), picks[rows]]


@dataclass(frozen=True)
class DominationCheck:
    ok: bool
    l: float
    worst_product: float
    worst_base_time: float
    worst_t: float
    products_per_t: tuple  # of (t, max over bases)
    n_bases: int


def check_domination(est: SplittingEstimate, l: float) -> DominationCheck:
    """Check ``|Psi_t restricted to stable| * |Psi_-t restricted to unstable| <= 1/2``
    for every sampled base point and every ``t`` in ``[l, 3l]`` on the grid.

    The backward norm on the unstable bundle is the reciprocal of the
    forward conorm, so the checked product's log is ``ls - lu`` for the
    window's log norm ``ls`` and log conorm ``lu``; between rank-1 bundles it
    is ``D[k + j] - D[k]``, ``D = P_stable - P_unstable``, one strided
    difference per 16 lengths.  The worst product is the first maximum of
    the log product in scan order (``t`` ascending, then base time
    ascending), which fixes ``worst_base_time`` among tied bases; only the
    maxima are exponentiated, so no product overflows on the way.

    Between rank-1 bundles a length's worst log product and its base depend
    only on the estimate, the length and the last base, so they are kept on
    ``est``, keyed by the last base, and a later check scans only the
    lengths no earlier check on ``est`` has scanned with that last base.
    """
    dt = est.cocycle.dt
    l = float(l)
    _require_positive(l=l)
    j_lo = max(1, math.ceil(l / dt - 1e-9))
    j_hi = math.floor(3.0 * l / dt + 1e-9)
    if j_hi < j_lo:
        raise ValueError(f"no grid times inside [{l}, {3 * l}] at dt={dt:.3g}")
    hi_base = min(est.k_hi, est.cocycle.steps - j_hi)
    if hi_base < est.k_lo:
        raise ValueError("cocycle too short for the requested window; extend the orbit")
    ks = np.arange(est.k_lo, hi_base + 1)
    js = np.arange(j_lo, j_hi + 1)
    n = len(ks)

    # the tables from the first base on: D[k + j] - D[k] is d[c + j] - d[c]
    d = est.log_prefix[0, ks[0] :] - est.log_prefix[1, ks[0] :]
    if np.isnan(d[: n + j_hi]).any():  # a wider bundle has no table
        logs = np.subtract(*(_window_log_norms(est, side, ks, js) for side in (0, 1)))
        picks = np.argmax(logs, axis=1)
        tops = logs[np.arange(len(js)), picks]
    else:
        rows = len(d) - n + 1
        tops, picks = est._rows.setdefault(
            hi_base, (np.full(rows, np.nan), np.zeros(rows, dtype=int))
        )
        _scan_rows(d, n, js[np.isnan(tops[js])], tops, picks)
        tops, picks = tops[js], picks[js]
    w = int(np.argmax(tops))
    products = np.exp(tops)
    worst = float(products[w])
    return DominationCheck(
        ok=bool(worst <= 0.5 + 1e-12),
        l=l,
        worst_product=worst,
        worst_base_time=float(est.cocycle.times[ks[picks[w]]]),
        worst_t=float(js[w] * dt),
        products_per_t=tuple(zip((js * dt).tolist(), products.tolist())),
        n_bases=n,
    )


@dataclass(frozen=True)
class HyperbolicFit:
    ok: bool
    lambda_stable: float
    c_stable: float
    stable_ok: bool
    lambda_unstable: float
    c_unstable: float
    unstable_ok: bool
    t_range: tuple
    reason: str


def fit_hyperbolic(
    est: SplittingEstimate,
    t_lo: float = 1.0,
    t_hi: Optional[float] = None,
    n_times: int = 12,
    n_bases: int = 60,
) -> HyperbolicFit:
    """Least-squares fit of ``C * lambda^t`` envelopes on both bundles.

    The stable side fits the forward norm on the stable bundle; the
    unstable side fits the backward norm on the unstable bundle (reciprocal
    forward conorm).  Each ``C`` is inflated so the envelope dominates every
    sample.  A bundle fails when its fitted rate is not below 1 by at least
    1e-3, and the overall fit fails if either side does.
    """
    _require_count(2, n_times=n_times)
    _require_count(1, n_bases=n_bases)
    _require_positive(t_lo=t_lo)
    dt = est.cocycle.dt
    m = est.cocycle.steps
    if t_hi is None:
        t_hi = min(8.0, 0.6 * dt * (m - est.k_lo))
    else:
        _require_positive(t_hi=t_hi)
    j_lo = max(1, math.ceil(t_lo / dt - 1e-9))
    j_hi = min(math.floor(t_hi / dt + 1e-9), m - est.k_lo)
    if j_hi < j_lo + 3:
        raise ValueError("sampled span too short for a meaningful fit")
    hi_base = min(est.k_hi, m - j_hi)
    ks = np.unique(np.linspace(est.k_lo, hi_base, min(n_bases, hi_base - est.k_lo + 1)).astype(int))
    j_grid = np.unique(np.linspace(j_lo, j_hi, n_times).astype(int))

    ls, lu = (_window_log_norms(est, side, ks, j_grid) for side in (0, 1))
    ts, log_s, log_u = np.repeat(j_grid * dt, len(ks)), ls.ravel(), -lu.ravel()
    slope_s, slope_u = (np.polyfit(ts, logs, 1)[0] for logs in (log_s, log_u))
    lam_s, lam_u = float(np.exp(slope_s)), float(np.exp(slope_u))
    c_s = float(np.exp(np.max(log_s - slope_s * ts)))
    c_u = float(np.exp(np.max(log_u - slope_u * ts)))
    stable_ok, unstable_ok = lam_s < 1.0 - 1e-3, lam_u < 1.0 - 1e-3
    reasons = []
    if not stable_ok:
        reasons.append(f"stable bundle rate {lam_s:.6g} not below 1")
    if not unstable_ok:
        reasons.append(f"unstable bundle backward rate {lam_u:.6g} not below 1")
    return HyperbolicFit(
        ok=stable_ok and unstable_ok,
        lambda_stable=lam_s,
        c_stable=c_s,
        stable_ok=stable_ok,
        lambda_unstable=lam_u,
        c_unstable=c_u,
        unstable_ok=unstable_ok,
        t_range=(j_lo * dt, j_hi * dt),
        reason="; ".join(reasons) if reasons else "both bundles contract",
    )


@dataclass(frozen=True)
class QuasiHyperbolicCertificate:
    """Partitioned log-norm inequalities along one finite arc.

    The arc ``[0, tau]`` is cut into steps of length ``big_t`` (the last
    step absorbs the remainder, so its length lies in ``[big_t, 2*big_t)``).
    With ``a_j`` the stable log-norm and ``b_j`` the unstable log-conorm of
    step ``j``, the certificate holds when every leading average of the
    ``a_j`` is at most ``-eta``, every trailing average of the ``b_j`` is at
    least ``eta``, and every single step has ``a_j - b_j <= -2 eta``.  All
    slacks are reported (nonnegative means the inequality holds).
    """

    ok: bool
    eta: float
    big_t: float
    tau: float
    boundaries: tuple
    log_norms_stable: tuple
    log_conorms_unstable: tuple
    slack_leading: tuple
    slack_trailing: tuple
    slack_stepwise: tuple
    worst_slack: float


def _partition(cocycle: NormalCocycle, length: float, step: float) -> list:
    """Cocycle indices of ``0, step, 2 step, ...`` up to ``length``; the last
    step absorbs the remainder, and a ``length`` below ``step`` is one step."""
    n_full = max(1, int(math.floor(length / step + 1e-9)))
    return [cocycle.index_of_time(b) for b in [j * step for j in range(n_full)] + [length]]


def _partition_log_norms(est: SplittingEstimate, idx) -> tuple:
    """Per-step stable log-norm and unstable log-conorm of the window
    products between consecutive cocycle indices ``idx``, each step read as
    a one-base window of :func:`_window_log_norms`."""
    return tuple(
        np.array([_window_log_norms(est, side, [i], [j - i])[0, 0] for i, j in zip(idx, idx[1:])])
        for side in (0, 1)
    )


def check_quasi_hyperbolic(
    spec: VectorFieldSpec,
    x,
    tau: float,
    est: SplittingEstimate,
    eta: float,
    big_t: float,
) -> QuasiHyperbolicCertificate:
    """Evaluate the quasi-hyperbolicity inequalities on the arc ``[0, tau]``.

    ``est`` must be built on the orbit of ``x`` with its cocycle covering
    ``[0, tau]`` inside the valid sample range (pad the cocycle by one
    window on each side).  Step boundaries snap to the cocycle grid.
    """
    _require_positive(eta=eta, big_t=big_t)
    _require_positive(tau=tau)
    tau = float(tau)
    if tau < big_t:
        raise ValueError(f"arc length {tau:.6g} is shorter than one step {big_t:.6g}")
    cocycle = est.cocycle
    x = np.asarray(x, dtype=float)
    k0 = cocycle.index_of_time(0.0)
    anchor_gap = distance(spec, cocycle.points[k0], x)
    if anchor_gap > 1e-5 * (1.0 + float(np.linalg.norm(x))):
        raise ValueError(
            f"the splitting estimate is anchored {anchor_gap:.3g} away from the arc start"
        )

    idx = _partition(cocycle, tau, big_t)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("big_t is too small for the cocycle sample grid")
    if idx[0] < est.k_lo or idx[-1] > est.k_hi:
        raise ValueError("the cocycle does not cover the arc plus one window; pad it")

    snapped = [float(cocycle.times[i]) for i in idx]
    a, b = _partition_log_norms(est, idx)
    durations = np.diff(snapped)
    lead_t = np.cumsum(durations)
    lead = -eta - np.cumsum(a) / lead_t
    trail_t = lead_t[-1] - np.concatenate([[0.0], lead_t[:-1]])
    trail = (np.cumsum(b[::-1])[::-1] / trail_t) - eta
    stepwise = b - a - 2.0 * eta
    worst = float(min(lead.min(), trail.min(), stepwise.min()))
    return QuasiHyperbolicCertificate(
        ok=bool(worst >= -1e-12),
        eta=eta,
        big_t=big_t,
        tau=tau,
        boundaries=tuple(snapped),
        log_norms_stable=tuple(float(v) for v in a),
        log_conorms_unstable=tuple(float(v) for v in b),
        slack_leading=tuple(float(v) for v in lead),
        slack_trailing=tuple(float(v) for v in trail),
        slack_stepwise=tuple(float(v) for v in stepwise),
        worst_slack=worst,
    )


@dataclass(frozen=True)
class UniformEstimates:
    """Uniform spectral margins over a family of hyperbolic periodic orbits."""

    ok: bool
    eta: float
    t_min: float
    orbits: tuple  # of per-orbit dicts


def uniform_periodic_estimates(
    spec: VectorFieldSpec,
    reports: Sequence[CriticalElementReport],
    t_min: float,
    eta: float,
    dt: float = _PERIOD_DT,
    window_time: float = 3.0,
    tol: float = DEFAULT_TOL,
) -> UniformEstimates:
    """Check uniform expansion/contraction margins on periodic orbits.

    For each (hyperbolic, periodic) report the routine verifies, over bases
    along the orbit and all grid times ``t in [t_min, 3 * period]``, that
    the conorm/norm rate gap ``(log conorm_u - log norm_s) / t`` clears
    ``2 * eta`` (slack ``slack_rate_gap``), and that the ``t_min``-step
    partition of one period (the whole period as one step when ``t_min``
    exceeds it) has averaged stable log-norms at most ``-eta`` and averaged
    unstable log-conorms at least ``eta``.  An empty ``reports`` raises
    ``ValueError``, as there is no orbit to give a verdict on.

    The cocycle covers one period from ``rep.point``, with ``dt`` snapped to
    ``period / max(2, round(period / dt))``, and is indexed periodically to
    pad the four periods and two windows the scan needs; so a point slightly
    off the orbit cannot drift along its unstable direction.  At the default
    ``dt`` the one-period cocycle is the one
    :func:`~flowlab.poincare.classify_periodic` built and kept on the report,
    so the call integrates nothing.  A report without it builds it and raises
    :class:`~flowlab.poincare.ConsistencyError` when the period's end misses
    its start by more than 1e-5 relative, which a wrong period does.

    The one-period cocycle and the splitting estimate are kept on the report,
    keyed by the snapped ``dt``, ``tol``, ``window_time`` (the estimate only)
    and the ``spec`` object (by identity), so a later call on the same report
    with the same key, at another ``eta`` or ``t_min``, reuses them; a period
    that does not close keeps nothing.
    """
    _require_positive(t_min=t_min, eta=eta)
    _require_positive(dt=dt, window_time=window_time)
    if not len(reports):
        raise ValueError("reports must hold at least one periodic orbit (got none)")
    results = []
    ok = True
    for rep in reports:
        if rep.kind != "periodic":
            raise ValueError("uniform estimates apply to periodic-orbit reports only")
        if not rep.hyperbolic:
            raise ValueError(
                "a non-hyperbolic periodic orbit cannot satisfy uniform estimates"
            )
        period = float(rep.period)
        if 3.0 * period < t_min:
            raise ValueError(f"t_min={t_min:.6g} exceeds three periods of the orbit")
        if not 1 <= rep.index <= spec.dim - 2:
            raise ValueError("orbit must have nontrivial stable and unstable parts")
        step = _period_step(period, dt)
        key = (step, tol, window_time)
        built = rep._builds.get(key)
        if built is None or built[0].spec is not spec:
            cocycle = _periodic_cocycle(spec, rep, step, window_time, tol)
            built = (cocycle, estimate_splitting(cocycle, rep.index, window_time))
            rep._builds[key] = built
        cocycle, est = built

        ks = np.unique([cocycle.index_of_time(t) for t in np.linspace(0.0, period, 17)[:-1]])
        # 3 * period is a grid time, at least 3 periods before the cocycle's end
        j_hi = int(math.floor(3.0 * period / cocycle.dt + 1e-9))
        j_lo = max(1, int(math.ceil(t_min / cocycle.dt - 1e-9)))
        j_grid = np.unique(np.linspace(j_lo, j_hi, 24).astype(int))
        ls, lu = (_window_log_norms(est, side, ks, j_grid) for side in (0, 1))
        slack_gap = float(np.min((lu - ls) / (j_grid[:, None] * cocycle.dt) - 2.0 * eta))

        idx = _partition(cocycle, period, t_min)
        a, b = _partition_log_norms(est, idx)
        # built-in sum adds left to right, unlike np.sum's pairwise rounding
        span = float(cocycle.times[idx[-1]] - cocycle.times[idx[0]])
        slack_stable = -eta - sum(a) / span
        slack_unstable = sum(b) / span - eta

        orbit_ok = min(slack_gap, slack_stable, slack_unstable) >= -1e-12
        ok = ok and orbit_ok
        results.append(
            {
                "point": tuple(float(c) for c in np.asarray(rep.point)),
                "period": period,
                "slack_rate_gap": float(slack_gap),
                "slack_stable_sum": float(slack_stable),
                "slack_unstable_sum": float(slack_unstable),
                "ok": bool(orbit_ok),
            }
        )
    return UniformEstimates(ok=bool(ok), eta=eta, t_min=t_min, orbits=tuple(results))


@dataclass(frozen=True)
class PeriodicShadow:
    point: np.ndarray
    period: float
    distance: float
    newton_residual: float
    newton_iterations: int


def arc_to_periodic_orbit(
    spec: VectorFieldSpec,
    x,
    tau: float,
    cert: QuasiHyperbolicCertificate,
    delta: float,
    tol: float = DEFAULT_TOL,
    samples: int = 256,
) -> PeriodicShadow:
    """Close a certified arc with nearly matching endpoints into a periodic
    orbit and measure how far the orbit strays from the arc.

    Preconditions: ``cert.ok`` and endpoint gap ``d(X_tau(x), x) < delta``.
    The reported distance is the optimal monotone-matching maximum between
    dense samples of the arc and of the found orbit.
    """
    _require_positive(tau=tau, delta=delta)
    _require_count(2, samples=samples)  # the grid must end at the arc's end, X_tau(x)
    if not cert.ok:
        raise ValueError("the quasi-hyperbolicity certificate does not hold")
    arc_pts = _orbit_points(spec, x, np.linspace(0.0, tau, samples), tol)
    gap = distance(spec, arc_pts[-1], x)
    if gap >= delta:
        raise ValueError(
            f"endpoint gap {gap:.3g} is not below delta={delta:.3g}; "
            "the arc does not nearly close up"
        )
    pp = find_periodic_newton(spec, x, tau, tol=tol)
    cyc_pts = _orbit_points(spec, pp.point, np.linspace(0.0, pp.period, samples), tol)
    value, _ = frechet_match(pairwise_distances(spec, arc_pts, cyc_pts))
    return PeriodicShadow(
        point=pp.point,
        period=pp.period,
        distance=float(value),
        newton_residual=pp.residual,
        newton_iterations=pp.iterations,
    )
