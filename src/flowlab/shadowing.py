"""Reparametrized shadowing: distances, matching, search, refutation.

A chain is shadowed by a point ``y`` and an increasing reparametrization
``h`` (with ``h(0) = 0``) when ``X_{h(t)}(y)`` stays within ``epsilon`` of
the concatenated chain trajectory for all ``t`` in the horizon.  The
matcher works on sampled curves with a monotone min-max coupling; the
verifier bounds the in-between behaviour with a first-order inflation term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import cho_solve_banded, cholesky_banded, eig_banded

from .chains import ConcatEvaluator, PseudoOrbit, _locate
from .flow import (
    DEFAULT_TOL,
    FlowDivergenceError,
    VectorFieldSpec,
    _orbit_points,
    _plain,
    _require_count,
    _require_positive,
    _wrap_difference,
    coord_difference,
    flow_at,
    tangent_flow,
)

__all__ = [
    "Reparametrization",
    "pairwise_distances",
    "frechet_match",
    "shadow_distance",
    "ReparamFit",
    "best_reparam",
    "NewtonShadow",
    "newton_shadow",
    "SearchBudget",
    "ShadowingReport",
    "search_shadowing",
    "ConservationCertificate",
    "refute_by_conservation",
]

# The slopes a reparametrization's segments may take, below and above.
_SLOPE_BOUNDS = (0.1, 10.0)


class Reparametrization:
    """Piecewise-linear increasing time change with ``h(0) = 0``.

    Knots must be strictly increasing in ``t``; every segment slope must lie
    within ``_SLOPE_BOUNDS``, the slopes the shadowing search fits and accepts;
    one knot must sit at ``(0, 0)`` (within 1e-9, snapped exactly).  Evaluation
    outside the knot range extrapolates with the end segment slopes.
    """

    def __init__(self, knots_t, knots_u):
        t = np.asarray(knots_t, dtype=float)
        u = np.asarray(knots_u, dtype=float)
        if t.ndim != 1 or t.shape != u.shape or len(t) < 2:
            raise ValueError("need matching 1-d knot arrays with at least 2 knots")
        if not np.all(np.diff(t) > 0):
            raise ValueError("knot times must be finite and strictly increasing")
        lo, hi = _SLOPE_BOUNDS
        slopes = np.diff(u) / np.diff(t)
        if not np.all((slopes >= lo - 1e-9) & (slopes <= hi + 1e-9)):
            raise ValueError(
                f"segment slopes must stay within [{lo}, {hi}] "
                f"(found [{slopes.min():.3g}, {slopes.max():.3g}])"
            )
        anchor = int(np.argmin(np.abs(t)))
        if abs(t[anchor]) > 1e-9 or abs(u[anchor]) > 1e-9:
            raise ValueError("a knot at (0, 0) is required")
        t = t.copy()
        u = u.copy()
        t[anchor] = 0.0
        u[anchor] = 0.0
        self.knots_t = t
        self.knots_u = u

    @classmethod
    def identity(cls, span) -> "Reparametrization":
        t = np.unique(np.asarray([span[0], 0.0, span[1]], dtype=float))
        return cls(t, t.copy())

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        kt, ku = self.knots_t, self.knots_u
        u = np.interp(t_arr, kt, ku)
        s0 = (ku[1] - ku[0]) / (kt[1] - kt[0])
        s1 = (ku[-1] - ku[-2]) / (kt[-1] - kt[-2])
        u = np.where(t_arr < kt[0], ku[0] + s0 * (t_arr - kt[0]), u)
        u = np.where(t_arr > kt[-1], ku[-1] + s1 * (t_arr - kt[-1]), u)
        return float(u) if u.ndim == 0 else u


def pairwise_distances(spec: VectorFieldSpec, a_pts, b_pts) -> np.ndarray:
    """All distances between two point sets, wrapping angle coordinates;
    ``b_pts`` may be a stack ``(..., k, dim)``, giving ``(..., m, k)``.
    Computed by :func:`_distances_into`."""
    a = np.asarray(a_pts, dtype=float)
    b = np.asarray(b_pts, dtype=float)
    k = b.shape[-2]
    out = np.empty((math.prod(b.shape[:-2]), len(a), k))
    _distances_into(spec, a, b.reshape(-1, k, spec.dim), out)
    return out.reshape(b.shape[:-2] + (len(a), k))


def _distances_into(spec: VectorFieldSpec, a, b, out) -> None:
    """Write the distances between ``a`` ``(m, dim)`` and each of ``b`` ``(n, k, dim)``
    into ``out`` ``(n, m, k)``, which may be a strided view, one coordinate at a time.
    Squared differences, with angle coordinates wrapped as
    :func:`~flowlab.flow.coord_difference` wraps them, are summed in coordinate order,
    the order ``np.linalg.norm`` sums up to 7 coordinates in.  Rows go in chunks whose
    two scratch arrays hold at most ``max(m * k, _SCAN_ENTRIES)`` entries each."""
    n, m, k = out.shape
    rows = max(1, _SCAN_ENTRIES // (m * k))
    total, term = np.empty((2, min(rows, n), m, k))
    for r in range(0, n, rows):
        part = b[r : r + rows]
        acc, diff = total[: len(part)], term[: len(part)]
        for c, period in enumerate(spec.periods):
            cur = diff if c else acc
            np.subtract(a[:, None, c], part[:, None, :, c], out=cur)
            if spec.angle_mask[c]:
                _wrap_difference(cur, period)
            np.multiply(cur, cur, out=cur)
            if c:
                acc += diff
        np.sqrt(acc, out=out[r : r + rows])


def _skewed(shape):
    """A buffer ``(m + k - 1, ..., m + 1)`` of ``inf`` for a stack ``shape`` ``(..., m, k)``
    and its ``(..., m, k)`` view, in which matrix entry ``(i, j)`` sits at
    ``[i + j, ..., i + 1]``.  Row ``s`` holds anti-diagonal ``s`` of every matrix,
    each after one ``inf`` column, so it reads as one flat vector."""
    *lead, m, k = shape
    skew = np.full((m + k - 1, *lead, m + 1), np.inf)
    step, *lead_strides, unit = skew.strides
    return skew, as_strided(skew.reshape(-1)[1:], shape, (*lead_strides, step + unit, step))


def _frechet_values(skew, choice=None) -> np.ndarray:
    """End values of ``dp[i, j] = max(D[i, j], min(dp[i-1, j-1], dp[i-1, j], dp[i, j-1]))``
    for a stack of matrices ``D`` in a :func:`_skewed` buffer, swept one anti-diagonal
    per step over all of them at once as one flat vector: the ``inf`` column ahead of
    each matrix stands for its ``i = -1`` and keeps the matrices apart (a NaN entry
    can reach the next matrix).  A buffer of one matrix may pass ``choice`` of its
    shape, filled with 2, for the first-best picks: 0 diagonal, 1 up, 2 left."""
    diagonals, *lead, width = skew.shape
    flat = skew.reshape(diagonals, -1)
    prev2, cur = np.full((2, flat.shape[1]), np.inf)
    prev = flat[0].copy()
    for s in range(1, diagonals):
        np.minimum(prev2[:-1], prev[:-1], out=cur[1:])
        if choice is not None:
            choice[s, 2:] = np.where(prev[2:] < cur[2:], 2, prev[1:-1] < prev2[1:-1])
        np.minimum(cur[1:], prev[1:], out=cur[1:])
        np.maximum(cur, flat[s], out=cur)
        prev2, prev, cur = prev, cur, prev2
    return prev.reshape(*lead, width)[..., -1]


def _matched_values(spec: VectorFieldSpec, a, b) -> np.ndarray:
    """:func:`_frechet_values` of ``a`` against each of the stack ``b`` ``(n, k, dim)``,
    the distances written straight into the skewed buffer."""
    skew, view = _skewed((len(b), len(a), b.shape[1]))
    _distances_into(spec, a, b, view)
    return _frechet_values(skew)


def frechet_match(dist_matrix) -> tuple:
    """Optimal monotone coupling of two sampled curves (min over couplings
    of the max matched distance, :func:`_frechet_values`) with one matched
    index path: ``(value, pairs)``, ``pairs`` an ``(L, 2)`` index array visiting
    every row and column monotonically; ties prefer diagonal, up, then left."""
    d = np.asarray(dist_matrix, dtype=float)
    if d.ndim != 2 or d.size == 0:
        raise ValueError("distance matrix must be 2-d and nonempty")
    m, k = d.shape
    skew, view = _skewed(d.shape)
    view[...] = d
    choice = np.full(skew.shape, 2, dtype=np.uint8)  # at (i + j, i + 1)
    value = _frechet_values(skew, choice)
    pairs = [(m - 1, k - 1)]
    while pairs[-1] != (0, 0):
        i, j = pairs[-1]
        c = int(choice[i + j, i + 1])
        pairs.append((i - (c != 2), j - (c != 1)))
    return float(value), np.asarray(pairs[::-1], dtype=int)


def _chain_time_grid(po: PseudoOrbit, horizon, target: Optional[int] = None) -> np.ndarray:
    lo, hi = float(horizon[0]), float(horizon[1])
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"horizon must be finite with positive length (got {lo} to {hi})")
    marks = [np.array([lo, hi])]
    bt = po.boundary_times
    marks.append(bt[(bt >= lo) & (bt <= hi)])
    if target is not None and target > 2:
        marks.append(np.linspace(lo, hi, target))
    return np.unique(np.concatenate(marks))


def shadow_distance(
    spec: VectorFieldSpec,
    y,
    h: Reparametrization,
    po: PseudoOrbit,
    horizon,
    samples: int = 257,
    tol: float = DEFAULT_TOL,
) -> float:
    """Upper estimate of ``sup_t d(X_{h(t)}(y), chain(t))`` over the horizon.

    The supremum over a sampling grid (refined with all chain segment
    boundaries and all knots of ``h``) is inflated per interval by
    ``dt/2 * max |h' * X(orbit) - X(chain)|`` at the interval ends, a
    first-order bound on what can happen between samples.

    A point ``y`` is flowed in one solve over the whole horizon, and the chain is read
    as :class:`~flowlab.chains.ConcatEvaluator` reads it.  An ``(m, dim)`` array ``y``
    holds the starts of pieces instead, one per segment of ``h``: piece ``i`` is the
    orbit of ``y[i]`` from ``u = h.knots_u[i]``, and times past the last knot fall in the
    last piece.  The chain's read segments and the read pieces then share one dense
    solve, and its step control: one row per read segment or piece over its whole
    duration, each time read from its own row, so no orbit runs longer than one piece.
    A divergence of a chain row raises in chain terms; of pieces alone, in piece terms.
    """
    _require_count(1, samples=samples)
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != spec.dim:
        raise ValueError(f"y must be a point ({spec.dim},) or pieces (m, {spec.dim}) "
                         f"(got shape {y.shape})")
    if y.ndim == 2 and len(y) != len(h.knots_u) - 1:
        raise ValueError(f"need one piece per segment of h ({len(h.knots_u) - 1}), got {len(y)}")
    lo, hi = float(horizon[0]), float(horizon[1])
    if y.ndim == 2 and lo < h.knots_t[0]:
        raise ValueError(f"pieces start at h's first knot {h.knots_t[0]:.6g} (horizon from {lo})")
    grid = _chain_time_grid(po, (lo, hi), samples)
    knots = h.knots_t
    knots = knots[(knots > lo) & (knots < hi)]
    grid = np.unique(np.concatenate([grid, knots]))

    chain, u = ConcatEvaluator(po, tol=tol), np.asarray(h(grid), dtype=float)
    if y.ndim == 1:
        c_pts, o_pts = chain.at_many(grid), _orbit_points(spec, y, u, tol)
    else:
        pieces = _locate(h.knots_u, u)
        c_pts, o_pts = np.split(chain.read(*chain.locate(grid), y, np.diff(h.knots_u), *pieces), 2)
    d = np.linalg.norm(coord_difference(spec, o_pts, c_pts), axis=-1)

    v_orbit = spec.field_at(o_pts)
    v_chain = spec.field_at(c_pts)
    dt = np.diff(grid)
    slopes = np.diff(u) / dt
    mism = slopes[:, None] * v_orbit[:-1] - v_chain[:-1]
    mism_next = slopes[:, None] * v_orbit[1:] - v_chain[1:]
    rate = np.maximum(np.linalg.norm(mism, axis=-1), np.linalg.norm(mism_next, axis=-1))
    interval_bound = np.maximum(d[:-1], d[1:]) + 0.5 * dt * rate
    return float(max(d.max(), interval_bound.max()))


@dataclass(frozen=True)
class ReparamFit:
    """Best matched reparametrization for one candidate start point.

    ``distance`` is the optimal coupling value; ``y_anchored`` is the
    candidate flowed so that ``h(0) = 0`` holds exactly (the matched curve
    itself is unchanged by this normalization).
    """

    h: Reparametrization
    distance: float
    y_anchored: np.ndarray
    shift: float


# A scan's memory is flat in the lattice size: on an m-point grid a solve holds at most
# _SCAN_ENTRIES orbit entries N * m * dim (each distance-kernel scratch array at most that
# many or one m * m matrix), and a matched stack at most _SKEW_ENTRIES skew entries,
# (2m - 1) * (m + 1) per row.  A 202-sample chain takes 81,809 entries (654 KB) a row, so
# stacks of 3: a criterion-3 search's tracemalloc peak is 2.84 MB, against 3.02 MB when
# each row was matched alone through an (m, m, dim) difference array; 4 would peak at 3.5 MB.
_SCAN_ENTRIES = 1 << 16
_SKEW_ENTRIES = 1 << 18


class _MatchObjective:
    """The chain and each candidate orbit are sampled on one ``grid``: the chain's
    boundary times within the horizon and the horizon's ends, so the identity coupling
    is always among the candidates.  The chain's points are read once; each call
    matches one orbit."""

    def __init__(self, spec, po, horizon, tol=DEFAULT_TOL):
        self.spec = spec
        self.tol = tol
        self.grid = _chain_time_grid(po, horizon)
        anchor = int(np.argmin(np.abs(self.grid)))
        if abs(self.grid[anchor]) > 1e-9:
            raise ValueError("the horizon must contain t = 0")
        self.anchor = anchor
        self.c_pts = ConcatEvaluator(po, tol=tol).at_many(self.grid)
        self.evaluations = 0

    def fit(self, y) -> ReparamFit:
        self.evaluations += 1
        y = np.asarray(y, dtype=float)
        o_pts = _orbit_points(self.spec, y, self.grid, self.tol)
        value, pairs = frechet_match(pairwise_distances(self.spec, self.c_pts, o_pts))

        # the coupling visits every chain sample, so each row has a mean matched clock
        kt = self.grid
        ku = np.bincount(pairs[:, 0], weights=kt[pairs[:, 1]]) / np.bincount(pairs[:, 0])
        shift = float(ku[self.anchor])
        ku = ku - shift
        lo_s, hi_s = _SLOPE_BOUNDS
        for i in range(self.anchor + 1, len(kt)):
            dt = kt[i] - kt[i - 1]
            ku[i] = min(max(ku[i], ku[i - 1] + lo_s * dt), ku[i - 1] + hi_s * dt)
        for i in range(self.anchor - 1, -1, -1):
            dt = kt[i + 1] - kt[i]
            ku[i] = min(max(ku[i], ku[i + 1] - hi_s * dt), ku[i + 1] - lo_s * dt)
        h = Reparametrization(kt, ku)
        y_anchored = flow_at(self.spec, y, shift, tol=self.tol)
        return ReparamFit(h=h, distance=value, y_anchored=y_anchored, shift=shift)

    def scan(self, lattice):
        """Yield ``(ys, values)`` per block of the points in ``lattice``, each
        point one evaluation.  A block shares one orbit solve per time direction,
        of ``_SCAN_ENTRIES`` orbit entries at most (one row at least), and is
        matched in stacks of ``_SKEW_ENTRIES`` skew entries at most (one row at
        least), each one :func:`_matched_values` sweep.  Where an orbit escapes,
        the rows at the divergence bound score ``inf`` and the rest of the block
        is solved again as one batch."""
        lattice = iter(lattice)
        m = len(self.grid)
        block = max(1, _SCAN_ENTRIES // (m * self.spec.dim))
        stack = max(1, _SKEW_ENTRIES // ((2 * m - 1) * (m + 1)))
        while len(ys := np.array(list(itertools.islice(lattice, block)), dtype=float)):
            self.evaluations += len(ys)
            values = np.full(len(ys), np.inf)
            live, o_pts = np.arange(len(ys)), None
            while o_pts is None and len(live):
                try:
                    o_pts = _orbit_points(self.spec, ys[live], self.grid, self.tol)
                except FlowDivergenceError as err:
                    live = np.delete(live, err.rows)
            for i in range(0, len(live), stack):
                values[live[i : i + stack]] = _matched_values(
                    self.spec, self.c_pts, o_pts[i : i + stack]
                )
            yield ys, values


def best_reparam(
    spec: VectorFieldSpec, y, po: PseudoOrbit, horizon, tol: float = DEFAULT_TOL
) -> ReparamFit:
    """Best monotone matching of the orbit of ``y`` against the chain.

    Both are sampled at the chain's own segment boundaries within the horizon
    (and the horizon's ends), so the identity coupling is always among the
    candidates.  The induced piecewise-linear reparametrization is slope-clamped
    and anchored at ``(0, 0)``; the returned candidate ``y_anchored`` absorbs the
    anchoring time shift.
    """
    return _MatchObjective(spec, po, horizon, tol=tol).fit(y)


# Chord steps newton_shadow takes at most: 1 on criterion 3's chains, and up to 6 at
# noise 0.1 and 11 at noise 0.3 on 5- to 65-point chains of the built-in flows.
_NEWTON_STEPS = 12


@dataclass(frozen=True)
class NewtonShadow:
    """:func:`newton_shadow`'s last iterate: ``corrections`` ``(m, dim)``, ``shifts``
    ``(m - 1,)``, largest gap ``residual``, chord steps taken and ``|J^+|`` at the chain."""

    corrections: np.ndarray
    shifts: np.ndarray
    residual: float
    iterations: int
    inverse_norm: float


def newton_shadow(spec: VectorFieldSpec, po: PseudoOrbit, tol: float = DEFAULT_TOL) -> NewtonShadow:
    """Chord Newton shadowing with time shifts on a chain of ``m >= 2`` points without ends.

    ``F_i = X_{h_i+s_i}(x_i+c_i) - (x_{i+1}+c_{i+1})`` (angles wrapped) is solved for
    corrections ``c_i`` and shifts ``s_0 .. s_{m-2}``.  Its Jacobian ``J``, row ``i``
    ``[A_i | -I | X(end_i)]``, is taken once at the chain (``c = 0``, ``s = 0``) from one
    batched variational solve.  Each chord step is the least-norm ``-J^T (J J^T)^{-1} F``
    through one banded Cholesky factor of the block-tridiagonal ``J J^T``, and the next
    gaps come from one orbit-only solve of the corrected pieces, until every gap
    ``|F_i| <= tol`` or for ``_NEWTON_STEPS`` steps, which ``iterations`` counts.
    ``inverse_norm`` is ``lambda_min(J J^T)^{-1/2}`` at the chain (LAPACK's banded
    eigensolver), the ``K`` of an a posteriori bound; with the shifts absorbing the
    flow direction it stays bounded as a chain in a hyperbolic set grows.  A
    divergence, a failed solve or an overflowing ``J J^T`` raises.
    """
    if po.head is not None or po.tail is not None or po.size < 2:
        raise ValueError("newton_shadow needs a chain of at least 2 points without head or tail")
    (m, n), h = po.points.shape, po.durations[:-1]
    c, s = np.zeros((m, n)), np.zeros(m - 1)
    (a, b), (p, q) = np.triu_indices(n), np.indices((n, n)).reshape(2, -1)
    ends, A = tangent_flow(spec, po.points[:-1], 1.0, tol, scale=h)
    v = spec.field_at(ends)
    # J J^T in upper banded storage, entry (i, j) at [2n - 1 + i - j, j]
    diag = A @ A.transpose(0, 2, 1) + np.eye(n) + v[:, :, None] * v[:, None, :]
    band = np.zeros((2 * n, m - 1, n))
    band[2 * n - 1 + a - b, :, b] = diag[:, a, b].T
    band[n - 1 + p - q, 1:, q] = -A[1:, q, p].T
    band = band.reshape(2 * n, -1)
    if not np.all(np.isfinite(band)):
        raise np.linalg.LinAlgError("J J^T of the chain overflows")
    factor = None
    for step in range(_NEWTON_STEPS + 1):
        gaps = coord_difference(spec, ends, po.points[1:] + c[1:])
        residual = float(np.linalg.norm(gaps, axis=1).max())
        if residual <= tol or step == _NEWTON_STEPS:
            break
        factor = cholesky_banded(band) if factor is None else factor
        w = cho_solve_banded((factor, False), gaps.ravel()).reshape(gaps.shape)
        c[:-1] -= np.einsum("kji,kj->ki", A, w)
        c[1:] += w
        s -= np.einsum("ki,ki->k", v, w)
        ends = _orbit_points(spec, po.points[:-1] + c[:-1], [1.0], tol, scale=h + s)[:, 0]
    smallest = eig_banded(band, eigvals_only=True, select="i", select_range=(0, 0))[0]
    return NewtonShadow(c, s, residual, step, float(smallest**-0.5))


@dataclass(frozen=True)
class SearchBudget:
    """Evaluation budget for :func:`search_shadowing`.

    ``candidates`` caps the lattice and refinement evaluations (the final fit
    adds one); ``refine_evals < candidates`` of them cap the refinement: a
    lattice of the largest odd ``k`` points per live axis with ``k**n <=
    refine_evals``, so with 3 live axes a budget below 27 refines nothing.  Each
    evaluation samples the chain and the orbit at the chain's boundary times within
    the horizon.  ``eval_samples`` controls the final dense verification grid, of
    ``dense_samples`` points.
    """

    candidates: int = 1000
    refine_evals: int = 200
    eval_samples: int = 257

    def __post_init__(self) -> None:
        _require_count(1, candidates=self.candidates, eval_samples=self.eval_samples)
        _require_count(0, refine_evals=self.refine_evals)
        if not 0 <= self.refine_evals < self.candidates:
            raise ValueError(
                f"need 0 <= refine_evals < candidates (so candidates >= 1); got "
                f"refine_evals = {self.refine_evals}, candidates = {self.candidates}"
            )

    @property
    def dense_samples(self) -> int:
        """Samples of the dense check: four times ``eval_samples``, plus one."""
        return 4 * self.eval_samples + 1


@dataclass(frozen=True)
class ShadowingReport:
    """Result of :func:`search_shadowing`.  ``stage`` is ``"newton"`` or ``"lattice"``;
    ``operator_inverse_norm`` and ``newton_residual`` are :func:`newton_shadow`'s
    ``inverse_norm`` (``|J^+|`` at the chain) and ``residual``, ``None`` when it did not run."""

    verdict: str
    epsilon: float
    distance: float
    witness: Optional[tuple]
    reparam_knots_t: Optional[tuple]
    reparam_knots_u: Optional[tuple]
    horizon: tuple
    coarse_candidates: int
    evaluations: int
    stage: str
    notes: tuple
    operator_inverse_norm: Optional[float] = None
    newton_residual: Optional[float] = None

    def to_dict(self) -> dict:
        return {"schema": "flowlab.shadow-search/1", **_plain(self)}


def _report(epsilon, verdict, distance, found, horizon, stage, notes, coarse=0, evaluations=0,
            newton=(None, None)) -> ShadowingReport:
    """Every :class:`ShadowingReport`: ``found`` is the witness and its reparametrization
    or ``None``, and ``newton`` is :func:`newton_shadow`'s ``(inverse_norm, residual)``."""
    parts = (None,) * 3 if found is None else (found[0], found[1].knots_t, found[1].knots_u)
    witness, knots_t, knots_u = (None if a is None else tuple(map(float, a)) for a in parts)
    return ShadowingReport(
        verdict=verdict,
        epsilon=float(epsilon),
        distance=float(distance),
        witness=witness,
        reparam_knots_t=knots_t,
        reparam_knots_u=knots_u,
        horizon=horizon,
        coarse_candidates=coarse,
        evaluations=evaluations,
        stage=stage,
        notes=tuple(notes),
        operator_inverse_norm=newton[0],
        newton_residual=newton[1],
    )


def _coarse_axes(box: np.ndarray, n_points: int) -> list:
    """Axes of a centered lattice over ``box`` (rows ``lo, hi``) with odd per-axis
    counts, so the exact box center (and exact coordinate subspaces through it)
    are grid points.  Only live axes (``lo < hi``) share the ``n_points``: each
    holds the largest odd ``k`` with ``k**live <= n_points`` (1 at least); a flat
    axis holds its one value."""
    n = max(1, int(np.count_nonzero(box[:, 0] < box[:, 1])))
    k = round(n_points ** (1.0 / n))
    while k**n > n_points:
        k -= 1
    k = max(1, k - (k % 2 == 0))
    axes = []
    for lo, hi in box:
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        offsets = np.linspace(0.0, half, (k + 1) // 2)
        points = np.unique(np.concatenate([center - offsets, center + offsets]))
        axes.append(np.clip(points, lo, hi))  # center - half may round past lo
    return axes


def search_shadowing(
    spec: VectorFieldSpec,
    po: PseudoOrbit,
    epsilon: float,
    seed_region,
    budget: Optional[SearchBudget] = None,
    tol: float = DEFAULT_TOL,
) -> ShadowingReport:
    """Search for a point whose reparametrized orbit stays ``epsilon``-close to
    the chain (``spec`` must accept ``(N, dim)`` batches).

    A chain without head or tail first takes :func:`newton_shadow`.  Its witness
    ``x_0 + c_0``, with knots ``t`` at the boundary times and ``u`` at the sums of
    ``h_i + s_i`` (the last segment unshifted), is kept when Newton converged, the
    witness lies in the seed box, every ``|c_i| < epsilon``, every slope
    ``(h_i + s_i) / h_i`` lies within the slope bounds ``[0.1, 10]`` and the dense
    bound of :func:`shadow_distance` along the corrected pieces is below ``epsilon``.
    Piece ``i`` is the orbit of ``x_i + c_i`` for ``h_i + s_i``; the pieces join within
    ``newton_residual``, and to first order one orbit lies within ``|J^+|`` (at the
    chain) times that of them, which the distance leaves out.  No orbit runs longer
    than one piece, where the witness's own orbit would magnify round-off along the
    whole of a long hyperbolic chain.  Where that read leaves the divergence bound,
    or any check fails, a note says why, and the lattice stage runs, as on every
    chain with a head or tail: a centered lattice over the seed box, then one over
    its best point's cell, each one batched scan of the matching
    objective; the refinement's best point is kept only when strictly better.  A point
    whose orbit leaves the divergence bound scores ``inf`` and every point is one
    evaluation.  The best candidate must also pass the dense check, over a horizon that
    grants a head and a tail 3 time units each.  The verdict ``"not_found"`` is
    explicitly not a proof of non-shadowability.
    """
    _require_positive(epsilon=epsilon)
    budget = budget or SearchBudget()
    seed_region = np.asarray(seed_region, dtype=float)
    if seed_region.shape != (spec.dim, 2):
        raise ValueError(f"seed_region must have shape ({spec.dim}, 2)")
    if not np.all(np.isfinite(seed_region)) or np.any(seed_region[:, 0] > seed_region[:, 1]):
        raise ValueError("seed_region rows must be finite with lo <= hi")
    search = (spec, po, epsilon, seed_region, budget, tol)
    if po.head is not None or po.tail is not None or po.size < 2:
        return _lattice_search(*search)
    try:
        newton = newton_shadow(spec, po, tol)
    except (RuntimeError, np.linalg.LinAlgError) as err:  # FlowDivergenceError included
        return _lattice_search(*search, f"the newton stage failed: {err}")
    numbers = (newton.inverse_norm, newton.residual)
    starts = po.points + newton.corrections
    y = starts[0]
    h, tau = po.durations, po.durations + np.append(newton.shifts, 0.0)
    if newton.residual > tol:
        reason = f"it did not converge (residual {newton.residual:.3g})"
    elif np.any((y < seed_region[:, 0]) | (y > seed_region[:, 1])):
        reason = "its witness lies outside the seed box"
    elif (largest := float(np.linalg.norm(newton.corrections, axis=1).max())) >= epsilon:
        reason = f"its largest correction {largest:.6g} is not below epsilon"
    elif np.any((tau < _SLOPE_BOUNDS[0] * h) | (tau > _SLOPE_BOUNDS[1] * h)):
        reason = f"a time slope (h_i + s_i) / h_i leaves {_SLOPE_BOUNDS}"
    else:
        horizon = (0.0, po.total_time)
        reparam = Reparametrization(po.boundary_times, np.append(0.0, np.cumsum(tau)))
        try:
            dense = shadow_distance(spec, starts, reparam, po, horizon, budget.dense_samples, tol)
        except FlowDivergenceError:
            dense, reason = math.inf, "its pieces left the divergence bound"
        else:
            reason = f"its dense distance {dense:.6g} is not below epsilon"
        if dense < epsilon:
            return _report(epsilon, "shadowed", dense, (y, reparam), horizon, "newton", (),
                           newton=numbers)
    return _lattice_search(*search, f"the newton witness was not kept: {reason}", numbers)


def _lattice_search(spec, po, epsilon, seed_region, budget, tol=DEFAULT_TOL, note=None,
                    newton=(None, None)) -> ShadowingReport:
    """The lattice stage of :func:`search_shadowing`, on its checked arguments; the
    Newton stage's ``note`` follows the stage's own, and ``newton`` goes to :func:`_report`."""
    lo = -3.0 if po.head is not None else 0.0
    hi = po.total_time + (3.0 if po.tail is not None else 0.0)
    obj = _MatchObjective(spec, po, (lo, hi), tol=tol)

    axes = _coarse_axes(seed_region, budget.candidates - budget.refine_evals)
    coarse = math.prod(len(a) for a in axes)
    blocks = obj.scan(itertools.product(*axes))
    f_best, y_best = min(((v.min(), ys[np.argmin(v)]) for ys, v in blocks), key=lambda b: b[0])

    if np.isfinite(f_best):
        # one centered lattice over the best point's cell, less that point: half a spacing
        # each way (the whole axis where the lattice holds one point), within the seed box
        half = [a[1] - a[0] if len(a) > 1 else h - l for a, (l, h) in zip(axes, seed_region)]
        half = np.array(half)[:, None] / 2
        cell = np.clip(seed_region - y_best[:, None], -half, half)
        offsets = np.array(list(itertools.product(*_coarse_axes(cell, budget.refine_evals))))
        moves = np.clip(y_best + offsets[np.any(offsets != 0.0, axis=1)], *seed_region.T)
        values = np.concatenate([np.empty(0)] + [v for _, v in obj.scan(moves)])
        if len(values) and values.min() < f_best:
            y_best = moves[np.argmin(values)]

    notes = [
        "not_found reports the best distance over a finite search; "
        "it is not a proof that no shadowing orbit exists"
    ]
    verdict, achieved, fit = "not_found", float("inf"), None
    if not np.isfinite(f_best):
        notes.append("every candidate orbit left the divergence bound")
    else:
        fit = obj.fit(y_best)
        achieved = fit.distance
    if achieved < epsilon:
        dense = shadow_distance(
            spec, fit.y_anchored, fit.h, po, (lo, hi), samples=budget.dense_samples, tol=tol
        )
        achieved = dense
        if dense < epsilon:
            verdict = "shadowed"
        else:
            notes.append(
                f"matched distance {fit.distance:.6g} was below epsilon but the dense "
                f"verification gave {dense:.6g}"
            )
    found = None if fit is None else (fit.y_anchored, fit.h)
    if note:
        notes.append(note)
    return _report(epsilon, verdict, achieved, found, (lo, hi), "lattice", notes, coarse,
                   obj.evaluations, newton)


@dataclass(frozen=True)
class ConservationCertificate:
    """Proof that no orbit can shadow the chain below ``lower_bound``.

    Any orbit holds the conserved quantity constant, while the chain's
    sample points spread it over ``[q_min, q_max]``; staying ``eps``-close
    to every sample forces ``q_max - q_min <= 2 * lipschitz * eps``.
    """

    quantity: str
    lower_bound: float
    epsilon: float
    q_min: float
    q_max: float
    lipschitz: float
    n_points: int

    def to_dict(self) -> dict:
        return {"schema": "flowlab.conservation-refutation/1", **_plain(self)}


def refute_by_conservation(
    spec: VectorFieldSpec, po: PseudoOrbit, epsilon: float
) -> Optional[ConservationCertificate]:
    """Certificate that the chain cannot be ``epsilon``-shadowed, or ``None``.

    Requires a declared conserved quantity.  Returns a certificate exactly
    when the conserved-value spread over the chain points (head and tail
    included) exceeds ``2 * lipschitz * epsilon``.
    """
    if spec.conserved is None:
        raise ValueError(f"{spec.name} declares no conserved quantity to refute with")
    _require_positive(epsilon=epsilon)
    pts = po.entries[1]
    values = [float(spec.conserved.func(p)) for p in pts]
    q_min, q_max = min(values), max(values)
    bound = (q_max - q_min) / (2.0 * spec.conserved.lipschitz)
    if bound > epsilon:
        return ConservationCertificate(
            quantity=spec.conserved.name,
            lower_bound=bound,
            epsilon=float(epsilon),
            q_min=q_min,
            q_max=q_max,
            lipschitz=spec.conserved.lipschitz,
            n_points=len(pts),
        )
    return None
