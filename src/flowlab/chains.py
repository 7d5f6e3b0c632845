"""Pseudo-orbits: construction, verification and evaluation.

A pseudo-orbit is a finite list of (point, duration) pairs where each
duration is at least 1 and consecutive flow images land within ``delta`` of
the next point.  Optional constant head and tail entries extend a chain to
bi-infinite index ranges; their single stored point must itself recur within
``delta`` under its duration (an equilibrium or a near-periodic point).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import (
    DEFAULT_NORM_BOUND,
    DEFAULT_TOL,
    FlowDivergenceError,
    VectorFieldSpec,
    _orbit_points,
    _orbit_solve,
    _require_count,
    _require_positive,
    coord_difference,
    distance,
    wrap_point,
)
from .poincare import _cross_plane, _section_at, linear_poincare, normal_frame, section_map

__all__ = [
    "PseudoOrbit",
    "ChainCheck",
    "accumulated_time",
    "verify_chain",
    "ConcatEvaluator",
    "eval_concat",
    "generate_noisy",
    "equilibrium_segment_chain",
    "periodic_family_chain",
]


@dataclass(frozen=True)
class PseudoOrbit:
    """A delta-chain for ``spec``: body points, durations, optional ends.

    Parameters
    ----------
    spec : VectorFieldSpec
        The field the chain lives on.
    points : ndarray, shape (m, dim)
        Body points ``x_0 .. x_{m-1}``.
    durations : ndarray, shape (m,)
        Flight times ``t_i >= 1`` attached to each body point.
    delta : float
        Allowed jump size at each transition.
    head, tail : (point, duration) or None
        Constant extensions used for indices ``i < 0`` and ``i >= m``.
    """

    spec: VectorFieldSpec
    points: np.ndarray
    durations: np.ndarray
    delta: float
    head: Optional[tuple] = None
    tail: Optional[tuple] = None

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        dur = np.atleast_1d(np.asarray(self.durations, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.spec.dim:
            raise ValueError(f"points must have shape (m, {self.spec.dim})")
        if dur.shape != (pts.shape[0],):
            raise ValueError("durations must match the number of points")
        if pts.shape[0] < 1:
            raise ValueError("a chain needs at least one point")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(dur))):
            raise ValueError("points and durations must be finite")
        if np.any(dur < 1.0 - 1e-12):
            raise ValueError(f"every duration must be >= 1 (got min {dur.min():.6g})")
        _require_positive(delta=self.delta)
        head = self._frozen_end(self.head, "head")
        tail = self._frozen_end(self.tail, "tail")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "durations", dur)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)
        # the entry table: row k holds entry k - 1 (head -1, body 0 .. m-1,
        # tail m): its start point and duration (NaN for an absent end) and
        # the chain time it begins at; _entries lists the rows present
        ends = [end or (np.full(self.spec.dim, np.nan), np.nan) for end in (head, tail)]
        begins = np.concatenate([[-ends[0][1], 0.0], np.cumsum(dur)])
        present = np.arange(head is None, len(pts) + 1 + (tail is not None))
        object.__setattr__(self, "_starts", np.vstack([ends[0][0], pts, ends[1][0]]))
        object.__setattr__(self, "_taus", np.concatenate([[ends[0][1]], dur, [ends[1][1]]]))
        object.__setattr__(self, "_begins", begins)
        object.__setattr__(self, "_entries", present)

    def _frozen_end(self, end, label):
        if end is None:
            return None
        point, t = end
        point = np.asarray(point, dtype=float)
        t = float(t)
        if point.shape != (self.spec.dim,):
            raise ValueError(f"{label} point must have shape ({self.spec.dim},)")
        if not np.all(np.isfinite(point)):
            raise ValueError(f"{label} point must be finite")
        if not 1.0 - 1e-12 <= t < math.inf:
            raise ValueError(f"{label} duration must be >= 1 and finite (got {t:.6g})")
        return (point, t)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def boundary_times(self) -> np.ndarray:
        """Accumulated times ``S_0 = 0, S_1, ..., S_m`` of the body."""
        return self._begins[1:].copy()

    @property
    def total_time(self) -> float:
        return float(self._begins[-1])

    @property
    def entries(self):
        """The entries present, in chain order, as copies: their indices (-1 for the
        head, ``size`` for the tail), start points and the chain times they begin at."""
        k = self._entries
        return k - 1, self._starts[k], self._begins[k]


def accumulated_time(po: PseudoOrbit, i: int) -> float:
    """The time ``S_i`` at which index ``i`` begins.

    ``S_0 = 0``; body indices accumulate forward; negative indices walk
    backward through head repeats, indices beyond the body through tail
    repeats.  Indices outside the covered range raise ``IndexError``.
    """
    i = int(i)
    m = po.size
    if 0 <= i <= m:
        return float(po._begins[i + 1])
    if i < 0:
        if po.head is None:
            raise IndexError(f"index {i} needs a head extension")
        return float(i) * po.head[1]
    if po.tail is None:
        raise IndexError(f"index {i} needs a tail extension")
    return po.total_time + float(i - m) * po.tail[1]


@dataclass(frozen=True)
class ChainCheck:
    """Result of :func:`verify_chain`: per-transition gaps and a verdict, and
    the chain ``times`` at which each gap's source segment begins."""

    ok: bool
    delta: float
    max_gap: float
    gaps: tuple  # of (label, value)
    times: tuple


def verify_chain(po: PseudoOrbit, tol: float = DEFAULT_TOL) -> ChainCheck:
    """Measure every transition gap ``d(X_{t_i}(x_i), x_{i+1})``.

    Head and tail extensions contribute their self-gap (the stored point
    against its own flow image) and the gap into or out of the body.  All
    images come from one batched solve (``spec`` must accept batches); a
    divergence is reported as :class:`ConcatEvaluator` reports it, in chain
    time and chain segments.  Batch-mates share one step-size control, so a
    gap depends slightly on the other entries: adding a tail whose orbit
    reaches 1.8e5 moved a body gap by 4e-6 relative.
    """
    rows, n = po._entries, len(po._entries)
    # consecutive entries, plus the self-pair of each end
    pairs = [(0, 0)] * (po.head is not None) + [(i, i + 1) for i in range(n - 1)]
    pairs += [(n - 1, n - 1)] * (po.tail is not None)
    src, dst = np.array(pairs, dtype=int).reshape(-1, 2).T
    images = ConcatEvaluator(po, tol)._orbit(rows, po._taus[rows])
    values = np.linalg.norm(coord_difference(po.spec, images[src], po._starts[rows[dst]]), axis=-1)
    names = [{-1: "head", po.size: "tail"}.get(k, str(k)) for k in (rows - 1).tolist()]
    max_gap = float(values.max()) if len(values) else 0.0
    gaps = tuple((f"{names[i]}->{names[j]}", g) for (i, j), g in zip(pairs, values.tolist()))
    times = tuple(po._begins[rows[src]].tolist())
    return ChainCheck(
        ok=max_gap < po.delta, delta=po.delta, max_gap=max_gap, gaps=gaps, times=times
    )


def _locate(begins, ts):
    """The piece of each time in ``ts`` and the local time in it, for pieces ``i``
    from ``begins[i]`` to ``begins[i + 1]``: a time on a knot starts the later
    piece, and times outside the knots fall in the end pieces."""
    piece = np.clip(np.searchsorted(begins, ts, side="right") - 1, 0, len(begins) - 2)
    return piece, ts - begins[piece]


class ConcatEvaluator:
    """Evaluate the concatenated trajectory of a chain at arbitrary times.

    On ``[S_i, S_{i+1}]`` the value is ``X_{t - S_i}(x_i)``; head and tail
    times wind through the single constant entry (:meth:`locate`).  A boundary
    time returns the stored point exactly.  The other times are read in one batched
    dense solve (``spec`` must accept ``(N, dim)`` batches, and :meth:`read` can add
    other pieces): one row per queried segment over its whole duration, which each
    of its times is read from.  So where a queried segment's orbit crosses
    ``norm_bound``, even past the queried times, the
    :class:`~flowlab.flow.FlowDivergenceError` gives the crossing in chain time,
    and its ``rows`` are chain segments: indices into ``po.points``, with -1 for
    the head and ``po.size`` for the tail.
    """

    def __init__(
        self, po: PseudoOrbit, tol: float = DEFAULT_TOL, norm_bound: float = DEFAULT_NORM_BOUND
    ):
        self.po = po
        self.tol = tol
        self.norm_bound = norm_bound

    def at(self, t: float) -> np.ndarray:
        return self.at_many([t])[0]

    def at_many(self, ts) -> np.ndarray:
        return self.read(*self.locate(ts))

    def locate(self, ts):
        """The chain entry of each time in ``ts`` (a row of ``po._starts``, 0 for the
        head) and the local time in it."""
        ts = np.asarray(ts, dtype=float).ravel()
        if not np.all(np.isfinite(ts)):
            raise ValueError("evaluation times must be finite")
        po = self.po
        total = po._begins[-1]
        body, local = _locate(po._begins[1:], ts)
        entry = body + 1  # rows of the chain's entry table
        before, after = ts < 0.0, ts >= total
        if before.any():
            if po.head is None:
                raise ValueError(f"t={ts[before][0]:.6g} precedes the chain and there is no head")
            ht = po.head[1]
            entry[before], local[before] = 0, ts[before] - np.floor(ts[before] / ht) * ht
        if after.any() and po.tail is not None:
            tt, rest = po.tail[1], ts[after] - total
            entry[after], local[after] = po.size + 1, rest - np.floor(rest / tt) * tt
        elif np.any(late := ts > total + 1e-9 * max(1.0, total)):
            raise ValueError(f"t={ts[late][0]:.6g} is past the chain and there is no tail")
        return entry, local

    def read(self, entry, local, starts=(), taus=(), piece=(), piece_local=()):
        """Points ``X_{local[k]}(x)``, ``local >= 0``, from the start ``x`` of chain entry
        ``entry[k]`` (as :meth:`locate` gives it), then points ``X_{piece_local[k]}`` from
        the start of piece ``piece[k]``, of ``starts`` and durations ``taus``.  A local time 0
        returns the start.  The others are read from their entry's or piece's row of one
        dense solve over ``u`` in ``[0, 1]``, at the speed of its duration or of its latest
        time if later.  A divergence raises in chain terms where a chain row is at the
        bound, else at the first piece's local time."""
        po = self.po
        entry = np.concatenate([entry, len(po._starts) + np.asarray(piece, dtype=int)])
        local = np.concatenate([local, piece_local])
        starts = np.concatenate([po._starts, np.reshape(starts, (-1, po.spec.dim))])
        out, inner = starts[entry], local != 0.0
        if inner.any():
            rows, row = np.unique(entry[inner], return_inverse=True)
            span = np.concatenate([po._taus, taus])[rows]
            np.maximum.at(span, row, local[inner])
            with self._raised(rows, span, starts):
                dense = _orbit_solve(po.spec, starts[rows], 1.0, self.tol, self.norm_bound, span,
                                     dense_output=True).sol
            out[inner] = dense.rows(local[inner] / span[row], row, len(rows))
        return out

    def _orbit(self, entries, times):
        """Points ``X_{times[i]}(x)`` from the start ``x`` of chain entry ``entries[i]``, all in
        one solve that keeps only its ends, a divergence raised as in :meth:`read`."""
        po = self.po
        with self._raised(entries, times, po._starts):
            return _orbit_points(
                po.spec, po._starts[entries], [1.0], self.tol, self.norm_bound, times
            )[:, 0]

    @contextmanager
    def _raised(self, rows, times, starts):
        """A divergence of a solve of ``starts[rows]`` at speeds ``times``, raised as
        :meth:`read` says, with chain segments or pieces as its rows."""
        try:
            yield
        except FlowDivergenceError as err:
            po, n, hit = self.po, len(self.po._starts), rows[err.rows]
            start, t = starts[hit[0]], err.t * times[err.rows[0]]
            if hit[0] < n:  # rows run in order, so a chain row at the bound comes first
                t, hit = t + po._begins[hit[0]], hit[hit < n] - 1
            else:
                hit = hit - n
            raise FlowDivergenceError.crossing(
                po.spec, start, self.norm_bound, t, "integration", hit
            ) from None


def eval_concat(po: PseudoOrbit, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """One-off evaluation of the concatenated trajectory at time ``t``."""
    return ConcatEvaluator(po, tol=tol).at(t)


def generate_noisy(
    spec: VectorFieldSpec,
    x0,
    count: int,
    noise: float,
    step: float = 1.0,
    rng=None,
    noise_subspace=None,
    tol: float = DEFAULT_TOL,
) -> PseudoOrbit:
    """Flow-and-perturb chain: ``x_{i+1} = X_step(x_i) + xi_i``, ``|xi| <= noise``.

    ``count`` is the number of transitions, so the chain has ``count + 1``
    points.  Perturbations are drawn uniformly from the ball of radius
    ``noise``, restricted to the column span of ``noise_subspace`` when one
    is given (its columns must be linearly independent and are orthonormalized
    first).  Every kick is drawn first, then the chain flows in one solve that
    lands on each ``i * step`` and adds ``xi_i`` there (:func:`flowlab.flow.solve_ivp`'s
    ``kicks``), on the universal cover: only the recorded points are wrapped.  A
    transition whose orbit crosses ``DEFAULT_NORM_BOUND``, or starts at or beyond it,
    raises naming its start and its own time.  The chain's ``delta`` is
    ``noise + 10 * tol`` to absorb integration error in later verification.
    """
    _require_count(1, count=count)
    _require_positive(noise=noise)
    if not 1.0 - 1e-12 <= step < math.inf:
        raise ValueError(f"step must be >= 1 and finite (got step={step})")
    rng = np.random.default_rng(rng)
    basis = None
    if noise_subspace is not None:
        basis, r = np.linalg.qr(np.asarray(noise_subspace, dtype=float))
        if basis.shape[0] != spec.dim or basis.shape[1] < 1:
            raise ValueError(f"noise_subspace must be ({spec.dim}, k) with k >= 1")
        # reduced QR completes a rank-deficient basis with axes nobody asked for
        diag = np.abs(np.diag(r))
        if r.shape[0] < r.shape[1] or diag.min() <= 1e-12 * diag.max():
            raise ValueError("noise_subspace columns must be linearly independent")
    k = spec.dim if basis is None else basis.shape[1]
    xis = np.empty((count, spec.dim))
    for i in range(count):
        g = rng.standard_normal(k)
        norm = np.linalg.norm(g)
        xi_local = g / norm * noise * rng.random() ** (1.0 / k) if norm else np.zeros(k)
        xis[i] = xi_local if basis is None else basis @ xi_local
    pts = np.empty((count + 1, spec.dim))
    pts[0] = wrap_point(spec, np.asarray(x0, dtype=float))
    times = step * np.arange(1.0, count + 1)
    sol = _orbit_solve(spec, pts[0], times[-1], tol, DEFAULT_NORM_BOUND, t_eval=times,
                       on_escape="truncate", kicks=(times[:-1], xis[:-1]))
    reached = len(sol.t)  # the transitions that ended before any escape
    pts[1 : reached + 1] = wrap_point(spec, sol.y.T + xis[:reached])
    if len(sol.t_events[0]):
        raise FlowDivergenceError.crossing(spec, pts[reached], DEFAULT_NORM_BOUND,
                                           sol.t_events[0][0] - reached * step, "integration",
                                           np.array([0]))
    return PseudoOrbit(
        spec=spec,
        points=pts,
        durations=np.full(count + 1, float(step)),
        delta=noise + 10.0 * tol,
    )


def equilibrium_segment_chain(
    spec: VectorFieldSpec, epsilon: float, delta: float
) -> PseudoOrbit:
    """Unit-time chain walking along equilibria on the first axis.

    Points ``(alpha_i, 0, ...)`` run from 0 to ``epsilon/2`` in uniform steps
    of at most ``0.8 * delta``; head and tail sit at the endpoints forever.
    Every point is required to be an equilibrium of ``spec`` (the transition
    gaps then equal the spatial steps exactly).
    """
    epsilon = float(epsilon)
    delta = float(delta)
    _require_positive(epsilon=epsilon, delta=delta)
    span = epsilon / 2.0
    n_seg = max(1, math.ceil(span / (0.8 * delta) - 1e-12))
    alphas = np.linspace(0.0, span, n_seg + 1)
    pts = np.zeros((n_seg + 1, spec.dim))
    pts[:, 0] = alphas
    for p in pts:
        residual = float(np.linalg.norm(spec.field_at(p)))
        if residual > 1e-10:
            raise ValueError(
                f"point {p} on the segment is not an equilibrium "
                f"(|field| = {residual:.3g}); the chain construction needs one"
            )
    return PseudoOrbit(
        spec=spec,
        points=pts,
        durations=np.ones(n_seg + 1),
        delta=delta,
        head=(pts[0].copy(), 1.0),
        tail=(pts[-1].copy(), 1.0),
    )


def periodic_family_chain(
    spec: VectorFieldSpec,
    p,
    v,
    n_points: int,
    period_hint: float,
    delta: Optional[float] = None,
    tol: float = 1e-10,
) -> PseudoOrbit:
    """Chain drifting across a family of periodic orbits along a neutral
    normal direction.

    ``p`` must lie on a periodic orbit (period near ``period_hint``) and
    ``v`` must be a normal vector on which the period-return derivative acts
    as an isometry (multiplier of modulus 1 within 1e-3).  The chain points
    are ``exp_p((i/N) C^i v)`` in the normal disc at ``p``, each flown for
    its own first-return time, so the transition gaps are ``|v|/N`` up to
    curvature of the return map.  Head is ``p`` itself; tail is the full
    displacement ``exp_p(C^N v)``.
    """
    _require_count(2, n_points=n_points)
    _require_positive(period_hint=period_hint)
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)

    crossing = section_map(spec, p, p, period_hint, tol=tol)
    period = crossing.tau
    closure = distance(spec, crossing.point, wrap_point(spec, p))
    if closure > 1e-8:
        raise ValueError(
            f"p does not return to itself (gap {closure:.3g} after t={period:.6g})"
        )

    frame = normal_frame(spec, p)
    ret = linear_poincare(spec, p, period, tol=tol)
    v_frame = frame.T @ v
    if np.linalg.norm(v - frame @ v_frame) > 1e-8 * max(1.0, np.linalg.norm(v)):
        raise ValueError("v must lie in the normal space at p")
    speed = np.linalg.norm(v_frame)
    if speed == 0.0:
        raise ValueError("v must be nonzero")
    stretch = np.linalg.norm(ret @ v_frame) / speed
    if abs(stretch - 1.0) > 1e-3:
        raise ValueError(
            f"the return derivative scales v by {stretch:.6g}; the construction "
            "needs a modulus-one direction"
        )

    # every return lands on the one section through X_period(p), as section_map's would
    anchor, normal = _section_at(spec, p, period, tol)

    def return_time(y):
        return _cross_plane(spec, anchor, normal, y, period, tol)[1]

    pts = np.empty((n_points, spec.dim))
    durations = np.empty(n_points)
    u = v_frame.copy()
    for i in range(n_points):
        pts[i] = wrap_point(spec, p + frame @ ((i / n_points) * u))
        durations[i] = return_time(pts[i])
        u = ret @ u
        u *= speed / np.linalg.norm(u)
    tail_point = wrap_point(spec, p + frame @ u)
    tail_tau = return_time(tail_point)
    if delta is None:
        delta = 1.5 * speed / n_points
    return PseudoOrbit(
        spec=spec,
        points=pts,
        durations=durations,
        delta=float(delta),
        head=(wrap_point(spec, p), period),
        tail=(tail_point, tail_tau),
    )
