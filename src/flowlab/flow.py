"""Vector fields, trajectories, and tangent flows.

Integration is delegated to scipy's DOP853 solver; only :func:`integrate` keeps
its dense output, as a :class:`Trajectory`.  Angle coordinates are integrated
on the universal cover (never wrapped mid-integration); wrapping happens only
in :func:`distance`, :func:`coord_difference`, and :func:`wrap_point`.

Two rules hold across the package.  A length, time, rate, radius or count
argument that is NaN, infinite or out of range raises ``ValueError`` naming
the argument (:func:`_require_positive` checks the positive ones,
:func:`_require_finite` the signed ones and :func:`_require_count` the
counts, which must be integers).  Every
integrator here solves through :func:`_solve`, where an orbit that crosses the
divergence bound raises one :class:`FlowDivergenceError`: "<spec>: orbit from
<start> crossed norm <bound> at t=<t> during <what>", whose ``rows`` index the
rows of the solve at the bound.  Only :func:`integrate` with
``on_escape="truncate"`` returns the reached part instead.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_NORM_BOUND",
    "FlowDivergenceError",
    "ConservedQuantity",
    "VectorFieldSpec",
    "Trajectory",
    "integrate",
    "flow_at",
    "tangent_flow",
    "coord_difference",
    "distance",
    "wrap_point",
    "validate_jacobian",
]

DEFAULT_TOL = 1e-9
DEFAULT_NORM_BOUND = 1e6


def _plain(value, *skip):
    """``value`` as JSON-ready data: a dataclass as a dict of its fields except
    ``skip``, a tuple or array as a list, and a complex number as its
    ``[re, im]`` pair."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value) if f.name not in skip}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _require(values, ok, rule):
    if not all(ok(v) for v in values.values()):
        got = ", ".join(f"{name}={v}" for name, v in values.items())
        raise ValueError(f"{' and '.join(values)} must be {rule} (got {got})")


def _require_positive(**values):
    """Raise ``ValueError`` naming the arguments unless every value is
    finite and positive."""
    _require(values, lambda v: math.isfinite(v) and v > 0, "positive and finite")


def _require_count(least, **values):
    """Raise ``ValueError`` naming the first argument that is not an integer
    (``bool`` excluded) of at least ``least``."""
    for name, v in values.items():
        if isinstance(v, bool) or not (isinstance(v, (int, np.integer)) and v >= least):
            raise ValueError(f"{name} must be at least {least}, as an integer (got {name}={v})")


def _require_finite(**values):
    """Raise ``ValueError`` naming the arguments unless every value is finite."""
    _require(values, math.isfinite, "finite")


class FlowDivergenceError(RuntimeError):
    """The state norm crossed the divergence bound during integration.

    ``rows`` indexes the rows of the (possibly batched) solve whose norm was
    at the bound (within 1e-9 relative of the largest) where it stopped, and
    ``t`` is the time it stopped at; both are ``None`` for a read past the end
    of a truncated :class:`Trajectory`."""

    def __init__(self, message, rows=None, t=None):
        super().__init__(message)
        self.rows = rows
        self.t = t

    @classmethod
    def crossing(cls, spec, start, norm_bound, t, what, rows):
        """The one divergence error, "<spec>: orbit from <start> crossed norm
        <bound> at t=<t> during <what>"."""
        message = f"orbit from {start} crossed norm {norm_bound:.3g} at t={t:.6g} during {what}"
        return cls(f"{spec.name}: {message}", rows, t)


@dataclass(frozen=True)
class ConservedQuantity:
    """A first integral together with a global Lipschitz bound.

    Parameters
    ----------
    func : callable
        Maps a state ``x`` to the conserved value ``Q(x)``.
    lipschitz : float
        A constant ``L`` with ``|Q(a) - Q(b)| <= L * d(a, b)`` everywhere.
    name : str
        Label used in reports and certificates.
    """

    func: Callable[[np.ndarray], float]
    lipschitz: float
    name: str = "Q"

    def __post_init__(self) -> None:
        _require_positive(lipschitz=self.lipschitz)


@dataclass(frozen=True)
class VectorFieldSpec:
    """An autonomous C^1 vector field on R^n, some coordinates periodic.

    Parameters
    ----------
    name : str
        Identifier used in reports.
    dim : int
        State dimension.
    field : callable
        ``x -> dx/dt``, row by row: maps ``(..., dim)`` to ``(..., dim)``, so
        one point ``(dim,)`` or a batch ``(N, dim)``.
    jacobian : callable
        Derivative of ``field``: maps ``(..., dim)`` to an array that
        broadcasts to ``(..., dim, dim)``.
    coord_kinds : sequence, optional
        One entry per coordinate: the string ``"linear"`` or a pair
        ``("angle", period)``.  Defaults to all linear.
    conserved : ConservedQuantity, optional
        A quantity constant along every orbit.
    """

    name: str
    dim: int
    field: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    coord_kinds: tuple = ()
    conserved: Optional[ConservedQuantity] = None

    def __post_init__(self) -> None:
        _require_count(1, dim=self.dim)
        kinds = tuple(self.coord_kinds) if self.coord_kinds else ("linear",) * self.dim
        if len(kinds) != self.dim:
            raise ValueError(f"coord_kinds has {len(kinds)} entries for dim {self.dim}")
        periods = np.full(self.dim, np.nan)
        for i, kind in enumerate(kinds):
            if kind == "linear":
                continue
            if (
                isinstance(kind, (tuple, list))
                and len(kind) == 2
                and kind[0] == "angle"
            ):
                periods[i] = float(kind[1])
                _require_positive(**{f"coordinate {i} angle period": periods[i]})
                continue
            raise ValueError(f"coordinate {i}: unknown kind {kind!r}")
        object.__setattr__(self, "coord_kinds", kinds)
        object.__setattr__(self, "_periods", periods)
        object.__setattr__(self, "_angle_mask", ~np.isnan(periods))

    @property
    def periods(self) -> np.ndarray:
        """Per-coordinate period, NaN on linear coordinates."""
        return self._periods

    @property
    def angle_mask(self) -> np.ndarray:
        return self._angle_mask

    def field_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.field(np.asarray(x, dtype=float)), dtype=float)

    def jacobian_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.jacobian(np.asarray(x, dtype=float)), dtype=float)


def _wrap_difference(d: np.ndarray, period) -> None:
    """Reduce the differences ``d`` of one angle coordinate of period ``P``
    to (-P/2, P/2], in place."""
    d += period / 2.0
    np.remainder(d, period, out=d)
    d -= period / 2.0


def coord_difference(spec: VectorFieldSpec, a, b) -> np.ndarray:
    """Componentwise ``a - b`` with angle coordinates wrapped to (-P/2, P/2]."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    for c in np.flatnonzero(spec.angle_mask):
        _wrap_difference(d[..., c], spec.periods[c])
    return d


def distance(spec: VectorFieldSpec, a, b) -> float:
    """Euclidean distance with shortest-arc wrapping on angle coordinates."""
    return float(np.linalg.norm(coord_difference(spec, a, b)))


def wrap_point(spec: VectorFieldSpec, x) -> np.ndarray:
    """Canonical representative with angle coordinates reduced to [0, P)."""
    out = np.array(x, dtype=float)
    mask = spec.angle_mask
    if mask.any():
        out[..., mask] = out[..., mask] % spec.periods[mask]
    return out


class Trajectory:
    """Dense-output solution of ``dx/dt = field(x)`` over one time span.

    Evaluation at the initial time returns the initial state exactly.
    ``escaped`` marks a run terminated early by the divergence guard; such a
    trajectory is valid on the reached span only.
    """

    def __init__(self, spec, x0, t0, t_end, interp, tol, escaped=False, requested_t1=None):
        self.spec = spec
        self.x0 = np.array(x0, dtype=float)
        self.t0 = float(t0)
        self.t_end = float(t_end)
        self.tol = float(tol)
        self.escaped = bool(escaped)
        self.requested_t1 = float(t_end if requested_t1 is None else requested_t1)
        self._interp = interp

    @property
    def span(self) -> tuple:
        lo, hi = sorted((self.t0, self.t_end))
        return (lo, hi)

    def _check_time(self, t) -> None:
        lo, hi = self.span
        slack = 1e-9 * max(1.0, hi - lo)
        inside = (lo - slack <= t) & (t <= hi + slack)
        if np.all(inside):
            return
        t = float(np.ravel(t)[np.argmin(inside)])
        if self.escaped:
            raise FlowDivergenceError(
                f"trajectory from {self.x0} escaped at t={self.t_end:.6g}; "
                f"requested t={t:.6g}"
            )
        raise ValueError(f"t={t:.6g} outside integrated span [{lo:.6g}, {hi:.6g}]")

    def at(self, t: float) -> np.ndarray:
        return self.at_many([float(t)])[0]

    def at_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        self._check_time(ts)
        out = np.asarray(self._interp(ts), dtype=float).T
        exact = ts == self.t0
        if exact.any():
            out[exact] = self.x0
        return out

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        if ts.ndim == 0:
            return self.at(float(ts))
        return self.at_many(ts)


def _escape_event(norm_bound: float, dim: int, rows: int = 1):
    """Terminal event: the state holds ``rows`` equal-length rows, and the
    largest norm of a row's first ``dim`` entries reaches ``norm_bound``."""

    def ev(t, y):
        if rows == 1:
            return norm_bound - float(np.linalg.norm(y[:dim]))
        return norm_bound - float(np.linalg.norm(y.reshape(rows, -1)[:, :dim], axis=1).max())

    ev.terminal = True
    ev.direction = -1
    return ev


def _peak_rows(y, dim: int, rows: int) -> np.ndarray:
    """Rows of a state of ``rows`` equal-length rows whose first ``dim`` entries
    have a norm within 1e-9 relative of the largest."""
    norms = np.linalg.norm(np.reshape(y, (rows, -1))[:, :dim], axis=1)
    return np.flatnonzero(norms >= (1.0 - 1e-9) * norms.max())


def _solve(spec, rhs, t_span, y0, tol, norm_bound, what, dense_output=False, rows=1,
           t_eval=None, on_escape="raise", events=()):
    """DOP853 solve with the divergence guard.

    ``y0`` holds ``rows`` equal problems; under an RMS error norm, tolerances
    over ``sqrt(rows)`` keep each row's error within a solo solve's.  An orbit
    that starts beyond or crosses ``norm_bound`` raises :class:`FlowDivergenceError`
    naming the start of the first row at the bound, unless it crosses with
    ``on_escape="truncate"``: then the solution stops there, the crossing in
    ``t_events[0]``.  The caller's ``events`` follow the escape event, so their
    hits are ``t_events[1:]``, and a terminal one among them is no escape.
    The solver and its stage arrays are freed as soon as the solve returns."""
    _require_positive(tol=tol, norm_bound=norm_bound)
    escape = _escape_event(norm_bound, spec.dim, rows)
    if not np.all(np.isfinite(y0)):
        raise ValueError("x0 must be finite")
    if not (math.isfinite(t_span[0]) and math.isfinite(t_span[1])):
        raise ValueError(f"{what} times must be finite (got {t_span[0]} to {t_span[1]})")

    def diverged(t, y):
        hit = _peak_rows(y, spec.dim, rows)
        start = np.reshape(y0, (rows, -1))[hit[0], : spec.dim]
        return FlowDivergenceError.crossing(spec, start, norm_bound, t, what, hit)

    if escape(t_span[0], y0) <= 0:
        raise diverged(t_span[0], y0)
    tol = tol / np.sqrt(rows)
    sol = solve_ivp(
        rhs,
        t_span,
        y0,
        method="DOP853",
        dense_output=dense_output,
        t_eval=t_eval,
        rtol=tol,
        atol=tol / 100.0,
        events=[escape, *events],
    )
    gc.collect(0)  # the solver sits in a reference cycle with its fun wrapper, in generation 0
    if sol.status == -1:
        raise RuntimeError(f"{what} failed: {sol.message}")
    if len(sol.t_events[0]) and on_escape == "raise":
        raise diverged(sol.t_events[0][0], sol.y_events[0][0])
    return sol


def integrate(
    spec: VectorFieldSpec,
    x0,
    t_span,
    tol: float = DEFAULT_TOL,
    norm_bound: float = DEFAULT_NORM_BOUND,
    on_escape: str = "raise",
) -> Trajectory:
    """Integrate from ``x0`` over ``t_span`` (either time direction).

    Parameters
    ----------
    tol : float
        Local error tolerance (relative; absolute is ``tol / 100``).
    norm_bound : float
        Divergence guard; crossing it raises :class:`FlowDivergenceError`
        unless ``on_escape="truncate"``, which returns the reached part.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({spec.dim},)")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 == t0:
        raise ValueError("integration span must have nonzero length")
    if on_escape not in ("raise", "truncate"):
        raise ValueError("on_escape must be 'raise' or 'truncate'")
    sol = _solve(spec, lambda t, y: spec.field_at(y), (t0, t1), x0, tol, norm_bound,
                 "integration", dense_output=True, on_escape=on_escape)
    escaped = len(sol.t_events[0]) > 0
    return Trajectory(spec, x0, t0, sol.t[-1], sol.sol, tol, escaped, requested_t1=t1)


def flow_at(
    spec: VectorFieldSpec,
    x,
    t: float,
    tol: float = DEFAULT_TOL,
    norm_bound: float = DEFAULT_NORM_BOUND,
) -> np.ndarray:
    """The point ``X_t(x)``; ``t`` may be negative, ``t=0`` is exact."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError(f"x has shape {x.shape}, expected ({spec.dim},)")
    _require_finite(t=t)
    return _orbit_points(spec, x, [float(t)], tol, norm_bound)[0]


def _orbit_points(spec, y, u_values, tol, norm_bound=DEFAULT_NORM_BOUND, scale=None):
    """Points ``X_{scale_i u}(y_i)``: row ``i`` of ``y`` follows ``z' = scale_i X(z)``
    (``scale`` 1 when omitted), all rows in one solve per time direction.

    A point ``(dim,)`` gives ``(len(u), dim)`` and rows ``(N, dim)`` give
    ``(N, len(u), dim)`` for increasing ``u``; rows ``(N, dim)`` must meet the
    batch contract.  A solve stops where the first orbit crosses ``norm_bound``;
    the error's ``rows`` are the rows at the bound there."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u_values, dtype=float)
    rows = y.reshape(-1, spec.dim)
    if y.ndim == 2:
        _check_batch_contract(spec, rows)
    tau = None if scale is None else np.reshape(scale, (-1, 1))

    def rhs(t, z):
        v = np.asarray(spec.field(z.reshape(y.shape)), dtype=float)
        return (v if tau is None else tau * v).ravel()

    out = np.empty((len(rows), len(u), spec.dim))
    out[:, u == 0.0] = rows[:, None]
    for side, order in ((u > 0, slice(None)), (u < 0, slice(None, None, -1))):
        if side.any():
            ts = u[side][order]
            sol = _solve(spec, rhs, (0.0, ts[-1]), y.ravel(), tol, norm_bound, "integration",
                         rows=len(rows), t_eval=ts)
            out[:, side] = sol.y.reshape(len(rows), spec.dim, -1)[..., order].transpose(0, 2, 1)
    return out.reshape(y.shape[:-1] + out.shape[1:])


def _check_batch_contract(spec: VectorFieldSpec, xs: np.ndarray) -> None:
    """Compare ``field`` and ``jacobian`` on ``dim + 1`` rows of ``xs`` with per-point
    values; ``dim + 1`` rows are never square, so ``a @ x`` fails, not mixes rows.
    A spec that passes once is not probed again."""
    if getattr(spec, "_batch_ok", False):
        return
    n = spec.dim
    probe = xs[np.arange(n + 1) % len(xs)]
    try:
        jac = np.broadcast_to(spec.jacobian_at(probe), (n + 1, n, n)).reshape(n + 1, -1)
        batch = np.hstack([spec.field_at(probe), jac])
        rows = np.array([np.append(spec.field_at(p), spec.jacobian_at(p)) for p in probe])
        if np.all(abs(batch - rows) <= 1e-12 * (1.0 + abs(rows))):
            object.__setattr__(spec, "_batch_ok", True)
            return
    except (ValueError, IndexError, TypeError):
        pass
    raise ValueError(f"{spec.name}: field and jacobian must accept (N, {n}) batches, row by row")


def tangent_flow(
    spec: VectorFieldSpec,
    x,
    t: float,
    tol: float = DEFAULT_TOL,
    norm_bound: float = DEFAULT_NORM_BOUND,
    *,
    scale=None,
):
    """Solve the variational equation along the orbit of ``x``.

    ``x`` is one point ``(dim,)`` or a batch ``(N, dim)`` solved as one system.
    With ``scale``, row ``i`` follows ``z' = scale_i X(z)``, so that at ``t = 1``
    its derivative is ``D X_{scale_i}(x_i)``.

    Returns
    -------
    (x_t, M) : tuple of ndarray
        The endpoint ``X_t(x)`` and the derivative ``D X_t(x)`` of shape
        ``(dim, dim)``, with a leading ``N`` for a batch; ``V' = J(x(t)) V``
        is integrated from the identity alongside the base orbit.
    """
    x = np.asarray(x, dtype=float)
    n = spec.dim
    if x.ndim not in (1, 2) or x.shape[-1] != n or x.size == 0:
        raise ValueError(f"x has shape {x.shape}, expected ({n},) or (N, {n})")
    t = float(t)
    lead, rows = x.shape[:-1], x.reshape(-1, n)
    eye = np.broadcast_to(np.eye(n), lead + (n, n))
    if t == 0.0:
        return x.copy(), eye.copy()
    if x.ndim == 2:
        _check_batch_contract(spec, x)
    tau = None if scale is None else np.reshape(scale, (-1, 1))

    def rhs(s, y):
        y = y.reshape(lead + (n + n * n,))
        jv = spec.jacobian_at(y[..., :n]) @ y[..., n:].reshape(eye.shape)
        out = np.concatenate([spec.field_at(y[..., :n]), jv.reshape(lead + (-1,))], -1)
        return (out if tau is None else tau * out).ravel()

    y0 = np.concatenate([rows, eye.reshape(len(rows), -1)], axis=1).ravel()
    sol = _solve(spec, rhs, (0.0, t), y0, tol, norm_bound, "variational integration",
                 rows=len(rows))
    y_end = sol.y[:, -1].reshape(len(rows), -1)
    return y_end[:, :n].reshape(x.shape).copy(), y_end[:, n:].reshape(eye.shape).copy()


def validate_jacobian(
    spec: VectorFieldSpec,
    points: Sequence,
    step: float = 1e-6,
) -> float:
    """Largest row-scaled mismatch between ``jacobian`` and a central
    finite difference of ``field`` over the given points.

    The mismatch at entry ``(i, j)`` is scaled by ``1 + |row_i(J)|`` so the
    check is meaningful for both small and large derivative rows.
    """
    _require_positive(step=step)
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        jac = spec.jacobian_at(x)
        fd = np.empty_like(jac)
        for j in range(spec.dim):
            e = np.zeros(spec.dim)
            e[j] = step
            fd[:, j] = (spec.field_at(x + e) - spec.field_at(x - e)) / (2.0 * step)
        scale = 1.0 + np.linalg.norm(jac, axis=1)
        worst = max(worst, float(np.max(np.abs(fd - jac) / scale[:, None])))
    return worst
