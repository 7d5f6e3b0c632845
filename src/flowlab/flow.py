"""Vector fields, trajectories, and tangent flows.

Integration is flowlab's own DOP853 on scipy's tableau, :func:`solve_ivp`, with scipy's bits.
A step builds its dense stages only when read inside, and ``_DenseSteps`` alone reads them: at
output times, at event roots, and as :func:`integrate`'s :class:`Trajectory`, which alone keeps
its steps.  An armed terminal event ends ``poincare``'s section search at its crossing.
Angle coordinates are integrated on the universal cover (never wrapped mid-integration);
wrapping happens only in :func:`distance`, :func:`coord_difference`, and :func:`wrap_point`.

Two rules hold across the package.  A length, time, rate, radius or count
argument that is NaN, infinite or out of range raises ``ValueError`` naming
the argument (:func:`_require_positive` checks the positive ones,
:func:`_require_finite` the signed ones and :func:`_require_count` the
counts, which must be integers).  Every
integrator here solves through :func:`_solve`, where an orbit that crosses the
divergence bound raises one :class:`FlowDivergenceError`: "<spec>: orbit from
<start> crossed norm <bound> at t=<t> during <what>", whose ``rows`` index the
rows of the solve at the bound.  Only :func:`integrate` with
``on_escape="truncate"`` returns the reached part instead, and ``chain_graph``,
which calls :func:`solve_ivp` at :func:`_row_tol` itself, keeps the samples an
escaping cell orbit reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop853
from scipy.optimize import brentq

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
_EPS = np.finfo(float).eps
_ROOT_TOL = 4 * _EPS  # scipy's xtol and rtol for an event root
# scipy's DOP853 tableau: stages 0-11 step, 12 is the end, 13-15 are the dense extras
_A, _C, _B, _E3, _E5, _D = (_dop853.A, _dop853.C, _dop853.B, _dop853.E3, _dop853.E5, _dop853.D)


def _plain(value, *skip):
    """``value`` as JSON-ready data: a dataclass as a dict of its public
    fields (no leading ``_``) except ``skip``, a tuple or array as a list,
    and a complex number as its ``[re, im]`` pair."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)
                if f.name not in skip and not f.name.startswith("_")}
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
            raise FlowDivergenceError(f"trajectory from {self.x0} escaped at t={self.t_end:.6g}; "
                                      f"requested t={t:.6g}")
        raise ValueError(f"t={t:.6g} outside integrated span [{lo:.6g}, {hi:.6g}]")

    def at(self, t: float) -> np.ndarray:
        return self.at_many([float(t)])[0]

    def at_many(self, ts) -> np.ndarray:
        """The states at the times ``ts``: ``(len(ts), dim)``, or ``(dim,)`` for a scalar."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim > 1:
            raise ValueError(f"ts must be a time or a 1-D array of times (got shape {ts.shape})")
        self._check_time(ts)
        return self._interp(ts).T

    __call__ = at_many


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


class _DenseSteps:
    """The one reader of a solve's dense steps ``(t_old, h, y_old, F)``, given in time order:
    at times ``t``, ``(dim, len(t))`` from the order-7 sum of Hairer, Nørsett and Wanner, §II.6,
    in scipy's order.  One ``searchsorted`` over the starts picks the earlier step on a shared
    end, either way, and the first before its start; no time may fall in a gap between steps.
    A reader of one step, as of an event root, picks it without a search.  :meth:`rows` reads
    one row of a state of equal rows at each time, from that row's entries alone."""

    def __init__(self, direction, steps):
        self.t_old, self.h, self.y_old, self.F = (np.array(a) for a in zip(*steps))
        self.direction, self.starts = direction, direction * self.t_old

    def __call__(self, t):
        return self._sum(np.asarray(t, dtype=float), self.F, self.y_old).T

    def rows(self, t, row, rows):
        """Row ``row[k]`` of a state of ``rows`` equal rows at the time ``t[k]``, each the same
        bits as that row's entries of :meth:`__call__`: ``(len(t), dim)``."""
        n = len(self.h)
        return self._sum(t, self.F.reshape(n, 7, rows, -1), self.y_old.reshape(n, rows, -1), row)

    def _sum(self, t, F, y_old, *row):  # the entries ``row`` picks of the state at ``t``
        at = 0 if len(self.h) == 1 else np.maximum(
            np.searchsorted(self.starts, self.direction * t) - 1, 0)
        x = (t - self.t_old[at]) / self.h[at]
        x = x[..., None] if np.ndim(x) else x  # a scalar time stays a scalar
        y, x1 = np.zeros(np.shape(x)[:-1] + y_old.shape[-1:]), 1 - x
        for r in range(6, -1, -1):
            y += F[(at, r, *row)]
            y *= x if r % 2 == 0 else x1
        y += y_old[(at, *row)]
        return y


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """The first step of Hairer, Nørsett and Wanner, §II.4, as scipy 1.17's
    ``select_initial_step`` takes it for DOP853's order-7 error estimate, within the span."""
    rms = lambda v: np.linalg.norm(v) / v.size ** 0.5
    span = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = rms(y0 / scale), rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = rms((fun(t0 + h0 * direction, y0 + h0 * direction * f0) - f0) / scale) / h0
    flat = d1 <= 1e-15 and d2 <= 1e-15
    return min(100 * h0, max(1e-6, h0 * 1e-3) if flat else (0.01 / max(d1, d2)) ** (1 / 8), span)


def solve_ivp(fun, t_span, y0, rtol, atol, t_eval=None, dense_output=False, events=()):
    """flowlab's DOP853 on scipy's tableau, not scipy's ``solve_ivp``, whose
    ``solve_ivp(..., method="DOP853")`` it equals bit for bit in ``t``, ``y``, ``sol``,
    ``t_events``, ``y_events`` and ``status``: the same steps, step control, event roots
    and interpolants, with the same floating-point operations in the same order.

    A step builds its 3 extra dense stages only when it is read inside: for an event root,
    for ``dense_output``, or for an output time before its end.  An output time at its end
    is ``y_old + (y - y_old)``, the interpolant at ``x = 1`` bit for bit, so ``nfev`` is
    scipy's less 3 for each such step.  :class:`_DenseSteps` reads every dense step: a root's
    one step, ``sol``'s kept steps, and the pending steps of output times, several at a time,
    with no state kept per step.  ``rtol`` must be at least ``100 eps``.  A terminal
    event armed at ``after`` records its roots before ``after`` without stopping, so the
    section search in ``poincare`` stops at the first crossing at or after ``t/3``, or at ``2t``."""
    t, t_bound = float(t_span[0]), float(t_span[1])
    if t == t_bound:
        raise ValueError("t_span must have nonzero length")
    y, direction = np.asarray(y0, dtype=float), np.sign(t_bound - t)
    K = np.empty((16, y.size))  # the 13 stages of a step, then its 3 dense ones
    K[0] = fun(t, y)
    h_abs, nfev = _initial_step(fun, t, y, K[0], t_bound, direction, rtol, atol), 2
    stages = [(s, K[:s].T, _A[s, :s], _C[s]) for s in range(16)]

    def stage(lo, hi, t, y, h):  # scipy's rk_step sums for stages lo to hi - 1
        for s, previous, a, c in stages[lo:hi]:
            K[s] = fun(t + c * h, y + np.dot(previous, a) * h)

    def dense():  # the step's dense output: (t_old, h, y_old, F)
        nonlocal nfev
        stage(13, 16, t_old, y_old, h)
        nfev += 3
        F = np.empty((7, y.size))
        F[0] = y - y_old
        F[1] = h * K[0] - F[0]
        F[2] = 2 * F[0] - h * (K[12] + K[0])
        F[3:] = h * np.dot(_D, K)
        return t_old, h, y_old, F

    def flush():  # the pending steps' output rows, lo to hi, in one read
        if pending:
            lo, hi = pending[0][1], pending[-1][2]
            out[lo:hi] = _DenseSteps(direction, [s for s, _, _ in pending])(t_eval[lo:hi]).T
            pending.clear()

    directions, terminal = ([getattr(ev, k, 0) for ev in events] for k in ("direction", "terminal"))
    armed = [direction * getattr(ev, "after", t) for ev in events]
    g = [ev(t, y) for ev in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    ts, ys, steps, pending, reached, status, message = [t], [y], [], [], 0, None, None
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        key, out = direction * t_eval, np.empty((len(t_eval), y.size))
        if np.any(np.diff(key) < 0):
            raise ValueError("t_eval must run in the direction of t_span")
    while status is None:
        t_old, y_old, rejected = t, y, False
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        while True:  # scipy's step control: safety 0.9, factors 0.2 and 10, exponent -1/8
            if h_abs < min_step:
                status, message = -1, "Required step size is less than spacing between numbers."
                break
            t = t_old + h_abs * direction
            if direction * (t - t_bound) > 0:
                t = t_bound
            h = t - t_old
            h_abs = np.abs(h)
            stage(1, 12, t_old, y_old, h)
            y = y_old + h * np.dot(K[:12].T, _B)
            K[12] = fun(t_old + h, y)
            nfev += 12
            scale = atol + np.maximum(np.abs(y_old), np.abs(y)) * rtol
            err5, err3 = np.dot(K[:13].T, _E5) / scale, np.dot(K[:13].T, _E3) / scale
            err5, err3 = np.linalg.norm(err5) ** 2, np.linalg.norm(err3) ** 2
            error = 0.0 if err5 == 0 and err3 == 0 else (
                np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale)))
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** (-1 / 8))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** (-1 / 8))
            rejected = True
        if status == -1:
            break
        status = 0 if direction * (t - t_bound) >= 0 else None
        step = dense() if dense_output else None
        g_new = [ev(t, y) for ev in events]
        active = [i for i, (a, b, d) in enumerate(zip(g, g_new, directions))
                  if (a <= 0 <= b and d >= 0) or (b <= 0 <= a and d <= 0)]
        g = g_new
        if active:
            step = step or dense()
            point = _DenseSteps(direction, [step])  # point(s): its state at the time s
            roots = np.array([brentq(lambda s, ev=events[i]: ev(s, point(s)), t_old, t,
                                     xtol=_ROOT_TOL, rtol=_ROOT_TOL) for i in active])
            stops = [terminal[i] and direction * r >= armed[i] for i, r in zip(active, roots)]
            if any(stops):
                order = np.argsort(direction * roots)
                order = order[: 1 + next(n for n, k in enumerate(order) if stops[k])]
                active, roots, status = [active[k] for k in order], roots[order], 1
                t, y = roots[-1], point(roots[-1])
            for i, root in zip(active, roots):
                t_events[i].append(root)
                y_events[i].append(point(root))
        if (t_eval is None or dense_output) and not (dense_output and len(ts) > 1 and ts[-1] == t):
            ts.append(t)
            ys.append(y)
            steps.append(step)
        if t_eval is not None and reached < len(key) and key[reached] <= direction * t:
            hi = int(np.searchsorted(key, direction * t, side="right"))
            if step is None and t_eval[reached] == t:  # only the step's end: x = 1
                flush()  # pending rows stay gapless
                out[reached:hi] = y_old + (y - y_old)
            else:
                pending.append((step or dense(), reached, hi))
            reached = hi
            if 8 * len(pending) >= len(key):  # F and y_old: 8 rows a step
                flush()
        K[0] = K[12]  # the next step starts from this one's end derivative
    flush()
    return SimpleNamespace(
        t=np.array(ts) if t_eval is None else t_eval[:reached],
        y=np.vstack(ys).T if t_eval is None else out[:reached].T,
        sol=_DenseSteps(direction, steps) if dense_output and steps else None, status=status,
        t_events=[np.asarray(e) for e in t_events], y_events=[np.asarray(e) for e in y_events],
        message=message, nfev=nfev)


def _row_tol(tol, rows):
    """``(rtol, atol)`` of one solve of ``rows`` equal problems: ``tol / sqrt(rows)``, which
    under an RMS error norm keeps each row's error within a solo solve's, and its hundredth.
    Below ``100 eps`` it raises ``ValueError`` naming ``tol``, where scipy's stepper would
    clamp it with a warning."""
    row_tol = tol / np.sqrt(rows)
    if row_tol < 100 * _EPS:
        raise ValueError(f"tol must be at least {100 * _EPS * np.sqrt(rows):.3g} (got tol={tol})")
    return row_tol, row_tol / 100.0


def _solve(spec, rhs, t_span, y0, tol, norm_bound, what, dense_output=False, rows=1,
           t_eval=None, on_escape="raise", events=()):
    """DOP853 solve through :func:`solve_ivp`, with the divergence guard.

    ``y0`` holds ``rows`` equal problems, solved at :func:`_row_tol`.  An orbit
    that starts beyond or crosses ``norm_bound`` raises :class:`FlowDivergenceError`
    naming the start of the first row at the bound, unless it crosses with
    ``on_escape="truncate"``: then the solution stops there, the crossing in
    ``t_events[0]``.  The caller's ``events`` follow the escape event, so their
    hits are ``t_events[1:]``, and a terminal one among them is no escape."""
    _require_positive(tol=tol, norm_bound=norm_bound)
    rtol, atol = _row_tol(tol, rows)
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
    sol = solve_ivp(rhs, t_span, y0, rtol=rtol, atol=atol, t_eval=t_eval,
                    dense_output=dense_output, events=[escape, *events])
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
    return Trajectory(spec, x0, t0, sol.t[-1], sol.sol, tol, len(sol.t_events[0]) > 0, t1)


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
    out = np.empty((len(rows), len(u), spec.dim))
    out[:, u == 0.0] = rows[:, None]
    for side, order in ((u > 0, slice(None)), (u < 0, slice(None, None, -1))):
        if side.any():
            ts = u[side][order]
            sol = _orbit_solve(spec, y, ts[-1], tol, norm_bound, scale, t_eval=ts)
            out[:, side] = sol.y.reshape(len(rows), spec.dim, -1)[..., order].transpose(0, 2, 1)
    return out.reshape(y.shape[:-1] + out.shape[1:])


def _orbit_solve(spec, y, end, tol, norm_bound, scale=None, **options):
    """One :func:`_solve` over ``[0, end]`` of a point ``(dim,)`` or of rows ``(N, dim)``, which
    must meet the batch contract, row ``i`` following ``z' = scale_i X(z)``.  With
    ``dense_output``, :meth:`_DenseSteps.rows` reads a row of its ``sol``."""
    if y.ndim == 2:
        _check_batch_contract(spec, y)
    tau = None if scale is None else np.reshape(scale, (-1, 1))

    def rhs(t, z):
        v = np.asarray(spec.field(z.reshape(y.shape)), dtype=float)
        return (v if tau is None else tau * v).ravel()

    return _solve(spec, rhs, (0.0, end), y.ravel(), tol, norm_bound, "integration",
                  rows=y.size // spec.dim, **options)


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
