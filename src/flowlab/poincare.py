"""Normal frames, section maps, return cocycles, and orbit classification.

The normal bundle along an orbit is spanned by deterministic orthonormal
frames; the flow derivative compressed to those frames (orthogonal
projection along the way) gives the linear return cocycle used by all
splitting diagnostics.  Long-time products are always composed from short
steps, never inverted across long spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import (
    DEFAULT_NORM_BOUND,
    DEFAULT_TOL,
    VectorFieldSpec,
    _orbit_points,
    _require_count,
    _require_finite,
    _require_positive,
    _solve,
    coord_difference,
    distance,
    flow_at,
    tangent_flow,
    wrap_point,
)

__all__ = [
    "SectionError",
    "NoCrossingError",
    "TangentialCrossingError",
    "NewtonSingularError",
    "NewtonDivergedError",
    "ConsistencyError",
    "SectionCrossing",
    "PeriodicPoint",
    "CriticalElementReport",
    "normal_frame",
    "linear_poincare",
    "NormalCocycle",
    "build_cocycle",
    "section_map",
    "find_periodic_newton",
    "classify_singularity",
    "classify_periodic",
]


class SectionError(RuntimeError):
    """Base class for section-crossing failures."""


class NoCrossingError(SectionError):
    """The orbit never crossed the target section in the search window."""


class TangentialCrossingError(SectionError):
    """The orbit met the section almost tangentially; the crossing is unreliable."""


class NewtonSingularError(RuntimeError):
    """The return derivative has a multiplier too close to 1 for Newton."""


class NewtonDivergedError(RuntimeError):
    """The Newton iteration left the section disc or ran out of iterations."""


class ConsistencyError(RuntimeError):
    """An internal invariant check failed (e.g. flow-direction transport)."""


@dataclass(frozen=True)
class SectionCrossing:
    point: np.ndarray
    tau: float
    in_window: bool


@dataclass(frozen=True)
class PeriodicPoint:
    point: np.ndarray
    period: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class CriticalElementReport:
    """Spectrum and hyperbolicity data of a singularity or periodic orbit.

    ``spectrum`` holds eigenvalues of the linearization (singularity) or
    normal multipliers (periodic orbit).  ``index`` counts the stable part
    of the spectrum; ``index_with_flow`` adds 1 for a periodic orbit to
    count the flow direction inside the stable set, and equals ``index``
    for a singularity.
    """

    kind: str
    point: np.ndarray
    period: Optional[float]
    spectrum: tuple
    margins: tuple
    hyperbolic: bool
    index: int
    index_with_flow: int


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis; bit-identical to ``a @ b`` for vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def normal_frame(spec: VectorFieldSpec, x, min_speed: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the field at ``x``.

    Columns are obtained by Gram-Schmidt from the identity basis with the
    coordinate axis most aligned with the field dropped, so the result is a
    deterministic function of the field direction.  A batch ``x`` of shape
    ``(N, dim)`` gives ``(N, dim, dim - 1)``.  Raises ``ValueError`` at
    (numerical) singularities.
    """
    x = np.asarray(x, dtype=float)
    v = spec.field_at(x)
    speed = np.sqrt(_dot(v, v))
    if np.any(speed < min_speed):
        raise ValueError(f"no normal frame at a singularity (|field| = {np.min(speed):.3g})")
    v = v / speed[..., None]
    n = spec.dim
    drop = np.argmax(np.abs(v), axis=-1)[..., None]
    cols = []
    for c in range(n - 1):
        w = (np.arange(n) == c + (c >= drop)).astype(float)
        w -= _dot(w, v)[..., None] * v
        for col in cols:
            w -= _dot(w, col)[..., None] * col
        norm = np.sqrt(_dot(w, w))
        if np.any(norm < 1e-10):
            raise ConsistencyError("Gram-Schmidt degenerated while building a frame")
        cols.append(w / norm[..., None])
    return np.stack(cols, axis=-1)


def _check_transport(spec, x, x_end, deriv, where) -> None:
    """Check the flow-direction transport ``DX_t X(x) = X(X_t x)`` to 1e-5
    relative accuracy on one step or a batch; ``where.format(i)`` ends the
    message for the first failing row ``i``."""
    v1 = spec.field_at(x_end)
    moved = (deriv @ spec.field_at(x)[..., None])[..., 0]
    drift = np.atleast_1d(np.linalg.norm(moved - v1, axis=-1) / (1.0 + np.linalg.norm(v1, axis=-1)))
    if np.any(drift > 1e-5):
        i = int(np.argmax(drift > 1e-5))
        raise ConsistencyError(f"flow-direction transport off by {drift[i]:.3g} {where.format(i)}")


def linear_poincare(
    spec: VectorFieldSpec, x, t: float, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """The flow derivative compressed to normal frames: ``F(X_t x)^T DX_t F(x)``.

    Equals the derivative of the section-to-section map between the normal
    discs at ``x`` and ``X_t(x)`` composed with orthogonal projection.  The
    flow-direction transport ``DX_t X(x) = X(X_t x)`` is verified to 1e-5
    relative accuracy as a guard against integration drift.
    """
    return _compress_to_frames(spec, x, t, *tangent_flow(spec, x, t, tol=tol))


def _compress_to_frames(spec, x, t, x_end, deriv) -> np.ndarray:
    """:func:`linear_poincare` from the solved endpoint and derivative."""
    _check_transport(spec, x, x_end, deriv, f"over t={t:.6g}; tighten tol or shorten the span")
    f0 = normal_frame(spec, x)
    return normal_frame(spec, x_end).T @ deriv @ f0


class NormalCocycle:
    """Per-step normal transition matrices along one orbit.

    Sample times are ``s_k = t_start + k * dt``; ``trans[k]`` maps frame
    coordinates at ``s_k`` to frame coordinates at ``s_{k+1}``.  Window
    products are composed step by step.
    """

    def __init__(self, spec, times, points, frames, trans, tol):
        self.spec = spec
        self.times = times
        self.points = points
        self.frames = frames
        self.trans = trans
        self.tol = tol

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def steps(self) -> int:
        return self.trans.shape[0]

    def index_of_time(self, t: float) -> int:
        k = int(round((float(t) - self.times[0]) / self.dt))
        if not 0 <= k <= self.steps:
            raise IndexError(f"t={t:.6g} outside the sampled span")
        if abs(self.times[k] - t) > self.dt / 2 + 1e-9:
            raise IndexError(f"t={t:.6g} does not snap to the sample grid")
        return k

    def window_product(self, i: int, j: int) -> np.ndarray:
        """Product ``trans[j-1] @ ... @ trans[i]`` (requires ``i <= j``)."""
        if not 0 <= i <= j <= self.steps:
            raise IndexError(f"window ({i}, {j}) outside [0, {self.steps}]")
        out = np.eye(self.trans.shape[1])
        for k in range(i, j):
            out = self.trans[k] @ out
        return out


def build_cocycle(
    spec: VectorFieldSpec,
    x,
    t_total: float,
    dt: float,
    t_start: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> NormalCocycle:
    """Sample the normal cocycle along the orbit of ``x`` on a uniform grid.

    The orbit segment covers ``[t_start, t_start + t_total]`` (``t_start``
    may be negative to pad backward).  One orbit integration gives the samples,
    and one batched solve of all ``m`` steps from them, in a working set of about
    ``16 m (n + n^2)`` floats in dimension ``n``, gives the derivatives compressed
    between consecutive frames.  Each step must transport the flow direction and
    land on the next sample, both to 1e-5 relative accuracy.
    """
    _require_positive(dt=dt, t_total=t_total)
    _require_finite(t_start=t_start)
    m = int(round(t_total / dt))
    if m < 2:
        raise ValueError("the sampled span must contain at least two steps")
    dt = t_total / m
    start = flow_at(spec, x, t_start, tol=tol)

    offsets = dt * np.arange(m + 1)
    points = _orbit_points(spec, start, offsets, tol)
    ends, derivs = tangent_flow(spec, points[:-1], dt, tol=tol)
    _check_transport(spec, points[:-1], ends, derivs, "at step {}")
    gap = np.linalg.norm(ends - points[1:], axis=1) / (1.0 + np.linalg.norm(points[1:], axis=1))
    if np.any(gap > 1e-5):
        k = int(np.argmax(gap > 1e-5))
        raise ConsistencyError(f"step {k} ends {gap[k]:.3g} off the base orbit's next sample")
    frames = normal_frame(spec, points)
    trans = np.swapaxes(frames[1:], 1, 2) @ derivs @ frames[:-1]
    return NormalCocycle(spec, t_start + offsets, points, frames, trans, tol)


def _periodic_cocycle(spec, x, period, dt, window_time, tol) -> NormalCocycle:
    """The normal cocycle of the periodic orbit through ``x`` over
    ``[-w dt, 4 period + w dt]``, with ``w = round(window_time / dt)``, built
    over one period and indexed periodically (the linearised flow along a
    periodic orbit is periodic).  ``dt`` snaps to ``period / round(period / dt)``.
    The period's end must land on ``x`` to 1e-5 relative accuracy, or the glue
    would join two points that do not match.
    """
    _require_positive(dt=dt, window_time=window_time)
    m_p = max(1, round(period / dt))
    dt = period / m_p
    one = build_cocycle(spec, x, period, dt, tol=tol)
    gap = distance(spec, one.points[-1], one.points[0]) / (1.0 + np.linalg.norm(one.points[0]))
    if gap > 1e-5:
        raise ConsistencyError(
            f"orbit ends {gap:.3g} off its start after period {period:.6g}; not periodic"
        )
    w = max(1, round(window_time / dt))
    steps = np.arange(4 * m_p + 2 * w + 1) - w
    k = steps % m_p
    return NormalCocycle(spec, dt * steps, one.points[k], one.frames[k], one.trans[k[:-1]], tol)


def _cross_plane(
    spec: VectorFieldSpec,
    anchor: np.ndarray,
    normal: np.ndarray,
    y: np.ndarray,
    t_max: float,
    t_skip: float,
    tol: float,
):
    """First directional crossing of the plane through ``anchor`` at or after
    ``t_skip``, from the solver's event search over ``[0, t_max]``.  Only
    crossings in the field direction (g increasing through 0) count.
    """
    if y.shape != (spec.dim,):
        raise ValueError(f"y has shape {y.shape}, expected ({spec.dim},)")

    def section(t, z):
        return float(normal @ (z - anchor))

    section.direction = 1

    sol = _solve(spec, lambda t, z: spec.field_at(z), (0.0, t_max), y, tol,
                 DEFAULT_NORM_BOUND, "integration", events=[section])
    times, points = sol.t_events[1], sol.y_events[1]
    later = np.flatnonzero(times >= t_skip)
    if not later.size:
        raise NoCrossingError(
            f"no forward crossing of the section in [{t_skip:.6g}, {t_max:.6g}]"
        )
    tau, point = float(times[later[0]]), points[later[0]]
    speed = spec.field_at(point)
    rate = abs(float(speed @ normal))
    if rate < 1e-6 * (1.0 + np.linalg.norm(speed)):
        raise TangentialCrossingError(f"crossing at t={tau:.6g} is tangential (rate {rate:.3g})")
    return point, tau


def _section_at(spec: VectorFieldSpec, x: np.ndarray, t: float, tol: float):
    """Anchor ``X_t(x)`` and unit normal of the normal section there."""
    anchor = flow_at(spec, x, t, tol=tol)
    speed = spec.field_at(anchor)
    norm = np.linalg.norm(speed)
    if norm < 1e-12:
        raise ValueError("the target point is a singularity; no section there")
    return anchor, speed / norm


def section_map(
    spec: VectorFieldSpec,
    x,
    y,
    t: float,
    tol: float = DEFAULT_TOL,
    radius: Optional[float] = None,
) -> SectionCrossing:
    """Flow ``y`` to its first crossing of the normal section at ``X_t(x)``.

    The target section is the hyperplane through ``X_t(x)`` orthogonal to
    the field there.  Crossings during ``[0, t/3]`` are ignored (the start
    point typically sits on or near a parallel section); the search window
    ends at ``2t``.  ``in_window`` flags whether the crossing time lies in
    ``(2t/3, 4t/3)``.  The crossing point is returned with angle
    coordinates wrapped.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = float(t)
    _require_positive(t=t)
    if radius is not None:
        _require_positive(radius=radius)
    anchor, normal = _section_at(spec, x, t, tol)
    point, tau = _cross_plane(spec, anchor, normal, y, 2.0 * t, t / 3.0, tol)
    if radius is not None and distance(spec, point, anchor) > radius:
        raise NoCrossingError(
            f"crossing at t={tau:.6g} lands outside the section disc of radius {radius}"
        )
    in_window = 2.0 * t / 3.0 < tau < 4.0 * t / 3.0
    return SectionCrossing(point=wrap_point(spec, point), tau=tau, in_window=in_window)


def find_periodic_newton(
    spec: VectorFieldSpec,
    x_guess,
    t_guess: float,
    tol: float = DEFAULT_TOL,
    residual_tol: float = 1e-9,
    max_iter: int = 30,
) -> PeriodicPoint:
    """Newton iteration for a periodic point on the section through the guess.

    Works on the fixed normal disc at ``x_guess``: each iteration flows the
    current point to its first return, forms the return-map derivative (the
    monodromy projected along the flow direction onto the disc), and solves
    one Newton step.  A return derivative with a multiplier within 1e-6 of
    1 aborts with :class:`NewtonSingularError` before any step is taken, so
    non-isolated periodic orbits are rejected rather than silently drifted
    along.
    """
    _require_positive(residual_tol=residual_tol)
    _require_count(1, max_iter=max_iter)
    base = np.asarray(x_guess, dtype=float)
    speed = spec.field_at(base)
    norm = np.linalg.norm(speed)
    if norm < 1e-12:
        raise ValueError("the guess is a singularity, not a periodic point")
    normal = speed / norm
    frame = normal_frame(spec, base)
    leash = 10.0 * max(1.0, float(np.linalg.norm(base)))

    q = np.zeros(spec.dim - 1)
    t_cur = float(t_guess)
    for it in range(1, max_iter + 1):
        y = base + frame @ q
        point, tau = _cross_plane(spec, base, normal, y, 2.0 * t_cur, t_cur / 3.0, tol)
        residual = distance(spec, point, y)

        _, deriv = tangent_flow(spec, y, tau, tol=tol)
        v_end = spec.field_at(point)
        denom = float(v_end @ normal)
        proj = np.eye(spec.dim) - np.outer(v_end, normal) / denom
        ret = frame.T @ proj @ deriv @ frame

        sing = np.linalg.svd(ret - np.eye(spec.dim - 1), compute_uv=False)[-1]
        if sing < 1e-6 * max(1.0, float(np.linalg.norm(ret, 2))):
            raise NewtonSingularError(
                f"return derivative has a unit multiplier (sigma_min = {sing:.3g}); "
                "the periodic orbit is not isolated on the section"
            )
        if residual <= residual_tol:
            return PeriodicPoint(
                point=wrap_point(spec, y), period=tau, residual=residual, iterations=it
            )
        gap = frame.T @ coord_difference(spec, point, y)
        q = q + np.linalg.solve(ret - np.eye(spec.dim - 1), -gap)
        t_cur = tau
        if np.linalg.norm(q) > leash:
            raise NewtonDivergedError("iterate left the section disc")
    raise NewtonDivergedError(f"no convergence in {max_iter} iterations")


def _polish_singularity(spec: VectorFieldSpec, x: np.ndarray, max_iter: int = 30):
    # Least-squares Newton tolerates rank-deficient Jacobians, so whole
    # curves of equilibria are handled: the step moves orthogonally to them.
    x = np.array(x, dtype=float)
    for _ in range(max_iter):
        v = spec.field_at(x)
        if np.linalg.norm(v) < 1e-13:
            break
        step = np.linalg.lstsq(spec.jacobian_at(x), v, rcond=None)[0]
        x = x - step
        if np.linalg.norm(step) < 1e-14 * max(1.0, np.linalg.norm(x)):
            break
    return x


def _element_report(spec, kind, x, period, spectrum, margins, index) -> CriticalElementReport:
    """Hyperbolic when every margin clears 1e-6; a periodic orbit's
    ``index_with_flow`` also counts the flow direction."""
    return CriticalElementReport(
        kind=kind,
        point=wrap_point(spec, x),
        period=period,
        spectrum=tuple(complex(z) for z in spectrum),
        margins=tuple(float(m) for m in margins),
        hyperbolic=bool(margins.min() > 1e-6),
        index=index,
        index_with_flow=index if period is None else index + 1,
    )


def classify_singularity(spec: VectorFieldSpec, x) -> CriticalElementReport:
    """Polish ``x`` to a nearby equilibrium and report its linearization.

    Hyperbolicity requires every eigenvalue's real part to clear 1e-6 in
    absolute value; ``margins`` lists those absolute real parts, sorted
    together with the spectrum by real part then imaginary part.
    """
    x = _polish_singularity(spec, np.asarray(x, dtype=float))
    residual = float(np.linalg.norm(spec.field_at(x)))
    if residual > 1e-8:
        raise ValueError(f"no equilibrium near the given point (|field| = {residual:.3g})")
    eig = np.linalg.eigvals(spec.jacobian_at(x))
    order = np.lexsort((eig.imag, eig.real))
    eig = eig[order]
    index = int(np.sum(eig.real < 0.0))
    return _element_report(spec, "singularity", x, None, eig, np.abs(eig.real), index)


def classify_periodic(
    spec: VectorFieldSpec, p, period: float, tol: float = DEFAULT_TOL
) -> CriticalElementReport:
    """Report the normal multipliers of a periodic point known to precision.

    One variational solve over ``period`` gives the return derivative; its
    endpoint must meet ``p`` within 1e-8 (see :func:`find_periodic_newton`).
    Margins are the distances of the multiplier moduli from 1; hyperbolicity
    requires all of them above 1e-6.  ``index`` counts multipliers inside
    the unit circle; ``index_with_flow`` adds the flow direction.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (spec.dim,):
        raise ValueError(f"p has shape {p.shape}, expected ({spec.dim},)")
    _require_finite(period=period)
    period = float(period)
    p_end, deriv = tangent_flow(spec, p, period, tol=tol)
    closure = distance(spec, p_end, p)
    if closure > 1e-8 * max(1.0, float(np.linalg.norm(p))):
        raise ValueError(f"point is not {period:.6g}-periodic (closure gap {closure:.3g})")
    mult = np.linalg.eigvals(_compress_to_frames(spec, p, period, p_end, deriv))
    order = np.lexsort((np.angle(mult), np.abs(mult)))
    mult = mult[order]
    index = int(np.sum(np.abs(mult) < 1.0))
    return _element_report(spec, "periodic", p, period, mult, np.abs(np.abs(mult) - 1.0), index)
