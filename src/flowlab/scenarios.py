"""Built-in vector fields with independently known dynamical facts.

Each constructor returns a :class:`Scenario`: the field itself plus a
:class:`ScenarioFacts` record of closed-form or by-construction data
(singularities, periodic orbits, spectra, conserved quantities) that tests
and pipelines check against, never the other way around.  Fields and
Jacobians take one point or a batch ``(..., dim)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .flow import ConservedQuantity, VectorFieldSpec, _require_positive

__all__ = [
    "bump_function",
    "SingularityFact",
    "CycleFact",
    "ScenarioFacts",
    "Scenario",
    "linear_saddle3d",
    "saddle_cycle",
    "center_cycle",
    "neutral_line",
    "neutral_rotation",
    "builtin",
    "scenario_names",
    "SCENARIO_PARAMS",
]


def bump_function(epsilon: float):
    """Radial cutoff equal to 1 on ``r <= epsilon/4`` and 0 on ``r >= epsilon``.

    Returns the pair ``(beta, beta_prime)``.  The profile is the cubic
    smoothstep, so ``|beta'| <= 2/epsilon`` everywhere with equality exactly
    at the midpoint of the transition band.  Both callables accept scalars
    or arrays.
    """
    epsilon = float(epsilon)
    _require_positive(epsilon=epsilon)
    inner = epsilon / 4.0
    width = epsilon - inner

    def beta(r):
        r = np.abs(np.asarray(r, dtype=float))
        u = np.clip((r - inner) / width, 0.0, 1.0)
        out = 1.0 - u * u * (3.0 - 2.0 * u)
        return out if out.ndim else float(out)

    def beta_prime(r):
        r = np.abs(np.asarray(r, dtype=float))
        u = np.clip((r - inner) / width, 0.0, 1.0)
        out = -6.0 * u * (1.0 - u) / width
        return out if out.ndim else float(out)

    return beta, beta_prime


@dataclass(frozen=True)
class SingularityFact:
    point: tuple
    eigenvalues: tuple
    provenance: str = "closed-form"


@dataclass(frozen=True)
class CycleFact:
    point: tuple
    period: float
    multipliers: tuple
    normal_rates: tuple
    provenance: str = "closed-form"


@dataclass(frozen=True)
class ScenarioFacts:
    """Independently known data about a scenario, with provenance tags."""

    name: str
    sample_box: tuple
    singularities: tuple = ()
    cycles: tuple = ()
    notes: tuple = ()


@dataclass(frozen=True)
class Scenario:
    spec: VectorFieldSpec
    facts: ScenarioFacts


def linear_saddle3d() -> Scenario:
    """``dx/dt = diag(-2, -1, 1) x``: a hyperbolic saddle at the origin."""
    a = np.diag([-2.0, -1.0, 1.0])

    spec = VectorFieldSpec(
        name="linear_saddle3d",
        dim=3,
        field=lambda x: x @ a,  # a is diagonal, so x @ a = a x
        jacobian=lambda x: a,
    )
    facts = ScenarioFacts(
        name="linear_saddle3d",
        sample_box=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        singularities=(SingularityFact((0.0, 0.0, 0.0), (-2.0, -1.0, 1.0)),),
        notes=("solution is coordinatewise exponential",),
    )
    return Scenario(spec, facts)


def saddle_cycle() -> Scenario:
    """Planar limit cycle at radius 1 crossed with an expanding axis.

    In cylindrical coordinates ``r' = r(1 - r^2)``, ``theta' = 1``,
    ``z' = z``; the unit circle in the plane ``z = 0`` is a hyperbolic
    periodic orbit of period ``2*pi`` with normal rates ``(-2, 1)``.
    """

    def field(x):
        x0, x1, x2 = x.T
        r2 = x0 * x0 + x1 * x1
        return np.array([x0 * (1.0 - r2) - x1, x1 * (1.0 - r2) + x0, x2]).T

    def jacobian(x):
        x0, x1, _ = x.T
        r2 = x0 * x0 + x1 * x1
        out = np.zeros(x.shape + (3,))
        out[..., 0, 0] = 1.0 - r2 - 2.0 * x0 * x0
        out[..., 0, 1] = -2.0 * x0 * x1 - 1.0
        out[..., 1, 0] = -2.0 * x0 * x1 + 1.0
        out[..., 1, 1] = 1.0 - r2 - 2.0 * x1 * x1
        out[..., 2, 2] = 1.0
        return out

    spec = VectorFieldSpec(name="saddle_cycle", dim=3, field=field, jacobian=jacobian)
    facts = ScenarioFacts(
        name="saddle_cycle",
        sample_box=((-1.4, 1.4), (-1.4, 1.4), (-0.5, 0.5)),
        singularities=(SingularityFact((0.0, 0.0, 0.0), (1.0 + 1.0j, 1.0 - 1.0j, 1.0)),),
        cycles=(
            CycleFact(
                point=(1.0, 0.0, 0.0),
                period=2.0 * math.pi,
                multipliers=(math.exp(-4.0 * math.pi), math.exp(2.0 * math.pi)),
                normal_rates=(-2.0, 1.0),
            ),
        ),
        notes=("radial equation solvable in closed form",),
    )
    return Scenario(spec, facts)


def center_cycle() -> Scenario:
    """A circle's worth of periodic orbits, none of them isolated.

    Coordinates ``(theta, y, z)`` with ``theta`` an angle of period
    ``2*pi``: ``theta' = 1``, ``y' = 0``, ``z' = -z``.  Every point of the
    plane ``z = 0`` lies on a period-``2*pi`` orbit; each orbit carries the
    multiplier 1 in the ``y`` direction, so none is hyperbolic.  ``y`` is
    conserved.
    """
    jac = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    e0 = np.array([1.0, 0.0, 0.0])

    spec = VectorFieldSpec(
        name="center_cycle",
        dim=3,
        field=lambda x: x @ jac + e0,  # jac is diagonal, so x @ jac = jac x
        jacobian=lambda x: jac,
        coord_kinds=(("angle", 2.0 * math.pi), "linear", "linear"),
        conserved=ConservedQuantity(lambda x: float(x[1]), 1.0, "family-parameter"),
    )
    facts = ScenarioFacts(
        name="center_cycle",
        sample_box=((0.0, 2.0 * math.pi), (-0.5, 0.5), (-0.5, 0.5)),
        cycles=(
            CycleFact(
                point=(0.0, 0.0, 0.0),
                period=2.0 * math.pi,
                multipliers=(1.0, math.exp(-2.0 * math.pi)),
                normal_rates=(0.0, -1.0),
                provenance="by-construction",
            ),
        ),
        notes=("every (theta, y, 0) is periodic; the family is indexed by y",),
    )
    return Scenario(spec, facts)


def _check_higher_order(k_func, epsilon: float) -> None:
    # o(|x|^2) near 0: the ratio |K(x)|/|x|^2 must decay with the radius.
    s = 1.0 / math.sqrt(2.0)
    dirs = [np.array(d, float) for d in ((1, 0), (-1, 0), (0, 1), (0, -1), (s, s), (-s, s))]
    radii = [1e-1 * epsilon, 1e-2 * epsilon, 1e-3 * epsilon]
    ratios = []
    for r in radii:
        worst = 0.0
        for d in dirs:
            worst = max(worst, float(np.linalg.norm(k_func(r * d))) / (r * r))
        ratios.append(worst)
    for a, b in zip(ratios, ratios[1:]):
        if b > 0.5 * a + 1e-12:
            raise ValueError(
                "nonlinearity is not o(|x|^2) near the origin "
                f"(ratio went {a:.3g} -> {b:.3g} as the radius shrank)"
            )


def neutral_line(
    b_rate: float = -1.0,
    epsilon: float = 0.4,
    nonlinearity=None,
) -> Scenario:
    """Planar field with a whole segment of equilibria on the first axis.

    The linear part is ``diag(0, b_rate)`` with ``b_rate < 0``.  An optional
    nonlinearity ``K`` (given as a ``(func, jacobian)`` pair, required to be
    ``o(|x|^2)`` near 0) is switched on outside the ball of radius
    ``epsilon/4`` by the cutoff of :func:`bump_function`, so the field
    coincides with the pure linear block exactly on that ball.  With the
    default ``K = 0`` the first coordinate is conserved globally and the
    entire first axis consists of equilibria.  The field accepts batches
    when ``K`` and its Jacobian do.
    """
    b_rate = float(b_rate)
    epsilon = float(epsilon)
    if not -math.inf < b_rate < 0:
        raise ValueError(f"b_rate must be negative and finite (got b_rate={b_rate})")
    _require_positive(epsilon=epsilon)
    d = np.diag([0.0, b_rate])  # diagonal, so x @ d = d x below

    conserved = None
    if nonlinearity is None:
        field = lambda x: x @ d
        jacobian = lambda x: d
        conserved = ConservedQuantity(lambda x: float(x[0]), 1.0, "segment-coordinate")
    else:
        k_func, k_jac = nonlinearity
        _check_higher_order(k_func, epsilon)
        beta, beta_prime = bump_function(epsilon)

        def field(x):
            r = np.linalg.norm(x, axis=-1, keepdims=True)
            return x @ d + (1.0 - beta(r)) * np.asarray(k_func(x), dtype=float)

        def jacobian(x):
            r = np.linalg.norm(x, axis=-1, keepdims=True)[..., None]
            out = d + (1.0 - beta(r)) * np.asarray(k_jac(x), dtype=float)
            radial = x[..., None, :] / np.where(r > 0.0, r, 1.0)
            k = np.asarray(k_func(x), dtype=float)[..., :, None]
            return out - beta_prime(r) * k * radial

    spec = VectorFieldSpec(
        name="neutral_line",
        dim=2,
        field=field,
        jacobian=jacobian,
        conserved=conserved,
    )
    # Points up to epsilon/2 are equilibria for K = 0; with a nonlinearity
    # only the epsilon/4 ball is guaranteed, which the facts reflect.
    guaranteed = epsilon / 4.0 if nonlinearity is not None else epsilon / 2.0
    facts = ScenarioFacts(
        name="neutral_line",
        sample_box=((-epsilon, epsilon), (-epsilon, epsilon)),
        singularities=(
            SingularityFact((0.0, 0.0), (0.0, b_rate), "by-construction"),
            SingularityFact((guaranteed / 2.0, 0.0), (0.0, b_rate), "by-construction"),
            SingularityFact((guaranteed, 0.0), (0.0, b_rate), "by-construction"),
        ),
        notes=(
            f"equilibrium segment certified up to |y| = {guaranteed}",
            "first coordinate conserved only for the default K = 0",
        ),
    )
    return Scenario(spec, facts)


def neutral_rotation(
    omega: float = 1.0,
    b_rate: float = -1.0,
    epsilon: float = 0.4,
) -> Scenario:
    """Linear field with a rotation block: eigenvalues ``(+-i*omega, b_rate)``.

    Every cylinder ``x0^2 + x1^2 = r^2`` is invariant; the circles in the
    plane ``x2 = 0`` are periodic orbits of period ``2*pi/omega`` whose
    radial multiplier is exactly 1.  The rotation radius is conserved.
    """
    omega = float(omega)
    b_rate = float(b_rate)
    epsilon = float(epsilon)
    if omega == 0 or not math.isfinite(omega):
        raise ValueError(f"omega must be nonzero and finite (got omega={omega})")
    if not -math.inf < b_rate < 0:
        raise ValueError(f"b_rate must be negative and finite (got b_rate={b_rate})")
    _require_positive(epsilon=epsilon)
    a = np.array([[0.0, omega, 0.0], [-omega, 0.0, 0.0], [0.0, 0.0, b_rate]])
    at = np.ascontiguousarray(a.T)

    spec = VectorFieldSpec(
        name="neutral_rotation",
        dim=3,
        field=lambda x: x @ at,
        jacobian=lambda x: a,
        conserved=ConservedQuantity(
            lambda x: float(math.hypot(x[0], x[1])), 1.0, "rotation-radius"
        ),
    )
    period = 2.0 * math.pi / abs(omega)
    facts = ScenarioFacts(
        name="neutral_rotation",
        sample_box=((-epsilon, epsilon), (-epsilon, epsilon), (-epsilon, epsilon)),
        singularities=(
            SingularityFact((0.0, 0.0, 0.0), (1.0j * omega, -1.0j * omega, b_rate)),
        ),
        cycles=(
            CycleFact(
                point=(epsilon / 4.0, 0.0, 0.0),
                period=period,
                multipliers=(1.0, math.exp(b_rate * period)),
                normal_rates=(0.0, b_rate),
            ),
        ),
        notes=("one representative circle recorded; every radius is periodic",),
    )
    return Scenario(spec, facts)


_BUILTINS = {
    "center_cycle": center_cycle,
    "linear_saddle3d": linear_saddle3d,
    "neutral_line": neutral_line,
    "neutral_rotation": neutral_rotation,
    "saddle_cycle": saddle_cycle,
}

# Constructor keyword ranges, used by the CLI for config validation.
SCENARIO_PARAMS = {
    "center_cycle": {},
    "linear_saddle3d": {},
    "neutral_line": {
        "b_rate": ("float", -100.0, -1e-6),
        "epsilon": ("float", 1e-6, 100.0),
    },
    "neutral_rotation": {
        "omega": ("float", 1e-6, 100.0),
        "b_rate": ("float", -100.0, -1e-6),
        "epsilon": ("float", 1e-6, 100.0),
    },
    "saddle_cycle": {},
}


def scenario_names():
    return sorted(_BUILTINS)


def builtin(name: str, **params) -> Scenario:
    """Construct a built-in scenario by name."""
    try:
        ctor = _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
    return ctor(**params)
