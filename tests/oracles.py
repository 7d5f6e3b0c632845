"""Hand-derived reference data for the built-in scenarios.

Everything here comes from solving the defining equations by hand
(coordinatewise exponentials, the logistic radial equation, explicit
rotation blocks), so tests can compare library output against values that
never pass through the package's own integrators.
"""

import math

import numpy as np

SADDLE_RATES = np.array([-2.0, -1.0, 1.0])


def linear_saddle_flow(x, t):
    return np.asarray(x, dtype=float) * np.exp(SADDLE_RATES * t)


def linear_saddle_tangent(t):
    return np.diag(np.exp(SADDLE_RATES * t))


def saddle_cycle_flow(x, t):
    # r' = r(1 - r^2) gives the logistic equation for u = r^2.
    x = np.asarray(x, dtype=float)
    u0 = x[0] * x[0] + x[1] * x[1]
    e2 = math.exp(2.0 * t)
    den = 1.0 + u0 * (e2 - 1.0)
    if den <= 0.0:
        raise ValueError("radial coordinate blows up before this time")
    r = math.sqrt(u0 * e2 / den)
    th = math.atan2(x[1], x[0]) + t
    return np.array([r * math.cos(th), r * math.sin(th), x[2] * math.exp(t)])


def center_cycle_flow(x, t):
    # Angle returned on the universal cover; compare with wrapped distance.
    x = np.asarray(x, dtype=float)
    return np.array([x[0] + t, x[1], x[2] * math.exp(-t)])


def center_cycle_tangent(t):
    return np.diag([1.0, 1.0, math.exp(-t)])


def neutral_line_flow(x, t, b_rate=-1.0):
    x = np.asarray(x, dtype=float)
    return np.array([x[0], x[1] * math.exp(b_rate * t)])


def neutral_line_tangent(t, b_rate=-1.0):
    return np.diag([1.0, math.exp(b_rate * t)])


def neutral_rotation_flow(x, t, omega=1.0, b_rate=-1.0):
    x = np.asarray(x, dtype=float)
    c, s = math.cos(omega * t), math.sin(omega * t)
    return np.array(
        [c * x[0] + s * x[1], -s * x[0] + c * x[1], x[2] * math.exp(b_rate * t)]
    )


def neutral_rotation_tangent(t, omega=1.0, b_rate=-1.0):
    c, s = math.cos(omega * t), math.sin(omega * t)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, math.exp(b_rate * t)]])


CLOSED_FLOWS = {
    "center_cycle": center_cycle_flow,
    "linear_saddle3d": linear_saddle_flow,
    "neutral_line": neutral_line_flow,
    "neutral_rotation": neutral_rotation_flow,
    "saddle_cycle": saddle_cycle_flow,
}

# saddle_cycle has no globally diagonal tangent map, so it is checked via
# the velocity-transport identity instead.
CLOSED_TANGENTS = {
    "center_cycle": center_cycle_tangent,
    "linear_saddle3d": linear_saddle_tangent,
    "neutral_line": neutral_line_tangent,
    "neutral_rotation": neutral_rotation_tangent,
}

# Forward time ranges that keep every closed form finite and well scaled.
TIME_RANGES = {
    "center_cycle": (-2.0, 3.0),
    "linear_saddle3d": (-2.0, 3.0),
    "neutral_line": (-2.0, 3.0),
    "neutral_rotation": (-2.0, 3.0),
    "saddle_cycle": (0.0, 2.5),
}


def sample_box_points(scenario, rng, count):
    box = np.asarray(scenario.facts.sample_box, dtype=float)
    return rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))


def linear_chain_correction(rates, points, durations):
    """Exact bounded correction turning a chain of a diagonal linear flow
    into a true orbit.

    With per-step multipliers ``lam_i = exp(rate * h_i)`` and defects
    ``e_i = x_{i+1} - lam_i x_i``, the corrected points ``x_i + w_i``
    satisfy ``w_{i+1} = lam_i w_i - e_i``.  Contracting coordinates are
    summed forward from ``w_0 = 0``; the rest backward from ``w_last = 0``,
    which keeps every ``w_i`` bounded by a geometric series in the defects.
    """
    pts = np.asarray(points, dtype=float)
    hs = np.asarray(durations, dtype=float)
    m = pts.shape[0]
    w = np.zeros_like(pts)
    for coord, rate in enumerate(rates):
        lam = np.exp(rate * hs[: m - 1])
        err = pts[1:, coord] - lam * pts[:-1, coord]
        if rate < 0:
            for i in range(m - 1):
                w[i + 1, coord] = lam[i] * w[i, coord] - err[i]
        else:
            for i in range(m - 2, -1, -1):
                w[i, coord] = (w[i + 1, coord] + err[i]) / lam[i]
    return w


def brute_frechet(dist_matrix):
    """Reference discrete Fréchet value via the plain nested-loop recurrence."""
    return float(_brute_frechet_table(dist_matrix)[-1, -1])


def brute_frechet_pairs(dist_matrix):
    """Matched index path read back from the nested-loop table: from the last
    cell, step to the smallest neighbour, preferring diagonal, up, then left."""
    acc = _brute_frechet_table(dist_matrix)
    pairs = [(acc.shape[0] - 1, acc.shape[1] - 1)]
    while pairs[-1] != (0, 0):
        i, j = pairs[-1]
        steps = [(a, b) for a, b in ((i - 1, j - 1), (i - 1, j), (i, j - 1)) if a >= 0 and b >= 0]
        pairs.append(min(steps, key=lambda p: acc[p]))
    return np.array(pairs[::-1])


def _brute_frechet_table(dist_matrix):
    d = np.asarray(dist_matrix, dtype=float)
    m, n = d.shape
    acc = np.empty_like(d)
    for i in range(m):
        for j in range(n):
            v = d[i, j]
            if i == 0 and j == 0:
                acc[i, j] = v
            elif i == 0:
                acc[i, j] = max(v, acc[0, j - 1])
            elif j == 0:
                acc[i, j] = max(v, acc[i - 1, 0])
            else:
                acc[i, j] = max(
                    v, min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
                )
    return acc


def fd_jacobian(func, x, step=1e-6):
    """Central-difference derivative of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    out = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        out[:, j] = (np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * step)
    return out
