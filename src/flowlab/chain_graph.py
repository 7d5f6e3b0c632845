"""Cell-to-cell transition graphs and chain recurrence diagnostics.

The region is cut into a lattice of cubical cells of edge ``hgrid``.  An
edge ``c -> c'`` is recorded when some flow image of the center of ``c`` at
a sampled time ``t in [1, t_max]`` lands within ``delta + sqrt(n)/2 * hgrid``
of the center of ``c'`` (the inflation accounts for where inside the cells
the actual chain points may sit).  Chain-recurrent cells are those in a
strongly connected component of size at least two or carrying a self-loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .flow import VectorFieldSpec, _escape_event, _require_count, _require_positive, coord_difference

__all__ = [
    "ChainGraph",
    "build_chain_graph",
    "chain_recurrent_cells",
    "is_chain_transitive",
    "save_edge_list",
    "save_cells_csv",
]


@dataclass(frozen=True)
class ChainGraph:
    """Sampled cell-transition graph over a box region."""

    spec_name: str
    region: np.ndarray  # (n, 2)
    hgrid: float
    delta: float
    t_samples: np.ndarray
    shape: tuple
    adjacency: csr_matrix

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def reach(self) -> float:
        """Match radius: ``delta`` inflated by half a cell diagonal."""
        n = self.region.shape[0]
        return self.delta + 0.5 * math.sqrt(n) * self.hgrid

    def cell_center(self, flat_index) -> np.ndarray:
        idx = np.unravel_index(flat_index, self.shape)
        lo = self.region[:, 0]
        return lo + (np.asarray(idx, dtype=float).T + 0.5) * self.hgrid

    def centers(self) -> np.ndarray:
        return self.cell_center(np.arange(self.n_cells))

    def scc_labels(self) -> np.ndarray:
        _, labels = connected_components(self.adjacency, connection="strong")
        return labels

    def edge_count(self) -> int:
        return int(self.adjacency.nnz)


def build_chain_graph(
    spec: VectorFieldSpec,
    region,
    hgrid: float,
    delta: float,
    t_max: float,
    t_samples: int = 6,
    tol: float = 1e-6,
    cell_cap: int = 250_000,
    norm_bound: Optional[float] = None,
) -> ChainGraph:
    """Build the transition graph of cell centers under sampled flow times.

    The ``t_samples`` times, an integer count of at least 1, are uniform on
    ``[1, t_max]``; a single sample is ``t_max``.  Orbits that leave the
    divergence bound contribute only the samples reached before escaping.
    The per-axis cell counts are ``round(extent / hgrid)``; the region should
    be an exact multiple of ``hgrid`` per axis.
    """
    region = np.asarray(region, dtype=float)
    if region.shape != (spec.dim, 2):
        raise ValueError(f"region must have shape ({spec.dim}, 2)")
    for i, (a, b) in enumerate(region):
        if not a < b:
            raise ValueError(f"region axis {i} is inverted: lo {a:g} is not below hi {b:g}")
    _require_positive(hgrid=hgrid, delta=delta)
    _require_count(1, t_samples=t_samples)
    _require_positive(tol=tol)
    if not 1.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be at least 1 and finite, as chain steps need t >= 1 "
                         f"(got t_max={t_max})")
    extents = region[:, 1] - region[:, 0]
    counts = np.maximum(1, np.round(extents / hgrid).astype(int))
    if np.any(np.abs(counts * hgrid - extents) > 1e-9 * np.maximum(1.0, extents)):
        raise ValueError("each region extent must be an integer multiple of hgrid")
    n_cells = int(np.prod(counts))
    if n_cells > cell_cap:
        raise ValueError(f"{n_cells} cells exceed the cap {cell_cap}")
    n = spec.dim
    shape = tuple(int(c) for c in counts)
    lo = region[:, 0]
    ts = np.linspace(1.0, t_max, t_samples) if t_samples > 1 else np.array([t_max])
    reach = delta + 0.5 * math.sqrt(n) * hgrid
    if norm_bound is None:
        norm_bound = max(1e3, 100.0 * float(np.max(np.abs(region))))
    _require_positive(norm_bound=norm_bound)

    # Wrap axes whose region spans one full period of an angle coordinate
    # (NaN periods of linear axes compare false).
    wrap_axis = np.abs(extents - spec.periods) < 1e-9

    # Integer offsets that can reach any point within `reach` of a cell.
    span = int(math.ceil(reach / hgrid + 0.5))
    offsets = np.array(list(itertools.product(range(-span, span + 1), repeat=n)))
    offsets = offsets[(np.linalg.norm(offsets, axis=1) - 0.5 * math.sqrt(n)) * hgrid < reach]

    escape = [_escape_event(norm_bound, n)]
    rows, cols = [], []
    for flat in range(n_cells):
        idx = np.unravel_index(flat, shape)
        center = lo + (np.asarray(idx, dtype=float) + 0.5) * hgrid
        sol = solve_ivp(
            lambda t, y: spec.field_at(y),
            (0.0, float(ts[-1])),
            center,
            method="RK45",
            t_eval=ts,
            rtol=tol,
            atol=tol / 100.0,
            events=escape,
        )
        if sol.status == -1:
            raise RuntimeError(f"integration failed at cell {flat}: {sol.message}")
        targets = set()
        for p in sol.y.T:
            cand = np.floor((p - lo) / hgrid).astype(int) + offsets
            cand[:, wrap_axis] %= counts[wrap_axis]
            cand = cand[np.all((cand >= 0) & (cand < counts), axis=1)]
            diff = coord_difference(spec, p, lo + (cand + 0.5) * hgrid)
            hits = cand[np.linalg.norm(diff, axis=1) < reach]
            targets.update(np.ravel_multi_index(hits.T, shape).tolist())
        rows.extend([flat] * len(targets))
        cols.extend(targets)

    data = np.ones(len(rows), dtype=np.int8)
    adjacency = csr_matrix((data, (rows, cols)), shape=(n_cells, n_cells))
    adjacency.sum_duplicates()
    return ChainGraph(
        spec_name=spec.name,
        region=region,
        hgrid=float(hgrid),
        delta=float(delta),
        t_samples=ts,
        shape=shape,
        adjacency=adjacency,
    )


def chain_recurrent_cells(graph: ChainGraph) -> np.ndarray:
    """Flat indices of cells in a nontrivial strong component or with a
    self-loop, sorted ascending."""
    labels = graph.scc_labels()
    _, counts = np.unique(labels, return_counts=True)
    in_big = counts[labels] >= 2
    self_loop = np.asarray(graph.adjacency.diagonal()).ravel() > 0
    return np.flatnonzero(in_big | self_loop)


def is_chain_transitive(graph: ChainGraph, cells) -> bool:
    """Whether the induced subgraph on the given cells is one strong component."""
    cells = np.asarray(cells, dtype=int)
    if len(cells) == 0:
        return False
    sub = graph.adjacency[cells][:, cells]
    n_comp, _ = connected_components(sub, connection="strong")
    return bool(n_comp == 1)


def save_edge_list(graph: ChainGraph, path) -> None:
    """Write one ``source target`` pair of flat cell ids per line."""
    rows, cols = graph.adjacency.nonzero()
    with open(path, "w") as fh:
        for r, c in zip(rows, cols):
            fh.write(f"{r} {c}\n")


def save_cells_csv(graph: ChainGraph, path) -> None:
    """Write cell metadata: id, lattice index, center, component, recurrence."""
    labels = graph.scc_labels()
    recurrent = np.zeros(graph.n_cells, dtype=int)
    recurrent[chain_recurrent_cells(graph)] = 1
    n = graph.region.shape[0]
    header = (
        ["cell_id"]
        + [f"i{k}" for k in range(n)]
        + [f"c{k}" for k in range(n)]
        + ["component", "recurrent"]
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for flat in range(graph.n_cells):
            idx = np.unravel_index(flat, graph.shape)
            center = graph.cell_center(flat)
            row = (
                [str(flat)]
                + [str(int(i)) for i in idx]
                + [repr(float(c)) for c in center]
                + [str(int(labels[flat])), str(int(recurrent[flat]))]
            )
            fh.write(",".join(row) + "\n")
