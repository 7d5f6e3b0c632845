"""Cell-to-cell transition graphs and chain recurrence diagnostics.

The region is cut into a lattice of cubical cells of edge ``hgrid``.  An
edge ``c -> c'`` is recorded when some flow image of the center of ``c`` at
a sampled time ``t in [1, t_max]`` lands within ``delta + sqrt(n)/2 * hgrid``
of the center of ``c'`` (the inflation accounts for where inside the cells
the actual chain points may sit).  Chain-recurrent cells are those in a
strongly connected component of size at least two or carrying a self-loop.

The cell centres are integrated in blocks, each one batched solve of flowlab's
DOP853 :func:`~flowlab.flow.solve_ivp` at the per-row tolerance ``tol / sqrt(rows)``,
and a block's candidate cells are tested in one numpy pass.  An orbit that escapes
keeps the samples it reached, none if it escapes before the first sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .flow import (VectorFieldSpec, _check_batch_contract, _escape_event, _peak_rows,
                   _require_count, _require_positive, _row_tol, coord_difference, solve_ivp)

__all__ = [
    "ChainGraph",
    "build_chain_graph",
    "chain_recurrent_cells",
    "is_chain_transitive",
    "save_edge_list",
    "save_cells_csv",
]

# A block's candidate test holds points x offsets x dim entries, at most this many (one
# row at least): each of its few scratch arrays takes 1 MB.  The 8000-cell criterion-7
# build peaks at about 5 MB under tracemalloc, where 1 << 21 entries peak at 61 MB.
_CANDIDATE_ENTRIES = 1 << 17


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
        return math.prod(self.shape)

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
    ``[1, t_max]``; a single sample is ``t_max``.  The per-axis cell counts
    are ``round(extent / hgrid)``; the region should be an exact multiple of
    ``hgrid`` per axis.  The centres and match radius are the returned graph's
    own :meth:`ChainGraph.centers` and :attr:`ChainGraph.reach`.

    The centres are integrated in blocks of ``rows`` cells, each block one
    DOP853 solve at :func:`~flowlab.flow._row_tol`, ``tol / sqrt(rows)`` (``ValueError``
    naming ``tol`` below the stepper's floor of ``100 eps``), so ``spec`` must take
    ``(N, dim)`` batches.  Orbits that leave the divergence bound contribute only the
    samples reached before escaping: none for an orbit that crosses before the
    first sample or a centre that starts beyond the bound.  Where a block's
    solve stops at the bound, the rows at the bound keep their samples and the
    rest of the block is solved again.
    """
    region = np.asarray(region, dtype=float)
    if region.shape != (spec.dim, 2):
        raise ValueError(f"region must have shape ({spec.dim}, 2)")
    for i, (a, b) in enumerate(region):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"region axis {i} is not finite: lo {a:g}, hi {b:g}")
        if not a < b:
            raise ValueError(f"region axis {i} is inverted: lo {a:g} is not below hi {b:g}")
    _require_positive(hgrid=hgrid, delta=delta)
    _require_count(1, t_samples=t_samples)
    _require_positive(tol=tol)
    if not 1.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be at least 1 and finite, as chain steps need t >= 1 "
                         f"(got t_max={t_max})")
    extents = region[:, 1] - region[:, 0]
    counts = np.maximum(1.0, np.round(extents / hgrid))
    if not np.all(np.abs(counts * hgrid - extents) <= 1e-9 * np.maximum(1.0, extents)):
        raise ValueError("each region extent must be an integer multiple of hgrid")
    shape = tuple(int(c) for c in counts)  # Python ints, so the cell count cannot wrap
    n_cells = math.prod(shape)
    if n_cells > cell_cap:
        raise ValueError(f"{n_cells} cells exceed the cap {cell_cap}")
    n = spec.dim
    lo = region[:, 0]
    ts = np.linspace(1.0, t_max, t_samples) if t_samples > 1 else np.array([t_max])
    graph = ChainGraph(spec.name, region, float(hgrid), float(delta), ts, shape,
                       csr_matrix((n_cells, n_cells), dtype=np.int8))
    reach, centers = graph.reach, graph.centers()
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

    cells = np.flatnonzero(np.linalg.norm(centers, axis=1) < norm_bound)
    if len(cells) > 1:
        _check_batch_contract(spec, centers[cells])
    block = max(1, _CANDIDATE_ENTRIES // (len(ts) * len(offsets) * n))
    edges = [np.empty(0, dtype=int)]
    for first in range(0, len(cells), block):
        live, src, points = cells[first : first + block], [], []
        while len(live):
            rows = len(live)
            rtol, atol = _row_tol(tol, rows)
            sol = solve_ivp(
                lambda t, y: spec.field_at(y.reshape(rows, n)).ravel(),
                (0.0, float(ts[-1])),
                centers[live].ravel(),
                rtol=rtol,
                atol=atol,
                t_eval=ts,
                events=[_escape_event(norm_bound, n, rows)],
            )
            if sol.status == -1:
                raise RuntimeError(f"integration failed in the block from cell {live[0]}: "
                                   f"{sol.message}")
            done = _peak_rows(sol.y_events[0][0], n, rows) if sol.status == 1 else slice(None)
            reached = sol.y.reshape(rows, n, -1).transpose(0, 2, 1)[done]
            src.append(np.repeat(live[done], reached.shape[1]))
            points.append(reached.reshape(-1, n))
            live = np.delete(live, np.arange(rows)[done])
        # every (sample, offset) candidate of the block at once, as src * n_cells + dst
        src, points = np.concatenate(src), np.concatenate(points)
        cand = np.floor((points - lo) / hgrid).astype(int)[:, None] + offsets
        cand[..., wrap_axis] %= counts[wrap_axis].astype(int)
        hit = np.all((cand >= 0) & (cand < counts), axis=2)
        dst = np.ravel_multi_index(np.moveaxis(cand, 2, 0), shape, mode="clip")  # clipped: not hit
        diff = coord_difference(spec, points[:, None], centers[dst])
        hit &= np.linalg.norm(diff, axis=2) < reach
        edges.append(np.broadcast_to(src[:, None], hit.shape)[hit] * n_cells + dst[hit])

    edges = np.unique(np.concatenate(edges))
    data = np.ones(len(edges), dtype=np.int8)
    adjacency = csr_matrix((data, divmod(edges, n_cells)), shape=(n_cells, n_cells))
    return replace(graph, adjacency=adjacency)


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
    """Write one row a cell: flat id, lattice index, the ``repr`` of each centre
    coordinate, strong component and recurrence flag, from one ``np.unravel_index``
    and one :meth:`ChainGraph.centers`."""
    recurrent = np.zeros(graph.n_cells, dtype=int)
    recurrent[chain_recurrent_cells(graph)] = 1
    n = graph.region.shape[0]
    header = (
        ["cell_id"]
        + [f"i{k}" for k in range(n)]
        + [f"c{k}" for k in range(n)]
        + ["component", "recurrent"]
    )
    idx = np.transpose(np.unravel_index(np.arange(graph.n_cells), graph.shape))
    columns = (a.tolist() for a in (idx, graph.centers(), graph.scc_labels(), recurrent))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for flat, (i, center, label, rec) in enumerate(zip(*columns)):
            # str of a Python float is its repr
            fh.write(",".join(map(str, [flat, *i, *center, label, rec])) + "\n")
