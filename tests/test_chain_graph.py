"""Cell-transition graphs: recurrence localization, wrapping, formats."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from flowlab import chain_graph
from flowlab.chain_graph import (
    build_chain_graph,
    chain_recurrent_cells,
    is_chain_transitive,
    save_cells_csv,
    save_edge_list,
)
from flowlab.flow import coord_difference, integrate
from oracles import saddle_cycle_flow

SADDLE_ESCAPE_GRID = dict(region=[[-1.0, 1.0]] * 3, hgrid=0.25, delta=0.05, t_max=3.0, t_samples=6)


@pytest.fixture(scope="module")
def saddle_graphs(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    region = [[-0.4, 0.4]] * 3
    coarse = build_chain_graph(spec, region, 0.2, 0.05, 2.0, t_samples=4)
    fine = build_chain_graph(spec, region, 0.1, 0.05, 2.0, t_samples=4)
    return coarse, fine


@pytest.fixture(scope="module")
def neutral_fine(scenarios):
    spec = scenarios["neutral_line"].spec
    return build_chain_graph(spec, [[-0.2, 0.2]] * 2, 0.05, 0.05, 2.0, t_samples=4)


def test_saddle_recurrent_cells_hug_the_origin(saddle_graphs):
    coarse, _ = saddle_graphs
    rec = chain_recurrent_cells(coarse)
    # only the eight cells touching the origin survive; every other cell
    # drifts along the unstable axis faster than the reach radius
    assert len(rec) == 8
    centers = coarse.cell_center(rec)
    assert np.abs(centers).max() == pytest.approx(0.1)


def test_refinement_shrinks_recurrent_region(saddle_graphs):
    coarse, fine = saddle_graphs
    rc = coarse.cell_center(chain_recurrent_cells(coarse))
    rf = fine.cell_center(chain_recurrent_cells(fine))
    assert len(rf) > 0
    assert np.linalg.norm(rf, axis=1).max() < np.linalg.norm(rc, axis=1).max()
    assert np.linalg.norm(rf, axis=1).max() <= 0.2
    assert np.abs(rf).max() <= 0.15 + 1e-12


def test_neutral_line_recurrent_band(neutral_fine):
    g = neutral_fine
    rec = chain_recurrent_cells(g)
    centers = g.centers()
    # the equilibrium axis keeps a band of cells recurrent at every x0
    expected = np.flatnonzero(np.abs(centers[:, 1]) < 0.15)
    assert np.array_equal(rec, expected)
    assert len(rec) == 48
    assert len(np.unique(g.cell_center(rec)[:, 0])) == 8


def test_coarse_neutral_grid_is_all_recurrent(scenarios):
    spec = scenarios["neutral_line"].spec
    g = build_chain_graph(spec, [[-0.2, 0.2]] * 2, 0.1, 0.05, 2.0, t_samples=4)
    assert np.array_equal(chain_recurrent_cells(g), np.arange(16))


def test_cycle_cover_is_recurrent_and_transitive(scenarios):
    spec = scenarios["saddle_cycle"].spec
    region = [[-1.25, 1.25], [-1.25, 1.25], [-0.375, 0.375]]
    g = build_chain_graph(spec, region, 0.25, 0.05, 2.0, t_samples=4)
    theta = np.linspace(0.0, 2.0 * np.pi, 65)[:-1]
    pts = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    idx = np.floor((pts - np.asarray(region)[:, 0]) / 0.25).astype(int)
    cover = np.unique(np.ravel_multi_index(idx.T, g.shape))
    rec = chain_recurrent_cells(g)
    assert np.all(np.isin(cover, rec))
    assert is_chain_transitive(g, cover)
    centers = g.cell_center(rec)
    # recurrence stays in the z = 0 layer, in an annulus around the cycle
    assert np.abs(centers[:, 2]).max() < 1e-12
    radii = np.hypot(centers[:, 0], centers[:, 1])
    assert 0.7 <= radii.min() and radii.max() <= 1.25


def test_angle_wrap_connects_the_seam(scenarios):
    spec = scenarios["center_cycle"].spec
    h = 2.0 * np.pi / 16.0
    region = [[0.0, 2.0 * np.pi], [-h, h], [-h, h]]
    g = build_chain_graph(spec, region, h, 0.05, 2.0, t_samples=4)
    assert g.shape == (16, 2, 2)
    assert len(chain_recurrent_cells(g)) == g.n_cells
    # y is conserved and the two y layers sit just beyond the reach radius,
    # so the graph splits into exactly two rings
    n_comp, _ = connected_components(g.adjacency, connection="strong")
    assert n_comp == 2
    layer = np.flatnonzero(g.centers()[:, 1] < 0.0)
    assert is_chain_transitive(g, layer)
    # a cell at the top of the angle range reaches low-angle cells only
    # through the wrap
    row = g.adjacency[np.ravel_multi_index((15, 0, 0), g.shape)].toarray().ravel()
    theta_hits = np.unravel_index(np.flatnonzero(row), g.shape)[0]
    assert theta_hits.min() >= 1 and theta_hits.max() <= 4
    assert 1 in theta_hits


def test_half_ring_without_wrap_has_no_recurrence(scenarios):
    spec = scenarios["center_cycle"].spec
    h = 2.0 * np.pi / 16.0
    region = [[0.0, np.pi], [-h, h], [-h, h]]
    g = build_chain_graph(spec, region, h, 0.05, 2.0, t_samples=4)
    rec = chain_recurrent_cells(g)
    assert len(rec) == 0
    assert not is_chain_transitive(g, rec)


def test_smaller_delta_keeps_a_subset_of_edges(scenarios):
    spec = scenarios["linear_saddle3d"].spec
    region = [[-0.25, 0.25]] * 3
    tight = build_chain_graph(spec, region, 0.1, 0.03, 2.0, t_samples=4)
    loose = build_chain_graph(spec, region, 0.1, 0.1, 2.0, t_samples=4)
    e_tight = set(zip(*tight.adjacency.nonzero()))
    e_loose = set(zip(*loose.adjacency.nonzero()))
    assert e_tight < e_loose


def test_reach_combines_delta_and_cell_radius(saddle_graphs):
    coarse, fine = saddle_graphs
    assert coarse.reach == pytest.approx(0.05 + 0.5 * np.sqrt(3.0) * 0.2)
    assert fine.reach == pytest.approx(0.05 + 0.5 * np.sqrt(3.0) * 0.1)
    assert coarse.spec_name == "linear_saddle3d"
    assert coarse.hgrid == 0.2 and coarse.delta == 0.05


def test_cell_center_roundtrip(neutral_fine):
    g = neutral_fine
    assert g.n_cells == 64
    assert g.shape == (8, 8)
    centers = g.centers()
    assert centers.shape == (64, 2)
    for flat in (0, 17, 63):
        idx = np.unravel_index(flat, g.shape)
        expected = np.array([-0.2, -0.2]) + (np.asarray(idx) + 0.5) * 0.05
        assert np.allclose(g.cell_center(flat), expected)
        assert np.allclose(centers[flat], expected)
    assert g.edge_count() == g.adjacency.nnz


def test_time_sample_grid(scenarios):
    spec = scenarios["neutral_line"].spec
    region = [[-0.2, 0.2]] * 2
    g = build_chain_graph(spec, region, 0.1, 0.05, 3.0)
    assert np.allclose(g.t_samples, np.linspace(1.0, 3.0, 6))
    g1 = build_chain_graph(spec, region, 0.1, 0.05, 2.0, t_samples=1)
    assert np.array_equal(g1.t_samples, [2.0])
    g2 = build_chain_graph(spec, region, 0.1, 0.05, 2.0, t_samples=np.int64(2))
    assert np.array_equal(g2.t_samples, [1.0, 2.0])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"region": [[-1.0, 1.0]] * 2}, r"region must have shape \(3, 2\)"),
        ({"hgrid": 0.0}, "hgrid and delta must be positive"),
        ({"delta": -0.1}, "hgrid and delta must be positive"),
        ({"t_max": 0.5}, "t_max must be at least 1"),
        ({"t_max": math.nan}, r"t_max must be at least 1 and finite.*\(got t_max=nan\)"),
        ({"t_max": math.inf}, r"\(got t_max=inf\)"),
        ({"hgrid": math.nan}, r"hgrid and delta must be positive .*\(got hgrid=nan"),
        ({"t_samples": math.nan}, r"^t_samples must be at least 1, as an integer \(got t_samples=nan\)$"),
        ({"region": [[-0.25, 0.25]] * 2 + [[-0.23, 0.25]]},
         "integer multiple of hgrid"),
        ({"cell_cap": 10}, "125 cells exceed the cap 10"),
        ({"region": [[-0.25, 0.25], [0.25, -0.25], [-0.25, 0.25]]},
         "region axis 1 is inverted"),
        ({"t_samples": 1.5}, r"^t_samples must be at least 1, as an integer \(got t_samples=1\.5\)$"),
        ({"t_samples": 2.0}, r"^t_samples must be at least 1, as an integer \(got t_samples=2\.0\)$"),
        ({"t_samples": 0}, r"^t_samples must be at least 1, as an integer \(got t_samples=0\)$"),
    ],
)
def test_build_rejects_bad_arguments(scenarios, kwargs, message):
    spec = scenarios["linear_saddle3d"].spec
    args = {
        "region": [[-0.25, 0.25]] * 3,
        "hgrid": 0.1,
        "delta": 0.05,
        "t_max": 2.0,
    }
    args.update(kwargs)
    with pytest.raises(ValueError, match=message):
        build_chain_graph(spec, **args)


@pytest.mark.parametrize("name, region, cells", [
    ("saddle_cycle", [[-10.0, 10.0]] * 3, 8 * 10**21),
    ("neutral_line", [[0.0, 4294.967296]] * 2, 2**64),
])
def test_cell_cap_refuses_counts_past_int64(scenarios, name, region, cells):
    """Cells are counted in Python integers, so a grid of more than 2**63 cells is
    refused by the cap before anything is allocated, not wrapped to a negative count."""
    with pytest.raises(ValueError, match=f"^{cells} cells exceed the cap 250000$"):
        build_chain_graph(scenarios[name].spec, region, 1e-6, 0.1, 2.0)


@pytest.mark.parametrize("region, message", [
    ([[-math.inf, 0.2], [-0.2, 0.2]], "region axis 0 is not finite: lo -inf, hi 0.2"),
    ([[-0.2, 0.2], [-0.2, math.inf]], "region axis 1 is not finite: lo -0.2, hi inf"),
    ([[-0.2, 0.2], [math.nan, 0.2]], "region axis 1 is not finite: lo nan, hi 0.2"),
])
def test_infinite_region_is_named(scenarios, region, message):
    """A region that is not finite is refused by name, before any extent is
    formed (an infinite extent would warn in numpy and then fail the hgrid check)."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_chain_graph(scenarios["neutral_line"].spec, region, 0.1, 0.05, 2.0)


def test_edge_list_file_round_trips(neutral_fine, tmp_path):
    g = neutral_fine
    path = tmp_path / "graph.edges"
    save_edge_list(g, path)
    pairs = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
    rows, cols = g.adjacency.nonzero()
    assert pairs == list(zip(rows.tolist(), cols.tolist()))
    assert len(pairs) == g.edge_count()


def test_cells_csv_lists_every_cell(neutral_fine, tmp_path):
    g = neutral_fine
    path = tmp_path / "cells.csv"
    save_cells_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cell_id,i0,i1,c0,c1,component,recurrent"
    assert len(lines) == g.n_cells + 1
    labels = g.scc_labels()
    rec = set(chain_recurrent_cells(g).tolist())
    assert 0 < len(rec) < g.n_cells
    for flat in range(g.n_cells):
        center = [repr(float(c)) for c in g.cell_center(flat)]
        row = [flat, *np.unravel_index(flat, g.shape), *center, labels[flat], int(flat in rec)]
        assert lines[1 + flat] == ",".join(map(str, row))


def _reference_edges(graph, spec, orbit, band=0.0):
    """``(edges, near)`` of ``graph``'s grid, cell by cell: the pairs ``(c, d)`` where
    ``orbit(centre of c)``, its points at the samples reached, comes within ``reach`` of
    the centre of ``d``, and the pairs whose nearest point lies within ``band`` of
    ``reach``.  Each point is tested against every centre, with no lattice offsets."""
    centers = graph.centers()
    edges, near = set(), set()
    for src, center in enumerate(centers):
        points = orbit(center)
        if len(points):
            d = np.linalg.norm(coord_difference(spec, points[:, None], centers), axis=2).min(0)
            edges.update((src, int(dst)) for dst in np.flatnonzero(d < graph.reach))
            near.update((src, int(dst)) for dst in np.flatnonzero(abs(d - graph.reach) <= band))
    return edges, near


def _edge_set(graph):
    return set(zip(*(a.tolist() for a in graph.adjacency.nonzero())))


def _counted_solves(monkeypatch):
    """Record the number of samples each of ``chain_graph``'s solves reached."""
    solve, reached = chain_graph.solve_ivp, []

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        reached.append(sol.t.size)
        return sol

    monkeypatch.setattr(chain_graph, "solve_ivp", counted)
    return reached


@pytest.mark.parametrize("norm_bound", [2.0, 3.0, 5.0])
def test_escaping_orbits_keep_the_samples_they_reached(scenarios, monkeypatch, norm_bound):
    # z grows as e^t: at bound 2 the |z| = 0.875 orbits cross before the first
    # sample, at 3 and 5 some cross between samples
    spec = scenarios["linear_saddle3d"].spec
    reached = _counted_solves(monkeypatch)
    unbounded = build_chain_graph(spec, **SADDLE_ESCAPE_GRID)
    blocks = len(reached)
    reached.clear()
    g = build_chain_graph(spec, **SADDLE_ESCAPE_GRID, norm_bound=norm_bound)
    # every escape solves the rest of its block again
    assert len(reached) > blocks
    if norm_bound == 2.0:
        assert min(reached) == 0
    ts = g.t_samples

    def truncated(center):
        traj = integrate(spec, center, (0.0, ts[-1]), tol=1e-6, norm_bound=norm_bound,
                         on_escape="truncate")
        t_in = ts[ts <= traj.t_end]
        return traj.at_many(t_in) if len(t_in) else np.empty((0, spec.dim))

    edges, _ = _reference_edges(g, spec, truncated)
    assert _edge_set(g) == edges
    assert g.edge_count() == unbounded.edge_count() == 1784


def test_build_rejects_a_tolerance_below_the_stepper_floor(scenarios, monkeypatch):
    spec = scenarios["linear_saddle3d"].spec
    reached = _counted_solves(monkeypatch)
    # the first block holds 269 cells: its per-row tolerance is tol / sqrt(269)
    with pytest.raises(ValueError, match=r"^tol must be at least 3\.64e-13 \(got tol=1e-15\)$"):
        build_chain_graph(spec, **SADDLE_ESCAPE_GRID, tol=1e-15)
    assert reached == []


@pytest.mark.parametrize("shift", [(0.013, 0.071, 0.042), (0.057, 0.024, 0.089),
                                   (0.096, 0.038, 0.005)])
def test_cycle_graph_differs_from_the_closed_form_only_at_the_reach(scenarios, shift):
    # the chain-graph workload's grid, shifted below one cell; edges that differ
    # from the exact flow's have a sample within 1e-5 of the reach radius
    spec = scenarios["saddle_cycle"].spec
    region = np.array([[-1.25, 1.25], [-1.25, 1.25], [-0.25, 0.25]]) + np.array(shift)[:, None]
    g = build_chain_graph(spec, region, 0.1, 0.05, 2.0, t_samples=4)
    exact = lambda center: np.array([saddle_cycle_flow(center, t) for t in g.t_samples])
    edges, near = _reference_edges(g, spec, exact, band=1e-5)
    assert len(edges) > 30_000
    assert _edge_set(g) ^ edges <= near


def test_build_memory_is_flat_in_the_grid(scenarios):
    # criterion 7's 8000-cell grid: blocks cap the candidate test, not the orbits
    spec = scenarios["linear_saddle3d"].spec
    tracemalloc.start()
    try:
        g = build_chain_graph(spec, [[-1.0, 1.0]] * 3, 0.1, 0.05, 2.0, t_samples=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count() == 66_984
    assert peak < 16 * 2**20
