"""Cell-transition graphs: recurrence localization, wrapping, formats."""

import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from flowlab.chain_graph import (
    build_chain_graph,
    chain_recurrent_cells,
    is_chain_transitive,
    save_cells_csv,
    save_edge_list,
)


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
    for flat in (0, 30, 63):
        parts = lines[1 + flat].split(",")
        assert int(parts[0]) == flat
        assert tuple(map(int, parts[1:3])) == np.unravel_index(flat, g.shape)
        assert np.allclose([float(parts[3]), float(parts[4])], g.cell_center(flat))
        assert int(parts[5]) == labels[flat]
        assert int(parts[6]) == (1 if flat in rec else 0)
