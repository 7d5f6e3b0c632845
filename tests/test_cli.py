"""End-to-end runs of the config-driven command line interface."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from flowlab import VectorFieldSpec, cli
from flowlab.cli import main
from flowlab.scenarios import builtin, scenario_names

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

REFUTE_CFG = """\
[scenario]
name = neutral_line

[pipeline]
name = refute
chain = equilibrium_segment
delta = 0.05
epsilon = {epsilon}
"""


def run_cli(tmp_path, body, extra=(), subdir="out"):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(body)
    out = tmp_path / subdir
    code = main(["run", str(cfg), "--out", str(out), *extra])
    return code, out


def read_report(out):
    return json.loads((out / "report.json").read_text())


def test_refute_pipeline_produces_certificate(tmp_path):
    code, out = run_cli(tmp_path, REFUTE_CFG.format(epsilon=0.05))
    assert code == 2
    report = read_report(out)
    assert report["schema"] == "flowlab.report/1"
    assert report["pipeline"] == "refute"
    assert report["exit_code"] == 2
    assert report["scenario"]["name"] == "neutral_line"
    assert report["result"]["refuted"] is True
    assert report["result"]["chain"]["verified"] is True
    cert = report["result"]["certificate"]
    assert cert["lower_bound"] == pytest.approx(0.1, abs=1e-12)
    assert cert["schema"] == "flowlab.conservation-refutation/1"
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "series,index,t,value"
    series = {line.split(",")[0] for line in lines[1:]}
    assert series == {"chain_gap", "conserved"}
    meta = json.loads((out / "meta.json").read_text())
    assert meta["numpy"] == np.__version__
    assert meta["seed"] == 0
    assert meta["config"]["pipeline"]["name"] == "refute"
    assert meta["elapsed_seconds"] > 0


def test_chain_gap_rows_sit_at_source_segment_starts(tmp_path):
    # six unit segments on [0, 6] between a unit head and a unit tail
    code, out = run_cli(tmp_path, REFUTE_CFG.format(epsilon=0.05))
    assert code == 2
    rows = [line.split(",") for line in (out / "series.csv").read_text().splitlines()[1:]]
    gaps = [row for row in rows if row[0] == "chain_gap"]
    assert [int(row[1]) for row in gaps] == list(range(9))
    # head->head, head->0, 0->1 .. 4->5, 5->tail, tail->tail
    assert [float(row[2]) for row in gaps] == [-1.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_conserved_rows_cover_every_certificate_point(tmp_path):
    # the unit head sits at the segment's low end and the unit tail at its high end
    code, out = run_cli(tmp_path, REFUTE_CFG.format(epsilon=0.05))
    assert code == 2
    cert = read_report(out)["result"]["certificate"]
    rows = [line.split(",") for line in (out / "series.csv").read_text().splitlines()[1:]]
    conserved = [row for row in rows if row[0] == "conserved"]
    assert len(conserved) == cert["n_points"] == 8
    assert [int(row[1]) for row in conserved] == list(range(-1, 7))
    assert [float(row[2]) for row in conserved] == [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    values = [float(row[3]) for row in conserved]
    assert (min(values), max(values)) == (cert["q_min"], cert["q_max"])


def test_refute_pipeline_epsilon_above_bound(tmp_path):
    code, out = run_cli(tmp_path, REFUTE_CFG.format(epsilon=0.15))
    assert code == 0
    report = read_report(out)
    assert report["result"]["refuted"] is False
    assert report["result"]["certificate"] is None


def test_classify_hyperbolic_scenario_exits_zero(tmp_path):
    body = "[scenario]\nname = saddle_cycle\n\n[pipeline]\nname = classify\n"
    code, out = run_cli(tmp_path, body)
    assert code == 0
    report = read_report(out)
    elements = report["result"]["elements"]
    assert [e["kind"] for e in elements] == ["singularity", "periodic"]
    assert all(e["hyperbolic"] for e in elements)
    assert report["result"]["all_hyperbolic"] is True
    cycle = elements[1]
    assert cycle["period"] == pytest.approx(2.0 * math.pi, rel=1e-6)
    assert all(len(pair) == 2 for pair in cycle["spectrum"])


def test_classify_flags_nonhyperbolic_family(tmp_path):
    body = "[scenario]\nname = center_cycle\n\n[pipeline]\nname = classify\n"
    code, out = run_cli(tmp_path, body)
    assert code == 2
    report = read_report(out)
    assert report["result"]["all_hyperbolic"] is False
    assert len(report["result"]["elements"]) == 1


def test_scenario_parameters_reach_the_constructor(tmp_path):
    body = (
        "[scenario]\nname = neutral_line\nb_rate = -0.5\nepsilon = 0.2\n\n"
        "[pipeline]\nname = classify\n"
    )
    code, out = run_cli(tmp_path, body)
    assert code == 2
    report = read_report(out)
    assert report["scenario"]["params"] == {"b_rate": -0.5, "epsilon": 0.2}
    # eigenvalues (0, b_rate) for every recorded equilibrium
    for element in report["result"]["elements"]:
        spectrum = sorted(re for re, im in element["spectrum"])
        assert spectrum == pytest.approx([-0.5, 0.0], abs=1e-9)


SPLITTING_CFG = """\
[scenario]
name = saddle_cycle

[pipeline]
name = splitting
l = {l}
dt = 0.05
window = 3.0
total = 8.0
"""


def test_splitting_pipeline_passes_above_critical_length(tmp_path):
    code, out = run_cli(tmp_path, SPLITTING_CFG.format(l=0.26))
    assert code == 0
    result = read_report(out)["result"]
    assert result["anchor"] == [1.0, 0.0, 0.0]
    assert result["domination"]["ok"] is True
    # first admissible grid time is 0.3, where the product is e^{-0.9}
    assert result["domination"]["worst_t"] == pytest.approx(0.3)
    assert result["domination"]["worst_product"] == pytest.approx(
        math.exp(-0.9), rel=1e-2
    )
    assert result["fit"]["ok"] is True
    assert result["fit"]["lambda_stable"] == pytest.approx(math.exp(-2.0), rel=0.02)
    assert result["fit"]["lambda_unstable"] == pytest.approx(math.exp(-1.0), rel=0.02)
    lines = (out / "series.csv").read_text().splitlines()
    assert all(line.startswith("domination_product") for line in lines[1:])
    assert len(lines) > 1


def test_splitting_pipeline_fails_below_critical_length(tmp_path):
    code, out = run_cli(tmp_path, SPLITTING_CFG.format(l=0.2))
    assert code == 2
    result = read_report(out)["result"]
    assert result["domination"]["ok"] is False
    assert result["domination"]["worst_product"] > 0.5
    assert result["fit"]["ok"] is True


def test_splitting_point_anchor_off_cycle_fails_fit(tmp_path):
    body = (
        "[scenario]\nname = linear_saddle3d\n\n[pipeline]\nname = splitting\n"
        "anchor = point\nx0 = 0 0 0.2\nl = 1.0\ndt = 0.05\nwindow = 3.0\ntotal = 8.0\n"
    )
    code, out = run_cli(tmp_path, body)
    assert code == 2
    result = read_report(out)["result"]
    assert result["domination"]["ok"] is True
    assert result["fit"]["ok"] is False
    assert "unstable bundle backward rate" in result["fit"]["reason"]


QH_CFG = """\
[scenario]
name = saddle_cycle

[pipeline]
name = quasi-hyperbolic
x0 = 1 0 0
tau = 6.0
eta = {eta}
big_t = 1.0
dt = 0.05
window = 3.0
"""


def test_quasi_hyperbolic_pipeline_verdicts(tmp_path):
    code, out = run_cli(tmp_path, QH_CFG.format(eta=0.5), subdir="ok")
    assert code == 0
    result = read_report(out)["result"]
    assert result["ok"] is True
    assert result["worst_slack"] == pytest.approx(0.5, abs=0.05)
    assert result["boundaries"] == pytest.approx(np.arange(7.0).tolist())
    lines = (out / "series.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names.count("slack_leading") == 6
    assert names.count("slack_trailing") == 6
    assert names.count("slack_stepwise") == 6

    code, out = run_cli(tmp_path, QH_CFG.format(eta=1.6), subdir="bad")
    assert code == 2
    result = read_report(out)["result"]
    assert result["ok"] is False
    assert result["worst_slack"] < 0.0


SEARCH_CFG = """\
[scenario]
name = linear_saddle3d

[pipeline]
name = shadow-search
chain = noisy
x0 = 0.9 0.9 0.0
count = 4
noise = 1e-4
noise_axes = 0 1
epsilon = 5e-3
candidates = 30
refine_evals = 12
seed_halfwidth = 2e-3
"""


def test_shadow_search_pipeline_finds_witness(tmp_path):
    code, out = run_cli(tmp_path, SEARCH_CFG)
    assert code == 0
    result = read_report(out)["result"]
    assert result["chain"]["size"] == 5
    assert result["chain"]["verified"] is True
    search = result["search"]
    assert search["schema"] == "flowlab.shadow-search/1"
    assert search["verdict"] == "shadowed"
    assert search["distance"] < 5e-3
    assert len(search["witness"]) == 3
    lines = (out / "series.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert "reparam_knot" in names


def test_runs_are_deterministic_files(tmp_path):
    outputs = []
    for subdir, extra in (
        ("a", ["--seed", "3"]),
        ("b", ["--seed", "3"]),
    ):
        code, out = run_cli(tmp_path, SEARCH_CFG, extra=extra, subdir=subdir)
        assert code == 0
        outputs.append(
            ((out / "report.json").read_bytes(), (out / "series.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]
    meta = json.loads((tmp_path / "a" / "meta.json").read_text())
    assert meta["seed"] == 3


def test_chain_graph_pipeline_writes_graph_files(tmp_path):
    body = (
        "[scenario]\nname = neutral_line\n\n[pipeline]\nname = chain-graph\n"
        "region = -0.2 0.2 -0.2 0.2\nhgrid = 0.1\ndelta = 0.05\n"
        "t_max = 2.0\nt_samples = 4\n"
    )
    code, out = run_cli(tmp_path, body)
    assert code == 0
    result = read_report(out)["result"]
    assert result["cells"] == 16
    assert result["shape"] == [4, 4]
    assert result["recurrent_cells"] == 16
    assert result["components"] == 9
    assert result["nontrivial_components"] == 1
    assert result["recurrent_transitive"] is False
    assert result["outputs"] == ["graph.edges", "cells.csv"]
    edges = (out / "graph.edges").read_text().splitlines()
    assert len(edges) == result["edges"]
    cells = (out / "cells.csv").read_text().splitlines()
    assert len(cells) == 17


def test_chain_graph_config_keeps_its_graph_files(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / "chain_graph.cfg"), "--out", str(out), "--seed", "0"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("graph.edges", "cells.csv")}
    assert digests == {
        "graph.edges": "125e3917c862a144db5908f555d6bcf9659441c6fe9b53ad37edbe567c0f9c1e",
        "cells.csv": "804dd039fee00183908f78b6ed83367d23ecf1e28c473088a0efaf55b85d33c1",
    }


CHAIN_SUMMARY = ["chain", "chain.size", "chain.delta", "chain.verified", "chain.max_gap"]

# every key of ``result`` per pipeline, as docs/formats.md lists them
RESULT_KEYS = {
    "shadow-search": CHAIN_SUMMARY + [
        "search", *(f"search.{key}" for key in (
            "schema", "verdict", "epsilon", "distance", "witness", "reparam_knots_t",
            "reparam_knots_u", "horizon", "coarse_candidates", "evaluations", "stage",
            "operator_inverse_norm", "newton_residual", "notes",
        )),
    ],
    "refute": CHAIN_SUMMARY + [
        "refuted", "certificate", *(f"certificate.{key}" for key in (
            "schema", "quantity", "lower_bound", "epsilon", "q_min", "q_max",
            "lipschitz", "n_points",
        )),
    ],
    "classify": [
        "all_hyperbolic", "elements", *(f"elements[*].{key}" for key in (
            "kind", "point", "period", "spectrum", "margins", "hyperbolic", "index",
            "index_with_flow",
        )),
    ],
    "splitting": [
        "anchor", "stable_rank", "gap_ratio_min", "invariance_residual",
        "domination", *(f"domination.{key}" for key in (
            "l", "ok", "worst_product", "worst_base_time", "worst_t", "n_bases",
        )),
        "fit", *(f"fit.{key}" for key in (
            "ok", "lambda_stable", "c_stable", "lambda_unstable", "c_unstable", "t_range",
            "reason",
        )),
    ],
    "quasi-hyperbolic": [
        "arc_start", "tau", "eta", "big_t", "ok", "worst_slack", "boundaries",
    ],
    "chain-graph": [
        "cells", "shape", "edges", "reach", "recurrent_cells", "components",
        "nontrivial_components", "recurrent_transitive", "outputs",
    ],
}


def key_paths(value, prefix=""):
    """Dotted paths of every key in nested dicts; list items of dicts share ``[*]``."""
    if isinstance(value, dict):
        paths = set()
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | key_paths(item, path)
        return paths
    if isinstance(value, list):
        return set().union(*(key_paths(item, f"{prefix}[*]") for item in value))
    return set()


@pytest.mark.parametrize(
    "config", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.stem
)
def test_shipped_config_result_keys(tmp_path, config):
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) in (0, 2)
    report = read_report(out)
    assert sorted(key_paths(report["result"])) == sorted(RESULT_KEYS[report["pipeline"]])


def test_list_scenarios_and_pipelines(capsys):
    assert main(["list", "scenarios"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == scenario_names()
    by_name = dict(line.split(": ", 1) for line in lines)
    assert by_name["neutral_rotation"] == "b_rate, epsilon, omega"
    assert by_name["saddle_cycle"] == "no parameters"

    assert main(["list", "pipelines"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "chain-graph",
        "classify",
        "quasi-hyperbolic",
        "refute",
        "shadow-search",
        "splitting",
    ]


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[scenario]\nname = saddle_cycle\n", "missing section(s): pipeline"),
        (
            "[scenario]\nname = saddle_cycle\n\n[pipeline]\nname = classify\n\n"
            "[extra]\nx = 1\n",
            "unknown section(s): extra",
        ),
        ("[scenario]\nfoo = 1\n\n[pipeline]\nname = classify\n", "needs a 'name' key"),
        (
            "[scenario]\nname = lorenz\n\n[pipeline]\nname = classify\n",
            "unknown scenario 'lorenz'",
        ),
        (
            "[scenario]\nname = saddle_cycle\n\n[pipeline]\nname = frobnicate\n",
            "unknown pipeline 'frobnicate'",
        ),
        (
            "[scenario]\nname = saddle_cycle\n\n[pipeline]\nname = classify\nfoo = 1\n",
            "unknown key 'foo' for classify; allowed: (none)",
        ),
        (
            "[scenario]\nname = neutral_line\n\n[pipeline]\nname = refute\n"
            "chain = equilibrium_segment\ndelta = 0.05\nepsilon = abc\n",
            "epsilon = 'abc' cannot be parsed as float",
        ),
        (
            "[scenario]\nname = neutral_line\n\n[pipeline]\nname = refute\n"
            "chain = equilibrium_segment\ndelta = 0.05\nepsilon = 500\n",
            "outside the allowed range",
        ),
        (
            "[scenario]\nname = neutral_line\n\n[pipeline]\nname = refute\n"
            "chain = equilibrium_segment\nepsilon = 0.05\n",
            "requires the key 'delta'",
        ),
        (
            "[scenario]\nname = linear_saddle3d\n\n[pipeline]\nname = splitting\n"
            "l = 1.0\n",
            "requires the key 'x0'",
        ),
        (
            "[scenario]\nname = neutral_line\n\n[pipeline]\nname = chain-graph\n"
            "region = 0.2 -0.2 -0.2 0.2\nhgrid = 0.1\ndelta = 0.05\nt_max = 2.0\n",
            "region axis 0 is inverted",
        ),
        (
            "[scenario]\nname = linear_saddle3d\n\n[pipeline]\nname = shadow-search\n"
            "chain = noisy\nx0 = 0.9 0.9 0.0\ncount = 5\nnoise = 1e-4\nepsilon = 5e-3\n"
            "candidates = 5\nrefine_evals = 30\n",
            "need 0 <= refine_evals < candidates",
        ),
        (
            "[scenario]\nname = linear_saddle3d\n\n[pipeline]\nname = shadow-search\n"
            "chain = noisy\nx0 = 0.9 0.9 0.0\ncount = 5\nnoise = 1e-4\nnoise_axes = 2 2\n"
            "epsilon = 5e-3\n",
            "noise_subspace columns must be linearly independent",
        ),
        # the lattice samples the chain and the orbit on one grid, which no key sets
        (
            "[scenario]\nname = linear_saddle3d\n\n[pipeline]\nname = shadow-search\n"
            "chain = noisy\nx0 = 0.9 0.9 0.0\ncount = 5\nnoise = 1e-4\nepsilon = 5e-3\n"
            "chain_samples = 41\n",
            "unknown key 'chain_samples' for shadow-search",
        ),
        (
            "[scenario]\nname = linear_saddle3d\n\n[pipeline]\nname = shadow-search\n"
            "chain = noisy\nx0 = 0.9 0.9 0.0\ncount = 5\nnoise = 1e-4\nepsilon = 5e-3\n"
            "orbit_samples = 41\n",
            "unknown key 'orbit_samples' for shadow-search",
        ),
        # files the INI parser refuses, each message on one line
        (
            "[scenario]\nname = saddle_cycle\nname = saddle_cycle\n\n[pipeline]\nname = classify\n",
            "[line 3]: option 'name' in section 'scenario' already exists",
        ),
        (
            "name = saddle_cycle\n\n[pipeline]\nname = classify\n",
            "line: 1 'name = saddle_cycle",
        ),
        (
            "[scenario]\nname = saddle_cycle\n\n[scenario]\nname = saddle_cycle\n\n"
            "[pipeline]\nname = classify\n",
            "[line 4]: section 'scenario' already exists",
        ),
        (
            "[scenario]\nname = saddle_cycle\ngarbage line\n\n[pipeline]\nname = classify\n",
            "[line 3]: 'garbage line",
        ),
    ],
)
def test_bad_configs_exit_one_with_message(tmp_path, capsys, body, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    # the output directory may exist, but no file is written into it
    assert list((tmp_path / "out").glob("**/*")) == []


def test_per_point_field_exits_one_with_message(tmp_path, capsys, monkeypatch):
    # the shipped shadow-search config on a field written for one point at a time
    a = np.diag([-2.0, -1.0, 1.0])
    spec = VectorFieldSpec(name="per_point", dim=3, field=lambda x: a @ x, jacobian=lambda x: a)
    saddle = dataclasses.replace(builtin("linear_saddle3d"), spec=spec)
    monkeypatch.setattr(cli, "builtin", lambda name, **params: saddle)
    body = (CONFIGS / "shadow_search.cfg").read_text()
    code, _ = run_cli(tmp_path, body)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: per_point:")
    assert "must accept (N, 3) batches" in err


def test_out_of_memory_exits_one_with_message(tmp_path, capsys, monkeypatch):
    # tau = 1e6 at dt = 1e-4 is inside the parsed ranges, but its cocycle needs 74.5 GiB;
    # the allocation fails here by stub, whatever the host's memory
    def build_cocycle(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "build_cocycle", build_cocycle)
    body = ("[scenario]\nname = saddle_cycle\n\n[pipeline]\nname = quasi-hyperbolic\n"
            "x0 = 1 0 0\ntau = 1e6\neta = 0.5\nbig_t = 1.0\ndt = 1e-4\n")
    code, _ = run_cli(tmp_path, body)
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 74.5 GiB for an array\n"
    assert "Traceback" not in err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, fragment",
    [
        (["--threads", "2"], "unrecognized arguments: --threads 2"),
        (["--seed", "abc"], "invalid int value: 'abc'"),
    ],
)
def test_usage_errors_exit_one_with_message(tmp_path, capsys, extra, fragment):
    # exit code 2 means a negative verdict, so a mistyped command line must not use it
    cfg = tmp_path / "job.cfg"
    cfg.write_text(REFUTE_CFG.format(epsilon=0.05))
    code = main(["run", str(cfg), "--out", str(tmp_path / "out"), *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    assert not (tmp_path / "out").exists()
