"""Config-driven pipelines with deterministic file outputs.

``flowlab run config.cfg`` reads an INI file with exactly two sections,
``[scenario]`` and ``[pipeline]``, validates every key against the tables
below (unknown keys are rejected), runs the pipeline, and writes
``report.json`` and ``series.csv`` (byte-identical across reruns of the
same config and seed) plus ``meta.json`` (versions, timings, seed).

Exit codes: 0 when the analysis verdict is positive, 2 when it is negative
(refuted, nothing found, non-hyperbolic, a failed check), 1 on errors,
including bad configs and bad command lines.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .chain_graph import (
    build_chain_graph,
    chain_recurrent_cells,
    is_chain_transitive,
    save_cells_csv,
    save_edge_list,
)
from .chains import (
    equilibrium_segment_chain,
    generate_noisy,
    periodic_family_chain,
    verify_chain,
)
from .flow import _plain
from .poincare import build_cocycle, classify_periodic, classify_singularity
from .scenarios import SCENARIO_PARAMS, builtin, scenario_names
from .shadowing import SearchBudget, refute_by_conservation, search_shadowing
from .splitting import (
    check_domination,
    check_quasi_hyperbolic,
    estimate_splitting,
    fit_hyperbolic,
)

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """A config file failed validation."""


# Keys of the pipelines that build a chain and judge it against ``epsilon``.
_CHAIN_KEYS = {
    "chain": ("choice", ("noisy", "equilibrium_segment", "periodic_family")),
    "x0": ("floats",),
    "count": ("int", 1, 100000),
    "step": ("float", 1.0, 1000.0),
    "noise": ("float", 1e-12, 10.0),
    "noise_axes": ("ints",),
    "segment_epsilon": ("float", 1e-6, 100.0),
    "delta": ("float", 1e-12, 10.0),
    "p0": ("floats",),
    "v": ("floats",),
    "n_points": ("int", 2, 100000),
    "period_hint": ("float", 1e-3, 1e4),
    "epsilon": ("float", 1e-12, 100.0),
}


def _parse_value(key, raw, spec):
    kind = spec[0]
    try:
        if kind in ("float", "int"):
            value = float(raw) if kind == "float" else int(raw)
            if not spec[1] <= value <= spec[2]:
                raise ConfigError(
                    f"{key} = {raw} outside the allowed range [{spec[1]}, {spec[2]}]"
                )
            return value
        if kind == "choice":
            if raw not in spec[1]:
                raise ConfigError(
                    f"{key} = {raw!r} is not one of: {', '.join(spec[1])}"
                )
            return raw
        if kind in ("floats", "ints"):
            convert = float if kind == "floats" else int
            return [convert(tok) for tok in raw.replace(",", " ").split()]
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{key} = {raw!r} cannot be parsed as {kind}") from None
    raise ConfigError(f"internal: unknown parameter kind {kind}")


def load_config(path):
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        read = cp.read(path)
    except configparser.Error as err:  # some of these messages span lines
        raise ConfigError(" ".join(str(err).split())) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = set(cp.sections())
    required = {"scenario", "pipeline"}
    if sections != required:
        missing = sorted(required - sections)
        extra = sorted(sections - required)
        parts = []
        if missing:
            parts.append(f"missing section(s): {', '.join(missing)}")
        if extra:
            parts.append(f"unknown section(s): {', '.join(extra)}")
        raise ConfigError("; ".join(parts))

    sc_name, sc_params = _parse_section(cp, "scenario", SCENARIO_PARAMS)
    pl_specs = {name: pipe.params for name, pipe in PIPELINES.items()}
    pl_name, pl_params = _parse_section(cp, "pipeline", pl_specs)
    return sc_name, sc_params, pl_name, pl_params


def _parse_section(cp, section, specs):
    """The ``name`` of one config section and its other keys, parsed against
    ``specs[name]``."""
    entries = dict(cp.items(section))
    if "name" not in entries:
        raise ConfigError(f"[{section}] needs a 'name' key")
    name = entries.pop("name")
    if name not in specs:
        raise ConfigError(
            f"unknown {section} {name!r}; available: {', '.join(sorted(specs))}"
        )
    params = {}
    for key, raw in entries.items():
        if key not in specs[name]:
            allowed = ", ".join(sorted(specs[name])) or "(none)"
            raise ConfigError(
                f"[{section}] unknown key {key!r} for {name}; allowed: {allowed}"
            )
        params[key] = _parse_value(key, raw, specs[name][key])
    return name, params


def _require(params, pipeline, *keys):
    for key in keys:
        if key not in params:
            raise ConfigError(f"pipeline {pipeline!r} requires the key {key!r}")


def _given(params, *keys):
    """The ``keys`` a config sets, so a library default applies to the rest."""
    return {key: params[key] for key in keys if key in params}


def _point(params, key, dim, default=None):
    if key not in params:
        if default is None:
            raise ConfigError(f"missing point parameter {key!r}")
        return np.asarray(default, dtype=float)
    value = np.asarray(params[key], dtype=float)
    if value.shape != (dim,):
        raise ConfigError(f"{key} must have {dim} components")
    return value


def _build_chain(scenario, params, pipeline, seed):
    spec = scenario.spec
    _require(params, pipeline, "chain")
    kind = params["chain"]
    if kind == "noisy":
        _require(params, pipeline, "x0", "count", "noise")
        subspace = None
        if "noise_axes" in params:
            axes = params["noise_axes"]
            if not axes or any(not 0 <= a < spec.dim for a in axes):
                raise ConfigError(f"noise_axes must be coordinate indices below {spec.dim}")
            subspace = np.eye(spec.dim)[:, axes]
        return generate_noisy(
            spec,
            _point(params, "x0", spec.dim),
            int(params["count"]),
            noise=params["noise"],
            rng=seed,
            noise_subspace=subspace,
            **_given(params, "step"),
        )
    if kind == "equilibrium_segment":
        _require(params, pipeline, "delta")
        return equilibrium_segment_chain(
            spec, params.get("segment_epsilon", 0.4), params["delta"]
        )
    # periodic_family
    _require(params, pipeline, "v", "n_points")
    cycles = scenario.facts.cycles
    default_p = cycles[0].point if cycles else None
    default_period = cycles[0].period if cycles else None
    p0 = _point(params, "p0", spec.dim, default=default_p)
    period_hint = params.get("period_hint", default_period)
    if period_hint is None:
        raise ConfigError("periodic_family needs period_hint (no cycle on record)")
    return periodic_family_chain(
        spec,
        p0,
        _point(params, "v", spec.dim),
        int(params["n_points"]),
        period_hint=float(period_hint),
        delta=params.get("delta"),
    )


def _checked_chain(scenario, params, pipeline, seed):
    """Build and verify the configured chain (``epsilon`` is required too);
    returns the chain, its ``"chain"`` report summary and ``chain_gap`` rows."""
    po = _build_chain(scenario, params, pipeline, seed)
    _require(params, pipeline, "epsilon")
    check = verify_chain(po)
    summary = {
        "size": po.size,
        "delta": po.delta,
        "verified": bool(check.ok),
        "max_gap": check.max_gap,
    }
    rows = [("chain_gap", i, t, gap) for i, ((_, gap), t) in enumerate(zip(check.gaps, check.times))]
    return po, summary, rows


def _run_shadow_search(scenario, params, seed, outdir):
    spec = scenario.spec
    po, chain, rows = _checked_chain(scenario, params, "shadow-search", seed)
    budget = SearchBudget(
        **_given(params, "candidates", "refine_evals", "chain_samples", "orbit_samples")
    )
    half = float(params.get("seed_halfwidth", 0.1))
    center = po.points[0]
    seed_region = np.column_stack([center - half, center + half])
    report = search_shadowing(spec, po, params["epsilon"], seed_region, budget=budget)
    result = {"chain": chain, "search": report.to_dict()}
    if report.reparam_knots_t is not None:
        for i, (kt, ku) in enumerate(zip(report.reparam_knots_t, report.reparam_knots_u)):
            rows.append(("reparam_knot", i, float(kt), float(ku)))
    return (0 if report.verdict == "shadowed" else 2), result, rows


def _run_refute(scenario, params, seed, outdir):
    spec = scenario.spec
    po, chain, rows = _checked_chain(scenario, params, "refute", seed)
    cert = refute_by_conservation(spec, po, params["epsilon"])
    result = {
        "chain": chain,
        "refuted": cert is not None,
        "certificate": cert.to_dict() if cert is not None else None,
    }
    for k in po._entries:
        value = float(spec.conserved.func(po._starts[k]))
        rows.append(("conserved", int(k) - 1, float(po._begins[k]), value))
    return (2 if cert is not None else 0), result, rows


def _run_classify(scenario, params, seed, outdir):
    spec = scenario.spec
    reports = []
    for fact in scenario.facts.singularities:
        reports.append(classify_singularity(spec, np.asarray(fact.point, dtype=float)))
    for fact in scenario.facts.cycles:
        reports.append(
            classify_periodic(spec, np.asarray(fact.point, dtype=float), fact.period)
        )
    if not reports:
        raise ConfigError(f"scenario {spec.name} records no critical elements to classify")
    result = {
        "elements": [_plain(rep) for rep in reports],
        "all_hyperbolic": all(rep.hyperbolic for rep in reports),
    }
    rows = [
        ("margin", k * 16 + j, 0.0, float(margin))
        for k, rep in enumerate(reports)
        for j, margin in enumerate(rep.margins)
    ]
    return (0 if result["all_hyperbolic"] else 2), result, rows


def _splitting_anchor(scenario, params, pipeline):
    spec = scenario.spec
    anchor = params.get("anchor", "cycle" if scenario.facts.cycles else "point")
    if anchor == "cycle":
        if not scenario.facts.cycles:
            raise ConfigError(f"scenario {spec.name} records no cycle to anchor on")
        return np.asarray(scenario.facts.cycles[0].point, dtype=float)
    _require(params, pipeline, "x0")
    return _point(params, "x0", spec.dim)


def _padded_estimate(spec, params, x0, span_key):
    """Splitting estimate on the orbit of ``x0`` over ``[0, params[span_key]]``
    (four windows by default), its cocycle padded by one window each side."""
    window = float(params.get("window", 3.0))
    span = float(params.get(span_key, 4.0 * window))
    dt = float(params.get("dt", 0.02))
    cocycle = build_cocycle(spec, x0, span + 2.0 * window, dt, t_start=-window)
    return estimate_splitting(cocycle, int(params.get("p", 1)), window)


def _run_splitting(scenario, params, seed, outdir):
    x0 = _splitting_anchor(scenario, params, "splitting")
    _require(params, "splitting", "l")
    est = _padded_estimate(scenario.spec, params, x0, "total")
    dom = check_domination(est, params["l"])
    fit = fit_hyperbolic(est)
    result = {
        "anchor": _plain(x0),
        "stable_rank": est.p,
        "gap_ratio_min": est.gap_ratio_min,
        "invariance_residual": est.residual,
        "domination": _plain(dom, "products_per_t"),
        "fit": _plain(fit, "stable_ok", "unstable_ok"),
    }
    rows = [
        ("domination_product", j, float(t), float(v))
        for j, (t, v) in enumerate(dom.products_per_t)
    ]
    return (0 if (dom.ok and fit.ok) else 2), result, rows


def _run_quasi_hyperbolic(scenario, params, seed, outdir):
    spec = scenario.spec
    _require(params, "quasi-hyperbolic", "x0", "tau", "eta", "big_t")
    x0 = _point(params, "x0", spec.dim)
    est = _padded_estimate(spec, params, x0, "tau")
    cert = check_quasi_hyperbolic(
        spec, x0, float(params["tau"]), est, params["eta"], params["big_t"]
    )
    per_step = ("log_norms_stable", "log_conorms_unstable", "slack_leading",
                "slack_trailing", "slack_stepwise")
    result = {"arc_start": _plain(x0), **_plain(cert, *per_step)}
    # a leading average sits at the end of its span, a trailing one and a step at their start
    rows = []
    for name, offset in (("slack_leading", 1), ("slack_trailing", 0), ("slack_stepwise", 0)):
        for j, v in enumerate(getattr(cert, name)):
            rows.append((name, j, float(cert.boundaries[j + offset]), float(v)))
    return (0 if cert.ok else 2), result, rows


def _run_chain_graph(scenario, params, seed, outdir):
    spec = scenario.spec
    _require(params, "chain-graph", "region", "hgrid", "delta", "t_max")
    region = np.asarray(params["region"], dtype=float)
    if region.size != 2 * spec.dim:
        raise ConfigError(f"region needs {2 * spec.dim} numbers (lo hi per axis)")
    region = region.reshape(spec.dim, 2)
    graph = build_chain_graph(
        spec,
        region,
        params["hgrid"],
        params["delta"],
        params["t_max"],
        **_given(params, "t_samples"),
    )
    recurrent = chain_recurrent_cells(graph)
    labels = graph.scc_labels()
    _, sizes = np.unique(labels, return_counts=True)
    transitive = is_chain_transitive(graph, recurrent) if len(recurrent) else False
    save_edge_list(graph, Path(outdir) / "graph.edges")
    save_cells_csv(graph, Path(outdir) / "cells.csv")
    result = {
        "cells": graph.n_cells,
        "shape": list(graph.shape),
        "edges": graph.edge_count(),
        "reach": graph.reach,
        "recurrent_cells": int(len(recurrent)),
        "components": int(sizes.size),
        "nontrivial_components": int(np.sum(sizes >= 2)),
        "recurrent_transitive": bool(transitive),
        "outputs": ["graph.edges", "cells.csv"],
    }
    big = np.sort(sizes[sizes >= 2])[::-1]
    rows = [("component_size", int(j), 0.0, float(s)) for j, s in enumerate(big)]
    return (0 if len(recurrent) else 2), result, rows


class _Pipeline(NamedTuple):
    """Summary, ``[pipeline]`` key specs, and runner
    ``(scenario, params, seed, outdir) -> (code, result, rows)``."""

    summary: str
    params: dict
    run: Callable


PIPELINES = {
    "shadow-search": _Pipeline(
        "search a seed box for a reparametrized shadowing orbit",
        {
            **_CHAIN_KEYS,
            "candidates": ("int", 1, 10_000_000),
            "refine_evals": ("int", 0, 10_000_000),
            "seed_halfwidth": ("float", 1e-12, 100.0),
            "chain_samples": ("int", 3, 1_000_000),
            "orbit_samples": ("int", 3, 1_000_000),
        },
        _run_shadow_search,
    ),
    "refute": _Pipeline(
        "conserved-quantity lower bound against shadowing", _CHAIN_KEYS, _run_refute
    ),
    "classify": _Pipeline(
        "spectra and hyperbolicity of the scenario's critical elements", {}, _run_classify
    ),
    "splitting": _Pipeline(
        "dominated splitting check and hyperbolicity fit on an orbit",
        {
            "anchor": ("choice", ("cycle", "point")),
            "x0": ("floats",),
            "p": ("int", 1, 16),
            "dt": ("float", 1e-4, 1.0),
            "window": ("float", 0.1, 100.0),
            "total": ("float", 0.5, 10000.0),
            "l": ("float", 1e-3, 1000.0),
        },
        _run_splitting,
    ),
    "quasi-hyperbolic": _Pipeline(
        "partitioned log-norm inequalities along one arc",
        {
            "x0": ("floats",),
            "tau": ("float", 1e-3, 1e6),
            "eta": ("float", 1e-9, 100.0),
            "big_t": ("float", 1e-3, 1e4),
            "p": ("int", 1, 16),
            "dt": ("float", 1e-4, 1.0),
            "window": ("float", 0.1, 100.0),
        },
        _run_quasi_hyperbolic,
    ),
    "chain-graph": _Pipeline(
        "cell-transition graph, strong components, recurrent cover",
        {
            "region": ("floats",),
            "hgrid": ("float", 1e-6, 100.0),
            "delta": ("float", 1e-12, 10.0),
            "t_max": ("float", 1.0, 1e4),
            "t_samples": ("int", 1, 10000),
        },
        _run_chain_graph,
    ),
}


def run_config(config_path, outdir, seed=0) -> int:
    sc_name, sc_params, pl_name, pl_params = load_config(config_path)
    scenario = builtin(sc_name, **sc_params)
    # pipelines may drop artifacts of their own into outdir
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    code, result, rows = PIPELINES[pl_name].run(scenario, pl_params, seed, outdir)
    elapsed = time.perf_counter() - t0
    import scipy

    meta = {
        "flowlab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "seed": seed,
        "config": {
            "scenario": {"name": sc_name, **sc_params},
            "pipeline": {"name": pl_name, **pl_params},
        },
        "elapsed_seconds": elapsed,
    }
    report = {
        "schema": "flowlab.report/1",
        "scenario": {"name": sc_name, "params": sc_params},
        "pipeline": pl_name,
        "exit_code": code,
        "result": result,
    }
    (outdir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )
    with open(outdir / "series.csv", "w") as fh:
        fh.write("series,index,t,value\n")
        for series, index, t, value in rows:
            fh.write(f"{series},{index},{t!r},{value!r}\n")
    (outdir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return code


class _Parser(argparse.ArgumentParser):
    """Raises on usage errors instead of exiting with code 2, which flowlab
    reserves for negative verdicts."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="flowlab",
        description="Pseudo-orbit, shadowing, and hyperbolicity pipelines for built-in flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a pipeline described by an INI config")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument("--out", default="flowlab-out", help="output directory")
    run_p.add_argument("--seed", type=int, default=0, help="seed for stochastic chains")
    list_p = sub.add_parser("list", help="list available scenarios or pipelines")
    list_p.add_argument("what", choices=["scenarios", "pipelines"])

    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "list":
        if args.what == "scenarios":
            for name in scenario_names():
                keys = ", ".join(sorted(SCENARIO_PARAMS[name])) or "no parameters"
                print(f"{name}: {keys}")
        else:
            for name in sorted(PIPELINES):
                print(f"{name}: {PIPELINES[name].summary}")
        return 0

    try:
        return run_config(args.config, args.out, seed=args.seed)
    except (ConfigError, ValueError, KeyError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
