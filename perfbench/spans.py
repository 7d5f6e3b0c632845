"""Span recorder for the traced benchmark run.

:func:`install` wraps the module attributes flowlab's layers call through,
so each call leaves a span (name, start, end, parent, run id) in memory.
It is installed only inside the traced worker process; untraced runs import
an unpatched package.  Self time is derived from the spans afterwards: a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name).  A dotted attribute is a method, patched on
# its class; a plain one is a function, patched in every flowlab module that
# imported it, so callers reach the wrapper whichever alias they use.
LAYER_CALLS = (
    ("flowlab.flow", "integrate", "flow.integrate"),
    ("flowlab.flow", "tangent_flow", "flow.tangent_flow"),
    ("flowlab.poincare", "build_cocycle", "poincare.build_cocycle"),
    ("flowlab.poincare", "NormalCocycle.window_product", "poincare.window_product"),
    ("flowlab.poincare", "classify_periodic", "poincare.classify_periodic"),
    ("flowlab.poincare", "classify_singularity", "poincare.classify_singularity"),
    ("flowlab.poincare", "find_periodic_newton", "poincare.find_periodic_newton"),
    ("flowlab.splitting", "estimate_splitting", "splitting.estimate_splitting"),
    ("flowlab.splitting", "check_domination", "splitting.check_domination"),
    ("flowlab.splitting", "fit_hyperbolic", "splitting.fit_hyperbolic"),
    ("flowlab.splitting", "check_quasi_hyperbolic", "splitting.check_quasi_hyperbolic"),
    (
        "flowlab.splitting",
        "uniform_periodic_estimates",
        "splitting.uniform_periodic_estimates",
    ),
    ("flowlab.chains", "verify_chain", "chains.verify_chain"),
    ("flowlab.chains", "ConcatEvaluator.at_many", "chains.concat_eval"),
    ("flowlab.chains", "eval_concat", "chains.concat_eval"),
    ("flowlab.chains", "generate_noisy", "chains.generate_noisy"),
    ("flowlab.shadowing", "search_shadowing", "shadowing.search_shadowing"),
    ("flowlab.shadowing", "frechet_match", "shadowing.frechet_match"),
    ("flowlab.shadowing", "pairwise_distances", "shadowing.pairwise_distances"),
    ("flowlab.shadowing", "shadow_distance", "shadowing.shadow_distance"),
    ("flowlab.shadowing", "refute_by_conservation", "shadowing.refute_by_conservation"),
    ("flowlab.chain_graph", "build_chain_graph", "chain_graph.build_chain_graph"),
    ("flowlab.chain_graph", "chain_recurrent_cells", "chain_graph.chain_recurrent_cells"),
    ("flowlab.chain_graph", "is_chain_transitive", "chain_graph.is_chain_transitive"),
    ("flowlab.cli", "run_config", "cli.run_config"),
)

# Library functions as one flowlab module sees them; wrapped in that module
# only, so the integrator calls of different layers stay apart.
FOREIGN_CALLS = (
    ("flowlab.flow", "solve_ivp", "flow.solve_ivp"),
    ("flowlab.chain_graph", "solve_ivp", "chain_graph.solve_ivp"),
    ("flowlab.chain_graph", "connected_components", "chain_graph.scc"),
)

# Per-layer metrics.  Self time is reported as ``<name>.self_frac``, a share
# of the traced passes' wall time, so a layer that a workload never calls
# reads 0 rather than a time of exactly 0 s.  Calls and counts are per pass.
SELF_TIMES = (
    "splitting.estimate_splitting",
    "splitting.check_domination",
    "splitting.fit_hyperbolic",
    "splitting.check_quasi_hyperbolic",
    "splitting.uniform_periodic_estimates",
    "poincare.build_cocycle",
    "poincare.window_product",
    "poincare.classify_periodic",
    "flow.integrate",
    "flow.tangent_flow",
    "flow.solve_ivp",
    "chain_graph.build_chain_graph",
    "chain_graph.solve_ivp",
    "chain_graph.scc",
    "shadowing.search_shadowing",
    "shadowing.frechet_match",
    "shadowing.pairwise_distances",
    "shadowing.shadow_distance",
    "chains.verify_chain",
    "chains.concat_eval",
    "cli.run_config",
)
CALLS = (
    "splitting.check_domination",
    "poincare.window_product",
    "flow.integrate",
    "flow.tangent_flow",
    "flow.solve_ivp",
    "chain_graph.solve_ivp",
    "shadowing.frechet_match",
    "chains.concat_eval",
)
COUNTERS = (
    "splitting.svd.calls",
    "splitting.svd.matrices",
    "poincare.steps",
    "flow.nfev",
    "chain_graph.nfev",
    "chain_graph.cells",
    "chain_graph.edges",
    "shadowing.evaluations",
    "scenarios.field_calls",
    "scenarios.jacobian_calls",
)


def layer_metric_units():
    """Name and unit of every per-layer metric, in report order."""
    units = {f"{name}.self_frac": "ratio" for name in SELF_TIMES}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({name: "count" for name in COUNTERS})
    units.update(
        {
            "shadowing.match_ratio": "ratio",
            "cli.pipeline_frac": "ratio",
            "cli.io_frac": "ratio",
            "trace.wall_s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    run: str


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run_id = ""
        self._open = []

    def wrap(self, name, fn, on_result=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), math.nan, -1, rec.run_id)
            if rec._open:
                span.parent = rec._open[-1]
            rec._open.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._open.pop()
                span.end = time.perf_counter()
            if on_result is not None:
                on_result(rec.counts, result, args, kwargs)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def self_times(spans, keep=None):
    """``{name: (self seconds, total seconds, calls)}`` summed over the spans
    that ``keep`` selects (all by default).  Parents are indices into
    ``spans``; a name nested in itself counts its total twice."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for i, span in enumerate(spans):
        if keep is not None and not keep(span):
            continue
        covered = 0.0
        reach = span.start
        for start, end in sorted((spans[c].start, spans[c].end) for c in children[i]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        stats = out[span.name]
        stats[0] += (span.end - span.start) - covered
        stats[1] += span.end - span.start
        stats[2] += 1
    return {name: tuple(stats) for name, stats in out.items()}


def _count_nfev(counter_name):
    def hook(counts, sol, args, kwargs):
        counts[counter_name] += int(sol.nfev)

    return hook


def _count_graph(counts, graph, args, kwargs):
    counts["chain_graph.cells"] += graph.n_cells
    counts["chain_graph.edges"] += graph.edge_count()


def _count_pipeline(counts, code, args, kwargs):
    outdir = kwargs["outdir"] if "outdir" in kwargs else args[1]
    meta = json.loads((Path(outdir) / "meta.json").read_text())
    counts["cli.pipeline_seconds"] += meta["elapsed_seconds"]


HOOKS = {
    "flow.solve_ivp": _count_nfev("flow.nfev"),
    "chain_graph.solve_ivp": _count_nfev("chain_graph.nfev"),
    "poincare.build_cocycle": lambda counts, coc, a, k: counts.update(
        {"poincare.steps": coc.steps}
    ),
    "chain_graph.build_chain_graph": _count_graph,
    "shadowing.search_shadowing": lambda counts, rep, a, k: counts.update(
        {"shadowing.evaluations": rep.evaluations}
    ),
    "cli.run_config": _count_pipeline,
}


class _ModuleShim(types.ModuleType):
    """A module's namespace with some attributes replaced."""

    def __init__(self, base, **overrides):
        super().__init__(base.__name__)
        self.__dict__.update(vars(base))
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


def counting_spec(spec, counts):
    """The same vector field with its field and Jacobian calls counted."""
    from flowlab.flow import VectorFieldSpec

    field, jacobian = spec.field, spec.jacobian

    def counted_field(x):
        counts["scenarios.field_calls"] += 1
        return field(x)

    def counted_jacobian(x):
        counts["scenarios.jacobian_calls"] += 1
        return jacobian(x)

    return VectorFieldSpec(
        name=spec.name,
        dim=spec.dim,
        field=counted_field,
        jacobian=counted_jacobian,
        coord_kinds=spec.coord_kinds,
        conserved=spec.conserved,
    )


def install(rec):
    """Wrap flowlab's layer calls to record into ``rec``; returns an undo
    function that restores every patched attribute."""
    import flowlab.cli  # noqa: F401  (loads every layer module)
    import numpy as np

    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "flowlab"]
    patched = []

    def patch(owner, attr, value):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_everywhere(original, value):
        for module in modules:
            for attr, current in list(vars(module).items()):
                if current is original:
                    patch(module, attr, value)

    for module_name, attr, name in LAYER_CALLS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            patch(cls, meth, rec.wrap(name, getattr(cls, meth), HOOKS.get(name)))
        else:
            original = getattr(module, attr)
            patch_everywhere(original, rec.wrap(name, original, HOOKS.get(name)))

    for module_name, attr, name in FOREIGN_CALLS:
        module = importlib.import_module(module_name)
        patch(module, attr, rec.wrap(name, getattr(module, attr), HOOKS.get(name)))

    counts = rec.counts

    def counted_svd(a, *args, **kwargs):
        shape = np.shape(a)
        counts["splitting.svd.calls"] += 1
        counts["splitting.svd.matrices"] += math.prod(shape[:-2])
        return np.linalg.svd(a, *args, **kwargs)

    splitting = importlib.import_module("flowlab.splitting")
    patch(
        splitting,
        "np",
        _ModuleShim(np, linalg=_ModuleShim(np.linalg, svd=counted_svd)),
    )

    scenarios = importlib.import_module("flowlab.scenarios")
    builtin = scenarios.builtin

    @functools.wraps(builtin)
    def counting_builtin(name, **params):
        scen = builtin(name, **params)
        return dataclasses.replace(scen, spec=counting_spec(scen.spec, counts))

    patch_everywhere(builtin, counting_builtin)

    def undo():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


def layer_metrics(rec, pass_walls, traced_wall):
    """Layer metrics from the spans and counters of the traced passes, whose
    wall times are ``pass_walls``."""
    stats = self_times(rec.spans, keep=lambda s: bool(s.run))
    counts = rec.counts
    passes, wall = len(pass_walls), sum(pass_walls)
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_frac"] = stats.get(name, (0.0, 0.0, 0))[0] / wall
    for name in CALLS:
        out[f"{name}.calls"] = stats.get(name, (0.0, 0.0, 0))[2] / passes
    for name in COUNTERS:
        out[name] = counts[name] / passes
    evaluations = counts["shadowing.evaluations"]
    matches = stats.get("shadowing.frechet_match", (0.0, 0.0, 0))[2]
    out["shadowing.match_ratio"] = matches / evaluations if evaluations else 0.0
    # the pipelines' own time is meta.json's elapsed_seconds; the rest of
    # run_config is config parsing and file writing
    pipeline = counts["cli.pipeline_seconds"]
    run_config_total = stats.get("cli.run_config", (0.0, 0.0, 0))[1]
    out["cli.pipeline_frac"] = pipeline / wall
    out["cli.io_frac"] = (run_config_total - pipeline) / wall if run_config_total else 0.0
    out["trace.wall_s"] = traced_wall
    return out


def time_table(rec, passes, pass_wall):
    """Rows ``(group, wall, [(layer, self_s, total_s, calls), ...])`` per pass.

    A run id ``passK/label`` puts its spans in group ``label``, whose wall
    is the time its top-level spans cover; other spans form one group whose
    wall is the pass wall time, with an ``(outside spans)`` row for the rest.
    """
    groups = sorted({s.run.partition("/")[2] for s in rec.spans if s.run})
    table = []
    for group in groups:
        def member(span):
            return bool(span.run) and span.run.partition("/")[2] == group

        stats = self_times(rec.spans, keep=member)
        rows = sorted(
            ((name, s / passes, t / passes, n / passes) for name, (s, t, n) in stats.items()),
            key=lambda row: -row[1],
        )
        if group:
            wall = sum(s.end - s.start for s in rec.spans if member(s) and s.parent < 0) / passes
        else:
            wall = pass_wall
            rest = wall - sum(r[1] for r in rows)
            rows.append(("(outside spans)", rest, rest, 0.0))
        table.append((group, wall, rows))
    return table
