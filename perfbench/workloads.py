"""The benchmark's workloads.

Each workload builds its inputs from the seed when constructed (that is the
set-up the benchmark times) and then runs passes of verdict calls.  Every
call goes through :meth:`checks.Oracle.verdict` with a check against the
closed forms the acceptance suite uses.  Calls reach flowlab through module
attributes at call time, so a traced run sees its wrapped layers.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import numpy as np

from flowlab import chain_graph, chains, cli, poincare, scenarios, shadowing, splitting
from oracles import CLOSED_FLOWS, linear_chain_correction

ROOT = Path(__file__).resolve().parent.parent
LN2_3 = math.log(2.0) / 3.0
# Criterion 4 accepts a first passing l in [0.21950, 0.24260] = ln(2)/3 +- this.
THRESHOLD_TOL = 0.01155


def _seed_rng(seed):
    return np.random.default_rng(seed % 2**32)


# --- splitting-sweep ------------------------------------------------------

# Every fifth value of criterion 4's sweep 0.18, 0.184, ..., 0.30: values stay
# on both sides of ln(2)/3, and 0.232 is the sweep's own first pass.
L_GRID = (0.192, 0.212, 0.232, 0.252, 0.272, 0.292)


def check_domination_verdict(l, dom, e):
    if l < LN2_3 - THRESHOLD_TOL:
        e.true(not dom.ok, f"l={l} is below ln(2)/3 but passed")
    elif l > LN2_3 + THRESHOLD_TOL:
        e.true(dom.ok, f"l={l} is above ln(2)/3 but failed")


def check_threshold(oks, e):
    e.true(None not in oks, "a domination check raised")
    e.true(any(oks) and not all(oks), "the sweep does not straddle the threshold")
    first = oks.index(True) if True in oks else len(oks)
    e.true(all(oks[first:]), "domination fails again above the first pass")
    if first < len(oks):
        e.near(L_GRID[first], LN2_3, THRESHOLD_TOL, "first passing l against ln(2)/3")


def check_fit(fit, e):
    e.true(fit.ok, f"hyperbolic fit failed: {fit.reason}")
    e.rel(fit.lambda_stable, math.exp(-2.0), 0.02, "stable rate against e^-2")
    e.rel(fit.lambda_unstable, math.exp(-1.0), 0.02, "unstable rate against e^-1")


def check_quasi(eta, cert, e):
    if eta < 1.5:
        e.true(cert.ok, f"eta={eta} is below the rate gap 3/2 but failed")
        e.near(cert.worst_slack, 0.5, 0.05, "worst slack against 0.5")
        stepwise = np.max(np.abs(np.subtract(cert.slack_stepwise, 2.0)))
        e.near(stepwise, 0.0, 0.1, "stepwise slack against 3 - 2*eta")
    else:
        e.true(not cert.ok, f"eta={eta} is above the rate gap 3/2 but passed")
        e.near(cert.worst_slack, -0.6, 0.05, "worst slack against -0.6")


def check_uniform(eta, out, e):
    e.true(out.ok and out.orbits[0]["ok"], f"uniform estimates failed at eta={eta}")
    slack = out.orbits[0]["slack_rate_gap"]
    e.rel(slack, 3.0 - 2.0 * eta, 0.02, "rate-gap slack against 3 - 2*eta")


class SplittingSweep:
    """Criteria 4-6 on ``saddle_cycle``, anchored at a seeded phase of the cycle."""

    def __init__(self, seed, workdir):
        theta = _seed_rng(seed).uniform(0.0, 2.0 * math.pi)
        scen = scenarios.builtin("saddle_cycle")
        self.spec = scen.spec
        self.period = scen.facts.cycles[0].period
        self.anchor = np.array([math.cos(theta), math.sin(theta), 0.0])

    def run_pass(self, oracle, mark):
        spec, x = self.spec, self.anchor
        cocycle = oracle.verdict(
            "build_cocycle",
            poincare.build_cocycle, spec, x, 16.0, 0.005, t_start=-3.0,
            check=lambda coc, e: e.true(coc.steps == 3200, f"{coc.steps} steps, not 3200"),
        )
        est = oracle.verdict("estimate_splitting", splitting.estimate_splitting, cocycle, 1)
        oks = []
        for l in L_GRID:
            dom = oracle.verdict(
                f"check_domination l={l}",
                splitting.check_domination, est, l,
                check=partial(check_domination_verdict, l),
            )
            oks.append(None if dom is None else dom.ok)
        oracle.verdict("domination threshold", lambda: oks, check=check_threshold)
        oracle.verdict("fit_hyperbolic", splitting.fit_hyperbolic, est, check=check_fit)
        for eta in (0.5, 1.6):
            oracle.verdict(
                f"check_quasi_hyperbolic eta={eta}",
                splitting.check_quasi_hyperbolic, spec, x, 10.0, est, eta, 1.0,
                check=partial(check_quasi, eta),
            )
        rep = oracle.verdict(
            "classify_periodic",
            poincare.classify_periodic, spec, x, self.period,
            check=lambda r, e: e.true(r.hyperbolic, "the saddle cycle is not hyperbolic"),
        )
        for eta in (0.5, 1.0):
            oracle.verdict(
                f"uniform_periodic_estimates eta={eta}",
                splitting.uniform_periodic_estimates, spec, [rep], 1.0, eta,
                check=partial(check_uniform, eta),
            )


# --- chain-graph ----------------------------------------------------------

HGRID = 0.1
CYCLE_REGION = np.array([[-1.25, 1.25], [-1.25, 1.25], [-0.25, 0.25]])
SADDLE_REGION = np.array([[-0.5, 0.5]] * 3)
DELTA = 0.05
REACH = DELTA + 0.5 * math.sqrt(3.0) * HGRID  # an edge's match radius in 3-d


def cycle_cover_facts(graph, cover):
    recurrent = chain_graph.chain_recurrent_cells(graph)
    components = len(set(graph.scc_labels()[cover].tolist()))
    transitive = chain_graph.is_chain_transitive(graph, cover)
    return bool(np.isin(cover, recurrent).all()), components, transitive


def check_cycle_cover(facts, e):
    covered, components, transitive = facts
    e.true(covered, "a cell on the cycle is not chain recurrent")
    e.true(components == 1, f"the cycle cover spans {components} strong components")
    e.true(transitive, "the cycle cover is not chain transitive")


def recurrent_centers(graph):
    return graph.cell_center(chain_graph.chain_recurrent_cells(graph)).reshape(-1, 3)


def check_saddle_recurrence(centers, e):
    """Recurrent cells of ``linear_saddle3d`` (rates -2, -1, +1) lie in the
    box the closed form allows for any grid offset.

    An edge moves a centre by the flow for t >= 1, then by less than the
    reach r.  On a cycle the expanding coordinate obeys |z'| >= e|z| - r, so
    |z| <= r/(e - 1); one contracting at rate -k obeys |x'| <= e^-k |x| + r,
    so |x| <= r/(1 - e^-k).
    """
    e.true(len(centers) > 0, "no chain-recurrent cell around the saddle")
    if len(centers):
        box = REACH / np.array([1.0 - math.exp(-2.0), 1.0 - math.exp(-1.0), math.e - 1.0])
        e.at_most(np.max(np.abs(centers) / box), 1.0, "recurrent cells inside the closed-form box")
        radius = float(np.linalg.norm(centers, axis=1).max())
        # criterion 7's bound, pinned on an unshifted grid, is reported only
        e.note(radius <= 0.2, f"a recurrent cell {radius:.4f} from the origin, past 0.2")


class ChainGraphs:
    """Criterion 7's two grids, both shifted by an offset below one cell.

    Every pass draws a fresh offset from the seeded stream, so one run
    covers several shifts and its largest oracle ratio does not hang on
    where a single shift puts the cell centres.
    """

    def __init__(self, seed, workdir):
        self.rng = _seed_rng(seed)
        self.cycle = scenarios.builtin("saddle_cycle").spec
        self.saddle = scenarios.builtin("linear_saddle3d").spec
        theta = np.linspace(0.0, 2.0 * math.pi, 129)[:-1]
        self.circle = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
        self.shape = tuple(np.round(np.diff(CYCLE_REGION, axis=1)[:, 0] / HGRID).astype(int))

    def run_pass(self, oracle, mark):
        offset = self.rng.uniform(0.0, HGRID, size=3)[:, None]
        cycle_region = CYCLE_REGION + offset
        idx = np.floor((self.circle - cycle_region[:, 0]) / HGRID).astype(int)
        cover = np.unique(np.ravel_multi_index(idx.T, self.shape))
        graph = oracle.verdict(
            "build_chain_graph saddle_cycle",
            chain_graph.build_chain_graph, self.cycle, cycle_region, HGRID, DELTA, 2.0,
            t_samples=4,
        )
        oracle.verdict("cycle cover", cycle_cover_facts, graph, cover, check=check_cycle_cover)
        graph = oracle.verdict(
            "build_chain_graph linear_saddle3d",
            chain_graph.build_chain_graph, self.saddle, SADDLE_REGION + offset, HGRID, DELTA, 2.0,
            t_samples=4,
        )
        oracle.verdict("saddle recurrence", recurrent_centers, graph, check=check_saddle_recurrence)


# --- shadow-search --------------------------------------------------------

SEGMENT_SEED_BOX = np.array([[-0.1, 0.3], [-0.1, 0.1]])
SADDLE_X0 = np.array([0.9, 0.9, 0.0])
SADDLE_SEED_BOX = np.array([[0.898, 0.902], [0.898, 0.902], [0.0, 0.0]])


def check_not_found(report, e):
    e.true(report.verdict == "not_found", f"verdict {report.verdict!r}, not 'not_found'")
    e.at_least(report.distance, 0.08, "best distance against the 0.1 bound")
    e.true("not a proof" in report.notes[0], "not_found is not labelled 'not a proof'")


def check_refutation(cert, e):
    e.true(cert is not None, "the segment chain was not refuted")
    if cert is not None:
        e.near(cert.lower_bound, 0.1, 1e-9, "lower bound against 0.1")


def check_shadowed(green, report, e):
    e.true(report.verdict == "shadowed", f"verdict {report.verdict!r}, not 'shadowed'")
    e.at_most(report.distance, 5e-3, "distance against epsilon")
    h = shadowing.Reparametrization(
        np.asarray(report.reparam_knots_t), np.asarray(report.reparam_knots_u)
    )
    closed = CLOSED_FLOWS["linear_saddle3d"]
    worst = max(
        float(np.linalg.norm(closed(report.witness, h(float(i))) - green[i]))
        for i in range(len(green))
    )
    e.at_most(worst, 1e-3, "witness orbit against the Green-function correction")


def check_chain(check, e):
    e.true(check.ok, f"chain gap {check.max_gap:.3g} exceeds delta")


class ShadowSearches:
    """Criterion 1's segment chain and criterion 3's seeded noisy saddle chains."""

    def __init__(self, seed, workdir):
        rng = _seed_rng(seed)
        self.line = scenarios.builtin("neutral_line").spec
        self.segment = chains.equilibrium_segment_chain(self.line, 0.4, 0.05)
        self.saddle = scenarios.builtin("linear_saddle3d").spec
        self.noisy = []
        for chain_seed in rng.integers(0, 2**32, size=2):
            po = chains.generate_noisy(
                self.saddle, SADDLE_X0, 200, 1e-4,
                rng=np.random.default_rng(chain_seed),
                noise_subspace=np.eye(3)[:, :2],
            )
            green = po.points + linear_chain_correction((-2.0, -1.0, 1.0), po.points, po.durations)
            self.noisy.append((po, green))

    def run_pass(self, oracle, mark):
        mark("criterion-1")
        oracle.verdict("verify segment chain", chains.verify_chain, self.segment, check=check_chain)
        oracle.verdict(
            "refute_by_conservation",
            shadowing.refute_by_conservation, self.line, self.segment, 0.05,
            check=check_refutation,
        )
        oracle.verdict(
            "search segment chain",
            shadowing.search_shadowing, self.line, self.segment, 0.05, SEGMENT_SEED_BOX,
            budget=shadowing.SearchBudget(),
            check=check_not_found,
        )
        mark("criterion-3")
        budget = shadowing.SearchBudget(candidates=50, refine_evals=40)
        for k, (po, green) in enumerate(self.noisy):
            oracle.verdict(f"verify noisy chain {k}", chains.verify_chain, po, check=check_chain)
            oracle.verdict(
                f"search noisy chain {k}",
                shadowing.search_shadowing, self.saddle, po, 5e-3, SADDLE_SEED_BOX,
                budget=budget,
                check=partial(check_shadowed, green),
            )


# --- cli-configs ----------------------------------------------------------

# Exit codes and closed-form report checks of the shipped configs, keyed by
# file name.  A config not listed here must still exit 0 or 2.
EXPECTED_CODES = {
    "chain_graph.cfg": 0,
    "classify.cfg": 0,
    "quasi_hyperbolic.cfg": 0,
    "refute.cfg": 2,
    "shadow_search.cfg": 0,
    "splitting.cfg": 0,
}


def _report_chain_graph(result, e):
    e.true(result["recurrent_cells"] == result["cells"], "not every cell is chain recurrent")


def _report_classify(result, e):
    e.true(result["all_hyperbolic"], "a critical element is not hyperbolic")
    periods = [el["period"] for el in result["elements"] if el["kind"] == "periodic"]
    e.true(len(periods) == 1, f"{len(periods)} periodic elements, not 1")
    for period in periods:
        e.rel(period, 2.0 * math.pi, 1e-6, "cycle period against 2*pi")


def _report_quasi_hyperbolic(result, e):
    e.true(result["ok"], "the quasi-hyperbolicity certificate failed")
    e.near(result["worst_slack"], 0.5, 0.05, "worst slack against 0.5")


def _report_refute(result, e):
    e.true(result["refuted"], "the segment chain was not refuted")
    if result["refuted"]:
        e.near(result["certificate"]["lower_bound"], 0.1, 1e-9, "lower bound against 0.1")


def _report_shadow_search(result, e):
    search = result["search"]
    e.true(search["verdict"] == "shadowed", f"verdict {search['verdict']!r}, not 'shadowed'")
    e.at_most(search["distance"], search["epsilon"], "distance against epsilon")


def _report_splitting(result, e):
    dom = result["domination"]
    e.true(dom["ok"], "l = 0.26 is above ln(2)/3 but domination failed")
    e.at_most(dom["worst_product"], 0.5, "worst product against the 1/2 domination bound")
    e.rel(dom["worst_product"], math.exp(-0.9), 1e-2, "worst product against e^-0.9")
    fit = result["fit"]
    e.true(fit["ok"], "hyperbolic fit failed")
    e.rel(fit["lambda_stable"], math.exp(-2.0), 0.02, "stable rate against e^-2")
    e.rel(fit["lambda_unstable"], math.exp(-1.0), 0.02, "unstable rate against e^-1")


REPORT_CHECKS = {
    "chain_graph.cfg": _report_chain_graph,
    "classify.cfg": _report_classify,
    "quasi_hyperbolic.cfg": _report_quasi_hyperbolic,
    "refute.cfg": _report_refute,
    "shadow_search.cfg": _report_shadow_search,
    "splitting.cfg": _report_splitting,
}


class CliConfigs:
    """``run_config`` on every file in ``configs/``, in one process."""

    min_passes = 2  # report.json must stay byte-identical across passes

    def __init__(self, seed, workdir):
        self.seed = seed % 2**32
        self.workdir = Path(workdir)
        self.configs = sorted((ROOT / "configs").glob("*.cfg"))
        if not self.configs:
            raise FileNotFoundError(f"no configs in {ROOT / 'configs'}")
        self.first_bytes = {}

    def _run(self, cfg):
        out = self.workdir / cfg.stem
        code = cli.run_config(str(cfg), str(out), seed=self.seed)
        return code, (out / "report.json").read_bytes()

    def _check(self, cfg, outcome, e):
        code, raw = outcome
        expected = EXPECTED_CODES.get(cfg.name)
        if expected is None:
            e.true(code in (0, 2), f"exit code {code}")
        else:
            e.true(code == expected, f"exit code {code}, expected {expected}")
        first = self.first_bytes.setdefault(cfg.name, raw)
        e.true(raw == first, "report.json changed between passes")
        check = REPORT_CHECKS.get(cfg.name)
        if check is not None:
            check(json.loads(raw)["result"], e)

    def run_pass(self, oracle, mark):
        for cfg in self.configs:
            mark(cfg.name)
            oracle.verdict(
                f"run_config {cfg.name}", self._run, cfg, check=partial(self._check, cfg)
            )


WORKLOADS = {
    "splitting-sweep": SplittingSweep,
    "chain-graph": ChainGraphs,
    "shadow-search": ShadowSearches,
    "cli-configs": CliConfigs,
}
