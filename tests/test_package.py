"""Package-wide rules: the namespace and the argument check."""

import ast
import dataclasses
import functools
import importlib
import math
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import flowlab as fl
from flowlab import scenarios as sc

NAN = math.nan


def test_namespace_is_the_modules_all_lists():
    # every library module; cli is the command-line entry point, not library API
    names = sorted(m.name for m in pkgutil.iter_modules(fl.__path__))
    library = [n for n in names if n not in ("cli", "__main__")]
    modules = [importlib.import_module(f"flowlab.{n}") for n in library]
    exported = [name for module in modules for name in module.__all__]
    assert fl.__all__ == ["__version__"] + exported
    assert len(set(fl.__all__)) == len(fl.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(fl, name) is getattr(module, name)


def _segment():
    spec = fl.builtin("neutral_line").spec
    return spec, fl.equilibrium_segment_chain(spec, 0.4, 0.05)


CYCLE = fl.builtin("saddle_cycle").spec
SADDLE = fl.builtin("linear_saddle3d").spec
P = np.array([1.0, 0.0, 0.0])
BOX = np.array([[0.0, 0.1], [0.0, 0.0], [0.0, 0.0]])
GRAPH_REGION = [[-1.0, 1.0]] * 3
IDENTITY = fl.Reparametrization([0.0, 1.0], [0.0, 1.0])
ONE_POINT = fl.PseudoOrbit(SADDLE, [P], [1.0], 0.1)
TWO_PI = 2.0 * math.pi
ARC_START = np.array([1.001, 0.0, 1e-5])


@functools.lru_cache(maxsize=None)
def _estimate():
    """The splitting estimate along the saddle_cycle orbit of ARC_START."""
    coc = fl.build_cocycle(CYCLE, ARC_START, 10.8, 0.05, t_start=-2.0)
    return fl.estimate_splitting(coc, 1, window_time=2.0)


def _certificate(tau):
    """The quasi-hyperbolicity certificate of the saddle_cycle arc from ARC_START
    over [0, tau]; over one period it holds and the arc nearly closes up."""
    return fl.check_quasi_hyperbolic(CYCLE, ARC_START, tau, _estimate(), 0.5, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: fl.refute_by_conservation(*_segment(), NAN),
                     r"\(got epsilon=nan\)", id="refute_by_conservation-epsilon"),
        pytest.param(lambda: fl.search_shadowing(*_segment(), NAN, BOX[:2]),
                     r"\(got epsilon=nan\)", id="search_shadowing-epsilon"),
        pytest.param(lambda: fl.build_cocycle(CYCLE, P, 2.0, NAN),
                     r"\(got dt=nan, t_total=2.0\)", id="build_cocycle-dt"),
        pytest.param(lambda: fl.build_cocycle(CYCLE, P, NAN, 0.1),
                     r"\(got dt=0.1, t_total=nan\)", id="build_cocycle-t_total"),
        pytest.param(lambda: fl.build_cocycle(CYCLE, P, 2.0, 0.1, t_start=NAN),
                     r"^t_start must be finite \(got t_start=nan\)$", id="build_cocycle-t_start"),
        pytest.param(lambda: fl.section_map(CYCLE, P, P, NAN),
                     r"t must be positive .* \(got t=nan\)", id="section_map-t"),
        pytest.param(lambda: fl.bump_function(NAN),
                     r"\(got epsilon=nan\)", id="bump_function-epsilon"),
        pytest.param(lambda: sc.neutral_line(epsilon=NAN),
                     r"\(got epsilon=nan\)", id="neutral_line-epsilon"),
        pytest.param(lambda: sc.neutral_line(b_rate=NAN),
                     r"b_rate must be negative .*=nan\)", id="neutral_line-b_rate"),
        pytest.param(lambda: sc.neutral_rotation(omega=NAN),
                     r"omega must be nonzero .*=nan\)", id="neutral_rotation-omega"),
        pytest.param(lambda: sc.neutral_rotation(epsilon=NAN),
                     r"\(got epsilon=nan\)", id="neutral_rotation-epsilon"),
        pytest.param(lambda: fl.generate_noisy(SADDLE, P, 1, 1e-3, step=NAN),
                     r"\(got step=nan\)", id="generate_noisy-step"),
        pytest.param(lambda: fl.generate_noisy(SADDLE, P, 1, NAN),
                     r"\(got noise=nan\)", id="generate_noisy-noise"),
        pytest.param(lambda: fl.generate_noisy(SADDLE, P, NAN, 1e-3),
                     "count must be at least 1", id="generate_noisy-count"),
        pytest.param(lambda: fl.periodic_family_chain(CYCLE, P, P, NAN, 6.0),
                     "n_points must be at least 2", id="periodic_family_chain-n_points"),
        pytest.param(lambda: fl.periodic_family_chain(CYCLE, P, P, 50, NAN),
                     r"^period_hint must be positive and finite \(got period_hint=nan\)$",
                     id="periodic_family_chain-period_hint"),
        pytest.param(lambda: fl.equilibrium_segment_chain(SADDLE, 0.4, NAN),
                     r"\(got epsilon=0.4, delta=nan\)", id="equilibrium_segment_chain-delta"),
        pytest.param(lambda: fl.PseudoOrbit(SADDLE, [P], [1.0], 0.1, head=(P, NAN)),
                     r"head duration must be >= 1 and finite \(got nan\)", id="PseudoOrbit-head"),
        pytest.param(lambda: fl.flow_at(SADDLE, P, NAN),
                     r"t must be finite \(got t=nan\)", id="flow_at-t"),
        # a NaN tol must not hang a solver, nor a NaN norm_bound switch off the divergence guard
        pytest.param(lambda: fl.integrate(SADDLE, P, (0.0, 1.0), tol=NAN),
                     r"\(got tol=nan, norm_bound=1000000.0\)", id="integrate-tol"),
        pytest.param(lambda: fl.integrate(SADDLE, P, (0.0, 1.0), norm_bound=NAN),
                     r"\(got tol=1e-09, norm_bound=nan\)", id="integrate-norm_bound"),
        pytest.param(lambda: fl.flow_at(SADDLE, P, 1.0, tol=NAN),
                     r"\(got tol=nan, norm_bound=1000000.0\)", id="flow_at-tol"),
        pytest.param(lambda: fl.tangent_flow(SADDLE, P, 1.0, tol=NAN),
                     r"\(got tol=nan, norm_bound=1000000.0\)", id="tangent_flow-tol"),
        pytest.param(lambda: fl.build_chain_graph(SADDLE, GRAPH_REGION, 1.0, 0.5, 2.0, tol=NAN),
                     r"^tol must be positive and finite \(got tol=nan\)$",
                     id="build_chain_graph-tol"),
        pytest.param(lambda: fl.build_chain_graph(SADDLE, GRAPH_REGION, 1.0, 0.5, 2.0,
                                                  norm_bound=NAN),
                     r"^norm_bound must be positive and finite \(got norm_bound=nan\)$",
                     id="build_chain_graph-norm_bound"),
        # a NaN sample count must not shrink the dense gate to the boundary times
        pytest.param(lambda: fl.shadow_distance(SADDLE, P, IDENTITY, ONE_POINT, (0.0, 1.0),
                                                samples=NAN),
                     r"\(got samples=nan\)", id="shadow_distance-samples"),
        pytest.param(lambda: fl.SearchBudget(eval_samples=NAN),
                     r"\(got eval_samples=nan\)", id="SearchBudget-eval_samples"),
        pytest.param(lambda: _certificate(NAN),
                     r"^tau must be positive and finite \(got tau=nan\)$",
                     id="check_quasi_hyperbolic-tau"),
        pytest.param(lambda: _certificate(math.inf),
                     r"^tau must be positive and finite \(got tau=inf\)$",
                     id="check_quasi_hyperbolic-tau-inf"),
        # a NaN delta must not switch off the arc's closing-gap precondition
        pytest.param(lambda: fl.arc_to_periodic_orbit(CYCLE, ARC_START, TWO_PI,
                                                      _certificate(TWO_PI), NAN),
                     r"\(got tau=6.28\d*, delta=nan\)$", id="arc_to_periodic_orbit-delta"),
        pytest.param(lambda: fl.arc_to_periodic_orbit(CYCLE, ARC_START, TWO_PI,
                                                      _certificate(TWO_PI), 0.01, samples=NAN),
                     r"^samples must be at least 2, as an integer \(got samples=nan\)$",
                     id="arc_to_periodic_orbit-samples"),
        # a NaN radius must not switch off the section disc check
        pytest.param(lambda: fl.section_map(CYCLE, P, P, TWO_PI, radius=NAN),
                     r"^radius must be positive and finite \(got radius=nan\)$",
                     id="section_map-radius"),
        pytest.param(lambda: fl.find_periodic_newton(CYCLE, P, TWO_PI, residual_tol=NAN),
                     r"^residual_tol must be positive and finite \(got residual_tol=nan\)$",
                     id="find_periodic_newton-residual_tol"),
        # the window pads the periodic cocycle before the splitting estimate checks it
        pytest.param(lambda: fl.uniform_periodic_estimates(
                         CYCLE, [fl.classify_periodic(CYCLE, P, TWO_PI)], 1.0, 0.5,
                         window_time=NAN),
                     r"^dt and window_time must be positive and finite "
                     r"\(got dt=0.05, window_time=nan\)$",
                     id="uniform_periodic_estimates-window_time"),
        # checked before the reports, so an empty family cannot pass a NaN through
        pytest.param(lambda: fl.uniform_periodic_estimates(CYCLE, [], 1.0, 0.5, dt=NAN),
                     r"^dt and window_time must be positive and finite "
                     r"\(got dt=nan, window_time=3.0\)$",
                     id="uniform_periodic_estimates-dt"),
        pytest.param(lambda: fl.uniform_periodic_estimates(CYCLE, [], 1.0, 0.5,
                                                           window_time=NAN),
                     r"\(got dt=0.05, window_time=nan\)$",
                     id="uniform_periodic_estimates-window_time-empty"),
        # a NaN step must not read as a perfect match, 0.0
        pytest.param(lambda: fl.validate_jacobian(SADDLE, [P], step=NAN),
                     r"\(got step=nan\)", id="validate_jacobian-step"),
    ],
)
def test_nan_arguments_raise_value_error_naming_them(call, message):
    """A NaN length, time, rate, radius or count fails at once with a ValueError
    that names the argument; none of these may hang, return a verdict, or
    fail later in the solver."""
    with pytest.raises(ValueError, match=message):
        call()


# each count argument, its least value, and a call that passes it
COUNTS = [
    pytest.param("t_samples", 1, lambda v: fl.build_chain_graph(
        SADDLE, GRAPH_REGION, 1.0, 0.5, 2.0, t_samples=v), id="build_chain_graph"),
    pytest.param("n_times", 2, lambda v: fl.fit_hyperbolic(_estimate(), n_times=v),
                 id="fit_hyperbolic-n_times"),
    pytest.param("n_bases", 1, lambda v: fl.fit_hyperbolic(_estimate(), n_bases=v),
                 id="fit_hyperbolic-n_bases"),
    pytest.param("count", 1, lambda v: fl.generate_noisy(SADDLE, P, v, 1e-3), id="generate_noisy"),
    pytest.param("n_points", 2, lambda v: fl.periodic_family_chain(CYCLE, P, P, v, 6.0),
                 id="periodic_family_chain"),
    pytest.param("samples", 2, lambda v: fl.arc_to_periodic_orbit(
        CYCLE, ARC_START, TWO_PI, _certificate(TWO_PI), 0.01, samples=v),
                 id="arc_to_periodic_orbit"),
    pytest.param("samples", 1, lambda v: fl.shadow_distance(
        SADDLE, P, IDENTITY, ONE_POINT, (0.0, 1.0), samples=v), id="shadow_distance"),
    *(pytest.param(name, least, lambda v, name=name: fl.SearchBudget(**{name: v}),
                   id=f"SearchBudget-{name}")
      for name, least in (("candidates", 1), ("refine_evals", 0), ("eval_samples", 1))),
    pytest.param("max_iter", 1, lambda v: fl.find_periodic_newton(CYCLE, P, TWO_PI, max_iter=v),
                 id="find_periodic_newton"),
    pytest.param("dim", 1, lambda v: fl.VectorFieldSpec("still", v, np.negative, np.negative),
                 id="VectorFieldSpec"),
]


@pytest.mark.parametrize("value", [True, 2.5, "least - 1"])
@pytest.mark.parametrize("name, least, call", COUNTS)
def test_counts_must_be_integers_of_at_least_their_least(name, least, call, value):
    """A count that is a bool, a fraction or below its least raises one
    ValueError naming it: none is truncated, read as 1, or left to numpy."""
    value = least - 1 if value == "least - 1" else value
    got = re.escape(f"(got {name}={value})")
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, as an integer {got}$"):
        call(value)


def test_search_budget_holds_three_settings():
    assert [f.name for f in dataclasses.fields(fl.SearchBudget)] == [
        "candidates", "refine_evals", "eval_samples"]


@pytest.mark.parametrize("name", ["chain_samples", "orbit_samples"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda **kw: fl.SearchBudget(**kw), id="SearchBudget"),
    pytest.param(lambda **kw: fl.best_reparam(SADDLE, P, ONE_POINT, (0.0, 1.0), **kw),
                 id="best_reparam"),
])
def test_lattice_sampling_takes_no_setting(call, name):
    """The lattice samples the chain and the orbit on the chain's own grid, so a
    sample count for either side is an unknown argument, not a setting."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        call(**{name: 41})


ENTRY_TABLE = ("_starts", "_entries", "_begins", "_taus")
SOURCES = sorted((pathlib.Path(fl.__file__).parent).glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_only_chains_reads_the_entry_table(path):
    """A chain's entry table is chains' own: other modules read its entries
    through ``PseudoOrbit.entries`` and its pieces through ``ConcatEvaluator.read``."""
    reads = sorted({node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and node.attr in ENTRY_TABLE})
    assert reads == (sorted(ENTRY_TABLE) if path.stem == "chains" else [])


def _readme_blocks():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]


def test_readme_quick_start_runs_as_its_comments_say():
    """Both README ``python`` blocks run in one namespace, and each bare
    expression of the quick start evaluates to what its comment claims."""
    quick, custom = _readme_blocks()
    namespace, shown = {}, []
    for node in ast.parse(quick).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    chain_ok, lower_bound, (verdict, distance) = shown
    assert chain_ok is True
    assert lower_bound == 0.1
    assert verdict == "shadowed" and distance < 5e-3

    exec(custom, namespace)
    spec = namespace["spec"]
    # the batched routines accept the custom field
    po = fl.PseudoOrbit(spec, [[0.1, 0.2], [0.3, -0.1]], [1.0, 1.0], 1e3)
    assert len(fl.verify_chain(po).gaps) == 1
