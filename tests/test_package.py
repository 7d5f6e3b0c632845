"""Package-wide rules: the namespace and the argument check."""

import importlib
import math
import pkgutil

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


def _nan_head_chain(tmp_path):
    path = tmp_path / "nan_head.txt"
    path.write_text("3 0.1 1 0\n-1 nan 0.0 0.0 0.0\n0 1.0 0.0 0.0 0.0\n")
    return fl.load_chain(fl.builtin("linear_saddle3d").spec, path)


def _segment():
    spec = fl.builtin("neutral_line").spec
    return spec, fl.equilibrium_segment_chain(spec, 0.4, 0.05)


CYCLE = fl.builtin("saddle_cycle").spec
SADDLE = fl.builtin("linear_saddle3d").spec
P = np.array([1.0, 0.0, 0.0])
BOX = np.array([[0.0, 0.1], [0.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda tmp: fl.refute_by_conservation(*_segment(), NAN),
                     r"\(got epsilon=nan\)", id="refute_by_conservation-epsilon"),
        pytest.param(lambda tmp: fl.search_shadowing(*_segment(), NAN, BOX[:2]),
                     r"\(got epsilon=nan\)", id="search_shadowing-epsilon"),
        pytest.param(lambda tmp: fl.build_cocycle(CYCLE, P, 2.0, NAN),
                     r"\(got dt=nan, t_total=2.0\)", id="build_cocycle-dt"),
        pytest.param(lambda tmp: fl.build_cocycle(CYCLE, P, NAN, 0.1),
                     r"\(got dt=0.1, t_total=nan\)", id="build_cocycle-t_total"),
        pytest.param(lambda tmp: fl.build_cocycle(CYCLE, P, 2.0, 0.1, t_start=NAN),
                     r"^t_start must be finite \(got t_start=nan\)$", id="build_cocycle-t_start"),
        pytest.param(lambda tmp: fl.section_map(CYCLE, P, P, NAN),
                     r"t must be positive .* \(got t=nan\)", id="section_map-t"),
        pytest.param(lambda tmp: fl.bump_function(NAN),
                     r"\(got epsilon=nan\)", id="bump_function-epsilon"),
        pytest.param(lambda tmp: sc.neutral_line(epsilon=NAN),
                     r"\(got epsilon=nan\)", id="neutral_line-epsilon"),
        pytest.param(lambda tmp: sc.neutral_line(b_rate=NAN),
                     r"b_rate must be negative .*=nan\)", id="neutral_line-b_rate"),
        pytest.param(lambda tmp: sc.neutral_rotation(omega=NAN),
                     r"omega must be nonzero .*=nan\)", id="neutral_rotation-omega"),
        pytest.param(lambda tmp: sc.neutral_rotation(epsilon=NAN),
                     r"\(got epsilon=nan\)", id="neutral_rotation-epsilon"),
        pytest.param(lambda tmp: fl.generate_noisy(SADDLE, P, 1, 1e-3, step=NAN),
                     r"\(got step=nan\)", id="generate_noisy-step"),
        pytest.param(lambda tmp: fl.generate_noisy(SADDLE, P, 1, NAN),
                     r"\(got noise=nan\)", id="generate_noisy-noise"),
        pytest.param(lambda tmp: fl.generate_noisy(SADDLE, P, NAN, 1e-3),
                     "count must be at least 1", id="generate_noisy-count"),
        pytest.param(lambda tmp: fl.periodic_family_chain(CYCLE, P, P, NAN, 6.0),
                     "n_points must be at least 2", id="periodic_family_chain-n_points"),
        pytest.param(lambda tmp: fl.periodic_family_chain(CYCLE, P, P, 50, NAN),
                     r"^period_hint must be positive and finite \(got period_hint=nan\)$",
                     id="periodic_family_chain-period_hint"),
        pytest.param(lambda tmp: fl.equilibrium_segment_chain(SADDLE, 0.4, NAN),
                     r"\(got epsilon=0.4, delta=nan\)", id="equilibrium_segment_chain-delta"),
        pytest.param(_nan_head_chain,
                     r"head duration must be >= 1 and finite \(got nan\)", id="load_chain-head"),
        pytest.param(lambda tmp: fl.flow_at(SADDLE, P, NAN),
                     r"t must be finite \(got t=nan\)", id="flow_at-t"),
    ],
)
def test_nan_arguments_raise_value_error_naming_them(call, message, tmp_path):
    """A NaN length, time, rate, radius or count fails at once with a ValueError
    that names the argument; none of these may hang, return a verdict, or
    fail later in the solver."""
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
