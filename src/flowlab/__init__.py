"""Tools for pseudo-orbits of smooth flows: shadowing searches and
refutations, linearized return maps, dominated splittings, quasi-hyperbolic
arc certificates, and grid-based chain-recurrence graphs.

The package exports every name in its modules' ``__all__`` lists."""

__version__ = "0.1.0"

from . import chain_graph, chains, flow, poincare, scenarios, shadowing, splitting

_MODULES = (chain_graph, chains, flow, poincare, scenarios, shadowing, splitting)

__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
globals().update({name: getattr(module, name) for module in _MODULES for name in module.__all__})
