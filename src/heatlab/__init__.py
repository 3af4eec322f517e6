"""heatlab: numerical laboratory for local existence of u_t - Lap(u) = f(u).

The package root exports nothing: every name is imported from its module,
e.g. ``from heatlab.solver import simulate_forward``. Its one private helper,
``_lazy``, gives a module that loads on first use: every module takes numpy
from it, and the CLI takes ``solver`` and ``databuilder``, which no deciding
command runs.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The module called name: itself where it is imported already, else one
    that imports itself on its first attribute access (the stdlib's
    LazyLoader recipe). From then on it is the ordinary module, so its users
    pay nothing, and a command that never reads it never executes it. A
    submodule is also bound on its package, as an import would bind it."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, attr = name.rpartition(".")
        if package:
            setattr(sys.modules[package], attr, module)
    return module
