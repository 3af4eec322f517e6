"""heatlab: numerical laboratory for local existence of u_t - Lap(u) = f(u).

The package root exports nothing: every name is imported from its module,
e.g. ``from heatlab.solver import simulate_forward``. Its one private helper,
``_numpy``, gives every module numpy, loaded on first use.
"""

import importlib.util
import sys


def _numpy():
    """numpy: the module itself where it is imported already, else one that
    imports itself on its first attribute access (the stdlib's LazyLoader
    recipe). From then on it is the ordinary module, so array code pays
    nothing, and a command that decides on Python floats never loads it."""
    module = sys.modules.get("numpy")
    if module is None:
        spec = importlib.util.find_spec("numpy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules["numpy"] = module
        spec.loader.exec_module(module)
    return module
