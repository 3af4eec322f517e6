"""heatlab: numerical laboratory for local existence of u_t - Lap(u) = f(u).

The package root exports nothing: every name is imported from its module,
e.g. ``from heatlab.solver import simulate_forward``.
"""
