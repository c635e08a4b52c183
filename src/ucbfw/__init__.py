"""Simulation library for proportion-tracking bandit policies.

A policy repeatedly picks one of K actions; the state after t rounds is the
empirical proportion vector of the chosen actions.  The library provides the
loss families, confidence-bound policies, and the experiment harness used to
measure how fast the realized proportions drive a convex loss to its optimum.
Its names are imported from the modules, e.g. `ucbfw.harness`.
"""

__version__ = "0.1.0"
