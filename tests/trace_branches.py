"""Look-ups on a simulation trace that only tests need."""

import numpy as np


def branch(trace, label):
    """The one branch of ``trace`` with this label."""
    (found,) = [b for b in trace.branches if b.label == label]
    return found


def branch_average_power(trace, label):
    """Average of u * i over the whole (integer number of) periods."""
    return float(np.mean(trace.u * branch(trace, label).current))
