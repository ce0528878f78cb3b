"""What tests build through the library's one entry path: a spectrum read
from its sparse JSON document, and one branch evaluated on the samples of an
``evaluate_many`` pass of its own."""

from memsynth.chebyshev import evaluate_many
from memsynth.harmonics import HarmonicSpectrum
from memsynth.simulation import branch_current, branch_series


def sparse_spectrum(omega, dc, terms):
    """The spectrum of sparse ``(n, a, b)`` triples, read from its JSON document."""
    harmonics = [{"n": n, "a": a, "b": b} for n, a, b in terms]
    return HarmonicSpectrum.from_dict({"omega": omega, "dc": dc, "harmonics": harmonics})


def own_branch_current(element, states):
    """:func:`branch_current` of one branch, its series sampled in a pass of its own."""
    return branch_current(element, states, evaluate_many(branch_series(element, states)))
