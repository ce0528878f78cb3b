"""Look-ups on a simulation trace or a decomposition that only tests need."""

import dataclasses

import numpy as np

from memsynth.elements import COMPANION_SLOT, KINDS

#: the slots that hold at most one element, by index
SLOTS = ("dc", "memristor", "meminductor", "memcapacitor")


def branch(trace, label):
    """The one branch of ``trace`` with this label."""
    (found,) = [b for b in trace.branches if b.label == label]
    return found


def branch_average_power(trace, label):
    """Average of u * i over the whole (integer number of) periods."""
    return float(np.mean(trace.states.u * branch(trace, label).current))


def _slot_of(element):
    return KINDS[element.kind].slot


def in_slot(decomposition, name):
    """The element in slot ``name`` of a decomposition, or None; the memristor
    slot also holds a resistor."""
    found = [e for e in decomposition.elements if _slot_of(e) == SLOTS.index(name)]
    return found[0] if found else None


def companions(decomposition):
    """The LTI companions of a decomposition, in their order."""
    return [e for e in decomposition.elements if _slot_of(e) == COMPANION_SLOT]


def with_slot(decomposition, name, element):
    """``decomposition`` with the element in slot ``name`` replaced by ``element``."""
    elements = tuple(
        element if _slot_of(e) == SLOTS.index(name) else e for e in decomposition.elements
    )
    return dataclasses.replace(decomposition, elements=elements)
