"""Synthesis of memory-element circuits from harmonic current spectra.

Given the harmonic content of the current a distorting load draws from a
sinusoidal supply, this package builds an equivalent shunt circuit of
memristive, meminductive and memcapacitive branches whose constitutive
relations are finite Chebyshev series, synthesizes the compensator that
cancels the non-active part of the current, and verifies both by time-domain
simulation.

The command line, ``memsynth.cli:main``, is the contract: its output bytes
are deterministic. The package binds no names of its own; import each one
from the module that owns it:

* :mod:`memsynth.harmonics`: spectra, supply voltage and power figures;
* :mod:`memsynth.loads`: the built-in benchmark loads;
* :mod:`memsynth.elements`: memory elements and their regularization;
* :mod:`memsynth.chebyshev`: the Chebyshev series of their characteristics;
* :mod:`memsynth.synthesis`: branch decomposition, conditioner, verification;
* :mod:`memsynth.simulation`: closed-form steady-state waveforms;
* :mod:`memsynth.textio`: the JSON and CSV formats.
"""
