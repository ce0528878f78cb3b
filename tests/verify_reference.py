"""The sample-and-project verification, kept as an oracle for the coefficient-domain one.

``round_trip_figures`` samples a decomposition's closed-form rows and the
target on the alias-free grid, projects the current back with the FFT, and
compares in the time domain.  On that grid the round trip is the identity up
to roundoff, so its figures must equal ``verify_decomposition``'s.
"""

import numpy as np

from memsynth.harmonics import project_waveform
from memsynth.synthesis import VerificationReport, steady_state_rows, verification_grid


@np.errstate(over="ignore", invalid="ignore")
def grid_samples(ab, spp):
    """Samples at ``t_k = k T / spp`` of the (a, b) rows over orders 0..top < spp/2.

    Column 0 holds (dc, 0); one inverse real FFT evaluates every order.  A
    sum beyond the float64 range reads inf or nan, without a warning.
    """
    half = (ab[0] - 1j * ab[1]) * 0.5
    half[0] = ab[0, 0]
    # an unscaled inverse: a coefficient times spp/2 could overflow where
    # every sample is finite
    return np.fft.irfft(half, n=spp, norm="forward")


def round_trip_figures(decomposition, target):
    """The report of sampling the rows, projecting them back and comparing with ``target``."""
    n_max = max(target.n_max, 1)
    rows = steady_state_rows(decomposition)
    spp = verification_grid(max(n_max, rows.shape[1] - 1))
    wanted = np.zeros((2, n_max + 1))
    wanted[:, 1 : target.n_max + 1] = target.cos, target.sin
    wanted[0, 0] = target.dc
    scale = float(np.max(np.abs(wanted))) or 1.0
    wanted /= scale
    current = grid_samples(rows / scale, spp)
    projected = project_waveform(current, target.omega, n_max)
    got = np.zeros((2, n_max + 1))
    got[:, 1:] = projected.cos, projected.sin
    got[0, 0] = projected.dc
    target_wave = grid_samples(wanted, spp)
    target_rms = float(np.sqrt(np.mean(target_wave**2)))
    err_rms = float(np.sqrt(np.mean((current - target_wave) ** 2)))
    return VerificationReport(
        rel_rms_error=err_rms / target_rms if target_rms > 0.0 else err_rms,
        max_coefficient_error=float(np.max(np.abs(got - wanted))),
        n_max=n_max,
        samples_per_period=spp,
    )
