"""Trigonometric identity check of the Chebyshev evaluator, shared by tests."""

from dataclasses import dataclass

import numpy as np

from memsynth.chebyshev import ChebyshevKind, ChebyshevSeries
from memsynth.errors import ValidationError


@dataclass(frozen=True)
class IdentityReport:
    """Max deviation of the trigonometric identities on a theta grid."""

    n_max: int
    grid_points: int
    max_error_first_kind: float
    max_error_second_kind: float

    @property
    def max_error(self) -> float:
        return max(self.max_error_first_kind, self.max_error_second_kind)


def chebyshev_identity_suite(n_max: int, grid_points: int = 1000) -> IdentityReport:
    """Check T_n(cos t) = cos nt and U_{n-1}(cos t) sin t = sin nt.

    Every degree up to ``n_max`` is evaluated through the same Clenshaw path
    used everywhere else, so this doubles as a self-test of the evaluator.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if grid_points < 2:
        raise ValidationError("grid_points must be >= 2")
    theta = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    x = np.cos(theta)
    s = np.sin(theta)
    err_t = 0.0
    err_u = 0.0
    for n in range(1, n_max + 1):
        tn = ChebyshevSeries(ChebyshevKind.FIRST, (0.0,) * n + (1.0,))
        err_t = max(err_t, float(np.max(np.abs(tn.evaluate(x) - np.cos(n * theta)))))
        un = ChebyshevSeries(ChebyshevKind.SECOND, (0.0,) * (n - 1) + (1.0,))
        err_u = max(err_u, float(np.max(np.abs(un.evaluate(x) * s - np.sin(n * theta)))))
    return IdentityReport(n_max, grid_points, err_t, err_u)
