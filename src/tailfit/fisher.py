"""Analytic Fisher information matrices and the asymptotic MLE covariance.

All matrices are evaluated from the closed forms in each family's
`distributions.FAMILY_TABLE` entry at the model's parameters; the support
shift T never enters (the shifted families carry the base family's
information).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import FAMILY_TABLE, SeverityModel

__all__ = [
    "InfoMatrix",
    "SingularInformation",
    "fisher_information",
    "asymptotic_covariance",
]


class SingularInformation(Exception):
    """Cholesky failed: Theorem-style normal approximations do not apply."""


@dataclass
class InfoMatrix:
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=float)
        if not np.allclose(self.entries, self.entries.T, rtol=0, atol=0):
            raise ValueError("information matrix must be exactly symmetric")


def fisher_information(model: SeverityModel) -> InfoMatrix:
    return InfoMatrix(FAMILY_TABLE[model.family].info(*model.params))


def asymptotic_covariance(model: SeverityModel, n: int) -> np.ndarray:
    """I(theta)^{-1} / n via Cholesky; raises SingularInformation when the
    information matrix is not positive-definite."""
    info = fisher_information(model).entries
    try:
        chol = np.linalg.cholesky(info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation(str(exc)) from exc
    k = info.shape[0]
    # invert via the factor: solve L L^T X = I
    linv = np.linalg.solve(chol, np.eye(k))
    return (linv.T @ linv) / n

