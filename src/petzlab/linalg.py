"""Dense complex linear algebra used throughout the package.

Hermitian eigendecompositions, partial traces, and one decomposition per
PSD matrix (psd_spectrum) whose support, kernel, rank and matrix functions
(pseudo-inverse and pseudo-log semantics) are views. support_mask is the one
support rule; its cutoff is relative to the largest eigenvalue, so routines
are scale invariant. Logarithms are base 2 package-wide.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
)

# support_mask: an eigenvalue counts as zero iff it is at most this times lam_max
SUPPORT_RTOL = 1e-10
# accepted Hermiticity defect, relative to the largest matrix entry
HERMITICITY_RTOL = 1e-9
# clamped-negative eigenvalues below -PSD_HARD_RTOL * lam_max raise NotPSD
PSD_HARD_RTOL = 1e-8


def as_matrix(x) -> np.ndarray:
    """Coerce an array-like, or any object with a .mat attribute, to complex."""
    return np.asarray(getattr(x, "mat", x), dtype=complex)


class HermitianEig(NamedTuple):
    """Spectral decomposition; eigenvalues descending, eigenvectors in columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_square(x) -> np.ndarray:
    a = as_matrix(x)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotPSDError("matrix contains non-finite entries")
    return a


def hermitize(x) -> np.ndarray:
    """Validate Hermiticity within tolerance and return (A + A†) / 2.

    The tolerance is relative to the largest entry, with an absolute noise
    floor of 1e-12 so that differences of nearly equal Hermitian matrices
    (whose scale collapses) are not rejected for round-off.
    """
    a = _check_square(x)
    scale = max(float(np.abs(a).max()), 1e-300)
    defect = float(np.abs(a - a.conj().T).max())
    if defect > max(HERMITICITY_RTOL * scale, 1e-12):
        raise NonHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_RTOL:.0e} "
            f"relative to scale {scale:.3e}"
        )
    return (a + a.conj().T) / 2


def hermitian_eig(x) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix with eigenvalues descending."""
    h = hermitize(x)
    w, v = np.linalg.eigh(h)
    return HermitianEig(w[::-1].copy(), v[:, ::-1].copy())


def support_mask(w: np.ndarray) -> np.ndarray:
    """The one support rule: an eigenvalue counts as zero iff it is at or
    below SUPPORT_RTOL times the largest (non-negative) eigenvalue."""
    lam_max = max(float(w.max()), 0.0) if w.size else 0.0
    return w > SUPPORT_RTOL * lam_max


class PsdSpectrum(NamedTuple):
    """Clamped spectrum of a PSD matrix (eigenvalues descending, eigenvectors
    in columns) with its support mask; every support quantity is a view."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    support: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.support))

    def fn(self, f: Callable, on_support: bool = False) -> np.ndarray:
        """f applied to the eigenvalues; with on_support=True, eigenvalues
        outside the support map to 0 instead of f(0), giving pseudo-inverse
        and pseudo-log semantics."""
        w, v = self.eigenvalues, self.eigenvectors
        on = self.support if on_support else slice(None)
        fw = np.zeros_like(w)
        fw[on] = f(w[on])
        return (v * fw) @ v.conj().T

    def basis(self) -> np.ndarray:
        return self.eigenvectors[:, self.support]

    def kernel(self) -> np.ndarray:
        return self.eigenvectors[:, ~self.support]

    def projector(self) -> np.ndarray:
        b = self.basis()
        return b @ b.conj().T


def psd_spectrum(x) -> PsdSpectrum:
    """Decompose a PSD matrix once, with the PSD tolerance policy applied.

    Negative eigenvalues within -PSD_HARD_RTOL * lam_max are clamped to zero;
    anything below that band raises NotPSD.
    """
    w, v = hermitian_eig(x)
    if w.size:
        require_psd(float(w[-1]), float(w[0]))
    w = np.maximum(w, 0.0)
    return PsdSpectrum(w, v, support_mask(w))


def require_psd(lam_min: float, lam_max: float) -> None:
    """Raise NotPSD when the smallest eigenvalue lies below the tolerance
    band -PSD_HARD_RTOL * max(lam_max, 0)."""
    lam_max = max(lam_max, 0.0)
    if lam_min < -PSD_HARD_RTOL * max(lam_max, 1e-300):
        raise NotPSDError(
            f"eigenvalue {lam_min:.3e} below -{PSD_HARD_RTOL:.0e} * lam_max "
            f"({lam_max:.3e})"
        )


def hermitian_fn(
    x, fn: Callable[[np.ndarray], np.ndarray], on_support: bool = False
) -> np.ndarray:
    """Apply a scalar function to the eigenvalues of a PSD matrix (see
    PsdSpectrum.fn for on_support)."""
    return psd_spectrum(x).fn(fn, on_support)


def support_projector(x) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    return psd_spectrum(x).projector()


def support_basis(x) -> np.ndarray:
    """Orthonormal eigenbasis of the support of a PSD matrix, as columns."""
    return psd_spectrum(x).basis()


def kernel_basis(x) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of a PSD matrix, as columns."""
    return psd_spectrum(x).kernel()


def support_rank(x) -> int:
    """Number of eigenvalues above the relative support cutoff."""
    return psd_spectrum(x).rank


def partial_trace(x, keep: str, dims: tuple[int, int]) -> np.ndarray:
    """Partial trace of an operator on a bipartite space A (x) B.

    keep selects the surviving factor ("A" or "B"); dims = (d_A, d_B).
    """
    a = as_matrix(x)
    d_a, d_b = dims
    if a.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatchError(
            f"operator shape {a.shape} does not match dims {dims}"
        )
    t = a.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abad->bd", t)
    raise ValueError('keep must be "A" or "B"')
