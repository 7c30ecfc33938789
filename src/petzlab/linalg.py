"""Dense complex linear algebra used throughout the package.

Hermitian eigendecompositions, matrix functions evaluated on supports
(pseudo-inverse and pseudo-log semantics), partial traces and support
projectors. Cutoffs are relative to the largest eigenvalue so routines are
scale invariant. Logarithms are base 2 package-wide.
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

# eigenvalue counts as zero iff lam <= SUPPORT_RTOL * lam_max
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


def _psd_eig(x) -> HermitianEig:
    """Eigendecomposition with the PSD tolerance policy applied.

    Negative eigenvalues within -PSD_HARD_RTOL * lam_max are clamped to zero;
    anything below that band raises NotPSD.
    """
    w, v = hermitian_eig(x)
    if w.size:
        require_psd(float(w[-1]), float(w[0]))
    return HermitianEig(np.maximum(w, 0.0), v)


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
    """Apply a scalar function to the eigenvalues of a PSD matrix.

    With on_support=True, eigenvalues at or below the support cutoff map to 0
    instead of fn(0), giving pseudo-inverse / pseudo-log semantics.
    """
    w, v = _psd_eig(x)
    lam_max = float(w[0]) if w.size else 0.0
    fw = np.zeros_like(w)
    if on_support:
        mask = w > SUPPORT_RTOL * lam_max
        if mask.any():
            fw[mask] = fn(w[mask])
    else:
        fw = np.asarray(fn(w), dtype=float)
    return (v * fw) @ v.conj().T


def support_projector(x) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    w, v = _psd_eig(x)
    lam_max = float(w[0]) if w.size else 0.0
    vk = v[:, w > SUPPORT_RTOL * lam_max]
    return vk @ vk.conj().T


def support_basis(x) -> np.ndarray:
    """Orthonormal eigenbasis of the support of a PSD matrix, as columns."""
    w, v = _psd_eig(x)
    lam_max = float(w[0]) if w.size else 0.0
    return v[:, w > SUPPORT_RTOL * lam_max]


def kernel_basis(x) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of a PSD matrix, as columns."""
    w, v = _psd_eig(x)
    lam_max = float(w[0]) if w.size else 0.0
    return v[:, w <= SUPPORT_RTOL * lam_max]


def support_rank(x) -> int:
    """Number of eigenvalues above the relative support cutoff."""
    w, _ = _psd_eig(x)
    lam_max = float(w[0]) if w.size else 0.0
    return int(np.count_nonzero(w > SUPPORT_RTOL * lam_max))


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
