"""Dense complex linear algebra used throughout the package.

Hermitian eigendecompositions, partial traces, and one decomposition per
PSD matrix (psd_spectrum) whose support, kernel, rank and matrix functions
(pseudo-inverse and pseudo-log semantics) are views. support_mask is the one
support rule; its cutoff is relative to the largest eigenvalue, so routines
are scale invariant. Logarithms are base 2 package-wide.
hermitize, hermitian_eig, psd_spectrum, PsdSpectrum.fn, support_mask and
require_psd apply the same rule to each matrix of a (..., n, n) stack; the
other PsdSpectrum views take a single matrix.
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
    """Coerce an array-like, or any object with a .mat attribute, to complex;
    a stack of matrices is rejected, as it is not one operator."""
    a = _as_array(x)
    if a.ndim > 2:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_array(x) -> np.ndarray:
    return np.asarray(getattr(x, "mat", x), dtype=complex)


class HermitianEig(NamedTuple):
    """Spectral decomposition; eigenvalues descending, eigenvectors in columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_square(x) -> np.ndarray:
    a = _as_array(x)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotPSDError("matrix contains non-finite entries")
    return a


def _first_true(mask) -> int | None:
    """Flat index of the first true entry of a boolean array, or None. A
    scalar is tested directly: any() and argmax() cost microseconds on one,
    and coherent_info runs these checks tens of thousands of times."""
    if getattr(mask, "ndim", 0) == 0:
        return 0 if mask else None
    return int(np.argmax(mask)) if mask.any() else None


def hermitize(x) -> np.ndarray:
    """Validate Hermiticity within tolerance and return (A + A†) / 2.

    The tolerance is relative to the largest entry, with an absolute noise
    floor of 1e-12 so that differences of nearly equal Hermitian matrices
    (whose scale collapses) are not rejected for round-off.
    """
    a = _check_square(x)
    a_h = a.conj().swapaxes(-1, -2)
    scale = np.abs(a).max(axis=(-2, -1))
    defect = np.abs(a - a_h).max(axis=(-2, -1))
    i = _first_true((defect > HERMITICITY_RTOL * scale) & (defect > 1e-12))
    if i is not None:
        raise NonHermitianError(
            f"Hermiticity defect {defect.flat[i]:.3e} exceeds "
            f"{HERMITICITY_RTOL:.0e} relative to scale {scale.flat[i]:.3e}"
        )
    return (a + a_h) / 2


def hermitian_eig(x) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix with eigenvalues descending."""
    return _eig(hermitize(x))


def _eig(h: np.ndarray) -> HermitianEig:
    # h as hermitize returns it: exactly Hermitian, so not checked again
    w, v = np.linalg.eigh(h)
    return HermitianEig(w[..., ::-1].copy(), v[..., ::-1].copy())


def support_mask(w: np.ndarray) -> np.ndarray:
    """The one support rule: an eigenvalue counts as zero iff it is at or
    below SUPPORT_RTOL times the largest (non-negative) eigenvalue."""
    lam_max = w.max(axis=-1, initial=0.0)
    return w > (SUPPORT_RTOL * lam_max)[..., None]


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
        return (v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2)

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
    return _psd_spectrum(hermitize(x))


def _psd_spectrum(h: np.ndarray) -> PsdSpectrum:
    """psd_spectrum of an operator, or stack, that hermitize returned."""
    w, v = _eig(h)
    if w.shape[-1]:
        require_psd(w[..., -1], w[..., 0])
    w = np.maximum(w, 0.0)
    return PsdSpectrum(w, v, support_mask(w))


def require_psd(lam_min, lam_max) -> None:
    """Raise NotPSD when the smallest eigenvalue lies below the tolerance
    band -PSD_HARD_RTOL * max(lam_max, 0); arrays are checked elementwise."""
    i = _first_true(
        (lam_min < -PSD_HARD_RTOL * lam_max) & (lam_min < -PSD_HARD_RTOL * 1e-300)
    )
    if i is not None:
        raise NotPSDError(
            f"eigenvalue {np.ravel(lam_min)[i]:.3e} below -{PSD_HARD_RTOL:.0e} "
            f"* lam_max ({max(np.ravel(lam_max)[i], 0.0):.3e})"
        )


def hermitian_fn(
    x, fn: Callable[[np.ndarray], np.ndarray], on_support: bool = False
) -> np.ndarray:
    """Apply a scalar function to the eigenvalues of a PSD matrix (see
    PsdSpectrum.fn for on_support)."""
    return psd_spectrum(x).fn(fn, on_support)


def support_projector(x) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    return psd_spectrum(as_matrix(x)).projector()


def support_basis(x) -> np.ndarray:
    """Orthonormal eigenbasis of the support of a PSD matrix, as columns."""
    return psd_spectrum(as_matrix(x)).basis()


def kernel_basis(x) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of a PSD matrix, as columns."""
    return psd_spectrum(as_matrix(x)).kernel()


def support_rank(x) -> int:
    """Number of eigenvalues above the relative support cutoff."""
    return psd_spectrum(as_matrix(x)).rank


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
