"""Quantum states and state-level primitives.

Fidelity, purification, maximally entangled states, Haar sampling, flip
(exchange) operators on subspaces, and the average-vs-entanglement fidelity
relation. Random sampling follows a keyed-stream contract: every consumer
derives a counter-based generator from (master_seed, purpose_tag, index), so
results depend only on those keys, never on evaluation order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameterError,
    DimensionMismatchError,
    NotPSDError,
    OutOfRangeError,
    RankTooLargeError,
)
from .linalg import as_matrix, hermitian_fn, hermitize

_U64 = (1 << 64) - 1


def keyed_stream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Counter-based random stream keyed by (master_seed, tag, index).

    Streams for distinct keys are statistically independent, and a given key
    always yields the same sequence, independent of any other stream usage.
    """
    ss = np.random.SeedSequence(
        [int(master_seed) & _U64, zlib.crc32(tag.encode("utf-8")), int(index) & _U64]
    )
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DensityMatrix:
    """Normalized state: Hermitian, positive semidefinite, unit trace."""

    mat: np.ndarray

    def __post_init__(self):
        mat = hermitize(self.mat)
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > 1e-9:
            raise BadParameterError(f"trace {tr!r} is not 1 within 1e-9")
        w_min = float(np.linalg.eigvalsh(mat).min())
        if w_min < -1e-9:
            raise NotPSDError(f"eigenvalue {w_min:.3e} below -1e-9")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)

    @staticmethod
    def maximally_mixed(d: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(d, dtype=complex) / d)


@dataclass(frozen=True)
class PureState:
    """Unit vector; density() gives the rank-1 projector."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-10:
            raise BadParameterError(f"norm {norm!r} is not 1 within 1e-10")
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vec, self.vec.conj()))


@dataclass(frozen=True)
class Subspace:
    """Subspace spanned by orthonormal columns of `basis` (ambient x dim)."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or not (1 <= b.shape[1] <= b.shape[0]):
            raise BadParameterError(f"bad basis shape {b.shape}")
        gram_defect = float(np.abs(b.conj().T @ b - np.eye(b.shape[1])).max())
        if gram_defect > 1e-9:
            raise BadParameterError(
                f"basis columns not orthonormal: Gram defect {gram_defect:.3e}"
            )
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def fidelity(rho, sigma) -> float:
    """Fidelity ||sqrt(rho) sqrt(sigma)||_1; arguments may be sub-normalized."""
    r = as_matrix(rho)
    s = as_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"shapes {r.shape} and {s.shape} differ")
    sqrt_r = hermitian_fn(r, np.sqrt)
    inner = sqrt_r @ s @ sqrt_r
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def trace_distance(rho, sigma) -> float:
    """Trace distance (1/2)||rho - sigma||_1 for Hermitian arguments."""
    delta = hermitize(as_matrix(rho) - as_matrix(sigma))
    return 0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum())


def purify(rho) -> PureState:
    """Canonical purification on R (x) A, the reference system first.

    Equals (I (x) sqrt(d rho)) applied to the rank-d maximally entangled
    state; tracing out R recovers rho exactly.
    """
    r = as_matrix(rho)
    d = r.shape[0]
    sqrt_rho = hermitian_fn(r, np.sqrt)
    # component at (i, a) is sqrt(rho)[a, i]
    vec = sqrt_rho.T.reshape(d * d)
    return PureState(vec / np.linalg.norm(vec))


def max_entangled(m: int, ambient_dims: tuple[int, int] | None = None) -> PureState:
    """Maximally entangled state of Schmidt rank m on C^dR (x) C^dA.

    Schmidt vectors are the first m computational basis vectors on each side;
    ambient_dims defaults to (m, m). m = 1 gives the product basis state.
    """
    if ambient_dims is None:
        ambient_dims = (m, m)
    d_r, d_a = ambient_dims
    if m < 1 or m > min(d_r, d_a):
        raise RankTooLargeError(f"Schmidt rank {m} not in [1, min{ambient_dims}]")
    vec = np.zeros(d_r * d_a, dtype=complex)
    for i in range(m):
        vec[i * d_a + i] = 1.0
    return PureState(vec / np.sqrt(m))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g / np.sqrt(2.0))
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def haar_state(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(g / np.linalg.norm(g))


def haar_state_in(sub: Subspace, rng: np.random.Generator) -> PureState:
    """Haar-random pure state supported inside the given subspace."""
    g = rng.standard_normal(sub.dim) + 1j * rng.standard_normal(sub.dim)
    g = g / np.linalg.norm(g)
    return PureState(sub.basis @ g)


def haar_projector(dim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random rank-m orthogonal projector."""
    if m < 1 or m > dim:
        raise RankTooLargeError(f"rank {m} not in [1, {dim}]")
    v = haar_unitary(dim, rng)[:, :m]
    return v @ v.conj().T


def random_subspace(dim: int, k: int, rng: np.random.Generator) -> Subspace:
    """Haar-random k-dimensional subspace of C^dim."""
    if k < 1 or k > dim:
        raise RankTooLargeError(f"dimension {k} not in [1, {dim}]")
    return Subspace(haar_unitary(dim, rng)[:, :k])


def flip_operator(sub: Subspace) -> np.ndarray:
    """Exchange operator sum_ij |b_i><b_j| (x) |b_j><b_i| on sub (x) sub.

    Depends only on the subspace, not on the basis chosen for it. Squares to
    the projector onto sub (x) sub, and contracts tensor products to traces:
    tr(F (X (x) Y)) = tr(XY) for operators supported on the subspace.
    """
    pi = sub.projector()
    d = sub.ambient_dim
    f4 = np.einsum("ad,bc->abcd", pi, pi)
    return f4.reshape(d * d, d * d)


def avg_from_ent_fidelity(f_ent: float, d: int) -> float:
    """Average fidelity implied by an entanglement fidelity on a d-dim space."""
    if d < 1:
        raise OutOfRangeError(f"dimension {d} must be at least 1")
    if not -1e-12 <= f_ent <= 1.0 + 1e-12:
        raise OutOfRangeError(f"entanglement fidelity {f_ent!r} outside [0, 1]")
    return (d * f_ent + 1.0) / (d + 1.0)


# ---------------------------------------------------------------------------
# verification helpers: flip identities and Haar moment checks
# ---------------------------------------------------------------------------


def _random_op_on(sub: Subspace, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((sub.dim, sub.dim)) + 1j * rng.standard_normal(
        (sub.dim, sub.dim)
    )
    return sub.basis @ g @ sub.basis.conj().T


def check_flip_identities(d: int, trials: int, rng: np.random.Generator) -> float:
    """Max residual of the exact flip-operator identities on random subspaces.

    Checks basis independence, F^2 = P (x) P, and the trace contraction
    tr(F (X (x) Y)) = tr(XY).
    """
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(1, d + 1))
        sub = random_subspace(d, k, rng)
        f = flip_operator(sub)
        pi = sub.projector()

        rotated = Subspace(sub.basis @ haar_unitary(k, rng))
        worst = max(worst, float(np.abs(f - flip_operator(rotated)).max()))
        worst = max(worst, float(np.abs(f @ f - np.kron(pi, pi)).max()))

        x = _random_op_on(sub, rng)
        y = _random_op_on(sub, rng)
        lhs = complex(np.trace(x @ y))
        rhs = complex(np.trace(f @ np.kron(x, y)))
        worst = max(worst, abs(lhs - rhs))
    return worst


def _mc_excess(dev_frob: float, se_frob: float) -> float:
    """Deviation beyond the 3-standard-error band (0 when consistent)."""
    return max(0.0, dev_frob - 3.0 * se_frob)


def check_haar_state_moments(
    d: int, samples: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo check of the first two Haar moments of pure states.

    First moment: mean of psi equals I/d. Second moment: mean of
    psi (x) psi equals (I (x) I + F) / (d (d + 1)). Returns the worst
    Frobenius deviation beyond three standard errors.
    """
    g = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    g = g / np.linalg.norm(g, axis=1, keepdims=True)

    # first moment
    outer = np.einsum("ni,nj->nij", g, g.conj())
    mean1 = outer.mean(axis=0)
    var1 = (np.abs(outer) ** 2).mean(axis=0) - np.abs(mean1) ** 2
    se1 = float(np.sqrt(np.clip(var1, 0.0, None).sum() / samples))
    dev1 = float(np.linalg.norm(mean1 - np.eye(d) / d))
    worst = _mc_excess(dev1, se1)

    # second moment, via the d^2-dim vectors psi (x) psi
    w = np.einsum("ni,nj->nij", g, g).reshape(samples, d * d)
    mean2 = (w.T @ w.conj()) / samples
    abs2 = np.abs(w) ** 2
    second = (abs2.T @ abs2) / samples
    var2 = second - np.abs(mean2) ** 2
    se2 = float(np.sqrt(np.clip(var2, 0.0, None).sum() / samples))
    full = Subspace(np.eye(d, dtype=complex))
    exact2 = (np.eye(d * d) + flip_operator(full)) / (d * (d + 1))
    dev2 = float(np.linalg.norm(mean2 - exact2))
    worst = max(worst, _mc_excess(dev2, se2))
    return worst


def projector_pair_moment(d: int, m: int) -> np.ndarray:
    """Exact Haar mean of P (x) P over rank-m projectors on C^d."""
    if not 1 <= m <= d:
        raise RankTooLargeError(f"rank {m} not in [1, {d}]")
    c1 = m * (m * d - 1) / (d * (d * d - 1))
    c2 = m * (d - m) / (d * (d * d - 1))
    full = Subspace(np.eye(d, dtype=complex))
    return c1 * np.eye(d * d) + c2 * flip_operator(full)


def check_haar_projector_moment(
    d: int, m: int, samples: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo check of the Haar mean of P (x) P for rank-m projectors."""
    g = rng.standard_normal((samples, d, d)) + 1j * rng.standard_normal(
        (samples, d, d)
    )
    q, r = np.linalg.qr(g / np.sqrt(2.0))
    diag = np.einsum("nii->ni", r).copy()
    q = q * (diag / np.abs(diag))[:, None, :]
    v = q[:, :, :m]
    p = np.einsum("nik,njk->nij", v, v.conj())

    mean = np.einsum("nij,nkl->ikjl", p, p) / samples
    mean = mean.reshape(d * d, d * d)
    absp = np.abs(p) ** 2
    second = np.einsum("nij,nkl->ikjl", absp, absp).reshape(d * d, d * d) / samples
    var = second - np.abs(mean) ** 2
    se = float(np.sqrt(np.clip(var, 0.0, None).sum() / samples))
    dev = float(np.linalg.norm(mean - projector_pair_moment(d, m)))
    return _mc_excess(dev, se)
