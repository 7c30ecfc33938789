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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Normalized state: Hermitian, positive semidefinite, unit trace."""

    mat: np.ndarray

    def __post_init__(self):
        mat = hermitize(as_matrix(self.mat))
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    return _haar_q(_ginibre((dim, dim), rng))


def _ginibre(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian array of the given shape; real parts drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_q(g: np.ndarray) -> np.ndarray:
    """The QR and phase fix of haar_unitary, for one Ginibre matrix or a stack."""
    q, r = np.linalg.qr(g / np.sqrt(2.0))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def haar_state(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    g = _ginibre(dim, rng)
    return PureState(g / np.linalg.norm(g))


def haar_state_in(sub: Subspace, rng: np.random.Generator) -> PureState:
    """Haar-random pure state supported inside the given subspace."""
    g = _ginibre(sub.dim, rng)
    g = g / np.linalg.norm(g)
    return PureState(sub.basis @ g)


def haar_projector(dim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random rank-m orthogonal projector."""
    return _haar_projectors(dim, m, [rng])[0]


def _haar_projectors(dim: int, m: int, rngs) -> np.ndarray:
    """One haar_projector draw from each generator of the iterable rngs, as
    one stack: the draws stay per generator, the QR runs once."""
    if m < 1 or m > dim:
        raise RankTooLargeError(f"rank {m} not in [1, {dim}]")
    v = _haar_q(np.stack([_ginibre((dim, dim), r) for r in rngs]))[..., :m]
    return v @ v.conj().swapaxes(-1, -2)


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


def _mub_states(d: int) -> np.ndarray:
    """The d(d + 1) states, as rows, of a complete set of mutually unbiased
    bases in prime d: the computational basis, and for k < d the basis of
    sum_n exp(2 pi i (k n^2 / q + j n / d)) |n> / sqrt(d) over j, with q = 4
    for d = 2 and q = d otherwise. They form a complex projective 2-design
    (Klappenecker and Roetteler, quant-ph/0502031): their mean of
    |psi><psi|^(x)2 is the Haar mean (I + F) / (d (d + 1))."""
    if d < 2 or any(d % p == 0 for p in range(2, d)):
        raise BadParameterError(f"dimension {d} is not prime")
    n = np.arange(d)
    q = 4 if d == 2 else d
    phase = n[:, None, None] * n**2 / q + n[None, :, None] * n / d
    bases = np.exp(2j * np.pi * phase).reshape(d * d, d) / np.sqrt(d)
    return np.concatenate((np.eye(d, dtype=complex), bases))


# ---------------------------------------------------------------------------
# verification helpers: flip identities and Haar moment checks
# ---------------------------------------------------------------------------


def _random_op_on(sub: Subspace, rng: np.random.Generator) -> np.ndarray:
    g = _ginibre((sub.dim, sub.dim), rng)
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


def _moment_excess(a: np.ndarray, b: np.ndarray, exact: np.ndarray) -> float:
    """Frobenius deviation of the sample moment mean_n a_n b_n^T from `exact`
    beyond three standard errors (0 when consistent); a and b are (n, k)."""
    n = a.shape[0]
    mean = a.T @ b / n
    var = (np.abs(a) ** 2).T @ (np.abs(b) ** 2) / n - np.abs(mean) ** 2
    se = float(np.sqrt(np.clip(var, 0.0, None).sum() / n))
    return max(0.0, float(np.linalg.norm(mean - exact)) - 3.0 * se)


def check_haar_state_moments(
    d: int, samples: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo check of the first two Haar moments of pure states.

    First moment: mean of psi equals I/d. Second moment: mean of
    psi (x) psi equals (I (x) I + F) / (d (d + 1)). Returns the worst
    Frobenius deviation beyond three standard errors.
    """
    g = _ginibre((samples, d), rng)
    g = g / np.linalg.norm(g, axis=1, keepdims=True)
    worst = _moment_excess(g, g.conj(), np.eye(d) / d)

    # second moment, via the d^2-dim vectors psi (x) psi
    w = np.einsum("ni,nj->nij", g, g).reshape(samples, d * d)
    full = Subspace(np.eye(d, dtype=complex))
    exact2 = (np.eye(d * d) + flip_operator(full)) / (d * (d + 1))
    return max(worst, _moment_excess(w, w.conj(), exact2))


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
    g = _ginibre((samples, d, d), rng)
    # the first m columns of Q depend only on the first m columns of G, and
    # P = V V^dag does not depend on their phases, so R is not needed
    v, _ = np.linalg.qr(g[:, :, :m] / np.sqrt(2.0))
    p = (v @ v.conj().transpose(0, 2, 1)).reshape(samples, d * d)
    # P (x) P in [ik, jl] order, permuted to the [ij, kl] order of p^T p
    exact = projector_pair_moment(d, m).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    return _moment_excess(p, p, exact.reshape(d * d, d * d))
