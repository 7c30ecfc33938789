"""Random codes, the transpose-channel (Petz) decoder, fidelity evaluation,
and the pinching-map machinery used by the verification suite.

The decoder for a code with operator S through a channel N is
X -> S^{1/2} N*( N(S)^{-1/2} X N(S)^{-1/2} ) S^{1/2}, completed to a
trace-preserving map by routing the mass outside supp N(S) into a fixed
completion state (the normalized S by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import Channel
from .errors import (
    BadParameterError,
    BadProjectorError,
    DimensionMismatchError,
    EmptyCodeError,
    NotInvariantError,
    NotUnitaryError,
    NumericsError,
    RankDeficientRhoError,
)
from .entropy import exp2_collision
from .linalg import as_matrix, hermitian_eig, hermitize, psd_spectrum
from .qstate import (
    DensityMatrix,
    PureState,
    Subspace,
    avg_from_ent_fidelity,
    haar_projector,
    haar_unitary,
    keyed_stream,
    max_entangled,
)

UNITARITY_ATOL = 1e-9


@dataclass(frozen=True)
class CodeSpec:
    """Random code data: input state rho, rank-m projector P, the code
    operator S = sqrt(d rho) P sqrt(d rho), and the orthonormal code basis
    w_i = S^{-1/2} sqrt(d rho) v_i over an eigenbasis {v_i} of P."""

    rho: DensityMatrix
    projector: np.ndarray
    m: int
    s: np.ndarray
    code_basis: Subspace


def build_code(rho: DensityMatrix, projector) -> CodeSpec:
    """Construct the code induced by a full-rank input state and a rank-m
    projector. The code basis spans supp S and is exactly orthonormal in
    exact arithmetic."""
    r = as_matrix(rho)
    d = r.shape[0]
    p = hermitize(projector)
    if p.shape != (d, d):
        raise DimensionMismatchError(
            f"projector shape {p.shape} != state shape {r.shape}"
        )
    if float(np.abs(p @ p - p).max()) > 1e-9:
        raise BadProjectorError("operator is not idempotent within 1e-9")
    m = int(round(float(np.trace(p).real)))
    if m < 1:
        raise EmptyCodeError("projector has rank zero")
    rt = psd_spectrum(d * r)
    if rt.rank < d:
        raise RankDeficientRhoError(
            "input state is rank deficient; restrict to its support first"
        )
    sqrt_rt = rt.fn(np.sqrt)
    s = hermitize(sqrt_rt @ p @ sqrt_rt)
    s_spec = psd_spectrum(s)
    if s_spec.rank != m:
        raise NumericsError(f"code operator rank {s_spec.rank} != projector rank {m}")
    s_inv_half = s_spec.fn(lambda x: x ** -0.5, on_support=True)
    v = psd_spectrum(p).basis()
    code_basis = Subspace(s_inv_half @ sqrt_rt @ v)
    resid = float(np.abs(code_basis.projector() - s_spec.projector()).max())
    if resid > 1e-8:
        raise NumericsError(f"code basis does not span supp S (residual {resid:.3e})")
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(r)
    return CodeSpec(rho=rho, projector=p, m=m, s=s, code_basis=code_basis)


@dataclass(frozen=True)
class PetzDecoder:
    """Transpose-channel decoder split into its trace-non-increasing base map
    and the completion that restores trace preservation."""

    base: Channel
    completion_state: DensityMatrix
    total: Channel


def petz_decoder(
    ch: Channel, code: CodeSpec, completion_state: DensityMatrix | None = None
) -> PetzDecoder:
    """Decoder for the given code through the given channel.

    The base map recovers S from N(S) exactly; the completion routes input
    mass outside supp N(S) into completion_state (normalized S by default).
    The returned total map is trace preserving.
    """
    if ch.d_in != code.s.shape[0]:
        raise DimensionMismatchError(
            f"channel input {ch.d_in} != code dimension {code.s.shape[0]}"
        )
    ns = psd_spectrum(ch.apply_mat(code.s))
    s_spec = psd_spectrum(code.s)
    s_half = s_spec.fn(np.sqrt)
    ns_inv_half = ns.fn(lambda x: x ** -0.5, on_support=True)
    base_kraus = s_half @ ch.kraus_stack.conj().transpose(0, 2, 1) @ ns_inv_half
    base = Channel(ch.d_out, ch.d_in, base_kraus, trace_preserving=False)

    if completion_state is None:
        tr = float(np.trace(code.s).real)
        tau = DensityMatrix(code.s / tr)
        w_t, v_t = s_spec.eigenvalues / tr, s_spec.eigenvectors
    else:
        tau = completion_state
        if tau.dim != ch.d_in:
            raise DimensionMismatchError(
                f"completion state dimension {tau.dim} != {ch.d_in}"
            )
        k = s_spec.kernel()
        if float(np.vdot(k, tau.mat @ k).real) > 1e-9:
            raise BadParameterError(
                "completion state has support outside the code operator"
            )
        w_t, v_t = hermitian_eig(tau.mat)

    # one Kraus operator sqrt(t) |t><k| per eigenpair (t, |t>) of tau and
    # kernel vector |k> of N(S)
    missing = ns.kernel()
    keep = w_t > 1e-12 * max(float(w_t[0]), 1e-300)
    cols = v_t[:, keep] * np.sqrt(w_t[keep])
    completion_kraus = np.einsum("ai,bj->ijab", cols, missing.conj()).reshape(
        -1, ch.d_in, ch.d_out
    )
    total = Channel(
        ch.d_out, ch.d_in, np.concatenate([base_kraus, completion_kraus]), True
    )
    return PetzDecoder(base=base, completion_state=tau, total=total)


def code_max_entangled(code_basis: Subspace) -> PureState:
    """Maximally entangled state between an m-dim reference and the code."""
    m = code_basis.dim
    vec = (code_basis.basis.T / np.sqrt(m)).reshape(-1)
    return PureState(vec)


def _check_scheme(ch: Channel, dec: Channel, code_space: Subspace) -> None:
    if ch.d_in != code_space.ambient_dim:
        raise DimensionMismatchError(
            f"channel input {ch.d_in} != ambient {code_space.ambient_dim}"
        )
    if dec.d_in != ch.d_out or dec.d_out != ch.d_in:
        raise DimensionMismatchError("decoder does not invert the channel shape")


def ent_fidelity(ch: Channel, dec: Channel, code_space: Subspace) -> float:
    """Entanglement fidelity of the coding scheme on the given code space.

    With W the code basis (d_in x m), R_j the decoder's and N_k the
    channel's Kraus operators, F_e = sum_jk |tr(W† R_j N_k W)|^2 / m^2: one
    product of the stacked W† R_j with the stacked N_k W.
    """
    _check_scheme(ch, dec, code_space)
    w = code_space.basis
    left = (w.conj().T @ dec.kraus_stack).reshape(len(dec.kraus), -1)
    right = (ch.kraus_stack @ w).transpose(0, 2, 1).reshape(len(ch.kraus), -1)
    overlaps = left @ right.T
    return float((np.abs(overlaps) ** 2).sum() / code_space.dim**2)


def avg_fidelity_mc(
    ch: Channel,
    dec: Channel,
    code_space: Subspace,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the input-output fidelity over
    Haar-random pure states in the code space.

    Draws the same Gaussian stream as `samples` calls of haar_state_in. The
    fidelity of psi is sum_c |<psi|C_c|psi>|^2 over the composed Kraus
    operators C = R_j N_k, evaluated for all samples at once.
    """
    if samples < 2:
        raise BadParameterError("need at least 2 samples")
    _check_scheme(ch, dec, code_space)
    g = rng.standard_normal((samples, 2, code_space.dim))
    g = g[:, 0] + 1j * g[:, 1]
    psi = (g / np.linalg.norm(g, axis=1, keepdims=True)) @ code_space.basis.T
    comp = (dec.kraus_stack[:, None] @ ch.kraus_stack[None]).reshape(
        -1, ch.d_in, ch.d_in
    )
    amps = ((comp @ psi.T) * psi.T.conj()).sum(axis=1)
    vals = (np.abs(amps) ** 2).sum(axis=0)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))


@dataclass(frozen=True)
class CodeExperimentStats:
    """Per-sample entanglement fidelities (index order) with the best code."""

    fidelities: np.ndarray
    best_index: int
    best_code: CodeSpec

    def summary(self) -> dict:
        f = self.fidelities
        return {
            "samples": int(f.size),
            "mean": float(f.mean()),
            "min": float(f.min()),
            "max": float(f.max()),
            "q25": float(np.quantile(f, 0.25)),
            "median": float(np.quantile(f, 0.5)),
            "q75": float(np.quantile(f, 0.75)),
            "best_index": int(self.best_index),
        }


def _code_sample(
    ch: Channel, rho: DensityMatrix, m: int, seed: int, index: int
) -> tuple[float, CodeSpec]:
    rng = keyed_stream(seed, "code-sample", index)
    p = haar_projector(rho.dim, m, rng)
    code = build_code(rho, p)
    dec = petz_decoder(ch, code)
    return ent_fidelity(ch, dec.total, code.code_basis), code


def random_code_experiment(
    ch: Channel,
    rho: DensityMatrix,
    m: int,
    code_samples: int,
    seed: int,
) -> CodeExperimentStats:
    """Sample Haar-random rank-m codes, decode with the transpose-channel
    decoder, and collect exact entanglement fidelities.

    Each sample depends only on (seed, sample index).
    """
    if code_samples < 1:
        raise BadParameterError("need at least one code sample")
    results = [_code_sample(ch, rho, m, seed, i) for i in range(code_samples)]
    fid = np.array([f for f, _ in results])
    fid.setflags(write=False)
    best = int(np.argmax(fid))
    return CodeExperimentStats(
        fidelities=fid, best_index=best, best_code=results[best][1]
    )


# ---------------------------------------------------------------------------
# pinching maps and their verification
# ---------------------------------------------------------------------------


def _check_unitary(u) -> np.ndarray:
    m = as_matrix(u)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotUnitaryError(f"shape {m.shape} is not square")
    defect = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if defect > UNITARITY_ATOL:
        raise NotUnitaryError(f"unitarity defect {defect:.3e}")
    return m


@dataclass(frozen=True)
class DephasingMap:
    """Pinching in the orthonormal basis u|i>; idempotent and unital."""

    u: np.ndarray

    def __post_init__(self):
        m = _check_unitary(self.u)
        m.setflags(write=False)
        object.__setattr__(self, "u", m)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def basis_vector(self, i: int) -> np.ndarray:
        return self.u[:, i]

    def clock(self) -> np.ndarray:
        """Unitary with eigenvalue exp(2 pi i j / d) on the j-th basis vector;
        averaging its conjugations over j realizes the pinching."""
        d = self.dim
        phases = np.exp(2j * np.pi * np.arange(1, d + 1) / d)
        return (self.u * phases) @ self.u.conj().T

    def pinch(self, x) -> np.ndarray:
        a = as_matrix(x)
        y = self.u.conj().T @ a @ self.u
        return (self.u * np.diagonal(y)) @ self.u.conj().T

    def pinch_first(self, x, right_dim: int) -> np.ndarray:
        """Apply the pinching to the first factor of C^d (x) C^right_dim."""
        d = self.dim
        big = np.kron(self.u.conj().T, np.eye(right_dim))
        y = big @ as_matrix(x) @ big.conj().T
        t = y.reshape(d, right_dim, d, right_dim).copy()
        mask = np.eye(d)[:, None, :, None]
        y = (t * mask).reshape(d * right_dim, d * right_dim)
        back = np.kron(self.u, np.eye(right_dim))
        return back @ y @ back.conj().T


def dephasing_map(u, x) -> np.ndarray:
    """Pinch x in the orthonormal basis given by the columns of u."""
    return DephasingMap(u).pinch(x)


def clock_invariant_state(
    dmap: DephasingMap, sigma0, right_dim: int
) -> np.ndarray:
    """Average a bipartite operator over the clock orbit on the first factor,
    producing an invariant reference state."""
    z = dmap.clock()
    d = dmap.dim
    s = as_matrix(sigma0)
    acc = np.zeros_like(s)
    for j in range(d):
        big = np.kron(np.linalg.matrix_power(z, j), np.eye(right_dim))
        acc += big @ s @ big.conj().T
    return acc / d


def weak_monotonicity_violation(lam, u, sigma) -> float:
    """Violation of the pinching weak-monotonicity bound.

    For a completely positive map applied to one half of the maximally
    entangled state, pinching the reference side costs at most a factor d in
    the exponential collision divergence against any reference state that is
    invariant under the clock conjugation on the first factor:
    exp2 D2((pinch (x) lam)(Phi) || sigma) >= exp2 D2((id (x) lam)(Phi) || sigma) / d.

    `lam` is a Channel or a bare sequence of Kraus operators; the map need
    not be trace non-increasing, since scaling it scales both sides alike.
    Returns the amount by which the inequality fails (0 when it holds).
    """
    kraus = np.asarray(getattr(lam, "kraus_stack", lam), dtype=complex)
    dmap = DephasingMap(as_matrix(u))
    d = dmap.dim
    if kraus.ndim != 3 or kraus.shape[2] != d:
        raise DimensionMismatchError(
            f"Kraus stack shape {kraus.shape} does not act on dimension {d}"
        )
    d_b = kraus.shape[1]
    s = as_matrix(sigma)

    z_big = np.kron(dmap.clock(), np.eye(d_b))
    invariance = float(np.abs(z_big @ s @ z_big.conj().T - s).max())
    if invariance > 1e-8:
        raise NotInvariantError(
            f"reference state not clock invariant (defect {invariance:.3e})"
        )

    # (id (x) lam)(Phi): row (i, a) of v holds K_k[a, i] over k, as in
    # Channel.choi, which would reject a map that increases the trace
    v = kraus.transpose(2, 1, 0).reshape(d * d_b, -1)
    omega = v @ v.conj().T / d

    lhs = exp2_collision(dmap.pinch_first(omega, d_b), s)
    rhs = exp2_collision(omega, s) / d
    return max(0.0, rhs - lhs)


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------


def check_dephasing_identities(
    d: int,
    trials: int,
    rng: np.random.Generator,
    pinching: Callable[[np.ndarray, np.ndarray], np.ndarray] = dephasing_map,
) -> float:
    """Max residual over the pinching identities on random bases and states:
    idempotence, the clock-conjugation average, and the action on one half of
    the maximally entangled state. The pinching implementation under test can
    be swapped out, which supports negative controls."""
    worst = 0.0
    phi = max_entangled(d).density().mat
    for _ in range(trials):
        u = haar_unitary(d, rng)
        dmap = DephasingMap(u)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = g @ g.conj().T
        x = x / np.trace(x).real

        once = pinching(u, x)
        worst = max(worst, float(np.abs(pinching(u, once) - once).max()))

        z = dmap.clock()
        acc = np.zeros_like(x)
        for j in range(1, d + 1):
            zj = np.linalg.matrix_power(z, j)
            acc += zj @ x @ zj.conj().T
        worst = max(worst, float(np.abs(once - acc / d).max()))

        pinched_phi = dmap.pinch_first(phi, d)
        direct = np.zeros_like(pinched_phi)
        for i in range(d):
            ui = u[:, i]
            direct += np.kron(
                np.outer(ui, ui.conj()), np.outer(ui.conj(), ui)
            )
        worst = max(worst, float(np.abs(pinched_phi - direct / d).max()))
    return worst


def check_weak_monotonicity(trials: int, rng: np.random.Generator) -> float:
    """Worst violation of the pinching weak-monotonicity bound over random
    completely positive maps, bases, and invariant reference states."""
    worst = 0.0
    dims = (2, 3, 4)
    for t in range(trials):
        d = dims[t % len(dims)]
        d_b = int(rng.integers(2, 4))
        u = haar_unitary(d, rng)
        dmap = DephasingMap(u)
        kraus = []
        for _ in range(int(rng.integers(1, 4))):
            kraus.append(
                rng.standard_normal((d_b, d)) + 1j * rng.standard_normal((d_b, d))
            )
        gram = sum(k.conj().T @ k for k in kraus)
        scale = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2).max())
        kraus = [k / np.sqrt(scale) for k in kraus]

        g = rng.standard_normal((d * d_b, d * d_b)) + 1j * rng.standard_normal(
            (d * d_b, d * d_b)
        )
        raw = g @ g.conj().T
        raw = raw / np.trace(raw).real
        sigma = clock_invariant_state(dmap, raw, d_b)
        worst = max(worst, weak_monotonicity_violation(kraus, u, sigma))
    return worst


def check_avg_ent_relation(
    trials: int, rng: np.random.Generator, mc_samples: int = 2000
) -> float:
    """Monte-Carlo consistency of the average fidelity with the value implied
    by the entanglement fidelity, beyond three standard errors."""
    from .channel import random_channel

    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        ch = random_channel(d, d, int(rng.integers(1, 4)), rng)
        ident = Channel(d, d, (np.eye(d, dtype=complex),))
        full = Subspace(np.eye(d, dtype=complex))
        f_ent = ent_fidelity(ch, ident, full)
        mean, stderr = avg_fidelity_mc(ch, ident, full, mc_samples, rng)
        predicted = avg_from_ent_fidelity(f_ent, d)
        worst = max(worst, abs(mean - predicted) - 3.0 * stderr - 1e-12)
    return max(0.0, worst)
