"""Random codes, the transpose-channel (Petz) decoder, fidelity evaluation,
and the pinching-map machinery used by the verification suite.

The decoder for a code with operator S through a channel N is
X -> S^{1/2} N*( N(S)^{-1/2} X N(S)^{-1/2} ) S^{1/2}, completed to a
trace-preserving map by routing the mass outside supp N(S) into a fixed
completion state (the normalized S by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import Channel, _dagger, _require_trace_preserving, random_channel
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
from .entropy import _sandwich
from .linalg import (
    PsdSpectrum, _psd_spectrum, as_matrix, hermitian_eig, hermitize, psd_spectrum
)
from .qstate import (
    DensityMatrix,
    PureState,
    Subspace,
    _ginibre,
    _haar_projectors,
    _mub_states,
    avg_from_ent_fidelity,
    haar_projector,
    haar_unitary,
    keyed_stream,
    max_entangled,
)

UNITARITY_ATOL = 1e-9
# complex entries in one sample-stacked intermediate of random_code_experiment
CODE_CHUNK_ELEMENTS = 1 << 14


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """Random code data: input state rho, rank-m projector P, the code
    operator S = sqrt(d rho) P sqrt(d rho), and the orthonormal code basis
    w_i = S^{-1/2} sqrt(d rho) v_i over an eigenbasis {v_i} of P, and the
    spectrum of S, kept so that S is decomposed once."""

    rho: DensityMatrix
    projector: np.ndarray
    m: int
    s: np.ndarray
    code_basis: Subspace
    s_spectrum: PsdSpectrum = field(repr=False)


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
    m, s, s_spec, w = _codes(r, p[None])
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(r)
    s_spec = PsdSpectrum(*(a[0] for a in s_spec))
    return CodeSpec(rho, p, int(m[0]), s[0], Subspace(w[0]), s_spec)


def _codes(r: np.ndarray, p: np.ndarray):
    """build_code, with its checks, for a (k, d, d) stack of hermitized
    projectors: their ranks m, the S stack, its spectra and the code bases."""
    if float(np.abs(p @ p - p).max()) > 1e-9:
        raise BadProjectorError("operator is not idempotent within 1e-9")
    m = np.rint(np.trace(p, axis1=1, axis2=2).real).astype(int)
    if (m < 1).any():
        raise EmptyCodeError("projector has rank zero")
    rt = psd_spectrum(r.shape[0] * r)
    if rt.rank < r.shape[0]:
        raise RankDeficientRhoError(
            "input state is rank deficient; restrict to its support first"
        )
    sqrt_rt = rt.fn(np.sqrt)
    s = hermitize(sqrt_rt @ p @ sqrt_rt)
    s_spec = _psd_spectrum(s)
    rank = s_spec.support.sum(-1)
    if (rank != m).any():
        i = np.argmax(rank != m)
        raise NumericsError(f"code operator rank {rank[i]} != projector rank {m[i]}")
    s_inv_half = s_spec.fn(lambda x: x ** -0.5, on_support=True)
    p_spec = _psd_spectrum(p)
    w = s_inv_half @ sqrt_rt @ p_spec.eigenvectors[..., : p_spec.support.sum(-1).max()]
    b = s_spec.eigenvectors[..., : m.max()]
    resid = float(np.abs(w @ _dagger(w) - b @ _dagger(b)).max())
    if resid > 1e-8:
        raise NumericsError(f"code basis does not span supp S (residual {resid:.3e})")
    return m, s, s_spec, w


@dataclass(frozen=True, eq=False)
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
    s_spec = code.s_spectrum
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
    one = PsdSpectrum(*(a[None] for a in s_spec))
    ((_, total),) = _decoders(ch, code.s[None], one, w_t[None], v_t[None])
    base = Channel(ch.d_out, ch.d_in, total[0, : len(ch.kraus)], trace_preserving=False)
    return PetzDecoder(base, tau, Channel(ch.d_out, ch.d_in, total[0], True))


def _decoders(ch: Channel, s: np.ndarray, s_spec: PsdSpectrum, w_t, v_t):
    """petz_decoder for a stack of code operators S and completion states
    with eigenpairs (w_t, v_t): yields the sample indices and the total
    Kraus stack, base operators first, of each group of samples with equal
    rank of N(S) and equal count of kept eigenpairs. The completion has one
    Kraus operator sqrt(t)|t><k| per kept eigenpair (t, |t>) and kernel
    vector |k> of N(S)."""
    ns = psd_spectrum(ch.apply_mat(s))
    ns_inv_half = ns.fn(lambda x: x ** -0.5, on_support=True)
    base = s_spec.fn(np.sqrt)[:, None] @ _dagger(ch.kraus_stack) @ ns_inv_half[:, None]
    kept = (w_t > 1e-12 * np.maximum(w_t[:, :1], 1e-300)).sum(-1)
    rank, r0 = ns.support.sum(-1), len(ch.kraus)
    for r, q in sorted(set(zip(rank.tolist(), kept.tolist()))):
        idx = np.flatnonzero((rank == r) & (kept == q))
        cols = v_t[idx, :, :q] * np.sqrt(w_t[idx, None, :q])
        completion = np.einsum("nai,nbj->nijab", cols, ns.eigenvectors[idx, :, r:].conj())
        # in C order, as a Channel stores its Kraus operators, so that the
        # products with it round exactly as with a Channel's kraus_stack
        total = np.empty((len(idx), r0 + q * (ch.d_out - r), ch.d_in, ch.d_out), complex)
        total[:, :r0] = base[idx]
        total[:, r0:] = completion.reshape(len(idx), -1, ch.d_in, ch.d_out)
        _require_trace_preserving(total)
        yield idx, total


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
    return float(_fidelities(ch, dec.kraus_stack[None], code_space.basis[None])[0])


def _fidelities(ch: Channel, dec_kraus: np.ndarray, w: np.ndarray) -> np.ndarray:
    """ent_fidelity for (n, R, d_in, d_out) decoder and (n, d_in, m) basis stacks."""
    n = len(w)
    left = (_dagger(w)[:, None] @ dec_kraus).reshape(n, dec_kraus.shape[1], -1)
    right = (ch.kraus_stack @ w[:, None]).swapaxes(2, 3).reshape(n, len(ch.kraus), -1)
    overlaps = left @ right.swapaxes(1, 2)
    return (np.abs(overlaps) ** 2).reshape(n, -1).sum(-1) / w.shape[-1] ** 2


def avg_fidelity_mc(
    ch: Channel,
    dec: Channel,
    code_space: Subspace,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the input-output fidelity over
    Haar-random pure states in the code space, all samples at once. Draws the
    same Gaussian stream as `samples` calls of haar_state_in."""
    if samples < 2:
        raise BadParameterError("need at least 2 samples")
    _check_scheme(ch, dec, code_space)
    g = rng.standard_normal((samples, 2, code_space.dim))
    g = g[:, 0] + 1j * g[:, 1]
    psi = (g / np.linalg.norm(g, axis=1, keepdims=True)) @ code_space.basis.T
    vals = _pure_fidelities(ch, dec, psi)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))


def _pure_fidelities(ch: Channel, dec: Channel, psi: np.ndarray) -> np.ndarray:
    """Input-output fidelity <psi|R(N(psi))|psi> = sum_c |<psi|C_c|psi>|^2,
    over the composed Kraus operators C = R_j N_k, of each row psi of an
    (n, d_in) array of unit vectors."""
    comp = (dec.kraus_stack[:, None] @ ch.kraus_stack[None]).reshape(
        -1, ch.d_in, ch.d_in
    )
    amps = ((comp @ psi.T) * psi.T.conj()).sum(axis=1)
    return (np.abs(amps) ** 2).sum(axis=0)


@dataclass(frozen=True, eq=False)
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


def random_code_experiment(
    ch: Channel,
    rho: DensityMatrix,
    m: int,
    code_samples: int,
    seed: int,
) -> CodeExperimentStats:
    """Sample Haar-random rank-m codes, decode with the transpose-channel
    decoder, and collect exact entanglement fidelities.

    Sample i is drawn from keyed_stream(seed, "code-sample", i) alone. The
    samples go through build_code, petz_decoder and ent_fidelity as stacks,
    in chunks whose intermediates stay under CODE_CHUNK_ELEMENTS entries.
    """
    if code_samples < 1:
        raise BadParameterError("need at least one code sample")
    r = as_matrix(rho)
    d = r.shape[0]
    # at most r + d d_out decoder Kraus operators of max(d, d_out)^2 entries
    per_sample = (len(ch.kraus) + d * ch.d_out) * max(d, ch.d_out) ** 2
    chunk = max(1, CODE_CHUNK_ELEMENTS // per_sample)
    fid = np.empty(code_samples)
    for start in range(0, code_samples, chunk):
        keys = range(start, min(start + chunk, code_samples))
        p = _haar_projectors(d, m, (keyed_stream(seed, "code-sample", i) for i in keys))
        _, s, s_spec, w = _codes(r, hermitize(p))
        w_t = s_spec.eigenvalues / np.trace(s, axis1=1, axis2=2).real[:, None]
        for idx, total in _decoders(ch, s, s_spec, w_t, s_spec.eigenvectors):
            fid[start + idx] = _fidelities(ch, total, w[idx])
    fid.setflags(write=False)
    best = int(np.argmax(fid))
    p_best = haar_projector(d, m, keyed_stream(seed, "code-sample", best))
    return CodeExperimentStats(fid, best, build_code(rho, p_best))


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


@dataclass(frozen=True, eq=False)
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

    # exp2_collision of both sides, with sigma decomposed once
    sig, pinched = psd_spectrum(s), dmap.pinch_first(omega, d_b)
    lhs = float(np.trace(_sandwich(pinched, sig) @ pinched).real)
    rhs = float(np.trace(_sandwich(omega, sig) @ omega).real) / d
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
        g = _ginibre((d, d), rng)
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
        kraus = [_ginibre((d_b, d), rng) for _ in range(int(rng.integers(1, 4)))]
        gram = sum(k.conj().T @ k for k in kraus)
        scale = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2).max())
        kraus = [k / np.sqrt(scale) for k in kraus]

        g = _ginibre((d * d_b, d * d_b), rng)
        raw = g @ g.conj().T
        raw = raw / np.trace(raw).real
        sigma = clock_invariant_state(dmap, raw, d_b)
        worst = max(worst, weak_monotonicity_violation(kraus, u, sigma))
    return worst


def check_avg_ent_relation(trials: int, rng: np.random.Generator) -> float:
    """Worst residual of F_avg = (d F_e + 1) / (d + 1) on random channels of
    dimension d = 2 or 3, with F_avg the Haar average of the input-output
    fidelity evaluated exactly: the mean over the states of a complete set
    of mutually unbiased bases, a 2-design in prime d."""
    worst = 0.0
    # the identity decoder and the full code space for each d drawn below
    eye = {d: np.eye(d, dtype=complex) for d in (2, 3)}
    schemes = {d: (Channel(d, d, (e,)), Subspace(e)) for d, e in eye.items()}
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        ch = random_channel(d, d, int(rng.integers(1, 4)), rng)
        ident, full = schemes[d]
        f_ent = ent_fidelity(ch, ident, full)
        mean = float(_pure_fidelities(ch, ident, _mub_states(d)).mean())
        # less a round-off floor of 1e-12
        worst = max(worst, abs(mean - avg_from_ent_fidelity(f_ent, d)) - 1e-12)
    return max(0.0, worst)
