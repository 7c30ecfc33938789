"""Reference values computed apart from petzlab, in plain numpy.

Nothing here imports petzlab. Channels are stacks of Kraus operators of
shape (K, d_out, d_in); states are dense matrices; logarithms are base 2.
Each function states the property or closed form it checks against.
"""

from __future__ import annotations

import math
import statistics
import zlib

import numpy as np

SUPPORT_RTOL = 1e-10


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def h2(p: float) -> float:
    """Binary entropy in bits."""
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def erasure_ic(p: float, d: int) -> float:
    return (1 - 2 * p) * math.log2(d)


def erasure_var(p: float, d: int) -> float:
    return 4 * p * (1 - p) * math.log2(d) ** 2


def dephasing_ic(p: float) -> float:
    return 1 - h2(p)


def dephasing_var(p: float) -> float:
    return p * (1 - p) * math.log2((1 - p) / p) ** 2


def normal_quantile(eps: float) -> float:
    return statistics.NormalDist().inv_cdf(eps)


# ---------------------------------------------------------------------------
# channels and states
# ---------------------------------------------------------------------------


def kraus_identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)[None]


def kraus_erasure(p: float, d: int) -> np.ndarray:
    """Kraus stack of the d-dimensional erasure channel; flag is basis d."""
    ks = np.zeros((d + 1, d + 1, d), dtype=complex)
    ks[0, :d, :] = math.sqrt(1 - p) * np.eye(d)
    ks[1 + np.arange(d), d, np.arange(d)] = math.sqrt(p)
    return ks


def kraus_depolarizing(p: float, d: int) -> np.ndarray:
    ks = np.zeros((1 + d * d, d, d), dtype=complex)
    ks[0] = math.sqrt(1 - p) * np.eye(d)
    idx = np.arange(d * d)
    ks[1 + idx, idx // d, idx % d] = math.sqrt(p / d)
    return ks


def random_kraus(d_in: int, d_out: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Channel from a Haar-random isometry C^d_in -> C^d_out (x) C^count.

    For d_in = d_out it is almost surely not unital.
    """
    g = rng.standard_normal((d_out * count, d_in)) + 1j * rng.standard_normal((d_out * count, d_in))
    q, _ = np.linalg.qr(g)
    return q.reshape(count, d_out, d_in)


def kraus_to_json(ks: np.ndarray) -> dict:
    """The channel file schema: {"d_in", "d_out", "kraus": [[[re, im], ...]]}."""
    return {
        "d_in": int(ks.shape[2]),
        "d_out": int(ks.shape[1]),
        "kraus": [[[[float(z.real), float(z.imag)] for z in row] for row in k] for k in ks],
    }


def apply(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("koi,ij,kpj->op", ks, x, ks.conj())


def apply_second(ks: np.ndarray, x: np.ndarray, left: int) -> np.ndarray:
    """(id_left (x) N)(x) for an operator x on C^left (x) C^d_in."""
    d_in, d_out = ks.shape[2], ks.shape[1]
    t = x.reshape(left, d_in, left, d_in)
    out = np.einsum("koi,aibj,kpj->aobp", ks, t, ks.conj())
    return out.reshape(left * d_out, left * d_out)


def psd_fn(x: np.ndarray, fn) -> np.ndarray:
    """fn applied to the eigenvalues of a PSD matrix on its support, 0 off it."""
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    keep = w > SUPPORT_RTOL * max(float(w[-1]), 0.0)
    fw = np.zeros_like(w)
    fw[keep] = fn(w[keep])
    return (v * fw) @ v.conj().T


def reference_state(ks: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """omega_RB = (id (x) N)(psi), psi the purification sum_i sqrt(rho)|i>|i>."""
    d = rho.shape[0]
    psi = psd_fn(rho, np.sqrt).T.reshape(d * d)
    return apply_second(ks, np.outer(psi, psi.conj()), d)


def rel_entropy_variance(rho: np.ndarray, sigma: np.ndarray) -> float:
    delta = psd_fn(rho, np.log2) - psd_fn(sigma, np.log2)
    mean = np.trace(rho @ delta).real
    return float(np.trace(rho @ delta @ delta).real - mean * mean)


def channel_variance(ks: np.ndarray, rho: np.ndarray) -> float:
    """Variance of omega_RB against I_R (x) N(rho)."""
    d = rho.shape[0]
    sigma = np.kron(np.eye(d), apply(ks, rho))
    return rel_entropy_variance(reference_state(ks, rho), sigma)


def erasure_vmax(p: float = 0.5) -> tuple[float, float]:
    """Largest channel variance of the qubit erasure channel over all inputs.

    The channel is unitarily covariant, so the variance depends on the input
    only through its spectrum (lam, 1 - lam); a scan over lam in (0, 1/2]
    followed by golden-section refinement finds the maximum.
    """
    ks = kraus_erasure(p, 2)

    def var(lam: float) -> float:
        return channel_variance(ks, np.diag([lam, 1 - lam]).astype(complex))

    grid = np.linspace(1e-4, 0.5, 501)
    vals = [var(x) for x in grid]
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    r = (math.sqrt(5) - 1) / 2
    while b - a > 1e-10:
        c, d = b - r * (b - a), a + r * (b - a)
        if var(c) > var(d):
            b = d
        else:
            a = c
    lam = 0.5 * (a + b)
    return var(lam), lam


# ---------------------------------------------------------------------------
# random codes and the transpose-channel decoder
# ---------------------------------------------------------------------------


def keyed_rng(seed: int, tag: str, index: int) -> np.random.Generator:
    """The documented keyed-stream contract: Philox seeded by
    (seed, crc32(tag), index)."""
    mask = (1 << 64) - 1
    ss = np.random.SeedSequence([seed & mask, zlib.crc32(tag.encode()), index & mask])
    return np.random.Generator(np.random.Philox(ss))


def haar_projector(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-m projector onto the first m columns of a Haar unitary (QR of a
    complex Ginibre matrix, real part drawn first)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g / math.sqrt(2))
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    v = (q * ph)[:, :m]
    return v @ v.conj().T


def code_sample_projector(seed: int, index: int, d: int, m: int) -> np.ndarray:
    return haar_projector(d, m, keyed_rng(seed, "code-sample", index))


def petz_fe(ks: np.ndarray, rho: np.ndarray, projector: np.ndarray) -> float:
    """Entanglement fidelity of the code S = sqrt(d rho) P sqrt(d rho) under
    N, decoded by R(X) = S^1/2 N^dag(N(S)^-1/2 X N(S)^-1/2) S^1/2.

    F_e = sum_jk |tr(W^dag R_j N_k W)|^2 / m^2 over an orthonormal basis W of
    supp S, with R_j = S^1/2 N_j^dag N(S)^-1/2. The completion of R adds
    nothing: N_k W lies inside supp N(S).
    """
    d = rho.shape[0]
    sq = psd_fn(d * rho, np.sqrt)
    s = sq @ projector @ sq
    w, v = np.linalg.eigh((s + s.conj().T) / 2)
    basis = v[:, w > SUPPORT_RTOL * w[-1]]
    m = basis.shape[1]
    ns_mh = psd_fn(apply(ks, s), lambda x: x ** -0.5)
    a = np.einsum("op,kpi,im->kom", ns_mh, ks, basis).reshape(len(ks), -1)
    b = np.einsum("kpi,ij,jm->kpm", ks, psd_fn(s, np.sqrt), basis).reshape(len(ks), -1)
    g = b.conj() @ a.T
    return float((np.abs(g) ** 2).sum() / m**2)


# ---------------------------------------------------------------------------
# information spectrum
# ---------------------------------------------------------------------------


def commuting_ds(rho: np.ndarray, sigma: np.ndarray, delta: float) -> float:
    """sup{g : tr(rho {rho <= 2^g sigma}) <= delta} for commuting rho, sigma.

    In a joint eigenbasis this is the classical quantile: the smallest
    log-ratio log2(p_i / q_i) at which the p-weighted cumulative sum exceeds
    delta. Raises ValueError if the pair does not commute.
    """
    w, v = np.linalg.eigh(rho + math.pi / 7 * sigma)
    pr = v.conj().T @ rho @ v
    ps = v.conj().T @ sigma @ v
    off = max(np.abs(pr - np.diag(np.diag(pr))).max(), np.abs(ps - np.diag(np.diag(ps))).max())
    if off > 1e-9:
        raise ValueError(f"pair does not commute (off-diagonal {off:.2e})")
    p, q = np.diag(pr).real, np.diag(ps).real
    keep = p > SUPPORT_RTOL * p.max()
    ratio = np.log2(p[keep] / q[keep])
    order = np.argsort(ratio)
    cum = np.cumsum(p[keep][order])
    return float(ratio[order][np.searchsorted(cum, delta, side="right")])


def dmax(rho: np.ndarray, sigma: np.ndarray) -> float:
    """log2 of the top eigenvalue of sigma^-1/2 rho sigma^-1/2."""
    s_mh = psd_fn(sigma, lambda x: x ** -0.5)
    m = s_mh @ rho @ s_mh
    return float(np.log2(np.linalg.eigvalsh((m + m.conj().T) / 2)[-1]))


def tail_stat(rho: np.ndarray, sigma: np.ndarray, gamma: float) -> float:
    """tr(rho P) with P the projector onto the non-negative eigenspace of
    2^gamma sigma - rho."""
    h = 2.0**gamma * sigma - rho
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    cols = v[:, w >= -1e-12 * max(np.abs(w).max(), 1e-300)]
    return float(np.einsum("ic,ij,jc->", cols.conj(), rho, cols).real)
