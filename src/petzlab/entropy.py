"""Entropic quantities, all in bits (base-2 logarithms).

Relative entropy and its variance, collision (Renyi-2) relative entropy,
max-relative entropy, the information spectrum relative entropy, the inverse
normal CDF, and channel-level coherent information and variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import (
    DimensionMismatchError,
    OutOfRangeError,
    SupportViolationError,
)
from .linalg import (
    PsdSpectrum,
    as_matrix,
    hermitian_fn,
    hermitize,
    psd_spectrum,
    require_psd,
    support_mask,
)
from .qstate import purify

# admissible relative leakage of rho outside the support of sigma
SUPPORT_LEAK_RTOL = 1e-9
# xtol of the root-finder that locates a ds_eps crossing inside a segment
DS_EPS_RESOLUTION = 1e-12


@dataclass(frozen=True)
class EntropyValue:
    """Entropy result in bits.

    support_ok=False means the support condition failed and bits carries the
    +inf sentinel. diagnostics collects non-fatal warnings.
    """

    bits: float
    support_ok: bool = True
    diagnostics: tuple[str, ...] = ()


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    r = as_matrix(rho)
    s = as_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"shapes {r.shape} and {s.shape} differ")
    return r, s


def _support_pair(rho, sigma) -> tuple[np.ndarray, PsdSpectrum, bool]:
    """rho as a matrix, the one decomposition of sigma, and whether the mass
    of rho outside supp(sigma), relative to tr(rho), exceeds
    SUPPORT_LEAK_RTOL."""
    r, s = _pair(rho, sigma)
    sig = psd_spectrum(s)
    k = sig.kernel()
    leak = float(np.vdot(k, r @ k).real) / max(float(np.trace(r).real), 1e-300)
    return r, sig, leak > SUPPORT_LEAK_RTOL


def von_neumann_entropy(rho) -> float:
    """Entropy -tr(rho log2 rho) in bits."""
    w = np.linalg.eigvalsh(hermitize(rho))
    return _entropy_bits(w)


def _entropy_bits(eigs: np.ndarray) -> float:
    w = eigs[support_mask(eigs)]
    return float(-(w * np.log2(w)).sum())


def binary_entropy(p: float) -> float:
    """Shannon entropy of a coin with bias p, in bits."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRangeError(f"probability {p!r} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def rel_entropy(rho, sigma) -> EntropyValue:
    """Relative entropy tr[rho (log2 rho - log2 sigma)] with logs on supports.

    A support violation is signaled in the value: bits = +inf, support_ok
    False. sigma may be any positive semidefinite operator.
    """
    r, sig, leaks = _support_pair(rho, sigma)
    if leaks:
        return EntropyValue(math.inf, False)
    delta = hermitian_fn(r, np.log2, on_support=True) - sig.fn(np.log2, on_support=True)
    return EntropyValue(float(np.trace(r @ delta).real), True)


def rel_entropy_variance(rho, sigma) -> EntropyValue:
    """Relative entropy variance tr[rho (log2 rho - log2 sigma)^2] - D^2."""
    r, sig, leaks = _support_pair(rho, sigma)
    if leaks:
        raise SupportViolationError("rho has support outside supp(sigma)")
    delta = hermitian_fn(r, np.log2, on_support=True) - sig.fn(np.log2, on_support=True)
    d_bits = float(np.trace(r @ delta).real)
    v_bits = float(np.trace(r @ delta @ delta).real) - d_bits * d_bits
    return EntropyValue(v_bits, True)


def exp2_collision(rho, sigma) -> float:
    """Linear-scale collision divergence tr(sigma^{-1/2} rho sigma^{-1/2} rho).

    The inverse square root is taken on the support of sigma. The first
    argument may be any positive semidefinite operator (not necessarily
    normalized); the value scales quadratically with it.
    """
    r, sig, leaks = _support_pair(rho, sigma)
    if leaks:
        raise SupportViolationError("rho has support outside supp(sigma)")
    s_inv_half = sig.fn(lambda x: x ** -0.5, on_support=True)
    m = s_inv_half @ r @ s_inv_half
    return float(np.trace(m @ r).real)


def collision_d2(rho, sigma) -> EntropyValue:
    """Collision (Renyi-2) relative entropy log2 tr(sigma^{-1/2} rho
    sigma^{-1/2} rho)."""
    return EntropyValue(float(np.log2(exp2_collision(rho, sigma))), True)


def dmax(rho, sigma) -> EntropyValue:
    """Max-relative entropy log2 of the top eigenvalue of
    sigma^{-1/2} rho sigma^{-1/2}; the least lam with rho <= 2^lam sigma."""
    r, sig, leaks = _support_pair(rho, sigma)
    if leaks:
        raise SupportViolationError("rho has support outside supp(sigma)")
    s_inv_half = sig.fn(lambda x: x ** -0.5, on_support=True)
    m = s_inv_half @ r @ s_inv_half
    top = float(np.linalg.eigvalsh((m + m.conj().T) / 2).max())
    return EntropyValue(float(np.log2(top)), True)


# ---------------------------------------------------------------------------
# information spectrum relative entropy
# ---------------------------------------------------------------------------


def _tail_stat(r: np.ndarray, s: np.ndarray, gamma: float) -> tuple[float, float]:
    """T(gamma) = tr(rho P), P onto the eigenvectors of 2^gamma sigma - rho
    with eigenvalue >= -tol, and its left limit T(gamma-), which leaves out
    the null ones (|eigenvalue| <= tol); tol = 1e-12 max(2^gamma |s|, |r|)."""
    t = 2.0 ** gamma
    w, v = np.linalg.eigh(t * s - r)
    mass = (v.conj() * (r @ v)).sum(0).real
    tol = 1e-12 * max(t * float(np.abs(s).max()), float(np.abs(r).max()))
    return float(mass[w >= -tol].sum()), float(mass[w > tol].sum())


def _breakpoints(r: np.ndarray, sig: PsdSpectrum, leaks: bool) -> np.ndarray:
    """Ascending log2 of the positive generalized eigenvalues of (rho, sigma),
    merged within 1e-13: the eigenvalues of Σ^{-1/2} B†ρB Σ^{-1/2}, with B the
    support basis of sigma and Σ its positive eigenvalues. When rho leaks onto
    ker sigma, the Schur complement ρ₁₁ - ρ₁₂ρ₂₂⁺ρ₂₁ replaces B†ρB."""
    b = sig.basis()
    m = b.conj().T @ r @ b
    if leaks:
        k = sig.kernel()
        r12 = b.conj().T @ r @ k
        r22 = psd_spectrum(k.conj().T @ r @ k)
        m = m - r12 @ r22.fn(np.reciprocal, on_support=True) @ r12.conj().T
    inv_half = sig.eigenvalues[sig.support] ** -0.5
    w = np.linalg.eigvalsh(inv_half[:, None] * m * inv_half)
    bps = np.log2(w[support_mask(w)])
    return bps[np.diff(bps, prepend=-np.inf) > 1e-13]


def _segment_root(r, s, eps: float, a, t_a, b: float, t_b: float) -> float:
    """Root of T - eps on [a, b], T continuous, T(a) = t_a <= eps < t_b = T(b-);
    with a None, first step left of b by 8 bits, up to 80 times, to T <= eps."""
    if a is None:
        for a in b - 1.0 - 8.0 * np.arange(80):
            t_a = _tail_stat(r, s, a)[0]
            if t_a <= eps:
                break
        else:
            raise OutOfRangeError("tail statistic does not drop below eps")
    known = {a: t_a, b: t_b}
    excess = lambda g: (known[g] if g in known else _tail_stat(r, s, g)[0]) - eps  # noqa: E731
    return float(optimize.brentq(excess, a, b, xtol=DS_EPS_RESOLUTION))


def ds_eps(rho, sigma, eps: float) -> EntropyValue:
    """Information spectrum relative entropy
    sup{gamma : tr(rho {rho <= 2^gamma sigma}) <= eps}.

    {X <= Y} is the projector onto the non-negative eigenspace of Y - X, so
    the tail statistic T is right-continuous; it jumps only at the
    _breakpoints, scanned upward until T > eps. A jump across eps returns the
    breakpoint; a crossing inside a segment is found by Brent's method to
    DS_EPS_RESOLUTION. Past the last breakpoint T is constant unless rho
    leaks off supp(sigma); then it rises toward tr(B†ρB), and below that the
    scan steps out by 8 bits, up to 16 times. +inf: T never exceeds eps. A
    non-monotone scan is reported in the diagnostics; the first crossing counts.
    """
    if not 0.0 < eps < 1.0:
        raise OutOfRangeError(f"eps {eps!r} outside (0, 1)")
    r, s = (hermitize(x) for x in _pair(rho, sigma))
    _, sig, leaks = _support_pair(r, s)
    if sig.rank == 0 or not float(np.trace(r).real) > 0.0:
        raise OutOfRangeError("both operators must be nonzero")
    bps = _breakpoints(r, sig, leaks)
    if leaks and eps < float(np.vdot(sig.basis(), r @ sig.basis()).real):
        last = bps[-1] if bps.size else 0.0
        bps = np.concatenate((bps, last + 1.0 + 8.0 * np.arange(17)))
    diagnostics: tuple[str, ...] = ()
    lo = t_lo = None
    for g in bps:
        t, left = _tail_stat(r, s, g)
        if t_lo is not None and left < t_lo - 1e-10 and not diagnostics:
            diagnostics = ("tail statistic not monotone on the scan grid",)
        if t > eps:
            if left > eps:
                g = _segment_root(r, s, eps, lo, t_lo, g, left)
            return EntropyValue(float(g), True, diagnostics)
        lo, t_lo = g, t
    return EntropyValue(math.inf, False, ("tail never exceeds eps",))


# ---------------------------------------------------------------------------
# inverse normal CDF
# ---------------------------------------------------------------------------

_ICDF_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ICDF_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ICDF_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ICDF_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _icdf_rational(p: float) -> float:
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (
        (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
    ) / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def inv_normal_cdf(eps: float) -> float:
    """Inverse standard normal CDF on (0, 1).

    A high-accuracy rational approximation refined by one Newton step against
    the CDF; odd symmetry holds to near machine precision.
    """
    if not 0.0 < eps < 1.0:
        raise OutOfRangeError(f"eps {eps!r} outside (0, 1)")
    x = _icdf_rational(eps)
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if pdf > 1e-300:
        x -= (normal_cdf(x) - eps) / pdf
    return x


# ---------------------------------------------------------------------------
# channel-level quantities
# ---------------------------------------------------------------------------


def reference_output(ch, rho) -> np.ndarray:
    """omega_RB: the channel applied to the second half of the canonical
    purification of rho, the reference system first."""
    r = as_matrix(rho)
    if r.shape[0] != ch.d_in:
        raise DimensionMismatchError(
            f"state dimension {r.shape[0]} != channel input {ch.d_in}"
        )
    psi = purify(r)
    return ch.apply_to_second(psi.density().mat, r.shape[0])


def coherent_info(ch, rho) -> float:
    """Coherent information I_c = H(B) - H(RB) of the channel at the input
    state rho, in bits.

    Evaluated through the complementary channel as H(N(rho)) - H(N^c(rho)),
    where N^c(rho)[k, l] = tr(K_k rho K_l†) is the environment's state. The
    purification of rho on R (x) A, sent through the Stinespring isometry,
    is a pure state on R (x) B (x) E, so H(RB) = H(E); this needs the
    spectra of a d_out x d_out and an r x r matrix (r Kraus operators)
    instead of the (d_in d_out)^2 state omega_RB. rho is validated once:
    it must be Hermitian, finite, of dimension ch.d_in, and positive
    semidefinite within the band of linalg.require_psd.
    """
    out, env = _output_and_environment(ch, rho)
    return _entropy_bits(np.linalg.eigvalsh(out)) - _entropy_bits(
        np.linalg.eigvalsh(env)
    )


def _output_and_environment(ch, rho) -> tuple[np.ndarray, np.ndarray]:
    """N(rho) and N^c(rho)[k, l] = tr(K_k rho K_l†) for a validated rho."""
    r = as_matrix(rho)
    if r.shape[0] != ch.d_in:
        raise DimensionMismatchError(
            f"state dimension {r.shape[0]} != channel input {ch.d_in}"
        )
    r = hermitize(r)
    w = np.linalg.eigvalsh(r)
    require_psd(float(w[0]), float(w[-1]))
    k = ch.kraus_stack
    kr = k @ r
    out = (kr @ k.conj().transpose(0, 2, 1)).sum(0)
    env = kr.reshape(len(k), -1) @ k.reshape(len(k), -1).conj().T
    return out, env


def _coherent_info_gradient(ch, rho) -> np.ndarray:
    """Gradient G of coherent_info at rho: d I_c = tr(G X) along a traceless
    Hermitian X. G = N^c†(log2 N^c(rho)) - N†(log2 N(rho)), with the logs on
    the supports and N^c†(L) = Σ_kl L[l, k] K_l† K_k. With the Kraus stack
    as the Stinespring isometry V (shape r d_out x d_in), that is
    G = V† (L_E (x) I - I (x) L_B) V. The 1/ln 2 terms cancel because
    N†(I) = N^c†(I) = Σ_k K_k† K_k."""
    out, env = _output_and_environment(ch, rho)
    log_out = psd_spectrum(out).fn(np.log2, on_support=True)
    log_env = psd_spectrum(env).fn(np.log2, on_support=True)
    k = ch.kraus_stack
    v = k.reshape(-1, ch.d_in)
    g = np.kron(log_env, np.eye(ch.d_out)) - np.kron(np.eye(len(k)), log_out)
    return v.conj().T @ g @ v


def channel_variance(ch, rho) -> float:
    """Relative entropy variance of omega_RB from I_R (x) omega_B."""
    r = as_matrix(rho)
    omega = reference_output(ch, r)
    ref = np.kron(np.eye(r.shape[0]), ch.apply_mat(r))
    return rel_entropy_variance(omega, ref).bits


# ---------------------------------------------------------------------------
# verification helpers: duality, convexity, collision-vs-spectrum
# ---------------------------------------------------------------------------


def _random_state_mat(d: int, rng: np.random.Generator, floor: float = 0.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T + floor * np.eye(d)
    return m / np.trace(m).real


def check_duality(trials: int, rng: np.random.Generator) -> float:
    """Residual of conditional-entropy duality on random tripartite pure
    states: D(rho_AB || I (x) rho_B) = -D(rho_AC || I (x) rho_C), and the
    corresponding variances agree."""
    worst = 0.0
    for _ in range(trials):
        d_a = int(rng.integers(2, 4))
        d_b = int(rng.integers(2, 4))
        d_c = int(rng.integers(2, 4))
        g = rng.standard_normal(d_a * d_b * d_c) + 1j * rng.standard_normal(
            d_a * d_b * d_c
        )
        g = g / np.linalg.norm(g)
        full = np.outer(g, g.conj())
        t = full.reshape(d_a, d_b, d_c, d_a, d_b, d_c)
        rho_ab = np.einsum("abcdec->abde", t).reshape(d_a * d_b, d_a * d_b)
        rho_ac = np.einsum("abcdbf->acdf", t).reshape(d_a * d_c, d_a * d_c)
        rho_b = np.einsum("abcaec->be", t)
        rho_c = np.einsum("abcabf->cf", t)

        d_forward = rel_entropy(rho_ab, np.kron(np.eye(d_a), rho_b)).bits
        d_backward = rel_entropy(rho_ac, np.kron(np.eye(d_a), rho_c)).bits
        worst = max(worst, abs(d_forward + d_backward))

        v_forward = rel_entropy_variance(rho_ab, np.kron(np.eye(d_a), rho_b)).bits
        v_backward = rel_entropy_variance(rho_ac, np.kron(np.eye(d_a), rho_c)).bits
        worst = max(worst, abs(v_forward - v_backward))
    return worst


def check_joint_convexity(trials: int, rng: np.random.Generator) -> float:
    """Violation of joint convexity of the exponential collision divergence
    on random mixtures of up to four components."""
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        lam = rng.dirichlet(np.ones(k))
        rhos = [_random_state_mat(d, rng) for _ in range(k)]
        sigmas = [_random_state_mat(d, rng, floor=0.05) for _ in range(k)]
        mix_r = sum(l * r for l, r in zip(lam, rhos))
        mix_s = sum(l * s for l, s in zip(lam, sigmas))
        lhs = exp2_collision(mix_r, mix_s)
        rhs = sum(l * exp2_collision(r, s) for l, r, s in zip(lam, rhos, sigmas))
        worst = max(worst, lhs - rhs)
    return max(0.0, worst)


def check_collision_spectrum(trials: int, rng: np.random.Generator) -> float:
    """Violation of the lower bound on the collision divergence against a
    mixture, in terms of the information spectrum quantity:
    exp2 D2(rho || lam rho + (1 - lam) sigma) >=
    (1 - eps) / (lam + (1 - lam) 2^{-Ds_eps(rho || sigma)})."""
    worst = 0.0
    eps_grid = (0.1, 0.3, 0.6, 0.9)
    lam_grid = (0.05, 0.3, 0.7, 0.95)
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        r = _random_state_mat(d, rng)
        s = _random_state_mat(d, rng, floor=0.05)
        eps = float(rng.choice(eps_grid))
        lam = float(rng.choice(lam_grid))
        mix = lam * r + (1.0 - lam) * s
        lhs = exp2_collision(r, mix)
        ds = ds_eps(r, s, eps).bits
        rhs = (1.0 - eps) / (lam + (1.0 - lam) * 2.0 ** (-ds))
        worst = max(worst, rhs - lhs)
    return max(0.0, worst)
