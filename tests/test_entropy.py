import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, optimize

import petzlab.entropy as entropy_module
from petzlab.channel import make_channel, random_channel
from petzlab.entropy import (
    EntropyValue,
    _coherent_info_gradient,
    _entropy_bits,
    binary_entropy,
    channel_variance,
    check_collision_spectrum,
    check_duality,
    check_joint_convexity,
    coherent_info,
    collision_d2,
    dmax,
    ds_eps,
    exp2_collision,
    inv_normal_cdf,
    normal_cdf,
    reference_output,
    rel_entropy,
    rel_entropy_variance,
    von_neumann_entropy,
)
from petzlab.errors import (
    DimensionMismatchError,
    NonHermitianError,
    NotPSDError,
    OutOfRangeError,
    SupportViolationError,
)
from petzlab.linalg import hermitize, partial_trace
from petzlab.qstate import haar_unitary, keyed_stream, purify

ORACLE_ATOL = 1e-9
ICDF_ATOL = 1e-6

# fixed commuting test pair used by the scalar oracles
P_SPEC = np.array([0.5, 0.3, 0.2])
Q_SPEC = np.array([0.25, 0.25, 0.5])


def rotated_pair(p, q, seed_tag):
    """Simultaneously diagonalizable pair in a random basis."""
    u = haar_unitary(len(p), keyed_stream(0, seed_tag))
    return u @ np.diag(p) @ u.conj().T, u @ np.diag(q) @ u.conj().T


# ---------------------------------------------------------------------------
# scalar oracles on commuting pairs
# ---------------------------------------------------------------------------


def test_rel_entropy_scalar_oracle():
    rho, sig = rotated_pair(P_SPEC, Q_SPEC, "d-oracle")
    expect = float((P_SPEC * np.log2(P_SPEC / Q_SPEC)).sum())
    got = rel_entropy(rho, sig)
    assert got.support_ok
    assert got.bits == pytest.approx(expect, abs=ORACLE_ATOL)


def test_rel_entropy_variance_scalar_oracle():
    rho, sig = rotated_pair(P_SPEC, Q_SPEC, "v-oracle")
    logs = np.log2(P_SPEC / Q_SPEC)
    d_val = float((P_SPEC * logs).sum())
    expect = float((P_SPEC * (logs - d_val) ** 2).sum())
    got = rel_entropy_variance(rho, sig)
    assert got.bits == pytest.approx(expect, abs=ORACLE_ATOL)


def test_collision_scalar_oracle():
    rho, sig = rotated_pair(P_SPEC, Q_SPEC, "d2-oracle")
    lin = float((P_SPEC**2 / Q_SPEC).sum())
    assert exp2_collision(rho, sig) == pytest.approx(lin, abs=ORACLE_ATOL)
    assert collision_d2(rho, sig).bits == pytest.approx(np.log2(lin), abs=ORACLE_ATOL)


def test_dmax_scalar_oracle():
    rho, sig = rotated_pair(P_SPEC, Q_SPEC, "dmax-oracle")
    expect = float(np.log2((P_SPEC / Q_SPEC).max()))
    assert dmax(rho, sig).bits == pytest.approx(expect, abs=ORACLE_ATOL)


def test_exp2_collision_is_degree_two_homogeneous():
    rho, sig = rotated_pair(P_SPEC, Q_SPEC, "homog")
    base = exp2_collision(rho, sig)
    assert exp2_collision(2.0 * rho, sig) == pytest.approx(4.0 * base, rel=1e-12)


def test_self_divergences_vanish():
    rho, _ = rotated_pair(P_SPEC, Q_SPEC, "self")
    assert rel_entropy(rho, rho).bits == pytest.approx(0.0, abs=ORACLE_ATOL)
    assert rel_entropy_variance(rho, rho).bits == pytest.approx(0.0, abs=ORACLE_ATOL)
    assert dmax(rho, rho).bits == pytest.approx(0.0, abs=ORACLE_ATOL)


def test_tensor_power_additivity():
    rho, sig = rotated_pair(P_SPEC, Q_SPEC, "additivity")
    d1 = rel_entropy(rho, sig).bits
    d2 = rel_entropy(np.kron(rho, rho), np.kron(sig, sig)).bits
    assert d2 == pytest.approx(2.0 * d1, abs=ORACLE_ATOL)
    v1 = rel_entropy_variance(rho, sig).bits
    v2 = rel_entropy_variance(np.kron(rho, rho), np.kron(sig, sig)).bits
    assert v2 == pytest.approx(2.0 * v1, abs=ORACLE_ATOL)


def test_von_neumann_and_binary_entropy():
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
    assert binary_entropy(0.0) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# support handling
# ---------------------------------------------------------------------------


def test_support_leak_policy():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])
    val = rel_entropy(rho, sig)
    assert np.isinf(val.bits) and not val.support_ok
    with pytest.raises(SupportViolationError):
        rel_entropy_variance(rho, sig)
    with pytest.raises(SupportViolationError):
        exp2_collision(rho, sig)
    with pytest.raises(SupportViolationError):
        dmax(rho, sig)


def test_rel_entropy_supports_rank_deficient_first_argument():
    # supp(rho) inside supp(sigma) is fine even when both are singular
    rho = np.diag([1.0, 0.0, 0.0])
    sig = np.diag([0.5, 0.5, 0.0])
    assert rel_entropy(rho, sig).bits == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# spectral divergence D_s
# ---------------------------------------------------------------------------


def ds_scalar_oracle(p, q, eps):
    """Independent staircase evaluation for commuting pairs: the tail mass
    jumps by p_i at gamma = log2(p_i / q_i); the sup is the first jump whose
    cumulative mass exceeds eps."""
    t = np.log2(np.asarray(p) / np.asarray(q))
    order = np.argsort(t)
    cum = 0.0
    for i in order:
        cum += p[i]
        if cum > eps:
            return float(t[i])
    return np.inf


def test_ds_eps_equal_states_is_zero():
    rho = np.eye(2) / 2
    assert ds_eps(rho, rho, 0.5).bits == pytest.approx(0.0, abs=1e-9)


def test_ds_eps_two_level_example():
    rho = np.diag([0.5, 0.5])
    sig = np.diag([0.25, 0.75])
    assert ds_eps(rho, sig, 0.25).bits == pytest.approx(np.log2(2.0 / 3.0), abs=1e-9)
    assert ds_eps(rho, sig, 0.75).bits == pytest.approx(1.0, abs=1e-9)


def test_ds_eps_matches_scalar_oracle_on_random_commuting_pairs():
    rng = keyed_stream(0, "ds-oracle")
    for trial in range(8):
        d = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(d)) + 0.01
        p = p / p.sum()
        q = rng.dirichlet(np.ones(d)) + 0.01
        q = q / q.sum()
        u = haar_unitary(d, rng)
        rho = u @ np.diag(p) @ u.conj().T
        sig = u @ np.diag(q) @ u.conj().T
        for eps in (0.1, 0.35, 0.6, 0.9):
            expect = ds_scalar_oracle(p, q, eps)
            got = ds_eps(rho, sig, eps)
            assert got.bits == pytest.approx(expect, abs=1e-9), (trial, eps)


def test_ds_eps_subnormalized_tail_never_exceeds():
    rho = 0.5 * np.eye(2) / 2  # total mass 1/2
    sig = np.eye(2) / 2
    val = ds_eps(rho, sig, 0.75)
    assert np.isinf(val.bits) and not val.support_ok


def test_ds_eps_rejects_bad_eps():
    rho = np.eye(2) / 2
    with pytest.raises(OutOfRangeError):
        ds_eps(rho, rho, 0.0)
    with pytest.raises(OutOfRangeError):
        ds_eps(rho, rho, 1.0)


def test_ds_eps_identity_channel_jump():
    # maximally entangled state against I (x) pi: the tail statistic jumps
    # from 0 to 1 at gamma = 1, for every eps
    from petzlab.qstate import max_entangled

    phi = max_entangled(2).density().mat
    sig = np.eye(4) / 2
    for eps in (0.1, 0.5, 0.9):
        assert ds_eps(phi, sig, eps).bits == pytest.approx(1.0, abs=1e-9)


@seed(11)
@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_ds_eps_monotone_in_eps(eps):
    rho = np.diag([0.4, 0.35, 0.25])
    sig = np.diag([0.2, 0.3, 0.5])
    lo = ds_eps(rho, sig, eps).bits
    hi = ds_eps(rho, sig, min(eps + 0.04, 0.99)).bits
    assert hi >= lo - 1e-9


@seed(13)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.floats(1e-6, 1 - 1e-6))
def test_ds_eps_matches_scalar_oracle_to_round_off_on_commuting_pairs(key, d, eps):
    # the floor keeps the rotated input well conditioned: u diag(q) u† fixes a
    # small q_i only to relative accuracy 1e-16 max(q) / q_i, which at
    # q_i ~ 1e-5 alone moves log2(p_i / q_i) by several 1e-12
    rng = keyed_stream(key, "ds-commuting")
    p = rng.dirichlet(np.ones(d)) + 0.01
    p /= p.sum()
    q = rng.dirichlet(np.ones(d)) + 0.01
    q /= q.sum()
    u = haar_unitary(d, rng)
    rho = u @ np.diag(p) @ u.conj().T
    sig = u @ np.diag(q) @ u.conj().T
    assert ds_eps(rho, sig, eps).bits == pytest.approx(
        ds_scalar_oracle(p, q, eps), abs=1e-12
    )


def independent_tail(rho, sigma, gamma):
    """tr(rho P) with P onto the eigenvectors of 2^gamma sigma - rho whose
    eigenvalue is >= 0, from scipy's eigensolver."""
    w, v = linalg.eigh(2.0**gamma * sigma - rho)
    cols = v[:, w >= 0.0]
    return float(np.trace(cols.conj().T @ rho @ cols).real)


def generalized_breakpoints(rho, sigma):
    """log2 of the positive generalized eigenvalues of (rho, sigma) on the
    support of sigma, from scipy's generalized eigensolver."""
    w, v = linalg.eigh(sigma)
    keep = w > 1e-10 * w[-1]
    b = v[:, keep]
    lam = linalg.eigh(b.conj().T @ rho @ b, np.diag(w[keep]), eigvals_only=True)
    return np.log2(lam[lam > 1e-10 * lam[-1]])


TAIL_STEP = 1e-7


@seed(17)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.sampled_from(["full-rank", "singular-sigma", "pure-rho"]),
    st.floats(1e-6, 1 - 1e-6),
)
def test_ds_eps_crosses_an_independent_tail_statistic(key, d, kind, eps):
    rng = keyed_stream(key, "ds-non-commuting")
    sig = random_rank_state(d, d - 1 if kind == "singular-sigma" else d, rng)
    if kind == "singular-sigma":
        # rho inside supp(sigma)
        b = np.linalg.eigh(sig)[1][:, 1:]
        x = random_rank_state(d - 1, d - 1, rng)
        rho = b @ x @ b.conj().T
    else:
        rho = random_rank_state(d, 1 if kind == "pure-rho" else d, rng)
    got = ds_eps(rho, sig, eps)
    assert got.support_ok and np.isfinite(got.bits)
    g = got.bits
    # T stays at or below eps just left of the answer and exceeds it just
    # right of it, within a tolerance scaled to the operands
    tol = 1e-10 * max(np.abs(rho).max(), 2.0**g * np.abs(sig).max())
    assert independent_tail(rho, sig, g - TAIL_STEP) <= eps + tol
    assert independent_tail(rho, sig, g + TAIL_STEP) > eps
    # first crossing: no earlier breakpoint already carries T past eps
    for b in generalized_breakpoints(rho, sig):
        if b < g - TAIL_STEP:
            assert independent_tail(rho, sig, b) <= eps + tol


def test_ds_eps_depolarizing_term1_is_the_classical_quantile():
    # omega_RB of depolarizing:0.15:8 at I/d commutes with I (x) N(I/d) = I/d:
    # omega has eigenvalue 1 - p + p/d^2 once and p/d^2 (d^2 - 1) times
    p, d = 0.15, 8
    ch = make_channel("depolarizing", p, d)
    pi = np.eye(d) / d
    omega = reference_output(ch, pi)
    ref = np.kron(np.eye(d), ch.apply_mat(pi))
    for delta in (0.01, 0.14, 0.2, 0.9):
        small = delta < (d * d - 1) * p / d**2
        want = np.log2(d * (p / d**2 if small else 1 - p + p / d**2))
        assert ds_eps(omega, ref, delta).bits == pytest.approx(want, abs=1e-12)


def test_ds_eps_leaky_pair_crosses_past_the_last_breakpoint():
    # rho has mass 1 - lim outside supp(sigma): past the last breakpoint T
    # keeps rising toward lim, so an eps just below lim has a finite answer
    rng = keyed_stream(4, "ds-leaky")
    rho = random_rank_state(3, 3, rng)
    sig = np.diag([0.6, 0.4, 0.0])
    lim = float(np.trace(rho[:2, :2]).real)
    schur = rho[:2, :2] - np.outer(rho[:2, 2], rho[2, :2]) / rho[2, 2]
    last = np.log2(linalg.eigh(schur, sig[:2, :2], eigvals_only=True)[-1])
    assert independent_tail(rho, sig, last) < lim - 1e-3
    got = ds_eps(rho, sig, lim - 1e-3)
    assert got.support_ok and last < got.bits < np.inf
    assert independent_tail(rho, sig, got.bits - TAIL_STEP) <= lim - 1e-3
    assert independent_tail(rho, sig, got.bits + TAIL_STEP) > lim - 1e-3
    assert not ds_eps(rho, sig, lim + 1e-3).support_ok


def test_ds_eps_decomposes_a_few_times_on_both_one_shot_terms(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, real=real, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    d = 8
    ch = random_channel(d, d, 2, keyed_stream(0, "ds-count"))
    pi = np.eye(d) / d
    psi = purify(pi).density().mat
    pairs = (
        (ch.apply_to_second(psi, d), np.kron(np.eye(d), ch.apply_mat(pi))),
        (psi, np.kron(np.eye(d), pi)),
    )
    for rho, sig in pairs:
        for delta in (0.05, 0.3, 0.7):
            calls.clear()
            ds_eps(rho, sig, delta)
            assert len(calls) <= 12, (delta, len(calls))


# ---------------------------------------------------------------------------
# normal quantile function
# ---------------------------------------------------------------------------


def icdf_quadrature_oracle(eps):
    def cdf(x):
        val, _ = integrate.quad(
            lambda t: np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi), -12.0, x
        )
        return val

    return optimize.brentq(lambda v: cdf(v) - eps, -10.0, 10.0, xtol=1e-12)


def test_inv_normal_cdf_matches_quadrature_oracle():
    grid = [0.01, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99]
    for eps in grid:
        assert inv_normal_cdf(eps) == pytest.approx(
            icdf_quadrature_oracle(eps), abs=ICDF_ATOL
        ), eps


def test_inv_normal_cdf_frozen_values():
    # frozen from the quadrature oracle
    assert inv_normal_cdf(0.25) == pytest.approx(-0.6744897501960819, abs=1e-9)
    assert inv_normal_cdf(0.75) == pytest.approx(0.6744897501960814, abs=1e-9)
    assert inv_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)


def test_inv_normal_cdf_round_trip():
    for eps in (0.01, 0.2, 0.5, 0.8, 0.999):
        assert normal_cdf(inv_normal_cdf(eps)) == pytest.approx(eps, abs=1e-12)


def test_inv_normal_cdf_domain():
    with pytest.raises(OutOfRangeError):
        inv_normal_cdf(0.0)
    with pytest.raises(OutOfRangeError):
        inv_normal_cdf(1.0)


def test_inv_normal_cdf_antisymmetry():
    assert inv_normal_cdf(0.3) == pytest.approx(-inv_normal_cdf(0.7), abs=1e-12)


# ---------------------------------------------------------------------------
# channel quantities
# ---------------------------------------------------------------------------


def test_reference_output_marginals():
    ch = make_channel("dephasing", 0.2)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    omega = reference_output(ch, rho)
    # R marginal is the transpose of rho under the canonical purification
    np.testing.assert_allclose(
        partial_trace(omega, keep="B", dims=(2, 2)), ch.apply_mat(rho), atol=1e-10
    )
    assert np.trace(omega).real == pytest.approx(1.0, abs=1e-10)


def test_coherent_info_identity():
    for d in (2, 3):
        ch = make_channel("identity", d)
        assert coherent_info(ch, np.eye(d) / d) == pytest.approx(
            np.log2(d), abs=1e-10
        )


def test_coherent_info_erasure_closed_form():
    # (1 - 2p) H(rho) for the erasure channel
    rng = keyed_stream(0, "ic-erasure")
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    h = von_neumann_entropy(rho)
    for p in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
        ch = make_channel("erasure", p)
        assert coherent_info(ch, rho) == pytest.approx((1 - 2 * p) * h, abs=1e-9)


def test_coherent_info_dephasing_at_pi():
    for p in (0.05, 0.25):
        ch = make_channel("dephasing", p)
        expect = 1.0 - binary_entropy(p)
        assert coherent_info(ch, np.eye(2) / 2) == pytest.approx(expect, abs=1e-10)


def purification_ic(ch, rho):
    """H(B) - H(RB) on omega_RB, the purification sent through the channel."""
    h_b = _entropy_bits(np.linalg.eigvalsh(hermitize(ch.apply_mat(rho))))
    h_rb = _entropy_bits(np.linalg.eigvalsh(hermitize(reference_output(ch, rho))))
    return h_b - h_rb


def random_rank_state(d, rank, rng):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


IC_PATH_ATOL = 1e-12


@seed(3)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_coherent_info_matches_purification_on_random_channels(
    key, d, d_out, kraus_count, rank
):
    # rank 1 is a pure input, rank < d a rank-deficient one, rank >= d full
    if d_out * kraus_count < d:
        d_out = d
    rng = keyed_stream(key, "ic-random-channel")
    ch = random_channel(d, d_out, kraus_count, rng)
    rho = random_rank_state(d, min(rank, d), rng)
    assert coherent_info(ch, rho) == pytest.approx(
        purification_ic(ch, rho), abs=IC_PATH_ATOL
    )


@seed(5)
@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        ["erasure:0", "erasure:1", "erasure:0.5", "erasure:0.3:3",
         "identity:2", "identity:3", "identity:4", "dephasing:0.1",
         "depolarizing:0.2:3"]
    ),
    st.integers(1, 4),
)
def test_coherent_info_matches_purification_on_named_channels(key, spec, rank):
    name, *params = spec.split(":")
    ch = make_channel(name, *(float(p) for p in params))
    rng = keyed_stream(key, "ic-named-channel")
    rho = random_rank_state(ch.d_in, min(rank, ch.d_in), rng)
    assert coherent_info(ch, rho) == pytest.approx(
        purification_ic(ch, rho), abs=IC_PATH_ATOL
    )


@seed(7)
@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_coherent_info_gradient_matches_central_differences(key, d, d_out, kraus_count):
    # complex Kraus operators: on real ones a transposed N^c† gives the same G
    if d_out * kraus_count < d:
        d_out = d
    rng = keyed_stream(key, "ic-gradient")
    ch = random_channel(d, d_out, kraus_count, rng)
    # full rank keeps the output supports fixed under the perturbation
    rho = 0.5 * random_rank_state(d, d, rng) + 0.5 * np.eye(d) / d
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = g + g.conj().T
    h -= np.trace(h).real / d * np.eye(d)
    h /= np.linalg.norm(h)
    step = 1e-5
    central = (coherent_info(ch, rho + step * h) - coherent_info(ch, rho - step * h)) / (
        2 * step
    )
    grad = _coherent_info_gradient(ch, rho)
    assert np.abs(grad - grad.conj().T).max() < 1e-12
    assert np.trace(grad @ h).real == pytest.approx(central, abs=1e-7)


def test_coherent_info_does_not_build_the_purification(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("coherent_info went through omega_RB")

    monkeypatch.setattr(entropy_module, "purify", forbidden)
    monkeypatch.setattr(entropy_module, "reference_output", forbidden)
    ch = make_channel("dephasing", 0.25)
    assert coherent_info(ch, np.eye(2) / 2) == pytest.approx(
        1.0 - binary_entropy(0.25), abs=1e-12
    )


def test_coherent_info_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        coherent_info(make_channel("dephasing", 0.1), np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_coherent_info_rejects_non_psd():
    with pytest.raises(NotPSDError):
        coherent_info(make_channel("dephasing", 0.1), np.diag([1.2, -0.2]))


def test_coherent_info_accepts_round_off_below_zero():
    rho = np.diag([1.0, -1e-12])
    assert coherent_info(make_channel("identity", 2), rho) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf), complex(0, np.nan)])
def test_coherent_info_rejects_non_finite(bad):
    rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    rho[0, 0] += bad
    with pytest.raises(NotPSDError):
        coherent_info(make_channel("dephasing", 0.1), rho)


def test_coherent_info_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatchError):
        coherent_info(make_channel("erasure", 0.3, 3), np.eye(2) / 2)


def test_channel_variance_closed_forms():
    p = 0.1
    ch = make_channel("dephasing", p)
    expect = p * (1 - p) * (np.log2((1 - p) / p)) ** 2
    assert channel_variance(ch, np.eye(2) / 2) == pytest.approx(expect, abs=1e-10)
    ident = make_channel("identity", 2)
    assert channel_variance(ident, np.eye(2) / 2) == pytest.approx(0.0, abs=1e-10)


def test_erasure_half_variance_values():
    # frozen: V = 1 at the maximally mixed input, 0 at a pure input
    ch = make_channel("erasure", 0.5)
    assert channel_variance(ch, np.eye(2) / 2) == pytest.approx(1.0, abs=1e-9)
    assert channel_variance(ch, np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------


def test_duality_check_passes():
    rng = keyed_stream(1, "duality")
    assert check_duality(10, rng) < 1e-8


def test_joint_convexity_check_passes():
    rng = keyed_stream(1, "convexity")
    assert check_joint_convexity(10, rng) == 0.0


def test_collision_spectrum_check_passes():
    rng = keyed_stream(1, "spectrum")
    assert check_collision_spectrum(10, rng) == 0.0


def test_entropy_value_is_frozen():
    val = EntropyValue(1.0)
    with pytest.raises(Exception):
        val.bits = 2.0
