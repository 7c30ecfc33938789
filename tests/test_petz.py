import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from petzlab.channel import Channel, make_channel, random_channel
from petzlab.errors import (
    BadParameterError,
    BadProjectorError,
    DimensionMismatchError,
    EmptyCodeError,
    NotInvariantError,
    NotUnitaryError,
    RankDeficientRhoError,
)
from petzlab.entropy import exp2_collision, rel_entropy
from petzlab.linalg import (
    hermitian_eig,
    hermitian_fn,
    hermitize,
    kernel_basis,
    support_basis,
    support_projector,
)
from petzlab.petz import (
    CodeSpec,
    DephasingMap,
    avg_fidelity_mc,
    build_code,
    check_avg_ent_relation,
    check_dephasing_identities,
    check_weak_monotonicity,
    clock_invariant_state,
    code_max_entangled,
    dephasing_map,
    ent_fidelity,
    petz_decoder,
    random_code_experiment,
    weak_monotonicity_violation,
)
from petzlab.qstate import (
    DensityMatrix,
    Subspace,
    haar_projector,
    haar_state_in,
    haar_unitary,
    keyed_stream,
    max_entangled,
)

DECODER_ATOL = 1e-8
IDENTITY_ATOL = 1e-10


def conditioned_state(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T + 0.1 * np.eye(d)
    return DensityMatrix(mat / np.trace(mat).real)


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------


def test_build_code_mixed_input_projector():
    # maximally mixed input: the code operator reduces to the projector
    rng = keyed_stream(0, "code-pi")
    d, m = 4, 2
    rho = DensityMatrix(np.eye(d) / d)
    p = haar_projector(d, m, rng)
    code = build_code(rho, p)
    np.testing.assert_allclose(code.s, p, atol=1e-10)
    assert code.m == m


def test_build_code_full_projector():
    rng = keyed_stream(0, "code-full")
    d = 3
    rho = conditioned_state(d, rng)
    code = build_code(rho, np.eye(d))
    np.testing.assert_allclose(code.s, d * rho.mat, atol=1e-10)
    assert code.m == d


def test_build_code_rank_one_normalized():
    rng = keyed_stream(0, "code-rank1")
    rho = conditioned_state(2, rng)
    p = haar_projector(2, 1, rng)
    code = build_code(rho, p)
    assert code.m == 1
    assert np.linalg.norm(code.code_basis.basis[:, 0]) == pytest.approx(1.0, abs=1e-10)
    assert code.code_basis.basis.shape == (2, 1)


def test_build_code_basis_spans_code_operator():
    rng = keyed_stream(0, "code-span")
    d, m = 4, 2
    rho = conditioned_state(d, rng)
    code = build_code(rho, haar_projector(d, m, rng))
    w = code.code_basis.basis
    pi_s = support_projector(code.s)
    np.testing.assert_allclose(w @ w.conj().T, pi_s, atol=1e-8)


def test_build_code_rejects_rank_deficient_rho():
    with pytest.raises(RankDeficientRhoError):
        build_code(DensityMatrix(np.diag([1.0, 0.0])), np.eye(2))


def test_build_code_rejects_non_projector():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(BadProjectorError):
        build_code(rho, np.diag([0.5, 0.5]))


def test_build_code_rejects_empty_projector():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(EmptyCodeError):
        build_code(rho, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# decoder contract
# ---------------------------------------------------------------------------


def test_identity_channel_decodes_perfectly():
    rng = keyed_stream(0, "dec-ident")
    d, m = 3, 2
    ch = make_channel("identity", d)
    code = build_code(conditioned_state(d, rng), haar_projector(d, m, rng))
    dec = petz_decoder(ch, code)
    assert ent_fidelity(ch, dec.total, code.code_basis) == pytest.approx(
        1.0, abs=IDENTITY_ATOL
    )


def test_decoder_total_is_trace_preserving():
    rng = keyed_stream(0, "dec-tp")
    for trial in range(5):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, d + 1))
        ch = random_channel(d, d, 2, rng)
        code = build_code(conditioned_state(d, rng), haar_projector(d, m, rng))
        dec = petz_decoder(ch, code)
        gram = sum(k.conj().T @ k for k in dec.total.kraus)
        assert np.abs(gram - np.eye(d)).max() < DECODER_ATOL, trial


def test_decoder_recovers_code_operator_exactly():
    # D(N(S)) = S is the defining algebraic identity of the construction
    rng = keyed_stream(0, "dec-fix")
    for trial in range(5):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, d + 1))
        ch = random_channel(d, d, 2, rng)
        code = build_code(conditioned_state(d, rng), haar_projector(d, m, rng))
        dec = petz_decoder(ch, code)
        ns = ch.apply_mat(code.s)
        np.testing.assert_allclose(
            dec.total.apply_mat(ns), code.s, atol=DECODER_ATOL
        ), trial


def test_base_map_trace_equals_projected_trace():
    # tr(base(X)) = tr(X P) where P projects on the support of N(S)
    rng = keyed_stream(0, "dec-base")
    d, m = 3, 2
    ch = make_channel("erasure", 0.5)
    d_out = ch.d_out
    code = build_code(conditioned_state(2, rng), haar_projector(2, m, rng))
    dec = petz_decoder(ch, code)
    proj = support_projector(ch.apply_mat(code.s))
    for _ in range(5):
        g = rng.standard_normal((d_out, d_out)) + 1j * rng.standard_normal(
            (d_out, d_out)
        )
        x = g @ g.conj().T
        lhs = np.trace(dec.base.apply_mat(x)).real
        rhs = np.trace(x @ proj).real
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_decoder_outputs_stay_in_code_support():
    rng = keyed_stream(0, "dec-supp")
    d, m = 4, 2
    ch = random_channel(d, d, 2, rng)
    code = build_code(conditioned_state(d, rng), haar_projector(d, m, rng))
    dec = petz_decoder(ch, code)
    pi_s = support_projector(code.s)
    comp = np.eye(d) - pi_s
    for _ in range(5):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = g @ g.conj().T
        x = x / np.trace(x).real
        out = dec.total.apply_mat(x)
        assert np.abs(comp @ out @ comp).max() < 1e-9


def test_completion_state_outside_support_rejected():
    rng = keyed_stream(0, "dec-tau")
    d, m = 3, 1
    ch = make_channel("identity", d)
    code = build_code(conditioned_state(d, rng), haar_projector(d, m, rng))
    # rank-1 code: any state orthogonal to it leaks outside the support
    w = code.code_basis.basis[:, 0]
    q, _ = np.linalg.qr(
        np.column_stack([w, np.eye(d, dtype=complex)[:, :2]])
    )
    perp = q[:, 1]
    tau = DensityMatrix(np.outer(perp, perp.conj()))
    with pytest.raises(BadParameterError):
        petz_decoder(ch, code, completion_state=tau)


def test_custom_completion_state_accepted():
    rng = keyed_stream(0, "dec-tau2")
    d, m = 3, 2
    ch = random_channel(d, d, 2, rng)
    code = build_code(conditioned_state(d, rng), haar_projector(d, m, rng))
    w = code.code_basis.basis[:, 0]
    tau = DensityMatrix(np.outer(w, w.conj()))
    dec = petz_decoder(ch, code, completion_state=tau)
    gram = sum(k.conj().T @ k for k in dec.total.kraus)
    assert np.abs(gram - np.eye(d)).max() < DECODER_ATOL
    np.testing.assert_allclose(
        dec.total.apply_mat(ch.apply_mat(code.s)), code.s, atol=DECODER_ATOL
    )


def test_default_completion_is_normalized_code_operator():
    rng = keyed_stream(0, "dec-tau3")
    ch = make_channel("erasure", 0.3)
    code = build_code(conditioned_state(2, rng), haar_projector(2, 2, rng))
    dec = petz_decoder(ch, code)
    np.testing.assert_allclose(
        dec.completion_state.mat, code.s / np.trace(code.s).real, atol=1e-12
    )


# ---------------------------------------------------------------------------
# closed-form fidelities
# ---------------------------------------------------------------------------


def test_full_erasure_fidelity_at_most_inverse_m():
    rng = keyed_stream(0, "fid-erase1")
    for m in (1, 2):
        ch = make_channel("erasure", 1.0)
        code = build_code(conditioned_state(2, rng), haar_projector(2, m, rng))
        dec = petz_decoder(ch, code)
        f = ent_fidelity(ch, dec.total, code.code_basis)
        assert f <= 1.0 / m + 1e-9


def test_half_erasure_two_dim_code_fidelity():
    # (1 - p) + p / m^2 at p = 1/2, m = 2 with the trivial full code
    ch = make_channel("erasure", 0.5)
    rho = DensityMatrix(np.eye(2) / 2)
    code = build_code(rho, np.eye(2))
    dec = petz_decoder(ch, code)
    f = ent_fidelity(ch, dec.total, code.code_basis)
    assert f == pytest.approx(0.625, abs=1e-9)


def test_code_max_entangled_reduces_to_mixed():
    rng = keyed_stream(0, "mes")
    d, m = 4, 2
    sub = Subspace(haar_unitary(d, rng)[:, :m])
    phi = code_max_entangled(sub)
    rho = phi.density().mat
    red = rho.reshape(m, d, m, d).trace(axis1=1, axis2=3)
    np.testing.assert_allclose(red, np.eye(m) / m, atol=1e-12)


FIDELITY_PATH_ATOL = 1e-12

# (key, d, d_out, kraus_count, m) for a random channel and code
random_scheme = given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 4),
)


@seed(11)
@settings(max_examples=60, deadline=None)
@random_scheme
def test_ent_fidelity_matches_choi_state_reference(key, d, d_out, kraus_count, m):
    # reference: <phi| (id (x) R N)(phi) |phi> on the code's maximally
    # entangled state, for the total decoder and its trace-decreasing base
    m = min(m, d)
    kraus_count = max(kraus_count, -(-d // d_out))
    rng = keyed_stream(key, "fe-choi-reference")
    ch = random_channel(d, d_out, kraus_count, rng)
    code = build_code(conditioned_state(d, rng), haar_projector(d, m, rng))
    dec = petz_decoder(ch, code)
    phi = code_max_entangled(code.code_basis)
    sent = ch.apply_to_second(phi.density().mat, m)
    for r in (dec.total, dec.base):
        out = r.apply_to_second(sent, m)
        expect = float(np.real(phi.vec.conj() @ out @ phi.vec))
        assert ent_fidelity(ch, r, code.code_basis) == pytest.approx(
            expect, abs=FIDELITY_PATH_ATOL
        )


@seed(11)
@settings(max_examples=60, deadline=None)
@random_scheme
def test_decoder_matches_separate_decomposition_reference(key, d, d_out, kraus_count, m):
    # reference: every operator from its own hermitian_fn / kernel_basis /
    # hermitian_eig call, not from the one decomposition per operator that
    # build_code and petz_decoder share
    m = min(m, d)
    kraus_count = max(kraus_count, -(-d // d_out))
    rng = keyed_stream(key, "decoder-reference")
    ch = random_channel(d, d_out, kraus_count, rng)
    rho, p = conditioned_state(d, rng), haar_projector(d, m, rng)
    code = build_code(rho, p)
    dec = petz_decoder(ch, code)

    s_inv_half = hermitian_fn(code.s, lambda x: x ** -0.5, on_support=True)
    sqrt_rt = hermitian_fn(d * rho.mat, np.sqrt)
    np.testing.assert_allclose(
        code.code_basis.basis, s_inv_half @ sqrt_rt @ support_basis(p),
        rtol=0, atol=FIDELITY_PATH_ATOL,
    )
    ns = hermitize(ch.apply_mat(code.s))
    base = (
        hermitian_fn(code.s, np.sqrt)
        @ ch.kraus_stack.conj().transpose(0, 2, 1)
        @ hermitian_fn(ns, lambda x: x ** -0.5, on_support=True)
    )
    np.testing.assert_allclose(
        dec.base.kraus_stack, base, rtol=0, atol=FIDELITY_PATH_ATOL
    )
    w_t, v_t = hermitian_eig(code.s / np.trace(code.s).real)
    keep = w_t > 1e-12 * w_t[0]
    cols = v_t[:, keep] * np.sqrt(w_t[keep])
    completion = np.einsum("ai,bj->ijab", cols, kernel_basis(ns).conj())
    reference = Channel(
        d_out, d, np.concatenate([base, completion.reshape(-1, d, d_out)]), True
    )
    # the completion's Kraus operators depend on the eigenbases chosen, its
    # Choi operator does not
    np.testing.assert_allclose(
        dec.total.choi(), reference.choi(), rtol=0, atol=FIDELITY_PATH_ATOL
    )


def test_each_operator_decomposed_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    rng = keyed_stream(0, "eigh-count")
    d = 4
    ch = random_channel(d, 3, 2, rng)
    code = build_code(conditioned_state(d, rng), haar_projector(d, 2, rng))
    petz_decoder(ch, code)
    assert len(calls) <= 5
    rho, sigma = conditioned_state(d, rng).mat, conditioned_state(d, rng).mat
    calls.clear()
    rel_entropy(rho, sigma)
    assert len(calls) == 2
    calls.clear()
    exp2_collision(rho, sigma)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Monte-Carlo fidelity
# ---------------------------------------------------------------------------


def test_avg_fidelity_mc_identity():
    rng = keyed_stream(0, "mc-ident")
    d = 3
    ident = make_channel("identity", d)
    sub = Subspace(haar_unitary(d, rng)[:, :2])
    mean, stderr = avg_fidelity_mc(ident, ident, sub, 50, rng)
    assert mean == pytest.approx(1.0, abs=1e-10)
    assert stderr == pytest.approx(0.0, abs=1e-10)


def test_avg_fidelity_mc_depolarizing():
    # full depolarizing to pi with identity decoding: mean fidelity 1/2 on a
    # qubit code space
    rng = keyed_stream(0, "mc-depol")
    ch = make_channel("depolarizing", 1.0)
    ident = make_channel("identity", 2)
    sub = Subspace(np.eye(2, dtype=complex))
    mean, stderr = avg_fidelity_mc(ch, ident, sub, 400, rng)
    assert abs(mean - 0.5) <= 3 * stderr + 1e-9


def test_avg_fidelity_mc_matches_per_sample_loop():
    rng = keyed_stream(0, "mc-loop-scheme")
    ch = random_channel(3, 2, 3, rng)
    code = build_code(conditioned_state(3, rng), haar_projector(3, 2, rng))
    dec = petz_decoder(ch, code).total
    batched, looped = keyed_stream(1, "mc-loop"), keyed_stream(1, "mc-loop")
    samples = 40
    mean, stderr = avg_fidelity_mc(ch, dec, code.code_basis, samples, batched)
    vals = []
    for _ in range(samples):
        psi = haar_state_in(code.code_basis, looped).vec
        out = dec.apply_mat(ch.apply_mat(np.outer(psi, psi.conj())))
        vals.append(float(np.real(psi.conj() @ out @ psi)))
    assert mean == pytest.approx(np.mean(vals), abs=1e-12)
    assert stderr == pytest.approx(
        np.std(vals, ddof=1) / np.sqrt(samples), abs=1e-12
    )
    # the batched draw consumes exactly the stream of the per-sample draws
    assert batched.standard_normal() == looped.standard_normal()


def test_avg_fidelity_mc_needs_samples():
    rng = keyed_stream(0, "mc-bad")
    ident = make_channel("identity", 2)
    sub = Subspace(np.eye(2, dtype=complex))
    with pytest.raises(BadParameterError):
        avg_fidelity_mc(ident, ident, sub, 1, rng)


def test_avg_ent_relation_consistent():
    rng = keyed_stream(3, "avg-rel")
    assert check_avg_ent_relation(4, rng, mc_samples=2000) == 0.0


# ---------------------------------------------------------------------------
# random-code experiments
# ---------------------------------------------------------------------------


def test_experiment_identity_channel_all_perfect():
    ch = make_channel("identity", 3)
    rho = DensityMatrix(np.eye(3) / 3)
    stats = random_code_experiment(ch, rho, 2, 6, seed=0)
    np.testing.assert_allclose(stats.fidelities, 1.0, atol=1e-9)
    assert isinstance(stats.best_code, CodeSpec)


def test_experiment_reproducible_and_worker_independent():
    ch = make_channel("dephasing", 0.1)
    rho = DensityMatrix(np.eye(2) / 2)
    a = random_code_experiment(ch, rho, 1, 8, seed=5)
    b = random_code_experiment(ch, rho, 1, 8, seed=5)
    np.testing.assert_array_equal(a.fidelities, b.fidelities)
    assert a.best_index == b.best_index


def test_experiment_seed_changes_samples():
    # rank-2 codes in d = 3 have seed-dependent fidelities
    ch = random_channel(3, 3, 2, keyed_stream(0, "seedy-ch"))
    rho = DensityMatrix(np.eye(3) / 3)
    a = random_code_experiment(ch, rho, 2, 4, seed=0)
    b = random_code_experiment(ch, rho, 2, 4, seed=1)
    assert np.abs(a.fidelities - b.fidelities).max() > 1e-12


def test_experiment_summary_keys():
    ch = make_channel("identity", 2)
    rho = DensityMatrix(np.eye(2) / 2)
    stats = random_code_experiment(ch, rho, 1, 4, seed=0)
    s = stats.summary()
    assert set(s) == {
        "samples",
        "mean",
        "min",
        "max",
        "q25",
        "median",
        "q75",
        "best_index",
    }
    assert s["samples"] == 4


def test_experiment_near_full_erasure_mean_small():
    ch = make_channel("erasure", 0.999)
    rho = DensityMatrix(np.eye(2) / 2)
    stats = random_code_experiment(ch, rho, 2, 4, seed=0)
    assert stats.summary()["mean"] <= 0.51


def test_experiment_rejects_zero_samples():
    ch = make_channel("identity", 2)
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(BadParameterError):
        random_code_experiment(ch, rho, 1, 0, seed=0)


# ---------------------------------------------------------------------------
# dephasing maps
# ---------------------------------------------------------------------------


def test_dephasing_map_requires_unitary():
    with pytest.raises(NotUnitaryError):
        DephasingMap(np.ones((2, 2)))


def test_clock_eigenrelation():
    rng = keyed_stream(0, "clock")
    d = 3
    u = haar_unitary(d, rng)
    dmap = DephasingMap(u)
    z = dmap.clock()
    for j in range(d):
        v = u[:, j]
        expect = np.exp(2j * np.pi * (j + 1) / d) * v
        np.testing.assert_allclose(z @ v, expect, atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.matrix_power(z, d), np.eye(d), atol=1e-10
    )


def test_pinch_keeps_diagonal_in_its_basis():
    rng = keyed_stream(0, "pinch")
    d = 3
    u = haar_unitary(d, rng)
    dmap = DephasingMap(u)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = g @ g.conj().T
    pinched = dmap.pinch(x)
    back = u.conj().T @ pinched @ u
    np.testing.assert_allclose(back, np.diag(np.diag(back)), atol=1e-10)
    np.testing.assert_allclose(dmap.pinch(pinched), pinched, atol=1e-12)
    assert np.trace(pinched).real == pytest.approx(np.trace(x).real, abs=1e-10)


def test_pinch_first_acts_factorwise_on_products():
    rng = keyed_stream(0, "pinch-kron")
    d, d_b = 2, 3
    u = haar_unitary(d, rng)
    dmap = DephasingMap(u)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
    got = dmap.pinch_first(np.kron(a, b), d_b)
    np.testing.assert_allclose(got, np.kron(dmap.pinch(a), b), atol=1e-10)


def test_dephasing_map_function_matches_method():
    rng = keyed_stream(0, "pinch-fn")
    u = haar_unitary(2, rng)
    x = np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex)
    np.testing.assert_allclose(
        dephasing_map(u, x), DephasingMap(u).pinch(x), atol=1e-14
    )


def test_computational_basis_pinch_zeroes_off_diagonals():
    dmap = DephasingMap(np.eye(2))
    x = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    np.testing.assert_allclose(dmap.pinch(x), np.diag([0.5, 0.5]), atol=1e-12)


def test_dephasing_identities_hold():
    for d in (2, 3, 4):
        rng = keyed_stream(0, "pinch-id", d)
        assert check_dephasing_identities(d, 5, rng) < 1e-10


def test_dephasing_identities_negative_control():
    # a corrupted pinching that keeps a slice of the off-diagonals must be
    # flagged by the identity checks
    def leaky(u, x):
        u = np.asarray(u)
        y = u.conj().T @ np.asarray(x) @ u
        d = y.shape[0]
        kept = np.diag(np.diag(y))
        kept[0, 1] += 1e-3 * y[0, 1]
        return u @ kept @ u.conj().T

    rng = keyed_stream(0, "pinch-neg")
    assert check_dephasing_identities(3, 5, rng, pinching=leaky) > 1e-7


# ---------------------------------------------------------------------------
# weak monotonicity
# ---------------------------------------------------------------------------


def test_weak_monotonicity_identity_case_tight():
    # identity map, computational basis, reference = pinched state itself
    d = 2
    u = np.eye(d)
    dmap = DephasingMap(u)
    phi = max_entangled(d).density().mat
    sigma = dmap.pinch_first(phi, d) + 1e-6 * np.eye(d * d)
    sigma = sigma / np.trace(sigma).real
    ident = make_channel("identity", d)
    assert weak_monotonicity_violation(ident, u, sigma) == 0.0


def test_weak_monotonicity_scale_invariant():
    # doubling the map scales both collision terms by four, so the violation
    # stays zero and the inequality is scale independent
    rng = keyed_stream(0, "wm-scale")
    d, d_b = 2, 2
    u = haar_unitary(d, rng)
    k = rng.standard_normal((d_b, d)) + 1j * rng.standard_normal((d_b, d))
    g = rng.standard_normal((d * d_b, d * d_b)) + 1j * rng.standard_normal(
        (d * d_b, d * d_b)
    )
    raw = g @ g.conj().T
    sigma = clock_invariant_state(DephasingMap(u), raw / np.trace(raw).real, d_b)
    assert weak_monotonicity_violation([k], u, sigma) == 0.0
    assert weak_monotonicity_violation([2.0 * k], u, sigma) == 0.0


def test_weak_monotonicity_rejects_varying_reference():
    rng = keyed_stream(0, "wm-bad")
    d = 2
    u = haar_unitary(d, rng)
    # generic state is not invariant under the clock conjugation
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sigma = g @ g.conj().T
    sigma = sigma / np.trace(sigma).real
    ident = make_channel("identity", d)
    with pytest.raises(NotInvariantError):
        weak_monotonicity_violation(ident, u, sigma)


def test_weak_monotonicity_rejects_wrong_input_dimension():
    u = np.eye(2)
    sigma = np.eye(4) / 4
    with pytest.raises(DimensionMismatchError):
        weak_monotonicity_violation([np.eye(2, 4)], u, sigma)


def test_weak_monotonicity_not_vacuous():
    # the two sides genuinely differ for a generic map
    rng = keyed_stream(0, "wm-gap")
    from petzlab.entropy import exp2_collision

    d, d_b = 2, 2
    u = haar_unitary(d, rng)
    dmap = DephasingMap(u)
    k = rng.standard_normal((d_b, d)) + 1j * rng.standard_normal((d_b, d))
    phi = max_entangled(d).density().mat
    big = np.kron(np.eye(d), k)
    omega = big @ phi @ big.conj().T
    g = rng.standard_normal((d * d_b, d * d_b)) + 1j * rng.standard_normal(
        (d * d_b, d * d_b)
    )
    raw = g @ g.conj().T
    sigma = clock_invariant_state(dmap, raw / np.trace(raw).real, d_b)
    lhs = exp2_collision(dmap.pinch_first(omega, d_b), sigma)
    rhs = exp2_collision(omega, sigma) / d
    assert abs(lhs - rhs) > 1e-6
    assert lhs >= rhs - 1e-12


def test_weak_monotonicity_sweep_holds():
    rng = keyed_stream(2, "wm-sweep")
    assert check_weak_monotonicity(30, rng) == 0.0


def test_clock_invariant_state_is_invariant():
    rng = keyed_stream(0, "wm-inv")
    d, d_b = 3, 2
    u = haar_unitary(d, rng)
    dmap = DephasingMap(u)
    g = rng.standard_normal((d * d_b, d * d_b)) + 1j * rng.standard_normal(
        (d * d_b, d * d_b)
    )
    raw = g @ g.conj().T
    sigma = clock_invariant_state(dmap, raw / np.trace(raw).real, d_b)
    z_big = np.kron(dmap.clock(), np.eye(d_b))
    np.testing.assert_allclose(z_big @ sigma @ z_big.conj().T, sigma, atol=1e-10)
    np.testing.assert_allclose(sigma, hermitize(sigma), atol=1e-12)
