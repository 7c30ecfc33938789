import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petzlab import qstate
from petzlab.errors import (
    BadParameterError,
    DimensionMismatchError,
    NotPSDError,
    OutOfRangeError,
    RankTooLargeError,
)
from petzlab.linalg import partial_trace
from petzlab.qstate import (
    DensityMatrix,
    PureState,
    Subspace,
    avg_from_ent_fidelity,
    check_flip_identities,
    check_haar_projector_moment,
    check_haar_state_moments,
    fidelity,
    flip_operator,
    haar_projector,
    haar_state,
    haar_state_in,
    haar_unitary,
    keyed_stream,
    max_entangled,
    projector_pair_moment,
    purify,
    random_subspace,
    trace_distance,
)

ATOL = 1e-12
MC_TRIALS = 20000


# ---------------------------------------------------------------------------
# deterministic RNG streams
# ---------------------------------------------------------------------------


def test_keyed_stream_reproducible():
    a = keyed_stream(42, "alpha", 3).standard_normal(8)
    b = keyed_stream(42, "alpha", 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_keyed_stream_distinct_tags_and_indices():
    base = keyed_stream(42, "alpha", 0).standard_normal(8)
    other_tag = keyed_stream(42, "beta", 0).standard_normal(8)
    other_idx = keyed_stream(42, "alpha", 1).standard_normal(8)
    assert not np.allclose(base, other_tag)
    assert not np.allclose(base, other_idx)


def test_keyed_stream_order_independent():
    # constructing streams in any order yields the same per-index draws
    forward = [keyed_stream(9, "t", i).standard_normal(4) for i in range(5)]
    backward = [keyed_stream(9, "t", i).standard_normal(4) for i in reversed(range(5))]
    for i in range(5):
        np.testing.assert_array_equal(forward[i], backward[4 - i])


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------


def test_density_matrix_validation():
    with pytest.raises(Exception):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(NotPSDError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_purity():
    assert DensityMatrix.maximally_mixed(4).purity() == pytest.approx(0.25)
    pure = DensityMatrix(np.diag([1.0, 0.0]))
    assert pure.purity() == pytest.approx(1.0)


def test_pure_state_norm_enforced():
    with pytest.raises(Exception):
        PureState(np.array([1.0, 1.0]))
    psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    np.testing.assert_allclose(np.trace(psi.density().mat), 1.0, atol=ATOL)


def test_subspace_orthonormality_enforced():
    with pytest.raises(Exception):
        Subspace(np.array([[1.0, 1.0], [0.0, 0.0]]))
    sub = Subspace(np.eye(3)[:, :2])
    assert sub.ambient_dim == 3 and sub.dim == 2
    pi = sub.projector()
    np.testing.assert_allclose(pi @ pi, pi, atol=ATOL)


# ---------------------------------------------------------------------------
# fidelity, purification, entangled states
# ---------------------------------------------------------------------------


def test_fidelity_pure_overlap():
    v = np.array([1.0, 0.0])
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = np.outer(v, v)
    sig = np.outer(w, w)
    # F = |<v|w>|
    assert fidelity(rho, sig) == pytest.approx(abs(v @ w), abs=1e-12)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_orthogonal_states():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)


def test_purify_reduces_to_state():
    rng = keyed_stream(0, "purify-test")
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    psi = purify(rho)
    full = psi.density().mat
    # reference factor comes first
    np.testing.assert_allclose(partial_trace(full, keep="B", dims=(3, 3)), rho, atol=1e-10)


def test_purify_matches_entangled_form():
    # purify(rho) = (I (x) sqrt(d rho)) |Phi_d> entrywise
    rng = keyed_stream(0, "purify-form")
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    from petzlab.linalg import hermitian_fn

    d = 2
    phi = max_entangled(d).vec
    alt = np.kron(np.eye(d), hermitian_fn(d * rho, np.sqrt)) @ phi
    alt = alt / np.linalg.norm(alt)
    overlap = abs(np.vdot(alt, purify(rho).vec))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_max_entangled_marginals():
    psi = max_entangled(3)
    rho = psi.density().mat
    np.testing.assert_allclose(
        partial_trace(rho, keep="A", dims=(3, 3)), np.eye(3) / 3, atol=ATOL
    )
    np.testing.assert_allclose(
        partial_trace(rho, keep="B", dims=(3, 3)), np.eye(3) / 3, atol=ATOL
    )


def test_max_entangled_in_ambient():
    psi = max_entangled(2, ambient_dims=(2, 3))
    assert psi.vec.shape == (6,)
    rho = psi.density().mat
    red = partial_trace(rho, keep="B", dims=(2, 3))
    np.testing.assert_allclose(red[:2, :2], np.eye(2) / 2, atol=ATOL)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def test_haar_unitary_is_unitary():
    rng = keyed_stream(1, "haar-u")
    for d in (2, 3, 5):
        u = haar_unitary(d, rng)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)


def test_haar_state_normalized():
    rng = keyed_stream(1, "haar-s")
    psi = haar_state(4, rng)
    assert np.linalg.norm(psi.vec) == pytest.approx(1.0, abs=1e-10)


def test_haar_state_in_subspace():
    rng = keyed_stream(1, "haar-in")
    sub = random_subspace(4, 2, rng)
    psi = haar_state_in(sub, rng)
    pi = sub.projector()
    np.testing.assert_allclose(pi @ psi.vec, psi.vec, atol=1e-10)


def test_haar_projector_shape_and_rank():
    rng = keyed_stream(1, "haar-p")
    p = haar_projector(4, 2, rng)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(RankTooLargeError):
        haar_projector(3, 4, rng)


# ---------------------------------------------------------------------------
# flip operator and Haar moments
# ---------------------------------------------------------------------------


def test_flip_swaps_factors_on_full_space():
    rng = keyed_stream(2, "flip-swap")
    d = 3
    full = Subspace(np.eye(d, dtype=complex))
    f = flip_operator(full)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    np.testing.assert_allclose(f @ np.kron(a, b) @ f, np.kron(b, a), atol=1e-10)


def test_flip_identities_random_subspaces():
    rng = keyed_stream(2, "flip-ids")
    for d in (2, 3, 4):
        assert check_flip_identities(d, 10, rng) < 1e-10


def test_projector_pair_moment_rank_one_matches_state_moment():
    # rank-1 projectors are pure states, so the pair moment must equal the
    # second state moment (I + F) / (d (d + 1))
    for d in (2, 3):
        full = Subspace(np.eye(d, dtype=complex))
        expect = (np.eye(d * d) + flip_operator(full)) / (d * (d + 1))
        np.testing.assert_allclose(projector_pair_moment(d, 1), expect, atol=ATOL)


def test_projector_pair_moment_full_rank_is_identity_pair():
    d = 3
    np.testing.assert_allclose(projector_pair_moment(d, d), np.eye(d * d), atol=ATOL)


def test_haar_state_moments_within_band():
    rng = keyed_stream(3, "haar-moments")
    assert check_haar_state_moments(3, MC_TRIALS, rng) == 0.0


def test_haar_projector_moment_within_band():
    rng = keyed_stream(3, "proj-moments")
    assert check_haar_projector_moment(3, 2, MC_TRIALS, rng) == 0.0


def _excess(mean: np.ndarray, var: np.ndarray, exact: np.ndarray, n: int) -> float:
    se = float(np.sqrt(np.clip(var, 0.0, None).sum() / n))
    return max(0.0, float(np.linalg.norm(mean - exact)) - 3.0 * se)


def _outer_moment(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and entrywise variance of g g^dag over an (n, d, d) outer array."""
    outer = np.einsum("ni,nj->nij", g, g.conj())
    mean = outer.mean(axis=0)
    return mean, (np.abs(outer) ** 2).mean(axis=0) - np.abs(mean) ** 2


def _pair_moment(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and entrywise variance of p (x) p in [ik, jl] order, by two
    (n, d, d) -> d^4 contractions."""
    n, d = p.shape[:2]
    mean = np.einsum("nij,nkl->ikjl", p, p).reshape(d * d, d * d) / n
    absp = np.abs(p) ** 2
    second = np.einsum("nij,nkl->ikjl", absp, absp).reshape(d * d, d * d) / n
    return mean, second - np.abs(mean) ** 2


def _ik_jl_to_ij_kl(x: np.ndarray, d: int) -> np.ndarray:
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(2, 60),
    st.floats(0.0, 3.0),
)
def test_moment_excess_matches_outer_and_einsum_forms(seed, d, n, t):
    # exact sits t * 3 se away from the sample mean, so the excess is
    # (t - 1) * 3 se when t > 1 and 0 otherwise
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    p = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    flat = p.reshape(n, d * d)
    cases = (
        (_outer_moment(g), g, g.conj(), lambda x: x),
        (_pair_moment(p), flat, flat, lambda x: _ik_jl_to_ij_kl(x, d)),
    )
    for (mean, var), a, b, to_ab in cases:
        se = np.sqrt(np.clip(var, 0.0, None).sum() / n)
        step = rng.standard_normal(mean.shape) + 1j * rng.standard_normal(mean.shape)
        exact = mean + t * 3.0 * se * step / np.linalg.norm(step)
        expect = _excess(mean, var, exact, n)
        assert expect == pytest.approx(max(0.0, (t - 1.0) * 3.0 * se), abs=1e-12)
        got = qstate._moment_excess(a, b, to_ab(exact))
        assert got == pytest.approx(expect, abs=1e-12)


class _RealGaussian:
    """Generator stand-in whose every second standard_normal draw is zero, so
    the Haar checks receive real Gaussian samples."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.draws = 0

    def standard_normal(self, shape):
        self.draws += 1
        return self.rng.standard_normal(shape) if self.draws % 2 else np.zeros(shape)


def test_haar_checks_reject_real_gaussian_samples():
    # real unit vectors and real orthogonal projectors have the right first
    # moment but a different pair moment than the complex Haar ensembles
    rng = keyed_stream(3, "haar-moments")
    assert check_haar_state_moments(3, MC_TRIALS, _RealGaussian(rng)) > 0.0
    rng = keyed_stream(3, "proj-moments")
    assert check_haar_projector_moment(3, 2, MC_TRIALS, _RealGaussian(rng)) > 0.0


# ---------------------------------------------------------------------------
# fidelity relation helper
# ---------------------------------------------------------------------------


def test_avg_from_ent_fidelity_values():
    assert avg_from_ent_fidelity(1.0, 2) == pytest.approx(1.0)
    assert avg_from_ent_fidelity(0.0, 2) == pytest.approx(1.0 / 3.0)
    assert avg_from_ent_fidelity(0.5, 4) == pytest.approx(3.0 / 5.0)


def test_avg_from_ent_fidelity_domain():
    with pytest.raises(OutOfRangeError):
        avg_from_ent_fidelity(1.5, 2)
    with pytest.raises(OutOfRangeError):
        avg_from_ent_fidelity(-0.1, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_mub_states_are_a_2_design(d):
    # the mean of |psi><psi| (x) |psi><psi| over the d(d + 1) states is the
    # Haar mean (I + F) / (d (d + 1))
    states = qstate._mub_states(d)
    assert states.shape == (d * (d + 1), d)
    pairs = np.einsum("ni,nj->nij", states, states).reshape(len(states), d * d)
    mean = pairs.T @ pairs.conj() / len(states)
    flip = flip_operator(Subspace(np.eye(d, dtype=complex)))
    np.testing.assert_allclose(
        mean, (np.eye(d * d) + flip) / (d * (d + 1)), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mub_states_are_mutually_unbiased_bases(d):
    states = qstate._mub_states(d)
    overlaps = np.abs(states.conj() @ states.T) ** 2
    same_basis = np.kron(np.eye(d + 1), np.ones((d, d)))
    expected = np.eye(len(states)) + (1.0 - same_basis) / d
    np.testing.assert_allclose(overlaps, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("d", [0, 1, 4, 6])
def test_mub_states_need_prime_dimension(d):
    with pytest.raises(BadParameterError):
        qstate._mub_states(d)


def test_ginibre_draws_real_parts_first():
    # the draw order of the complex Gaussian sites it replaced
    a, b = keyed_stream(0, "ginibre"), keyed_stream(0, "ginibre")
    expected = b.standard_normal((3, 2)) + 1j * b.standard_normal((3, 2))
    assert np.array_equal(qstate._ginibre((3, 2), a), expected)


def test_flip_requires_matching_shapes():
    with pytest.raises(DimensionMismatchError):
        fidelity(np.eye(2) / 2, np.eye(3) / 3)
