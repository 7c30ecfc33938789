import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from petzlab.errors import NonHermitianError, NonSquareError, NotPSDError
from petzlab.linalg import (
    hermitian_eig,
    hermitian_fn,
    hermitize,
    kernel_basis,
    partial_trace,
    psd_spectrum,
    support_basis,
    support_mask,
    support_projector,
    support_rank,
)

ATOL = 1e-12


def test_hermitize_returns_average():
    a = np.array([[1.0, 2.0 + 1e-13j], [2.0 - 1e-13j, 3.0]])
    h = hermitize(a)
    np.testing.assert_allclose(h, h.conj().T, atol=ATOL)


def test_hermitize_rejects_skew():
    with pytest.raises(NonHermitianError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitize_accepts_tiny_scale_differences():
    # difference of two nearly equal Hermitian matrices: absolute defect is
    # noise even though the relative defect is large
    a = np.array([[1e-9, 1e-17j], [-1e-17j, 2e-9]])
    hermitize(a)


def test_hermitize_rejects_non_square():
    with pytest.raises(NonSquareError):
        hermitize(np.ones((2, 3)))


def test_hermitize_rejects_non_finite():
    with pytest.raises(NotPSDError):
        hermitize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [complex(0, np.inf), complex(0, -np.inf), complex(0, np.nan)])
def test_hermitize_rejects_non_finite_imaginary_part(bad):
    a = np.eye(2, dtype=complex)
    a[0, 1] = bad
    with pytest.raises(NotPSDError):
        hermitize(a)


def test_hermitian_eig_descending_and_reconstructs():
    h = np.array([[1.0, 2.0], [2.0, -1.0]])
    w, v = hermitian_eig(h)
    assert w[0] >= w[1]
    np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=ATOL)


def test_hermitian_fn_sqrt():
    h = np.diag([4.0, 9.0])
    np.testing.assert_allclose(hermitian_fn(h, np.sqrt), np.diag([2.0, 3.0]), atol=ATOL)


def test_hermitian_fn_on_support_pseudo_inverse():
    h = np.diag([2.0, 0.0])
    inv = hermitian_fn(h, lambda x: 1.0 / x, on_support=True)
    np.testing.assert_allclose(inv, np.diag([0.5, 0.0]), atol=ATOL)


def test_hermitian_fn_on_support_log_skips_kernel():
    h = np.diag([1.0, 0.0, 0.25])
    lg = hermitian_fn(h, np.log2, on_support=True)
    np.testing.assert_allclose(lg, np.diag([0.0, 0.0, -2.0]), atol=ATOL)


def test_support_and_kernel_partition():
    h = np.diag([1.0, 0.0, 0.5, 0.0])
    assert support_rank(h) == 2
    pi = support_projector(h)
    np.testing.assert_allclose(pi @ pi, pi, atol=ATOL)
    np.testing.assert_allclose(np.trace(pi).real, 2.0, atol=ATOL)
    sb = support_basis(h)
    kb = kernel_basis(h)
    assert sb.shape == (4, 2) and kb.shape == (4, 2)
    np.testing.assert_allclose(sb.conj().T @ kb, np.zeros((2, 2)), atol=ATOL)
    np.testing.assert_allclose(sb @ sb.conj().T + kb @ kb.conj().T, np.eye(4), atol=ATOL)


def test_partial_trace_on_kron():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = np.kron(a, b)
    np.testing.assert_allclose(
        partial_trace(x, keep="A", dims=(2, 3)), a * np.trace(b), atol=ATOL
    )
    np.testing.assert_allclose(
        partial_trace(x, keep="B", dims=(2, 3)), b * np.trace(a), atol=ATOL
    )


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for keep in ("A", "B"):
        np.testing.assert_allclose(
            np.trace(partial_trace(x, keep=keep, dims=(2, 3))), np.trace(x), atol=ATOL
        )


@seed(7)
@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
)
def test_eig_reconstruction_property(m):
    h = (m + m.T) / 2
    w, v = hermitian_eig(h)
    np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-10)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)


@seed(8)
@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
)
def test_support_projector_fixes_matrix(m):
    h = m @ m.T  # PSD
    pi = support_projector(h)
    np.testing.assert_allclose(pi @ h @ pi, h, atol=1e-9)


def psd_stack(k, n, rng):
    # rank-deficient and full-rank PSD members at scales 1e-12 to 1e3, so
    # that a support cutoff taken from another member's spectrum shows
    g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    g[::2, :, n // 2 :] = 0.0
    return (g @ g.conj().transpose(0, 2, 1)) * 10.0 ** rng.uniform(-12, 3, (k, 1, 1))


@seed(9)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5))
def test_stacked_spectrum_matches_each_matrix(key, k, n):
    rng = np.random.default_rng(key)
    x = psd_stack(k, n, rng)
    noise = rng.standard_normal((n, n))
    # an anti-Hermitian defect within the Hermiticity band
    x[0] += 1e-13j * np.abs(x[0]).max() * (noise + noise.T)
    stacked = psd_spectrum(x)
    np.testing.assert_array_equal(hermitize(x), np.stack([hermitize(a) for a in x]))
    for i, a in enumerate(x):
        one = psd_spectrum(a)
        for got, want in zip(stacked, one):
            np.testing.assert_array_equal(got[i], want)
        np.testing.assert_array_equal(support_mask(stacked.eigenvalues)[i], one.support)
        for f, on in ((np.sqrt, False), (lambda w: w ** -0.5, True)):
            np.testing.assert_array_equal(stacked.fn(f, on)[i], one.fn(f, on))


@pytest.mark.parametrize(
    "bad, error",
    [
        (lambda a: a + np.triu(np.ones_like(a), 1), NonHermitianError),
        (lambda a: a * np.nan, NotPSDError),
        (lambda a: a - 1e-6 * np.abs(a).max() * np.eye(len(a)), NotPSDError),
    ],
    ids=["non-hermitian", "non-finite", "below-band"],
)
def test_stack_with_one_bad_member_raises(bad, error):
    # member 2 is rank deficient, so shifting it by -1e-6 lam_max puts an
    # eigenvalue below the -1e-8 lam_max band
    x = psd_stack(4, 3, np.random.default_rng(3))
    psd_spectrum(x)
    x[2] = bad(x[2])
    with pytest.raises(error):
        psd_spectrum(x)
    with pytest.raises(error):
        psd_spectrum(x[2])


def test_single_matrix_functions_reject_a_stack():
    # only the functions documented to take a stack accept one; the others
    # would silently fold it into one number
    from petzlab.entropy import von_neumann_entropy
    from petzlab.qstate import DensityMatrix, trace_distance

    x = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])])
    for fn in (support_rank, support_projector, kernel_basis, von_neumann_entropy, DensityMatrix):
        with pytest.raises(NonSquareError):
            fn(x)
    with pytest.raises(NonSquareError):
        trace_distance(x, x)
    assert hermitize(x).shape == psd_spectrum(x).eigenvectors.shape == (2, 2, 2)
