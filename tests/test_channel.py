import json

import numpy as np
import pytest

from petzlab.channel import (
    Channel,
    TENSOR_DIM_LIMIT,
    channel_from_dict,
    channel_to_dict,
    kraus_from_choi,
    load_channel,
    make_channel,
    parse_channel,
    random_channel,
)
from petzlab.errors import (
    BadParameterError,
    DimensionMismatchError,
    NotTracePreservingError,
)
from petzlab.linalg import partial_trace
from petzlab.qstate import DensityMatrix, keyed_stream

ATOL = 1e-10


def random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_channel_rejects_non_trace_preserving():
    k = (np.array([[0.5, 0.0], [0.0, 0.5]]),)
    with pytest.raises(NotTracePreservingError):
        Channel(2, 2, k)


def test_channel_allows_subnormalized_when_flagged():
    k = (np.array([[0.5, 0.0], [0.0, 0.5]]),)
    ch = Channel(2, 2, k, trace_preserving=False)
    out = ch.apply_mat(np.eye(2))
    assert np.trace(out).real < 2.0


def test_channel_rejects_overnormalized_even_when_flagged():
    k = (np.array([[2.0, 0.0], [0.0, 2.0]]),)
    with pytest.raises(NotTracePreservingError):
        Channel(2, 2, k, trace_preserving=False)


def test_channel_kraus_shape_check():
    with pytest.raises(DimensionMismatchError):
        Channel(2, 3, (np.eye(2),))


def test_make_channel_validation():
    with pytest.raises(BadParameterError):
        make_channel("unknown")
    with pytest.raises(BadParameterError):
        make_channel("erasure", 1.5)
    with pytest.raises(BadParameterError):
        make_channel("dephasing", -0.1)
    with pytest.raises(BadParameterError):
        make_channel("identity", 0)


# ---------------------------------------------------------------------------
# channel zoo semantics
# ---------------------------------------------------------------------------


def test_identity_channel():
    ch = make_channel("identity", 3)
    rng = keyed_stream(0, "id-zoo")
    rho = random_density(3, rng)
    np.testing.assert_allclose(ch.apply_mat(rho), rho, atol=ATOL)


def test_dephasing_kills_off_diagonals_at_half():
    ch = make_channel("dephasing", 0.5)
    plus = np.full((2, 2), 0.5)
    np.testing.assert_allclose(ch.apply_mat(plus), np.eye(2) / 2, atol=ATOL)


def test_dephasing_partial():
    p = 0.2
    ch = make_channel("dephasing", p)
    rho = np.array([[0.6, 0.3], [0.3, 0.4]])
    out = ch.apply_mat(rho)
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=ATOL)
    # off-diagonal shrinks by 1 - 2p
    assert out[0, 1] == pytest.approx((1 - 2 * p) * rho[0, 1], abs=1e-12)


def test_depolarizing_full():
    ch = make_channel("depolarizing", 1.0, 2)
    rho = np.diag([1.0, 0.0])
    np.testing.assert_allclose(ch.apply_mat(rho), np.eye(2) / 2, atol=ATOL)


def test_erasure_limits():
    d = 2
    rng = keyed_stream(0, "erasure-zoo")
    rho = random_density(d, rng)
    ch0 = make_channel("erasure", 0.0, d)
    out0 = ch0.apply_mat(rho)
    np.testing.assert_allclose(out0[:d, :d], rho, atol=ATOL)
    np.testing.assert_allclose(out0[d, d], 0.0, atol=ATOL)
    ch1 = make_channel("erasure", 1.0, d)
    out1 = ch1.apply_mat(rho)
    flag = np.zeros((d + 1, d + 1))
    flag[d, d] = 1.0
    np.testing.assert_allclose(out1, flag, atol=ATOL)


def test_erasure_mixes_linearly():
    p = 0.3
    d = 2
    rng = keyed_stream(1, "erasure-mix")
    rho = random_density(d, rng)
    out = make_channel("erasure", p, d).apply_mat(rho)
    expect = np.zeros((d + 1, d + 1), dtype=complex)
    expect[:d, :d] = (1 - p) * rho
    expect[d, d] = p
    np.testing.assert_allclose(out, expect, atol=ATOL)


# ---------------------------------------------------------------------------
# adjoint, Stinespring, complementary, Choi
# ---------------------------------------------------------------------------


def test_adjoint_is_inner_product_dual():
    rng = keyed_stream(2, "adjoint")
    ch = random_channel(3, 2, 2, rng)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = np.trace(y.conj().T @ ch.apply_mat(x))
    rhs = np.trace(ch.adjoint_apply(y).conj().T @ x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_adjoint_unital_for_cptp():
    rng = keyed_stream(2, "adjoint-unital")
    ch = random_channel(3, 3, 2, rng)
    np.testing.assert_allclose(ch.adjoint_apply(np.eye(3)), np.eye(3), atol=ATOL)


def test_stinespring_isometry_dilates():
    rng = keyed_stream(3, "stinespring")
    ch = random_channel(2, 3, 2, rng)
    v = ch.stinespring()
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=ATOL)
    rho = random_density(2, rng)
    big = v @ rho @ v.conj().T
    # environment is the second factor
    np.testing.assert_allclose(
        partial_trace(big, keep="A", dims=(3, len(ch.kraus))), ch.apply_mat(rho), atol=ATOL
    )


def test_complementary_traces_out_output():
    rng = keyed_stream(3, "complementary")
    ch = random_channel(2, 3, 2, rng)
    comp = ch.complementary()
    v = ch.stinespring()
    rho = random_density(2, rng)
    big = v @ rho @ v.conj().T
    np.testing.assert_allclose(
        partial_trace(big, keep="B", dims=(3, len(ch.kraus))), comp.apply_mat(rho), atol=ATOL
    )


def test_erasure_complementary_spectra_match_flipped_erasure():
    # the complementary of erasure(p) is erasure(1-p) up to relabeling the
    # flag slot, so output spectra agree on every input
    rng = keyed_stream(4, "erasure-comp")
    rho = random_density(2, rng)
    for p in (0.3, 0.7):
        comp = make_channel("erasure", p).complementary()
        ref = make_channel("erasure", 1 - p)
        a = np.sort(np.linalg.eigvalsh(comp.apply_mat(rho)))
        b = np.sort(np.linalg.eigvalsh(ref.apply_mat(rho)))
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_choi_marginal_and_roundtrip():
    rng = keyed_stream(5, "choi")
    ch = random_channel(2, 3, 2, rng)
    choi = ch.choi()
    assert choi.shape == (6, 6)
    # tracing out the output factor leaves I/d on the input factor
    np.testing.assert_allclose(
        partial_trace(choi, keep="A", dims=(2, 3)), np.eye(2) / 2, atol=ATOL
    )
    kraus = kraus_from_choi(choi, 2, 3)
    rebuilt = Channel(2, 3, kraus)
    rho = random_density(2, rng)
    np.testing.assert_allclose(rebuilt.apply_mat(rho), ch.apply_mat(rho), atol=1e-9)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_tensor_acts_factorwise():
    rng = keyed_stream(6, "tensor")
    a = make_channel("dephasing", 0.1)
    b = make_channel("depolarizing", 0.5, 2)
    ab = a.tensor(b)
    ra = random_density(2, rng)
    rb = random_density(2, rng)
    np.testing.assert_allclose(
        ab.apply_mat(np.kron(ra, rb)),
        np.kron(a.apply_mat(ra), b.apply_mat(rb)),
        atol=ATOL,
    )


def test_power_matches_repeated_tensor():
    ch = make_channel("dephasing", 0.2)
    ch2 = ch.power(2)
    assert ch2.d_in == 4
    rng = keyed_stream(6, "power")
    rho = random_density(2, rng)
    np.testing.assert_allclose(
        ch2.apply_mat(np.kron(rho, rho)),
        np.kron(ch.apply_mat(rho), ch.apply_mat(rho)),
        atol=ATOL,
    )


def test_tensor_dimension_cap():
    ch = make_channel("identity", 16)
    big = ch.tensor(ch)  # 256 is allowed
    assert big.d_in == TENSOR_DIM_LIMIT
    with pytest.raises(BadParameterError):
        big.tensor(make_channel("identity", 2))


def test_apply_to_second_matches_kron_identity():
    rng = keyed_stream(7, "apply-second")
    for d_in, d_out, kraus_count, left_dim in ((2, 3, 2, 3), (3, 2, 4, 2)):
        ch = random_channel(d_in, d_out, kraus_count, rng)
        n = left_dim * d_in
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = ch.apply_to_second(x, left_dim)
        eye = np.eye(left_dim)
        expect = sum(
            np.kron(eye, k) @ x @ np.kron(eye, k).conj().T for k in ch.kraus
        )
        np.testing.assert_allclose(got, expect, atol=ATOL)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_dict_roundtrip():
    ch = make_channel("erasure", 0.25)
    spec = channel_to_dict(ch)
    back = channel_from_dict(spec)
    assert back.d_in == ch.d_in and back.d_out == ch.d_out
    rng = keyed_stream(8, "dict-rt")
    rho = random_density(2, rng)
    np.testing.assert_allclose(back.apply_mat(rho), ch.apply_mat(rho), atol=ATOL)


def test_parse_channel_names():
    assert parse_channel("identity:3").d_in == 3
    assert parse_channel("erasure:0.5").d_out == 3
    with pytest.raises(BadParameterError):
        parse_channel("identity:x")


@pytest.mark.parametrize(
    "text",
    ["identity:2.5", "erasure:0.3:2.5", "depolarizing:0.1:3.7", "erasure:0.3:0",
     "depolarizing:0.1:inf"],
)
def test_parse_channel_rejects_non_integer_dimension(text):
    with pytest.raises(BadParameterError, match="dimension"):
        parse_channel(text)


def test_load_channel_file(tmp_path):
    ch = make_channel("dephasing", 0.3)
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(channel_to_dict(ch)))
    back = load_channel(str(path))
    assert back.d_in == 2
    loaded = parse_channel("@" + str(path))
    assert loaded.d_out == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BadParameterError):
        load_channel(str(bad))


def test_random_channel_is_cptp():
    rng = keyed_stream(9, "random-ch")
    ch = random_channel(3, 2, 3, rng)
    gram = sum(k.conj().T @ k for k in ch.kraus)
    np.testing.assert_allclose(gram, np.eye(3), atol=ATOL)
    with pytest.raises(BadParameterError):
        random_channel(4, 1, 2, rng)
