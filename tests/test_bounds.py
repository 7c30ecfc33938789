import numpy as np
import pytest

import petzlab.bounds as bounds_module
from petzlab.bounds import (
    CoherentInfoResult,
    OneShotParams,
    OneShotResult,
    SecondOrderResult,
    bloch_grid_coherent_info,
    implied_error,
    maximize_coherent_info,
    one_shot_rhs,
    preset_split,
    quantum_dispersion,
    second_order_bound,
)
from petzlab.channel import make_channel
from petzlab.entropy import (
    EntropyValue,
    binary_entropy,
    channel_variance,
    coherent_info,
    inv_normal_cdf,
    rel_entropy_variance,
)
from petzlab.errors import (
    BadParamsError,
    DimensionMismatchError,
    EpsilonHalfError,
    OutOfRangeError,
    ScaleLimitError,
)
from petzlab.qstate import DensityMatrix, keyed_stream, trace_distance

GRID_ATOL = 1e-5


@pytest.fixture(scope="module")
def dephasing_ic():
    ch = make_channel("dephasing", 0.1)
    return ch, maximize_coherent_info(ch, restarts=2, seed=0)


@pytest.fixture(scope="module")
def identity_ic():
    ch = make_channel("identity", 2)
    return ch, maximize_coherent_info(ch, restarts=2, seed=0)


@pytest.fixture(scope="module")
def erasure_ic():
    ch = make_channel("erasure", 0.5)
    return ch, maximize_coherent_info(ch, restarts=8, seed=0)


# ---------------------------------------------------------------------------
# parameter splits
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(BadParamsError):
        OneShotParams(eps1=0.0, eps2=0.1, delta1=0.05, delta2=0.05, d=2)
    with pytest.raises(BadParamsError):
        OneShotParams(eps1=0.1, eps2=0.1, delta1=0.1, delta2=0.05, d=2)
    with pytest.raises(BadParamsError):
        OneShotParams(eps1=0.1, eps2=0.1, delta1=0.05, delta2=0.2, d=2)
    with pytest.raises(BadParamsError):
        OneShotParams(eps1=0.1, eps2=0.1, delta1=0.05, delta2=0.05, d=0)
    # valid split constructs
    OneShotParams(eps1=0.1, eps2=0.1, delta1=0.05, delta2=0.05, d=2)


def test_preset_split_small_n_values():
    params = preset_split(0.1, 1, 2, purity=0.5)
    assert params.eps1 == pytest.approx(0.05, abs=1e-15)
    assert params.eps2 == pytest.approx(0.05, abs=1e-15)
    assert params.delta1 == pytest.approx(0.025, abs=1e-15)
    assert params.delta2 == pytest.approx(0.025, abs=1e-15)
    assert params.implied_eps == pytest.approx(1.1874297730643495, abs=1e-12)


def test_preset_split_large_n_uses_ideal_branch():
    eps, d, purity = 0.4, 2, 0.5
    params = preset_split(eps, 10_000, d, purity)
    assert params.eps1 == pytest.approx(eps - 3.0 / 100.0, abs=1e-15)
    ideal = (eps / (1 + 1 / d) - params.eps1) ** 2 - purity
    if 0.0 < ideal < 1.0:
        assert params.eps2 == pytest.approx(ideal, abs=1e-15)
    else:
        assert params.eps2 == pytest.approx(eps / 2.0, abs=1e-15)
    assert 0.0 < params.delta1 < params.eps1
    assert 0.0 < params.delta2 < params.eps2


def test_preset_split_domain():
    with pytest.raises(OutOfRangeError):
        preset_split(0.0, 10, 2, 0.5)
    with pytest.raises(OutOfRangeError):
        preset_split(1.0, 10, 2, 0.5)
    with pytest.raises(OutOfRangeError):
        preset_split(0.1, 0, 2, 0.5)


def test_implied_error_formula():
    params = OneShotParams(eps1=0.1, eps2=0.2, delta1=0.05, delta2=0.1, d=4)
    expect = (0.1 + np.sqrt(0.3 + 0.2)) * (1 + 0.25)
    assert implied_error(params, 0.3) == pytest.approx(expect, abs=1e-15)


# ---------------------------------------------------------------------------
# one-shot bound
# ---------------------------------------------------------------------------


def test_one_shot_identity_qubit_assembly():
    # identity channel at the maximally mixed input: both divergence terms
    # equal 1 bit exactly, so each term is 1 + log2((eps - delta)/(1 - eps))
    ch = make_channel("identity", 2)
    rho = DensityMatrix(np.eye(2) / 2)
    params = preset_split(0.1, 1, 2, purity=0.5)
    res = one_shot_rhs(ch, rho, params)
    assert res.ds1_bits == pytest.approx(1.0, abs=1e-9)
    assert res.ds2_bits == pytest.approx(1.0, abs=1e-9)
    t1 = res.ds1_bits + np.log2((params.eps1 - params.delta1) / (1 - params.eps1))
    t2 = res.ds2_bits + np.log2((params.eps2 - params.delta2) / (1 - params.eps2))
    assert res.term1_bits == pytest.approx(t1, abs=1e-12)
    assert res.term2_bits == pytest.approx(t2, abs=1e-12)
    assert res.bound_bits == pytest.approx(min(t1, t2), abs=1e-12)
    assert res.implied_eps == pytest.approx(params.implied_eps, abs=1e-12)
    assert np.isfinite(res.bound_bits)
    assert res.ds1_diagnostics == () and res.ds2_diagnostics == ()


def test_one_shot_result_carries_the_ds_eps_diagnostics(monkeypatch):
    real = bounds_module.ds_eps

    def flagged(rho, sigma, eps):
        value = real(rho, sigma, eps)
        return EntropyValue(value.bits, value.support_ok, (f"flag {eps}",))

    monkeypatch.setattr(bounds_module, "ds_eps", flagged)
    params = preset_split(0.1, 1, 2, purity=0.5)
    res = one_shot_rhs(make_channel("identity", 2), DensityMatrix(np.eye(2) / 2), params)
    assert res.ds1_diagnostics == (f"flag {params.delta1}",)
    assert res.ds2_diagnostics == (f"flag {params.delta2}",)


def test_one_shot_bound_monotone_in_delta1():
    # larger delta1 tightens the smoothing term but loosens the log penalty;
    # the divergence term is nondecreasing in delta1
    ch = make_channel("dephasing", 0.1)
    rho = DensityMatrix(np.eye(2) / 2)
    prev = -np.inf
    for delta1 in np.linspace(0.01, 0.19, 10):
        params = OneShotParams(
            eps1=0.2, eps2=0.2, delta1=float(delta1), delta2=0.1, d=2
        )
        res = one_shot_rhs(ch, rho, params)
        assert res.ds1_bits >= prev - 1e-9
        prev = res.ds1_bits


def test_one_shot_dimension_checks():
    ch = make_channel("identity", 2)
    rho = DensityMatrix(np.eye(2) / 2)
    bad_d = OneShotParams(eps1=0.1, eps2=0.1, delta1=0.05, delta2=0.05, d=3)
    with pytest.raises(BadParamsError):
        one_shot_rhs(ch, rho, bad_d)
    ch3 = make_channel("identity", 3)
    good = OneShotParams(eps1=0.1, eps2=0.1, delta1=0.05, delta2=0.05, d=2)
    with pytest.raises(DimensionMismatchError):
        one_shot_rhs(ch3, rho, good)


def test_one_shot_implied_consistency_guard():
    ch = make_channel("identity", 2)
    rho = DensityMatrix(np.eye(2) / 2)
    params = OneShotParams(
        eps1=0.1, eps2=0.1, delta1=0.05, delta2=0.05, d=2, implied_eps=0.123
    )
    with pytest.raises(BadParamsError):
        one_shot_rhs(ch, rho, params)


def test_one_shot_erasure_implied_matches_formula():
    ch = make_channel("erasure", 0.5)
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    params = OneShotParams(eps1=0.2, eps2=0.2, delta1=0.1, delta2=0.1, d=2)
    res = one_shot_rhs(ch, rho, params)
    purity = 0.7**2 + 0.3**2
    assert res.implied_eps == pytest.approx(
        (0.2 + np.sqrt(purity + 0.2)) * 1.5, abs=1e-12
    )
    assert isinstance(res, OneShotResult)


# ---------------------------------------------------------------------------
# coherent-information maximization
# ---------------------------------------------------------------------------


def test_maximize_identity_channel(identity_ic):
    ch, res = identity_ic
    assert res.ic_bits == pytest.approx(1.0, abs=1e-7)
    # the maximally mixed state is evaluated directly and kept verbatim
    dists = [
        trace_distance(s.mat, np.eye(2) / 2) for s in res.argmax_states
    ]
    assert min(dists) < 1e-6
    assert len(res.argmax_states) == len(res.per_state_variance)


def test_maximize_beats_fixed_inputs():
    ch = make_channel("dephasing", 0.1)
    res = maximize_coherent_info(ch, restarts=2, seed=0)
    assert res.ic_bits >= coherent_info(ch, np.eye(2) / 2) - 1e-9


def test_maximize_dephasing_closed_form(dephasing_ic):
    p = 0.1
    ch, res = dephasing_ic
    assert res.ic_bits == pytest.approx(1.0 - binary_entropy(p), abs=1e-6)


def test_maximize_qutrit_erasure_closed_form():
    p = 0.3
    res = maximize_coherent_info(make_channel("erasure", p, 3), seed=0)
    assert res.ic_bits == pytest.approx((1 - 2 * p) * np.log2(3), abs=1e-9)


def test_maximize_rejects_large_dimension():
    ch = make_channel("identity", 16)
    with pytest.raises(ScaleLimitError):
        maximize_coherent_info(ch)


def test_maximize_trace_has_grid_section_for_qubits(dephasing_ic):
    _, res = dephasing_ic
    assert "bloch_grid_ic_bits" in res.optimizer_trace
    grid_val = res.optimizer_trace["bloch_grid_ic_bits"]
    assert abs(res.optimizer_trace["bloch_grid_gap"]) < 1e-8
    assert res.ic_bits >= grid_val - 1e-8


def test_maximize_trace_records_each_minimize_call(dephasing_ic):
    _, res = dephasing_ic
    trace = res.optimizer_trace
    nfev, converged = trace["start_nfev"], trace["start_converged"]
    # the maximally mixed start plus restarts=2 random ones, one entry each
    assert trace["starts"] == 3
    assert len(nfev) == len(converged) == trace["starts"]
    assert all(type(v) is int and v > 0 for v in nfev)
    assert all(type(v) is bool for v in converged)


def test_bloch_grid_matches_closed_form():
    p = 0.1
    ch = make_channel("dephasing", p)
    val = bloch_grid_coherent_info(ch)
    assert val == pytest.approx(1.0 - binary_entropy(p), abs=1e-6)


def test_bloch_grid_requires_qubit_input():
    with pytest.raises(ScaleLimitError):
        bloch_grid_coherent_info(make_channel("identity", 3))


def test_n_copy_divergence_tracks_mean_within_window():
    # n-copy spectral divergence stays within the concentration window
    # sqrt(n V / min(delta, 1-delta)) + 1 around n D
    from petzlab.entropy import ds_eps, reference_output, rel_entropy

    p = 0.1
    ch = make_channel("dephasing", p)
    rho = np.eye(2) / 2
    omega = reference_output(ch, rho)
    ref = np.kron(np.eye(2), ch.apply_mat(rho))
    d_val = rel_entropy(omega, ref).bits
    v_val = rel_entropy_variance(omega, ref).bits
    for n in (2, 3):
        omega_n = omega.copy()
        ref_n = ref.copy()
        for _ in range(n - 1):
            omega_n = np.kron(omega_n, omega)
            ref_n = np.kron(ref_n, ref)
        for delta in (0.1, 0.3):
            got = ds_eps(omega_n, ref_n, delta).bits
            window = np.sqrt(n * v_val / min(delta, 1 - delta)) + 1.0
            assert abs(got - n * d_val) <= window, (n, delta)


# ---------------------------------------------------------------------------
# dispersion and second-order expansion
# ---------------------------------------------------------------------------


def test_dispersion_identity_zero(identity_ic):
    ch, res = identity_ic
    assert quantum_dispersion(ch, 0.25, res) == pytest.approx(0.0, abs=1e-8)


def test_dispersion_rejects_half(identity_ic):
    ch, res = identity_ic
    with pytest.raises(EpsilonHalfError):
        quantum_dispersion(ch, 0.5, res)
    with pytest.raises(OutOfRangeError):
        quantum_dispersion(ch, 0.0, res)


def test_dispersion_dephasing_unique_argmax(dephasing_ic):
    # unique argmax: both branches return the closed-form variance
    p = 0.1
    ch, res = dephasing_ic
    expect = p * (1 - p) * (np.log2((1 - p) / p)) ** 2
    assert quantum_dispersion(ch, 0.25, res) == pytest.approx(expect, abs=1e-4)
    assert quantum_dispersion(ch, 0.75, res) == pytest.approx(expect, abs=1e-4)


def test_dispersion_erasure_branches_differ(erasure_ic):
    # half-erasure has a degenerate argmax set with variances spanning 0 to 1
    ch, res = erasure_ic
    lo = quantum_dispersion(ch, 0.25, res)
    hi = quantum_dispersion(ch, 0.75, res)
    assert lo == pytest.approx(0.0, abs=1e-6)
    assert hi > 0.5


def test_second_order_identity_is_n_bits():
    ch = make_channel("identity", 2)
    res = second_order_bound(ch, 0.25, 100, seed=0, restarts=2)
    assert res.bound_bits == pytest.approx(100.0, abs=1e-6)
    assert res.caveat == "log-order-term-dropped"
    assert isinstance(res, SecondOrderResult)


def test_second_order_scaling_identity():
    # V = 0: the bound is exactly linear in n
    ch = make_channel("identity", 2)
    r1 = second_order_bound(ch, 0.25, 50, seed=0, restarts=2)
    r2 = second_order_bound(ch, 0.25, 200, seed=0, restarts=2)
    assert r2.bound_bits == pytest.approx(4.0 * r1.bound_bits, abs=1e-6)


def test_second_order_sign_of_correction(dephasing_ic):
    # below eps = 1/2 the correction is negative, above it positive
    ch, ic_res = dephasing_ic
    lo = second_order_bound(ch, 0.25, 100, ic_result=ic_res)
    hi = second_order_bound(ch, 0.75, 100, ic_result=ic_res)
    linear = 100 * ic_res.ic_bits
    assert lo.bound_bits < linear
    assert hi.bound_bits > linear
    assert lo.v_eps > 0 and hi.v_eps > 0


def test_second_order_matches_formula(dephasing_ic):
    ch, ic_res = dephasing_ic
    n, eps = 400, 0.1
    res = second_order_bound(ch, eps, n, ic_result=ic_res)
    v = quantum_dispersion(ch, eps, ic_res)
    expect = n * ic_res.ic_bits + np.sqrt(n * max(v, 0.0)) * inv_normal_cdf(eps)
    assert res.bound_bits == pytest.approx(expect, abs=1e-9)
    assert res.n == n and res.eps == eps


def test_coherent_info_result_shape(erasure_ic):
    ch, res = erasure_ic
    assert isinstance(res, CoherentInfoResult)
    assert abs(res.ic_bits) < 1e-7
    assert res.tol_eta == 1e-6
    assert len(res.argmax_states) >= 1
    for s, v in zip(res.argmax_states, res.per_state_variance):
        assert coherent_info(ch, s.mat) >= res.ic_bits - 1e-5
        assert v >= -1e-12
