"""Achievability bounds on entanglement transmission: the one-shot bound from
the two spectral-divergence terms, coherent-information maximization with an
argmax set, the epsilon-dependent dispersion, and the second-order expansion
n * I_c + sqrt(n * V_eps) * Phi^{-1}(eps) (the log-order term is dropped and
flagged, never folded in).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .channel import Channel
from .entropy import (
    _coherent_info_gradient,
    channel_variance,
    coherent_info,
    ds_eps,
    inv_normal_cdf,
)
from .errors import (
    BadParamsError,
    DimensionMismatchError,
    EpsilonHalfError,
    NumericsError,
    OutOfRangeError,
    ScaleLimitError,
)
from .linalg import as_matrix
from .qstate import DensityMatrix, keyed_stream, purify, trace_distance

ARGMAX_DISTINCT_TOL = 1e-4
OPTIMIZER_DIM_LIMIT = 8
# states within ARGMAX_TOL_ETA of the best value form the argmax set
ARGMAX_TOL_ETA = 1e-6
# stop each start well inside ARGMAX_TOL_ETA, so converged starts that reach
# one optimum agree to round-off and the argmax set holds no stragglers
LBFGS_OPTIONS = {"ftol": 1e-15, "gtol": 1e-10}


@dataclass(frozen=True)
class OneShotParams:
    """Error split for the one-shot bound: two epsilon budgets with their
    spectral-divergence smoothing margins, 0 < delta_i < eps_i < 1."""

    eps1: float
    eps2: float
    delta1: float
    delta2: float
    d: int
    implied_eps: float | None = None

    def __post_init__(self):
        for name, eps, delta in (
            ("1", self.eps1, self.delta1),
            ("2", self.eps2, self.delta2),
        ):
            if not 0.0 < eps < 1.0:
                raise BadParamsError(f"eps{name} = {eps} outside (0, 1)")
            if not 0.0 < delta < eps:
                raise BadParamsError(
                    f"delta{name} = {delta} must lie in (0, eps{name} = {eps})"
                )
        if self.d < 1:
            raise BadParamsError(f"d = {self.d} must be a positive dimension")


def implied_error(params: OneShotParams, purity: float) -> float:
    """Total error guaranteed by the split for an input of given purity."""
    return (params.eps1 + np.sqrt(purity + params.eps2)) * (1.0 + 1.0 / params.d)


def preset_split(eps: float, n: int, d: int, purity: float) -> OneShotParams:
    """Parameter split mirroring the asymptotic analysis.

    The ideal split eps2 = (eps/(1+1/d) - eps1)^2 - purity and the margins
    delta1 = eps1 - 1/sqrt(n), delta2 = eps2 - 1/n are clamped so that
    0 < delta_i < eps_i holds at every n; at small n the implied total error
    can exceed 1, which is reported rather than hidden.
    """
    if not 0.0 < eps < 1.0:
        raise OutOfRangeError(f"eps = {eps} outside (0, 1)")
    if n < 1:
        raise OutOfRangeError(f"n = {n} must be >= 1")
    eps1 = float(max(eps - 3.0 / np.sqrt(n), eps / 2.0))
    ideal = (eps / (1.0 + 1.0 / d) - eps1) ** 2 - purity
    eps2 = float(ideal if 0.0 < ideal < 1.0 else eps / 2.0)
    delta1 = float(eps1 - min(1.0 / np.sqrt(n), eps1 / 2.0))
    delta2 = float(eps2 - min(1.0 / n, eps2 / 2.0))
    params = OneShotParams(eps1, eps2, delta1, delta2, d)
    return OneShotParams(
        eps1, eps2, delta1, delta2, d, implied_eps=implied_error(params, purity)
    )


@dataclass(frozen=True)
class OneShotResult:
    """The bound terms in bits, their minimum, the implied error, and both ds_eps results."""

    term1_bits: float
    term2_bits: float
    bound_bits: float
    implied_eps: float
    ds1_bits: float
    ds2_bits: float
    ds1_diagnostics: tuple[str, ...]
    ds2_diagnostics: tuple[str, ...]


def one_shot_rhs(ch: Channel, rho: DensityMatrix, params: OneShotParams) -> OneShotResult:
    """One-shot achievable entanglement-transmission rate for the given input
    state and error split.

    term1 pits the joint reference-output state against I (x) N(rho) at
    smoothing delta1; term2 pits the purification against I (x) rho at
    delta2. The bound is their minimum. The implied total error is
    (eps1 + sqrt(tr(rho^2) + eps2)) (1 + 1/d); when the params carry a
    precomputed value it must agree within 1e-12.
    """
    r = as_matrix(rho)
    d = r.shape[0]
    if ch.d_in != d:
        raise DimensionMismatchError(f"channel input {ch.d_in} != state dim {d}")
    if params.d != d:
        raise BadParamsError(f"params.d = {params.d} != state dim {d}")

    v = purify(r).vec
    psi = np.outer(v, v.conj())
    omega = ch.apply_to_second(psi, d)
    ref1 = np.kron(np.eye(d), ch.apply_mat(r))
    ds1 = ds_eps(omega, ref1, params.delta1)
    term1 = ds1.bits + np.log2((params.eps1 - params.delta1) / (1.0 - params.eps1))

    ref2 = np.kron(np.eye(d), r)
    ds2 = ds_eps(psi, ref2, params.delta2)
    term2 = ds2.bits + np.log2((params.eps2 - params.delta2) / (1.0 - params.eps2))

    purity = float(np.trace(r @ r).real)
    implied = implied_error(params, purity)
    if params.implied_eps is not None and abs(params.implied_eps - implied) > 1e-12:
        raise BadParamsError(
            f"implied error {params.implied_eps} inconsistent with recomputed {implied}"
        )
    return OneShotResult(
        term1_bits=float(term1),
        term2_bits=float(term2),
        bound_bits=float(min(term1, term2)),
        implied_eps=float(implied),
        ds1_bits=float(ds1.bits),
        ds2_bits=float(ds2.bits),
        ds1_diagnostics=ds1.diagnostics,
        ds2_diagnostics=ds2.diagnostics,
    )


# ---------------------------------------------------------------------------
# coherent-information maximization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoherentInfoResult:
    """Best coherent information found, the distinct near-optimal input
    states (the approximate argmax set), their variances, and optimizer
    diagnostics."""

    ic_bits: float
    argmax_states: tuple[DensityMatrix, ...]
    per_state_variance: tuple[float, ...]
    tol_eta: float
    optimizer_trace: dict = field(default_factory=dict)


def maximize_coherent_info(
    ch: Channel,
    restarts: int = 8,
    seed: int = 0,
) -> CoherentInfoResult:
    """Maximize coherent information over input states by multistart
    L-BFGS-B on the parametrization rho = A A^dag / tr(A A^dag), with the
    analytic gradient 2 (G - tr(G rho) I) A / tr(A A^dag), where G is the
    gradient of I_c in rho.

    The maximally mixed state and every basis corner are always evaluated
    directly, so the result can never fall below their values. There are
    1 + `restarts` starts: A = I (the maximally mixed state) and `restarts`
    keyed random seeds; optimizer_trace records one start_nfev and one
    start_converged entry per start. States within ARGMAX_TOL_ETA of the best
    value and mutually farther than trace distance 1e-4 form the argmax set;
    the maximally mixed state is checked first, so it appears verbatim
    whenever it qualifies. For qubit inputs an exhaustive Bloch-ball grid
    cross-check runs automatically into the trace.
    """
    d = ch.d_in
    if d > OPTIMIZER_DIM_LIMIT:
        raise ScaleLimitError(
            f"optimizer supports d_in <= {OPTIMIZER_DIM_LIMIT}, got {d}"
        )

    def state(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
        return a, a @ a.conj().T / (x @ x)  # tr(A A^dag) = |x|^2

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        a, rho = state(x)
        g = _coherent_info_gradient(ch, rho)
        grad = 2.0 * (g - np.trace(g @ rho).real * np.eye(d)) @ a / (x @ x)
        return -coherent_info(ch, rho), -np.concatenate(
            [grad.real.ravel(), grad.imag.ravel()]
        )

    candidates: list[tuple[float, np.ndarray]] = []
    pi = np.eye(d, dtype=complex) / d
    candidates.append((coherent_info(ch, pi), pi))
    corners = [np.diag(e).astype(complex) for e in np.eye(d)]
    candidates.extend((coherent_info(ch, e), e) for e in corners)

    starts = [np.concatenate([np.eye(d).ravel(), np.zeros(d * d)])]
    for i in range(restarts):
        rng = keyed_stream(seed, "coherent-info-restart", i)
        starts.append(rng.standard_normal(2 * d * d))

    runs = [
        minimize(objective, x0, jac=True, method="L-BFGS-B", options=LBFGS_OPTIONS)
        for x0 in starts
    ]
    candidates.extend((-float(run.fun), state(run.x)[1]) for run in runs)

    best = max(v for v, _ in candidates)
    chosen: list[tuple[float, np.ndarray]] = []
    for v, m in candidates:
        if v < best - ARGMAX_TOL_ETA:
            continue
        if all(trace_distance(m, other) > ARGMAX_DISTINCT_TOL for _, other in chosen):
            chosen.append((v, m))
    if not chosen:
        raise NumericsError("argmax selection produced no states")

    argmax_states = tuple(DensityMatrix(m) for _, m in chosen)
    variances = tuple(channel_variance(ch, st.mat) for st in argmax_states)
    trace: dict = {
        "starts": len(starts),
        "candidates": len(candidates),
        "argmax_values": tuple(float(v) for v, _ in chosen),
        "distinct_tol": ARGMAX_DISTINCT_TOL,
        "start_nfev": tuple(int(run.nfev) for run in runs),
        "start_converged": tuple(bool(run.success) for run in runs),
    }
    if d == 2:
        grid = bloch_grid_coherent_info(ch)
        trace["bloch_grid_ic_bits"] = grid
        trace["bloch_grid_gap"] = float(best - grid)
    return CoherentInfoResult(
        ic_bits=float(best),
        argmax_states=argmax_states,
        per_state_variance=variances,
        tol_eta=ARGMAX_TOL_ETA,
        optimizer_trace=trace,
    )


# Bloch grid: GRID_BASE_POINTS^3 points per zoom level, each level
# GRID_ZOOM_FACTOR times the width of the last
GRID_BASE_POINTS = 13
GRID_ZOOM_LEVELS = 6
GRID_ZOOM_FACTOR = 0.35

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bloch_grid_coherent_info(ch: Channel) -> float:
    """Independent qubit oracle: exhaustive Bloch-ball grid search for the
    maximal coherent information, zooming around the running best point.
    Points outside the ball are projected to its surface."""
    if ch.d_in != 2:
        raise ScaleLimitError("grid oracle is defined for qubit inputs only")

    def val(r3: np.ndarray) -> float:
        norm = float(np.linalg.norm(r3))
        if norm > 1.0:
            r3 = r3 / norm
        rho = 0.5 * (
            np.eye(2, dtype=complex)
            + r3[0] * _PAULIS[0]
            + r3[1] * _PAULIS[1]
            + r3[2] * _PAULIS[2]
        )
        return coherent_info(ch, rho)

    center = np.zeros(3)
    half = 1.0
    best = -np.inf
    best_r = center
    for _ in range(GRID_ZOOM_LEVELS):
        axes = [
            np.linspace(center[k] - half, center[k] + half, GRID_BASE_POINTS)
            for k in range(3)
        ]
        for x in axes[0]:
            for y in axes[1]:
                for z in axes[2]:
                    r3 = np.array([x, y, z])
                    v = val(r3)
                    if v > best:
                        best = v
                        best_r = r3
        norm = float(np.linalg.norm(best_r))
        center = best_r / norm if norm > 1.0 else best_r
        half *= GRID_ZOOM_FACTOR
    return float(best)


# ---------------------------------------------------------------------------
# dispersion and second-order bound
# ---------------------------------------------------------------------------


def _check_dispersion_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise OutOfRangeError(f"eps = {eps} outside (0, 1)")
    if abs(eps - 0.5) < 1e-12:
        raise EpsilonHalfError("dispersion is defined only for eps != 1/2")


def check_second_order_args(eps: float, n: int) -> None:
    """Raise second_order_bound's error for (eps, n) before any optimizer run."""
    if n < 1:
        raise OutOfRangeError(f"n = {n} must be >= 1")
    _check_dispersion_eps(eps)


def quantum_dispersion(ch: Channel, eps: float, ic_result: CoherentInfoResult) -> float:
    """Dispersion of the channel at error eps: the minimum variance over the
    argmax set below eps = 1/2, the maximum above it. Exactly 1/2 is outside
    the definition's domain."""
    _check_dispersion_eps(eps)
    vs = ic_result.per_state_variance
    if not vs:
        raise NumericsError("empty argmax set")
    return float(min(vs) if eps < 0.5 else max(vs))


@dataclass(frozen=True)
class SecondOrderResult:
    """Second-order achievable rate; the unresolved log-order correction is
    recorded as a caveat, never added to the number."""

    n: int
    eps: float
    ic: float
    v_eps: float
    bound_bits: float
    caveat: str = "log-order-term-dropped"


def second_order_bound(
    ch: Channel,
    eps: float,
    n: int,
    ic_result: CoherentInfoResult | None = None,
    seed: int = 0,
    restarts: int = 8,
) -> SecondOrderResult:
    """n-copy achievable rate n * I_c + sqrt(n * V_eps) * Phi^{-1}(eps).

    Pass a precomputed ic_result to share one maximization across several n.
    """
    check_second_order_args(eps, n)
    if ic_result is None:
        ic_result = maximize_coherent_info(ch, restarts=restarts, seed=seed)
    v_eps = quantum_dispersion(ch, eps, ic_result)
    bound = n * ic_result.ic_bits + np.sqrt(n * max(v_eps, 0.0)) * inv_normal_cdf(eps)
    return SecondOrderResult(
        n=n, eps=eps, ic=ic_result.ic_bits, v_eps=v_eps, bound_bits=float(bound)
    )
