"""Each output check must fail on a wrong answer: feed it values built by
the oracles, then the same values corrupted.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

META = {"seed": 5}
NS = W.CAPACITY_NS


def csv(cols, rows, meta=META):
    lines = ["#" + json.dumps(meta), ",".join(cols)]
    lines += [",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c]) for c in cols) for r in rows]
    return "\n".join(lines) + "\n"


def optimizer(ic, grid=None):
    trace = {} if grid is None else {"bloch_grid_ic_bits": grid}
    return SimpleNamespace(ic_bits=ic, optimizer_trace=trace)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_erasure_vmax_matches_reference_scan():
    v, lam = O.erasure_vmax(0.5)
    assert abs(v - 1.171561) < 1e-6 and abs(lam - 0.1614) < 1e-3


@pytest.mark.parametrize("p,d", [(0.5, 2), (0.3, 3), (0.1, 4)])
def test_erasure_variance_closed_form(p, d):
    v = O.channel_variance(O.kraus_erasure(p, d), np.eye(d, dtype=complex) / d)
    assert abs(v - O.erasure_var(p, d)) < 1e-12


def test_commuting_ds_rejects_non_commuting_pair():
    ks = O.random_kraus(3, 3, 2, np.random.default_rng(0))
    pi = np.eye(3) / 3
    with pytest.raises(ValueError):
        O.commuting_ds(O.reference_state(ks, pi), np.kron(np.eye(3), O.apply(ks, pi)), 0.1)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def erasure_case_result(v75=1.1, b25=0.0, grid=0.0, scale_last=1.0):
    z = O.normal_quantile(0.75)
    rows = [{"eps": 0.25, "n": n, "bound_bits": b25, "regime": "O(1)"} for n in NS]
    rows += [{"eps": 0.75, "n": n, "bound_bits": math.sqrt(n * v75) * z, "regime": "sqrt(n)"} for n in NS]
    rows[-1]["bound_bits"] *= scale_last
    return W.Result(0, csv(["eps", "n", "bound_bits", "regime"], rows), "", [optimizer(0.0, grid)])


@pytest.mark.parametrize("bad", [
    {"b25": 0.05},          # positive bound below eps 1/2
    {"v75": 1.2},           # V above V_max
    {"v75": 0.9},           # V below the maximally mixed value 1
    {"scale_last": 1.01},   # bound(4n) != 2 bound(n)
    {"grid": 1e-3},         # optimizer and Bloch grid disagree
])
def test_erasure_case_check(bad):
    assert W.check_erasure_case(5, erasure_case_result()) == []
    assert W.check_erasure_case(5, erasure_case_result(**bad))


def bound_result(eps, ic, v, d_ic=0.0, v_scale=1.0, d_bound=0.0, grid=None, seed=5):
    z = O.normal_quantile(eps)
    rows = [{"n": n, "eps": eps, "ic_bits": ic + d_ic, "v_eps": v * v_scale,
             "bound_bits": n * (ic + d_ic) + math.sqrt(n * v * v_scale) * z + d_bound,
             "caveat": "log-order-term-dropped"} for n in NS]
    cols = ["n", "eps", "ic_bits", "v_eps", "bound_bits", "caveat"]
    return W.Result(0, csv(cols, rows, {"seed": seed}), "", [optimizer(ic + d_ic, grid)])


@pytest.mark.parametrize("bad", [
    {"d_ic": 1e-6}, {"v_scale": 1.001}, {"d_bound": 1e-6}, {"seed": 6}, {"grid": 0.5},
])
def test_bound_check(bad):
    ic, v = O.dephasing_ic(0.1), O.dephasing_var(0.1)
    assert W.check_bound(5, 0.25, ic, v, bound_result(0.25, ic, v, grid=ic)) == []
    assert W.check_bound(5, 0.25, ic, v, bound_result(0.25, ic, v, **{"grid": ic, **bad}))


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------


def simulate_result(ks, m, samples, fmt, corrupt=None):
    d = ks.shape[2]
    f = [O.petz_fe(ks, np.eye(d) / d, O.code_sample_projector(5, i, d, m)) for i in range(samples)]
    if corrupt is not None:
        i = int(np.argmax(f))
        f[i] = corrupt(f[i])
    rows = [{"sample_idx": i, "f_ent": x} for i, x in enumerate(f)]
    summary = {"samples": samples, "max": max(f), "best_index": int(np.argmax(f))}
    if fmt == "csv":
        return W.Result(0, csv(["sample_idx", "f_ent"], rows), json.dumps({"summary": summary}))
    return W.Result(0, json.dumps({"metadata": META, "rows": rows, "summary": summary}), "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("corrupt", [lambda f: f + 1e-6, lambda f: 1.0 + 1e-9])
def test_simulate_check(fmt, corrupt):
    ks = O.random_kraus(3, 3, 2, np.random.default_rng(1))
    assert W.check_simulate(5, ks, 2, 8, fmt, (0, 1), simulate_result(ks, 2, 8, fmt)) == []
    assert W.check_simulate(5, ks, 2, 8, fmt, (0, 1), simulate_result(ks, 2, 8, fmt, corrupt))


def test_simulate_identity_must_be_one():
    ks = O.kraus_identity(3)
    good = simulate_result(ks, 2, 4, "json")
    assert W.check_simulate(5, ks, 2, 4, "json", (), good) == []
    doc = json.loads(good.stdout)
    doc["rows"][0]["f_ent"] = 0.9999
    bad = W.Result(0, json.dumps(doc), "")
    assert W.check_simulate(5, ks, 2, 4, "json", (), bad)


# ---------------------------------------------------------------------------
# oneshot
# ---------------------------------------------------------------------------


def oneshot_result(ks, ds1, ds2, split, shift=0.0):
    d = ks.shape[2]
    e1, e2, d1, d2 = split["eps1"], split["eps2"], split["delta1"], split["delta2"]
    t1 = ds1 + shift + math.log2((e1 - d1) / (1 - e1))
    t2 = ds2 + math.log2((e2 - d2) / (1 - e2))
    row = {**split, "term1_bits": t1, "term2_bits": t2, "bound_bits": min(t1, t2),
           "implied_eps": (e1 + math.sqrt(1 / d + e2)) * (1 + 1 / d)}
    return W.Result(0, json.dumps(row), "")


SPLIT = {"eps1": 0.4, "eps2": 0.3, "delta1": 0.17, "delta2": 0.1}


@pytest.mark.parametrize("shift", [1e-6, -1e-6, 0.5])
def test_oneshot_check_commuting(shift):
    ks = O.kraus_erasure(0.3, 3)
    pi = np.eye(3) / 3
    ds1 = O.commuting_ds(O.reference_state(ks, pi), np.kron(np.eye(3), O.apply(ks, pi)), 0.17)
    ds2 = math.log2(3)
    assert W.check_oneshot(ks, True, "json", SPLIT, oneshot_result(ks, ds1, ds2, SPLIT)) == []
    assert W.check_oneshot(ks, True, "json", SPLIT, oneshot_result(ks, ds1, ds2, SPLIT, shift))


@pytest.mark.parametrize("shift", [1e-5, -1e-5, 10.0])
def test_oneshot_check_non_commuting(shift):
    from petzlab.entropy import ds_eps

    ks = O.random_kraus(3, 3, 2, np.random.default_rng(2))
    pi = np.eye(3) / 3
    ds1 = ds_eps(O.reference_state(ks, pi), np.kron(np.eye(3), O.apply(ks, pi)), 0.17).bits
    ds2 = math.log2(3)
    assert W.check_oneshot(ks, False, "json", SPLIT, oneshot_result(ks, ds1, ds2, SPLIT)) == []
    assert W.check_oneshot(ks, False, "json", SPLIT, oneshot_result(ks, ds1, ds2, SPLIT, shift))


# ---------------------------------------------------------------------------
# verify and the tracer
# ---------------------------------------------------------------------------


def test_verify_check():
    cols = ["lemma_id", "trials", "max_violation", "passed"]
    rows = [{"lemma_id": f"f{i}", "trials": 10, "max_violation": 0.0, "passed": "true"} for i in range(7)]
    assert W.check_verify(5, W.Result(0, csv(cols, rows), "")) == []
    rows[2] = {**rows[2], "max_violation": 3e-4, "passed": "false"}
    assert W.check_verify(5, W.Result(0, csv(cols, rows), ""))


def test_negative_control_fails_with_a_true_pinching(monkeypatch):
    assert W.verify_negative_control(0) == []
    from petzlab.petz import dephasing_map

    monkeypatch.setattr(W, "leaky_pinching", dephasing_map)
    assert W.verify_negative_control(0)


def test_tracer_replaces_every_binding_and_restores_them():
    import petzlab.bounds as bounds
    import petzlab.cli as cli
    import petzlab.entropy as entropy

    originals = (entropy.coherent_info, bounds.coherent_info, cli.maximize_coherent_info, np.linalg.eigh)
    tracer = Tracer()
    tracer.install()
    try:
        assert bounds.coherent_info is entropy.coherent_info is not originals[0]
        from petzlab.channel import make_channel

        bounds.coherent_info(make_channel("dephasing", 0.1), np.eye(2) / 2)
        bounds.minimize(lambda x: float((x**2).sum()), np.ones(2), method="Nelder-Mead")
    finally:
        tracer.uninstall()
    assert (entropy.coherent_info, bounds.coherent_info, cli.maximize_coherent_info, np.linalg.eigh) == originals
    m = tracer.metrics(1)
    assert m["entropy.coherent_info.calls"] == 1 and m["linalg.eigvalsh.calls"] >= 2
    assert m["bounds.minimize.calls"] == 1 and m["bounds.minimize.converged_ratio"] == 1.0
    # one objective evaluation per minimize step was never traced: the
    # two-path count check must fail
    assert tracer.coherent_info_check(0, 1)


def test_scaled_divides_out_the_slowdown():
    from probe import REF_LOOP_S, Reading, scaled

    # 10 probes at twice the reference loop time over 4.2 s of wall time
    a = Reading(wall=1.0, cpu=0.5, probe_s=0.0, probes=0)
    b = Reading(wall=5.2, cpu=4.7, probe_s=20 * REF_LOOP_S, probes=10)
    wall, cpu, factor = scaled(a, b)
    assert factor == pytest.approx(2.0)
    assert wall == pytest.approx((4.2 - 20 * REF_LOOP_S) / 2)
    assert cpu == pytest.approx((4.2 - 20 * REF_LOOP_S) / 2)


def test_probe_samples_and_restores_the_handler():
    import signal
    import time

    from probe import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    probe.start()
    try:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.1:
            pass
    finally:
        probe.stop()
    assert probe.probes >= 5 and probe.probe_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
