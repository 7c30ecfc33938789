"""The four workloads: the CLI commands each one runs and the checks on
their outputs.

A workload is built from the benchmark seed alone: each function in
WORKLOADS takes (seed, workdir) and returns the operations of one round.
An operation is a CLI argv and a check that takes the operation's result
and returns a list of error messages, empty when the output is right.
Checks compare against `oracles`, which does not import petzlab.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O

# verify seeds at --trials 100 on which every family passes today (0-29 less
# 3, 6 and 14). Seed 3 stays in every round as the one counted failure:
# average-entanglement-fidelity reports a violation of 2.9e-4 there, on a
# true identity.
VERIFY_PASSING_SEEDS = (0, 1, 2, 4, 5, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18,
                        19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29)
VERIFY_FAILING_SEED = 3
VERIFY_TRIALS = 100
VERIFY_FAMILIES = 7
LEMMA_TOL = 1e-7

CAPACITY_NS = (100, 400, 1600)

# check tolerances
IC_ATOL = 1e-8
VAR_RTOL = 1e-4
GRID_ATOL = 1e-5
REL_RTOL = 1e-9
FE_ATOL = 1e-9
DS_ATOL = 1e-8
TAIL_STEP = 1e-7


@dataclass
class Result:
    """What one CLI invocation returned, plus the optimizer results the
    benchmark captured while it ran (capacity only)."""

    code: int
    stdout: str
    stderr: str
    captured: list = field(default_factory=list)


@dataclass
class Op:
    argv: list[str]
    check: Callable[[Result], list[str]]


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """The CLI's CSV: one '#'-prefixed JSON metadata line, a header, rows."""
    lines = text.splitlines()
    meta = json.loads(lines[0][1:])
    cols = lines[1].split(",")
    return meta, [dict(zip(cols, line.split(","))) for line in lines[2:]]


def _close(a: float, b: float, rtol: float = REL_RTOL, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _expect(errors: list[str], ok: bool, msg: str) -> None:
    if not ok:
        errors.append(msg)


def _seed_meta(errors: list[str], meta: dict, seed: int) -> None:
    _expect(errors, meta.get("seed") == seed, f"metadata seed {meta.get('seed')} != {seed}")


# ---------------------------------------------------------------------------
# capacity: second-order rates through the coherent-information optimizer
# ---------------------------------------------------------------------------


def check_erasure_case(seed: int, r: Result) -> list[str]:
    """erasure:0.5 has I_c = 0: the bound is <= 0 below eps 1/2, and above it
    positive with bound(4n) = 2 bound(n) and V between its value at the
    maximally mixed input, 1, and V_max."""
    errors: list[str] = []
    ic, v_min, v_max = O.erasure_ic(0.5, 2), O.erasure_var(0.5, 2), O.erasure_vmax(0.5)[0]
    meta, rows = parse_csv(r.stdout)
    _seed_meta(errors, meta, seed)
    b = {(float(x["eps"]), int(x["n"])): float(x["bound_bits"]) for x in rows}
    _expect(errors, len(rows) == 2 * len(CAPACITY_NS), f"{len(rows)} rows")
    z = O.normal_quantile(0.75)
    for n in CAPACITY_NS:
        _expect(errors, b[0.25, n] <= 1e-9, f"eps 0.25 n {n}: bound {b[0.25, n]} > 0")
        _expect(errors, b[0.75, n] > 0, f"eps 0.75 n {n}: bound {b[0.75, n]} <= 0")
        v = (b[0.75, n] / (math.sqrt(n) * z)) ** 2
        _expect(errors, v_min - 1e-9 <= v <= v_max + 1e-9, f"n {n}: V {v} outside [{v_min}, {v_max}]")
    for n in CAPACITY_NS[:-1]:
        _expect(errors, _close(b[0.75, 4 * n], 2 * b[0.75, n]),
                f"bound(4n) {b[0.75, 4 * n]} != 2 bound(n) {2 * b[0.75, n]}")
    errors += _check_optimizer(r, ic)
    return errors


def check_bound(seed: int, eps: float, ic: float, var: float, r: Result) -> list[str]:
    """I_c and V against their closed forms; bound = n I_c + sqrt(n V) z."""
    errors: list[str] = []
    meta, rows = parse_csv(r.stdout)
    _seed_meta(errors, meta, seed)
    _expect(errors, [int(x["n"]) for x in rows] == list(CAPACITY_NS), "n column")
    z = O.normal_quantile(eps)
    for x in rows:
        n, got_ic, got_v = int(x["n"]), float(x["ic_bits"]), float(x["v_eps"])
        _expect(errors, abs(got_ic - ic) <= IC_ATOL, f"I_c {got_ic} != {ic}")
        _expect(errors, _close(got_v, var, VAR_RTOL), f"V {got_v} != {var}")
        want = n * got_ic + math.sqrt(n * got_v) * z
        _expect(errors, _close(float(x["bound_bits"]), want), f"bound {x['bound_bits']} != {want}")
    errors += _check_optimizer(r, ic)
    return errors


def _check_optimizer(r: Result, ic: float) -> list[str]:
    """The optimizer's value matches the closed form and, for qubits, the
    Bloch-grid search, which is a second path to the same maximum."""
    errors: list[str] = []
    if len(r.captured) != 1:
        return [f"{len(r.captured)} optimizer results captured, expected 1"]
    res = r.captured[0]
    _expect(errors, abs(res.ic_bits - ic) <= IC_ATOL, f"optimizer I_c {res.ic_bits} != {ic}")
    grid = res.optimizer_trace.get("bloch_grid_ic_bits")
    if grid is not None:
        _expect(errors, abs(grid - res.ic_bits) <= GRID_ATOL,
                f"optimizer {res.ic_bits} and Bloch grid {grid} disagree")
    return errors


def capacity(seed: int, workdir: Path) -> list[Op]:
    s = str(seed)
    ns = ",".join(map(str, CAPACITY_NS))
    return [
        Op(["--seed", s, "--threads", "1", "erasure-case", "--eps", "0.25,0.75", "--n", ns],
           lambda r: check_erasure_case(seed, r)),
        Op(["--seed", s, "--threads", "1", "bound", "--channel", "dephasing:0.1",
            "--eps", "0.25", "--n", ns],
           lambda r: check_bound(seed, 0.25, O.dephasing_ic(0.1), O.dephasing_var(0.1), r)),
        Op(["--seed", s, "--threads", "1", "bound", "--channel", "erasure:0.3:3",
            "--eps", "0.75", "--n", ns],
           lambda r: check_bound(seed, 0.75, O.erasure_ic(0.3, 3), O.erasure_var(0.3, 3), r)),
    ]


# ---------------------------------------------------------------------------
# codes: random codes decoded with the transpose channel
# ---------------------------------------------------------------------------


def check_simulate(seed: int, ks: np.ndarray, m: int, samples: int, fmt: str,
                   recheck: tuple[int, ...], r: Result) -> list[str]:
    """Every F_e in [0, 1]; the best code is the argmax; F_e recomputed for a
    sample of codes (the best among them) by the benchmark's own decoder."""
    errors: list[str] = []
    if fmt == "csv":
        meta, rows = parse_csv(r.stdout)
        summary = json.loads(r.stderr)["summary"]
    else:
        doc = json.loads(r.stdout)
        meta, rows, summary = doc["metadata"], doc["rows"], doc["summary"]
    _seed_meta(errors, meta, seed)
    f = np.array([float(x["f_ent"]) for x in rows])
    _expect(errors, f.size == samples and summary["samples"] == samples, f"{f.size} samples")
    _expect(errors, bool(np.all((f >= -1e-12) & (f <= 1 + 1e-12))), "F_e outside [0, 1]")
    best = int(summary["best_index"])
    _expect(errors, best == int(np.argmax(f)) and summary["max"] == f.max(), "best code is not the argmax")
    d = ks.shape[2]
    for i in sorted({best, *recheck}):
        want = O.petz_fe(ks, np.eye(d) / d, O.code_sample_projector(seed, i, d, m))
        _expect(errors, abs(f[i] - want) <= FE_ATOL, f"code {i}: F_e {f[i]} != {want}")
    if ks.shape[0] == 1 and ks.shape[1] == d and np.allclose(ks[0], np.eye(d)):
        _expect(errors, bool(np.all(np.abs(f - 1) <= 1e-10)), "identity channel F_e != 1")
    return errors


def codes(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    rand = O.random_kraus(3, 3, 2, rng)
    path = workdir / f"codes-random-{seed}.json"
    path.write_text(json.dumps(O.kraus_to_json(rand)))
    runs = [
        # spec, Kraus stack, m, samples, format
        ("erasure:0.3", O.kraus_erasure(0.3, 2), 1, 150, "csv"),
        (f"@{path}", rand, 2, 150, "json"),
        ("erasure:0.3:4", O.kraus_erasure(0.3, 4), 2, 150, "csv"),
        ("identity:5", O.kraus_identity(5), 2, 60, "json"),
        ("depolarizing:0.1:8", O.kraus_depolarizing(0.1, 8), 4, 50, "csv"),
    ]
    ops = []
    for spec, ks, m, samples, fmt in runs:
        recheck = tuple(int(i) for i in rng.choice(samples, 3, replace=False))
        ops.append(Op(
            ["--seed", str(seed), "--threads", "1", "--format", fmt, "simulate",
             "--channel", spec, "--m", str(m), "--samples", str(samples)],
            lambda r, ks=ks, m=m, n=samples, fmt=fmt, rc=recheck:
                check_simulate(seed, ks, m, n, fmt, rc, r),
        ))
    return ops


# ---------------------------------------------------------------------------
# oneshot: information-spectrum divergences at the maximally mixed input
# ---------------------------------------------------------------------------


def check_oneshot(ks: np.ndarray, commuting: bool, fmt: str, given: dict | None,
                  r: Result) -> list[str]:
    """Recover ds_1 and ds_2 from the two terms and check them: against the
    classical quantile where the pair commutes, else against D_max and the
    tail statistic on either side of the returned value."""
    errors: list[str] = []
    if fmt == "csv":
        _, rows = parse_csv(r.stdout)
        row = {k: float(v) for k, v in rows[0].items()}
    else:
        row = json.loads(r.stdout)
    p = {k: float(row[k]) for k in ("eps1", "eps2", "delta1", "delta2")}
    if given is not None:
        _expect(errors, p == given, f"split {p} != requested {given}")
    d = ks.shape[2]
    pi = np.eye(d, dtype=complex) / d
    omega = O.reference_state(ks, pi)
    pairs = (
        (omega, np.kron(np.eye(d), O.apply(ks, pi)), "1", commuting),
        (O.reference_state(O.kraus_identity(d), pi), np.kron(np.eye(d), pi), "2", True),
    )
    for rho, sigma, i, comm in pairs:
        eps, delta = p["eps" + i], p["delta" + i]
        ds = float(row["term" + i + "_bits"]) - math.log2((eps - delta) / (1 - eps))
        if comm:
            want = O.commuting_ds(rho, sigma, delta)
            _expect(errors, abs(ds - want) <= DS_ATOL, f"ds{i} {ds} != quantile {want}")
        else:
            dm = O.dmax(rho, sigma)
            _expect(errors, ds <= dm + 1e-9, f"ds{i} {ds} > D_max {dm}")
            below = O.tail_stat(rho, sigma, ds - TAIL_STEP)
            above = O.tail_stat(rho, sigma, ds + TAIL_STEP)
            _expect(errors, below <= delta + 1e-12 and above > delta,
                    f"ds{i} {ds}: tail {below}, {above} does not cross {delta}")
    _expect(errors, float(row["bound_bits"]) == min(float(row["term1_bits"]), float(row["term2_bits"])),
            "bound != min of the terms")
    implied = (p["eps1"] + math.sqrt(1 / d + p["eps2"])) * (1 + 1 / d)
    _expect(errors, _close(float(row["implied_eps"]), implied), f"implied eps {row['implied_eps']} != {implied}")
    return errors


def oneshot(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for d in range(2, 9):
        p_dep = round(float(rng.uniform(0.05, 0.3)), 4)
        p_era = round(float(rng.uniform(0.1, 0.4)), 4)
        rand = O.random_kraus(d, d, 2, rng)
        path = workdir / f"oneshot-random-{seed}-{d}.json"
        path.write_text(json.dumps(O.kraus_to_json(rand)))
        cases = (
            (f"depolarizing:{p_dep}:{d}", O.kraus_depolarizing(p_dep, d), True),
            (f"erasure:{p_era}:{d}", O.kraus_erasure(p_era, d), True),
            (f"@{path}", rand, False),
        )
        for j, (spec, ks, commuting) in enumerate(cases):
            # CSV only with explicit splits: a preset split can print
            # np.float64(...) reprs into the CSV (see CHANGES.md).
            fmt = "csv" if (d + j) % 4 == 1 else "json"
            argv = ["--seed", str(seed), "--threads", "1", "--format", fmt, "oneshot", "--channel", spec]
            if (d + j) % 2:
                eps1, eps2 = (round(float(x), 4) for x in rng.uniform(0.05, 0.9, 2))
                given = {"eps1": eps1, "eps2": eps2,
                         "delta1": round(eps1 * float(rng.uniform(0.1, 0.9)), 6),
                         "delta2": round(eps2 * float(rng.uniform(0.1, 0.9)), 6)}
                for k, v in given.items():
                    argv += [f"--{k}", repr(v)]
            else:
                given = None
                eps = round(float(rng.uniform(0.05, 0.95)), 4)
                argv += ["--eps", repr(eps), "--n", str(int(rng.choice([1, 100, 10000])))]
            ops.append(Op(argv, lambda r, ks=ks, c=commuting, fmt=fmt, g=given:
                          check_oneshot(ks, c, fmt, g, r)))
    return ops


# ---------------------------------------------------------------------------
# verify: the lemma suite
# ---------------------------------------------------------------------------


def check_verify(seed: int, r: Result) -> list[str]:
    """Every family of the suite passes (exit code 0, all rows true)."""
    errors: list[str] = []
    meta, rows = parse_csv(r.stdout)
    _seed_meta(errors, meta, seed)
    _expect(errors, len(rows) == VERIFY_FAMILIES, f"{len(rows)} families")
    for x in rows:
        ok = x["passed"] == "true" and float(x["max_violation"]) <= LEMMA_TOL
        _expect(errors, ok, f"seed {seed}: family {x['lemma_id']} failed")
    return errors


def passing_seed(seed: int) -> int:
    return VERIFY_PASSING_SEEDS[seed % len(VERIFY_PASSING_SEEDS)]


def verify(seed: int, workdir: Path) -> list[Op]:
    picked = passing_seed(seed)
    return [
        Op(["--seed", str(s), "--threads", "1", "verify", "--trials", str(VERIFY_TRIALS)],
           lambda r, s=s: check_verify(s, r))
        for s in (VERIFY_FAILING_SEED, picked)
    ]


def leaky_pinching(u, x):
    """A pinching that keeps 1e-3 of one off-diagonal entry: the suite must
    report pinching-identities failed with it."""
    y = np.conj(u).T @ x @ u
    kept = np.diag(np.diag(y))
    kept[0, 1] += 1e-3 * y[0, 1]
    return u @ kept @ np.conj(u).T


def verify_negative_control(seed: int) -> list[str]:
    from petzlab.cli import run_lemma_suite

    reports = {r.lemma_id: r for r in run_lemma_suite(seed, trials=20, pinching=leaky_pinching)}
    if reports["pinching-identities"].passed:
        return ["negative control: a leaky pinching map passed pinching-identities"]
    return []


WORKLOADS = {"capacity": capacity, "codes": codes, "oneshot": oneshot, "verify": verify}
