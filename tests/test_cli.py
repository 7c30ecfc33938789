import json

import numpy as np
import pytest
from click.testing import CliRunner

import petzlab.cli as cli_module
from petzlab.cli import (
    COMPLETION_CHOICE,
    LemmaReport,
    _guard,
    channel_hash,
    cli,
    render_csv,
    run_lemma_suite,
)
from petzlab.channel import make_channel
from petzlab.errors import NumericsError, SupportViolationError


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def bound_result(runner):
    return runner.invoke(
        cli,
        ["--seed", "7", "bound", "--channel", "dephasing:0.1", "--eps", "0.25", "--n", "100,400"],
    )


@pytest.fixture(scope="module")
def erasure_case_result(runner):
    return runner.invoke(
        cli,
        ["erasure-case", "--eps", "0.25,0.5,0.75", "--n", "100,400"],
    )


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    meta = json.loads(lines[0][1:])
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return meta, header, rows


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_csv_schema(bound_result):
    assert bound_result.exit_code == 0
    meta, header, rows = parse_csv(bound_result.stdout)
    assert header == ["n", "eps", "ic_bits", "v_eps", "bound_bits", "caveat"]
    assert len(rows) == 2
    assert rows[0]["n"] == "100" and rows[1]["n"] == "400"
    assert rows[0]["caveat"] == "log-order-term-dropped"
    for row in rows:
        float(row["bound_bits"])
        float(row["v_eps"])


def test_bound_metadata_line(bound_result):
    meta, _, _ = parse_csv(bound_result.stdout)
    assert set(meta) == {"version", "seed", "channel_hash", "completion"}
    assert meta["seed"] == 7
    assert meta["completion"] == COMPLETION_CHOICE
    assert len(meta["channel_hash"]) == 16
    int(meta["channel_hash"], 16)
    # the metadata JSON itself is emitted with sorted keys
    raw = bound_result.stdout.split("\n")[0][1:]
    assert raw == json.dumps(meta, sort_keys=True, separators=(",", ":"))


def test_bound_reproducible(runner, bound_result):
    again = runner.invoke(
        cli,
        ["--seed", "7", "bound", "--channel", "dephasing:0.1", "--eps", "0.25", "--n", "100,400"],
    )
    assert again.exit_code == 0
    assert again.stdout == bound_result.stdout


def test_bound_rejects_bad_n_list(runner):
    res = runner.invoke(
        cli, ["bound", "--channel", "identity:2", "--eps", "0.25", "--n", "ten"]
    )
    assert res.exit_code == 2


def test_bound_rejects_unknown_channel(runner):
    res = runner.invoke(
        cli, ["bound", "--channel", "bogus:1", "--eps", "0.25", "--n", "4"]
    )
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# oneshot
# ---------------------------------------------------------------------------


def test_oneshot_json_schema(runner):
    res = runner.invoke(cli, ["oneshot", "--channel", "identity:2", "--eps", "0.1"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert set(doc) == {
        "metadata",
        "term1_bits",
        "term2_bits",
        "bound_bits",
        "implied_eps",
        "eps1",
        "eps2",
        "delta1",
        "delta2",
    }
    assert doc["bound_bits"] == min(doc["term1_bits"], doc["term2_bits"])
    assert np.isfinite(doc["bound_bits"])
    assert doc["implied_eps"] == pytest.approx(1.1874297730643495, abs=1e-12)


def test_oneshot_explicit_split(runner):
    res = runner.invoke(
        cli,
        [
            "oneshot", "--channel", "identity:2",
            "--eps1", "0.2", "--eps2", "0.2", "--delta1", "0.1", "--delta2", "0.1",
        ],
    )
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["eps1"] == 0.2 and doc["delta2"] == 0.1


def test_oneshot_delta_above_eps_is_usage_error(runner):
    res = runner.invoke(
        cli,
        [
            "oneshot", "--channel", "identity:2",
            "--eps1", "0.1", "--eps2", "0.2", "--delta1", "0.15", "--delta2", "0.1",
        ],
    )
    assert res.exit_code == 2
    assert "delta must be below epsilon" in res.stderr


def test_oneshot_partial_split_is_usage_error(runner):
    res = runner.invoke(
        cli, ["oneshot", "--channel", "identity:2", "--eps1", "0.1"]
    )
    assert res.exit_code == 2


def test_oneshot_no_args_is_usage_error(runner):
    res = runner.invoke(cli, ["oneshot", "--channel", "identity:2"])
    assert res.exit_code == 2


def test_oneshot_csv_format(runner):
    res = runner.invoke(
        cli,
        ["--format", "csv", "oneshot", "--channel", "identity:2", "--eps", "0.1"],
    )
    assert res.exit_code == 0
    meta, header, rows = parse_csv(res.stdout)
    assert header == sorted(header)
    assert len(rows) == 1


@pytest.mark.parametrize("eps,n", [(0.1, 1), (0.1, 100), (0.1, 10000), (0.5, 400), (0.9, 10000)])
def test_oneshot_csv_preset_split_fields_parse_as_floats(runner, eps, n):
    res = runner.invoke(
        cli,
        ["--format", "csv", "oneshot", "--channel", "identity:2",
         "--eps", repr(eps), "--n", str(n)],
    )
    assert res.exit_code == 0
    _, _, rows = parse_csv(res.stdout)
    for col in ("eps1", "delta1", "eps2", "delta2"):
        float(rows[0][col])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_csv_stdout_and_summary_stderr(runner):
    res = runner.invoke(
        cli,
        ["--seed", "3", "simulate", "--channel", "dephasing:0.1", "--m", "1", "--samples", "5"],
    )
    assert res.exit_code == 0
    meta, header, rows = parse_csv(res.stdout)
    assert header == ["sample_idx", "f_ent"]
    assert [r["sample_idx"] for r in rows] == ["0", "1", "2", "3", "4"]
    summary = json.loads(res.stderr)
    assert summary["summary"]["samples"] == 5
    assert summary["metadata"]["seed"] == 3


def test_simulate_out_routes_summary_to_stdout(runner, tmp_path):
    out = tmp_path / "rows.csv"
    res = runner.invoke(
        cli,
        [
            "--seed", "3", "--out", str(out),
            "simulate", "--channel", "dephasing:0.1", "--m", "1", "--samples", "5",
        ],
    )
    assert res.exit_code == 0
    summary = json.loads(res.stdout)
    assert summary["summary"]["samples"] == 5
    meta, header, rows = parse_csv(out.read_text())
    assert len(rows) == 5


def test_simulate_thread_count_does_not_change_bytes(runner):
    args = ["simulate", "--channel", "erasure:0.3", "--m", "2", "--samples", "6"]
    one = runner.invoke(cli, ["--seed", "9", "--threads", "1"] + args)
    eight = runner.invoke(cli, ["--seed", "9", "--threads", "8"] + args)
    assert one.exit_code == 0 and eight.exit_code == 0
    assert one.stdout == eight.stdout


def test_simulate_seed_env_fallback(runner):
    args = ["simulate", "--channel", "dephasing:0.2", "--m", "1", "--samples", "4"]
    explicit = runner.invoke(cli, ["--seed", "11"] + args)
    via_env = runner.invoke(cli, args, env={"PETZLAB_SEED": "11"})
    assert explicit.exit_code == 0 and via_env.exit_code == 0
    assert explicit.stdout == via_env.stdout


def test_simulate_bad_env_seed(runner):
    res = runner.invoke(
        cli,
        ["simulate", "--channel", "identity:2", "--samples", "2"],
        env={"PETZLAB_SEED": "not-a-seed"},
    )
    assert res.exit_code == 2


def test_simulate_m_out_of_range(runner):
    res = runner.invoke(
        cli, ["simulate", "--channel", "identity:2", "--m", "5", "--samples", "2"]
    )
    assert res.exit_code == 2


def test_simulate_json_format(runner):
    res = runner.invoke(
        cli,
        ["--format", "json", "simulate", "--channel", "identity:2", "--m", "1", "--samples", "3"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert len(doc["rows"]) == 3
    assert doc["summary"]["samples"] == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_all_families_pass(runner):
    res = runner.invoke(cli, ["verify", "--trials", "20"])
    assert res.exit_code == 0
    meta, header, rows = parse_csv(res.stdout)
    assert header == ["lemma_id", "trials", "max_violation", "passed"]
    assert len(rows) == 7
    assert {r["lemma_id"] for r in rows} == {
        "pinching-identities",
        "pinching-weak-monotonicity",
        "average-entanglement-fidelity",
        "conditional-entropy-duality",
        "collision-joint-convexity",
        "collision-spectrum-bound",
        "flip-haar-moments",
    }
    assert all(r["passed"] == "true" for r in rows)
    assert "all 7 families passed" in res.stderr


def test_verify_rejects_low_trials(runner):
    res = runner.invoke(cli, ["verify", "--trials", "10"])
    assert res.exit_code == 2


def test_lemma_suite_negative_control():
    # a pinching that leaks off-diagonal mass must fail its family
    def leaky(u, x):
        u = np.asarray(u)
        y = u.conj().T @ np.asarray(x) @ u
        kept = np.diag(np.diag(y))
        kept[0, 1] += 1e-3 * y[0, 1]
        return u @ kept @ u.conj().T

    reports = {r.lemma_id: r for r in run_lemma_suite(0, trials=20, pinching=leaky)}
    assert not reports["pinching-identities"].passed
    assert reports["conditional-entropy-duality"].passed


def test_lemma_report_threshold():
    assert LemmaReport("x", 1, 1e-8).passed
    assert not LemmaReport("x", 1, 2e-7).passed


# ---------------------------------------------------------------------------
# erasure-case
# ---------------------------------------------------------------------------


def test_erasure_case_skips_half_with_warning(erasure_case_result):
    assert erasure_case_result.exit_code == 0
    assert "skipping eps = 0.5" in erasure_case_result.stderr
    _, _, rows = parse_csv(erasure_case_result.stdout)
    assert {r["eps"] for r in rows} == {"0.25", "0.75"}


def test_erasure_case_regimes(erasure_case_result):
    _, _, rows = parse_csv(erasure_case_result.stdout)
    for row in rows:
        if row["eps"] == "0.25":
            assert row["regime"] == "O(1)"
            assert float(row["bound_bits"]) <= 1e-9
        else:
            assert row["regime"] == "sqrt(n)"
            assert float(row["bound_bits"]) > 0.0


def test_erasure_case_sqrt_scaling(erasure_case_result):
    _, _, rows = parse_csv(erasure_case_result.stdout)
    vals = {
        (row["eps"], row["n"]): float(row["bound_bits"]) for row in rows
    }
    # quadrupling n doubles the positive bound (the linear term vanishes)
    assert vals[("0.75", "400")] == pytest.approx(
        2.0 * vals[("0.75", "100")], abs=1e-6
    )


def test_erasure_case_rejects_out_of_range_eps(runner):
    res = runner.invoke(cli, ["erasure-case", "--eps", "1.5", "--n", "4"])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["bound", "--channel", "dephasing:0.1", "--eps", "0.25", "--n", "100,0"],
         "n = 0 must be >= 1"),
        (["bound", "--channel", "dephasing:0.1", "--eps", "0.5", "--n", "100"],
         "dispersion is defined only for eps != 1/2"),
        (["erasure-case", "--eps", "0.25", "--n", "-5"], "n = -5 must be >= 1"),
        (["erasure-case", "--eps", "0.5,1.5", "--n", "4"], "eps = 1.5 outside (0, 1)"),
        (["erasure-case", "--eps", "-0.1", "--n", "-5"], "eps = -0.1 outside (0, 1)"),
    ],
)
def test_bad_inputs_rejected_before_the_optimizer(runner, monkeypatch, args, message):
    def forbidden(*a, **k):
        raise AssertionError("optimizer ran before the inputs were checked")

    monkeypatch.setattr(cli_module, "maximize_coherent_info", forbidden)
    res = runner.invoke(cli, args)
    assert res.exit_code == 2
    assert message in res.stderr


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_guard_maps_numerics_to_exit_3():
    def boom():
        raise NumericsError("numerical collapse")

    with pytest.raises(SystemExit) as info:
        _guard(boom)
    assert info.value.code == 3


def test_guard_maps_library_errors_to_exit_3():
    def boom():
        raise SupportViolationError("support leak")

    with pytest.raises(SystemExit) as info:
        _guard(boom)
    assert info.value.code == 3


def test_channel_hash_stable_and_distinct():
    a = channel_hash(make_channel("dephasing", 0.1))
    b = channel_hash(make_channel("dephasing", 0.1))
    c = channel_hash(make_channel("dephasing", 0.2))
    assert a == b
    assert a != c
    assert len(a) == 16
    int(a, 16)


def test_render_csv_numpy_scalar_prints_like_float():
    text = render_csv({"seed": 0}, ["x"], [{"x": np.float64(0.1) + 0.2}])
    assert text.strip().split("\n")[-1] == repr(0.1 + 0.2)


def test_render_csv_float_repr_round_trip():
    meta = {"seed": 0}
    text = render_csv(meta, ["x"], [{"x": 0.1 + 0.2}])
    value = text.strip().split("\n")[-1]
    assert float(value) == 0.1 + 0.2
    assert value == repr(0.1 + 0.2)


def test_threads_must_be_positive(runner):
    res = runner.invoke(
        cli, ["--threads", "0", "simulate", "--channel", "identity:2", "--samples", "2"]
    )
    assert res.exit_code == 2
