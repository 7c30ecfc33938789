"""Command-line front end: channel ingestion, bound and simulation
orchestration, the lemma verification suite, and deterministic CSV/JSON
emission.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure. With a fixed seed all numeric output is byte-identical across runs.
`--threads` is accepted for compatibility and must be at least 1; it changes
neither scheduling nor output, since all work runs in one thread.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass

import click

from . import __version__
from .bounds import (
    OneShotParams,
    check_second_order_args,
    maximize_coherent_info,
    one_shot_rhs,
    preset_split,
    second_order_bound,
)
from .channel import Channel, channel_to_dict, make_channel, parse_channel
from .entropy import (
    check_collision_spectrum,
    check_duality,
    check_joint_convexity,
)
from .errors import ConfigError, NumericsError, PetzlabError
from .petz import (
    check_avg_ent_relation,
    check_dephasing_identities,
    check_weak_monotonicity,
    dephasing_map,
    random_code_experiment,
)
from .qstate import (
    DensityMatrix,
    check_flip_identities,
    check_haar_projector_moment,
    check_haar_state_moments,
    keyed_stream,
)

LEMMA_TOL = 1e-7
COMPLETION_CHOICE = "normalized-code-operator"


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verification family; passes iff the worst violation
    stays at numerical-noise scale."""

    lemma_id: str
    trials: int
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= LEMMA_TOL


def run_lemma_suite(seed: int, trials: int = 100, pinching=None) -> list[LemmaReport]:
    """Run every verification family at dimensions 2 through 4.

    `trials` scales the random-instance counts. The pinching implementation
    under test can be overridden, which the negative-control tests use to
    prove the suite actually detects a corrupted map.
    """
    if trials < 20:
        raise ConfigError(f"trials = {trials} must be at least 20")
    pinch = pinching if pinching is not None else dephasing_map
    reports = []

    per_d = max(5, trials // 3)
    worst = 0.0
    for d in (2, 3, 4):
        rng = keyed_stream(seed, "verify-pinching-identities", d)
        worst = max(worst, check_dephasing_identities(d, per_d, rng, pinching=pinch))
    reports.append(LemmaReport("pinching-identities", 3 * per_d, worst))

    rng = keyed_stream(seed, "verify-weak-monotonicity")
    reports.append(
        LemmaReport(
            "pinching-weak-monotonicity", trials, check_weak_monotonicity(trials, rng)
        )
    )

    n_avg = max(5, trials // 2)
    rng = keyed_stream(seed, "verify-avg-ent-fidelity")
    reports.append(
        LemmaReport(
            "average-entanglement-fidelity",
            n_avg,
            check_avg_ent_relation(n_avg, rng, mc_samples=2000),
        )
    )

    n_dual = max(10, trials // 2)
    rng = keyed_stream(seed, "verify-entropy-duality")
    reports.append(
        LemmaReport("conditional-entropy-duality", n_dual, check_duality(n_dual, rng))
    )

    n_cvx = max(10, trials // 2)
    rng = keyed_stream(seed, "verify-joint-convexity")
    reports.append(
        LemmaReport(
            "collision-joint-convexity", n_cvx, check_joint_convexity(n_cvx, rng)
        )
    )

    n_spec = max(10, trials // 2)
    rng = keyed_stream(seed, "verify-collision-spectrum")
    reports.append(
        LemmaReport(
            "collision-spectrum-bound", n_spec, check_collision_spectrum(n_spec, rng)
        )
    )

    n_flip = max(5, trials // 3)
    mc_samples = 10**5
    worst = 0.0
    for d in (2, 3, 4):
        rng = keyed_stream(seed, "verify-flip-exact", d)
        worst = max(worst, check_flip_identities(d, n_flip, rng))
    for d, m in ((2, 1), (3, 2), (4, 2)):
        rng = keyed_stream(seed, "verify-flip-state-moment", d)
        worst = max(worst, check_haar_state_moments(d, mc_samples, rng))
        rng = keyed_stream(seed, "verify-flip-projector-moment", d)
        worst = max(worst, check_haar_projector_moment(d, m, mc_samples, rng))
    reports.append(LemmaReport("flip-haar-moments", 3 * n_flip + 6, worst))

    return reports


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def channel_hash(ch: Channel) -> str:
    """Stable short hash over the canonical channel serialization."""
    blob = json.dumps(channel_to_dict(ch), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # float() first: numpy scalars subclass float but repr as np.float64(...)
        return repr(float(value))
    return str(value)


def _metadata(seed: int, ch: Channel | None) -> dict:
    return {
        "version": __version__,
        "seed": int(seed),
        "channel_hash": channel_hash(ch) if ch is not None else None,
        "completion": COMPLETION_CHOICE,
    }


def render_csv(meta: dict, columns: list[str], rows: list[dict]) -> str:
    """CSV with a single '#'-prefixed JSON metadata line, then a header row.

    Floats are serialized with repr (shortest round-trip) so output is
    byte-stable across runs.
    """
    lines = ["#" + json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(meta: dict, rows: list[dict], extra: dict | None = None) -> str:
    doc = {"metadata": meta, "rows": rows}
    if extra:
        doc.update(extra)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_table(obj: dict, meta: dict, columns: list[str], rows: list[dict]) -> None:
    """Emit rows as CSV (the default) or JSON, as --format asks."""
    if (obj["fmt"] or "csv") == "csv":
        text = render_csv(meta, columns, rows)
    else:
        text = render_json(meta, rows)
    _emit(text, obj["out"])


def _parse_list(text: str, what: str, kind: type) -> list:
    try:
        vals = [kind(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad {what} list {text!r}") from exc
    if not vals:
        raise click.UsageError(f"empty {what} list")
    return vals


def _channel(text: str) -> Channel:
    try:
        return parse_channel(text)
    except PetzlabError as exc:
        raise click.UsageError(f"bad channel {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# command group
# ---------------------------------------------------------------------------


@click.group()
@click.option("--seed", type=int, default=None, help="Master seed; falls back to PETZLAB_SEED, then 0.")
@click.option("--threads", type=int, default=1, show_default=True, help="Accepted for compatibility (>= 1); changes neither scheduling nor output.")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None, help="Output path (default: stdout).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None, help="Output format (default: csv; oneshot defaults to json).")
@click.pass_context
def cli(ctx, seed, threads, out, fmt):
    """Quantum-channel coding bounds and the transpose-channel decoder."""
    if seed is None:
        env = os.environ.get("PETZLAB_SEED")
        if env is None:
            seed = 0
        else:
            try:
                seed = int(env)
            except ValueError as exc:
                raise click.UsageError(
                    f"PETZLAB_SEED must be an integer, got {env!r}"
                ) from exc
    if threads < 1:
        raise click.UsageError(f"--threads must be >= 1, got {threads}")
    ctx.obj = {"seed": seed, "out": out, "fmt": fmt}


def _guard(fn):
    """Map library errors to the exit-code contract."""
    try:
        fn()
    except click.ClickException:
        raise
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from exc
    except NumericsError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    except PetzlabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@cli.command()
@click.option("--channel", "channel_text", required=True, help="Channel spec: name:params or @file.json.")
@click.option("--eps", type=float, required=True, help="Target error, in (0,1) and != 1/2.")
@click.option("--n", "n_text", required=True, help="Comma-separated list of block lengths.")
@click.pass_context
def bound(ctx, channel_text, eps, n_text):
    """Second-order achievable rate per block length."""

    def body():
        ch = _channel(channel_text)
        ns = _parse_list(n_text, "n", int)
        for n in ns:
            check_second_order_args(eps, n)
        obj = ctx.obj
        ic = maximize_coherent_info(ch, seed=obj["seed"])
        rows = []
        for n in ns:
            res = second_order_bound(ch, eps, n, ic_result=ic)
            rows.append(
                {
                    "n": n,
                    "eps": eps,
                    "ic_bits": res.ic,
                    "v_eps": res.v_eps,
                    "bound_bits": res.bound_bits,
                    "caveat": res.caveat,
                }
            )
        columns = ["n", "eps", "ic_bits", "v_eps", "bound_bits", "caveat"]
        _emit_table(obj, _metadata(obj["seed"], ch), columns, rows)

    _guard(body)


@cli.command()
@click.option("--channel", "channel_text", required=True)
@click.option("--eps", type=float, default=None, help="Target error for the preset split.")
@click.option("--n", type=int, default=1, show_default=True, help="Block count used by the preset split margins.")
@click.option("--eps1", type=float, default=None)
@click.option("--eps2", type=float, default=None)
@click.option("--delta1", type=float, default=None)
@click.option("--delta2", type=float, default=None)
@click.pass_context
def oneshot(ctx, channel_text, eps, n, eps1, eps2, delta1, delta2):
    """One-shot achievable rate at the maximally mixed input.

    Either give --eps (the analysis preset picks the split) or all four of
    --eps1/--eps2/--delta1/--delta2.
    """

    def body():
        ch = _channel(channel_text)
        rho = DensityMatrix.maximally_mixed(ch.d_in)
        explicit = [eps1, eps2, delta1, delta2]
        if all(v is not None for v in explicit):
            if delta1 >= eps1 or delta2 >= eps2:
                raise click.UsageError("delta must be below epsilon")
            params = OneShotParams(eps1, eps2, delta1, delta2, ch.d_in)
        elif any(v is not None for v in explicit):
            raise click.UsageError(
                "give all of --eps1/--eps2/--delta1/--delta2 or none"
            )
        elif eps is not None:
            params = preset_split(eps, n, ch.d_in, rho.purity())
        else:
            raise click.UsageError("give --eps or an explicit split")
        res = one_shot_rhs(ch, rho, params)
        obj = ctx.obj
        meta = _metadata(obj["seed"], ch)
        row = {
            "term1_bits": res.term1_bits,
            "term2_bits": res.term2_bits,
            "bound_bits": res.bound_bits,
            "implied_eps": res.implied_eps,
            "eps1": params.eps1,
            "eps2": params.eps2,
            "delta1": params.delta1,
            "delta2": params.delta2,
        }
        fmt = obj["fmt"] or "json"
        if fmt == "csv":
            cols = sorted(row)
            text = render_csv(meta, cols, [row])
        else:
            text = json.dumps(
                {"metadata": meta, **row}, sort_keys=True, indent=2
            ) + "\n"
        _emit(text, obj["out"])

    _guard(body)


@cli.command()
@click.option("--channel", "channel_text", required=True)
@click.option("--m", type=int, default=2, show_default=True, help="Code dimension.")
@click.option("--samples", type=int, default=100, show_default=True, help="Number of random codes.")
@click.pass_context
def simulate(ctx, channel_text, m, samples):
    """Sample random codes and record exact entanglement fidelities.

    CSV rows go to --out with the summary JSON on stdout; without --out the
    rows go to stdout and the summary to stderr.
    """

    def body():
        ch = _channel(channel_text)
        if m < 1 or m > ch.d_in:
            raise click.UsageError(f"--m must be in [1, {ch.d_in}], got {m}")
        if samples < 1:
            raise click.UsageError("--samples must be >= 1")
        obj = ctx.obj
        rho = DensityMatrix.maximally_mixed(ch.d_in)
        stats = random_code_experiment(ch, rho, m, samples, obj["seed"])
        meta = _metadata(obj["seed"], ch)
        rows = [
            {"sample_idx": i, "f_ent": float(f)}
            for i, f in enumerate(stats.fidelities)
        ]
        summary = json.dumps(
            {"metadata": meta, "summary": stats.summary()}, sort_keys=True, indent=2
        ) + "\n"
        fmt = obj["fmt"] or "csv"
        if fmt == "json":
            text = render_json(meta, rows, extra={"summary": stats.summary()})
            _emit(text, obj["out"])
            return
        text = render_csv(meta, ["sample_idx", "f_ent"], rows)
        if obj["out"] is None:
            sys.stdout.write(text)
            sys.stderr.write(summary)
        else:
            _emit(text, obj["out"])
            sys.stdout.write(summary)

    _guard(body)


@cli.command()
@click.option("--trials", type=int, default=100, show_default=True, help="Random instances per verification family (>= 20).")
@click.pass_context
def verify(ctx, trials):
    """Run the full verification suite; exit 1 if any family fails."""

    def body():
        obj = ctx.obj
        reports = run_lemma_suite(obj["seed"], trials)
        rows = [
            {
                "lemma_id": r.lemma_id,
                "trials": r.trials,
                "max_violation": r.max_violation,
                "passed": r.passed,
            }
            for r in reports
        ]
        columns = ["lemma_id", "trials", "max_violation", "passed"]
        _emit_table(obj, _metadata(obj["seed"], None), columns, rows)
        failed = [r.lemma_id for r in reports if not r.passed]
        if failed:
            click.echo("failed: " + ", ".join(failed), err=True)
            sys.exit(1)
        click.echo(f"all {len(reports)} families passed", err=True)

    _guard(body)


@cli.command("erasure-case")
@click.option("--eps", "eps_text", required=True, help="Comma-separated error values.")
@click.option("--n", "n_text", required=True, help="Comma-separated block lengths.")
@click.pass_context
def erasure_case(ctx, eps_text, n_text):
    """Threshold case study for the half-erasure qubit channel.

    Below error 1/2 the achievable bound stays non-positive; above it the
    bound is positive and grows like sqrt(n). Rows at exactly 1/2 are
    skipped with a warning.
    """

    def body():
        eps_list = _parse_list(eps_text, "eps", float)
        ns = _parse_list(n_text, "n", int)
        kept = []
        for eps in eps_list:
            if abs(eps - 0.5) < 1e-12:
                click.echo("skipping eps = 0.5: outside the dispersion domain", err=True)
                continue
            if not 0.0 < eps < 1.0:
                raise click.UsageError(f"eps = {eps} outside (0, 1)")
            for n in ns:
                check_second_order_args(eps, n)
            kept.append(eps)
        obj = ctx.obj
        ch = make_channel("erasure", 0.5)
        ic = maximize_coherent_info(ch, seed=obj["seed"])
        rows = []
        for eps in kept:
            regime = "O(1)" if eps < 0.5 else "sqrt(n)"
            for n in ns:
                res = second_order_bound(ch, eps, n, ic_result=ic)
                rows.append(
                    {
                        "eps": eps,
                        "n": n,
                        "bound_bits": res.bound_bits,
                        "regime": regime,
                    }
                )
        columns = ["eps", "n", "bound_bits", "regime"]
        _emit_table(obj, _metadata(obj["seed"], ch), columns, rows)

    _guard(body)


def main():
    cli(standalone_mode=True)


if __name__ == "__main__":
    main()
