"""petzlab benchmark: runs one workload's CLI commands in-process and prints
one JSON result line.

    python3 bench/run.py --workload capacity --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from ./src. Set-up
(import, input generation, channel parsing, one warm-up call) is timed from
the start of the process. Then whole rounds of the workload's commands run
until --seconds have passed, at least one round. With --trace 0 the result
holds the end-to-end metrics. With --trace 1 it holds per-layer metrics per
round from wrapped calls, and the tracing overhead against untraced rounds
run just before, by the same rule.

Times are scaled to a fixed machine speed. Other tenants slow this shared
machine by up to 1.8x in phases lasting from seconds to minutes, longer
than a run. `probe.SpeedProbe` samples the machine's speed at random
intervals of 1 to 9 ms while the commands run, and each round's wall and
CPU time are divided by the mean slow-down over that round. wall_s and
cpu_s are the median scaled round; setup_s is scaled the same way.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from probe import SpeedProbe, scaled

# The probe starts before numpy and petzlab are imported, so that it
# samples the machine's speed over the whole set-up.
PROBE = SpeedProbe()
PROBE.start()
SETUP_START = PROBE.read()

import workloads as W  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WARMUP = ["--threads", "1", "oneshot", "--channel", "depolarizing:0.1:6", "--eps", "0.1"]
QUBIT_CHANNELS_PER_CAPACITY_ROUND = 2
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def process_age_s() -> float:
    """Seconds since this process started, from /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def invoke(cli, argv: list[str]) -> W.Result:
    """Run one CLI command in this process."""
    import click

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args=argv, prog_name="petzlab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
    return W.Result(code, out.getvalue(), err.getvalue())


class OptimizerCapture:
    """Keeps the CoherentInfoResult of every maximize_coherent_info call the
    CLI makes, for the optimizer-vs-grid check."""

    def __init__(self, cli_module):
        self.module = cli_module
        self.original = cli_module.maximize_coherent_info
        self.results: list = []

    def __enter__(self):
        def capture(*args, **kwargs):
            res = self.original(*args, **kwargs)
            self.results.append(res)
            return res

        self.module.maximize_coherent_info = capture
        return self

    def __exit__(self, *exc):
        self.module.maximize_coherent_info = self.original


class Round:
    """The results of one round of the work list, and its wall and CPU time
    scaled to the reference speed, with the slow-down factor used."""

    def __init__(self, cli_module, ops: list[W.Op]):
        self.results: list[W.Result] = []
        a = PROBE.read()
        with OptimizerCapture(cli_module) as cap:
            for op in ops:
                start = len(cap.results)
                res = invoke(cli_module.cli, op.argv)
                res.captured = cap.results[start:]
                self.results.append(res)
        b = PROBE.read()
        self.wall, self.cpu, self.slowdown = scaled(a, b)
        self.raw_wall = b.wall - a.wall


def median(rounds: list[Round], field: str) -> float:
    return statistics.median(getattr(r, field) for r in rounds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "petzlab" / "__init__.py").is_file():
        print(f"petzlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import petzlab
    from petzlab import cli as cli_module

    if Path(petzlab.__file__).resolve().parents[1] != ROOT / "src":
        print(f"imported petzlab from {petzlab.__file__}, not from ./src", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH))
    try:
        ops = W.WORKLOADS[args.workload](args.seed, workdir)
        for op in ops:
            if "--channel" in op.argv:
                petzlab.parse_channel(op.argv[op.argv.index("--channel") + 1])
        warm = invoke(cli_module.cli, WARMUP)
        if warm.code != 0:
            print(f"warm-up failed: {warm.stderr}", file=sys.stderr)
            return 3
        at_setup = PROBE.read()
        # interpreter start-up, before the probe ran, is counted unscaled
        before_probe = process_age_s() - (at_setup.wall - SETUP_START.wall)
        setup_s = before_probe + scaled(SETUP_START, at_setup)[0]

        def measure() -> list[Round]:
            out, t0 = [], time.perf_counter()
            while not out or time.perf_counter() - t0 < args.seconds:
                out.append(Round(cli_module, ops))
            return out

        untraced = measure()
        rounds = list(untraced)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure()
            finally:
                tracer.uninstall()
            rounds += traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors: list[str] = []
    failed = 0
    for rnd in rounds:
        for op, res, ref in zip(ops, rnd.results, rounds[0].results):
            if res.code != 0:
                failed += 1
            elif (res.stdout, res.stderr) != (ref.stdout, ref.stderr):
                errors.append(f"{op.argv}: output differs between rounds")
    for op, res in zip(ops, rounds[0].results):
        if res.code == 0:
            errors += [f"{op.argv}: {e}" for e in op.check(res)]
    if args.workload == "verify":
        errors += W.verify_negative_control(W.passing_seed(args.seed))

    if args.trace:
        metrics = tracer.metrics(len(traced))
        metrics["trace.wall_s"] = median(traced, "wall")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(untraced, "wall")
        metrics["probe.slowdown"] = median(rounds, "slowdown")
        metrics["probe.raw_wall_s"] = median(untraced, "raw_wall")
        if args.workload == "capacity":
            errors += tracer.coherent_info_check(QUBIT_CHANNELS_PER_CAPACITY_ROUND, len(traced))
        units = {k: u for k, (u, _) in METRICS.items()}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": median(untraced, "wall"),
            "cpu_s": median(untraced, "cpu"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    for e in errors:
        print("CHECK FAILED:", e, file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} commands; per round, "
          "scaled wall s, raw wall s, slow-down:",
          [(round(r.wall, 4), round(r.raw_wall, 4), round(r.slowdown, 3)) for r in rounds],
          file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)
