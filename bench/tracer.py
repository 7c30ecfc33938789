"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions listed in TIMED, counts
`numpy.linalg.eigh`/`eigvalsh` calls and the `scipy.optimize.minimize`
calls made from `petzlab.bounds`, and `uninstall()` puts every original
back. `bounds` and `cli` import functions by name, so a wrapper replaces
the name in every petzlab module that holds the original, not only in the
defining one. Self time is inclusive time minus the inclusive time of
wrapped callees.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter

import numpy as np

MODULES = ("linalg", "qstate", "channel", "entropy", "petz", "bounds", "cli")

# (module, attribute path, metric label)
TIMED = (
    ("linalg", "hermitize", "hermitize"),
    ("linalg", "hermitian_fn", "hermitian_fn"),
    ("linalg", "support_projector", "support_projector"),
    ("linalg", "support_rank", "support_rank"),
    ("linalg", "kernel_basis", "kernel_basis"),
    ("channel", "Channel.__post_init__", "Channel"),
    ("channel", "Channel.apply_mat", "apply_mat"),
    ("channel", "Channel.apply_to_second", "apply_to_second"),
    ("qstate", "DensityMatrix.__post_init__", "DensityMatrix"),
    ("qstate", "PureState.__post_init__", "PureState"),
    ("qstate", "purify", "purify"),
    ("qstate", "haar_state_in", "haar_state_in"),
    ("qstate", "haar_projector", "haar_projector"),
    ("entropy", "coherent_info", "coherent_info"),
    ("entropy", "reference_output", "reference_output"),
    ("entropy", "channel_variance", "channel_variance"),
    ("entropy", "ds_eps", "ds_eps"),
    ("petz", "build_code", "build_code"),
    ("petz", "petz_decoder", "petz_decoder"),
    ("petz", "ent_fidelity", "ent_fidelity"),
    ("petz", "avg_fidelity_mc", "avg_fidelity_mc"),
    ("bounds", "maximize_coherent_info", "maximize_coherent_info"),
    ("bounds", "bloch_grid_coherent_info", "bloch_grid_coherent_info"),
    ("bounds", "one_shot_rhs", "one_shot_rhs"),
    ("cli", "render_csv", "render_csv"),
    ("cli", "render_json", "render_json"),
    ("cli", "run_lemma_suite", "run_lemma_suite"),
)
DS_EPS = "entropy.ds_eps"

# metric name -> (unit, better); the per-layer metrics a traced run reports
METRICS = {}
for _mod, _path, _label in TIMED:
    METRICS[f"{_mod}.{_label}.calls"] = ("count", "lower")
    METRICS[f"{_mod}.{_label}.self_s"] = ("s", "lower")
METRICS.update({
    "linalg.eigh.calls": ("count", "lower"),
    "linalg.eigvalsh.calls": ("count", "lower"),
    "linalg.eig.n3_sum": ("computed-ops", "lower"),
    "entropy.ds_eps.eigh_per_call": ("calls/call", "lower"),
    "bounds.minimize.calls": ("count", "lower"),
    "bounds.minimize.nfev": ("count", "lower"),
    "bounds.minimize.converged_ratio": ("ratio", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "probe.slowdown": ("ratio", "lower"),
    "probe.raw_wall_s": ("s", "lower"),
})


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, inclusive time of wrapped callees]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _eig(self, key: str, fn):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            counts[key] += 1
            counts["n3_sum"] += math.prod(shape[:-2]) * shape[-1] ** 3
            if any(f[0] == DS_EPS for f in stack):
                counts["ds_eps_eigh"] += 1
            return fn(a, *args, **kwargs)

        return wrapper

    def _minimize(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            counts["minimize"] += 1
            counts["nfev"] += int(res.nfev)
            counts["converged"] += bool(res.success)
            return res

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [importlib.import_module("petzlab")]
        mods += [importlib.import_module(f"petzlab.{m}") for m in MODULES]
        for mod_name, path, label in TIMED:
            owner = importlib.import_module(f"petzlab.{mod_name}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._set(owner, attr, self._timed(f"{mod_name}.{label}", vars(owner)[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._timed(f"{mod_name}.{label}", original)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        self._set(np.linalg, "eigh", self._eig("eigh", np.linalg.eigh))
        self._set(np.linalg, "eigvalsh", self._eig("eigvalsh", np.linalg.eigvalsh))
        bounds = importlib.import_module("petzlab.bounds")
        self._set(bounds, "minimize", self._minimize(bounds.minimize))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures per round of the work list."""
        c = self.counts
        out = {}
        for mod_name, _, label in TIMED:
            name = f"{mod_name}.{label}"
            out[name + ".calls"] = self.calls[name] / rounds
            out[name + ".self_s"] = self.self_s[name] / rounds
        out["linalg.eigh.calls"] = c["eigh"] / rounds
        out["linalg.eigvalsh.calls"] = c["eigvalsh"] / rounds
        out["linalg.eig.n3_sum"] = c["n3_sum"] / rounds
        out["entropy.ds_eps.eigh_per_call"] = c["ds_eps_eigh"] / max(self.calls[DS_EPS], 1)
        out["bounds.minimize.calls"] = c["minimize"] / rounds
        out["bounds.minimize.nfev"] = c["nfev"] / rounds
        out["bounds.minimize.converged_ratio"] = c["converged"] / max(c["minimize"], 1)
        return out

    def coherent_info_check(self, qubit_channels_per_round: int, rounds: int) -> list[str]:
        """Two paths to the objective count: coherent_info must run at least
        once per minimize evaluation plus once per Bloch-grid point. A
        wrapper that missed a binding breaks this."""
        grids = self.calls["bounds.bloch_grid_coherent_info"]
        need = self.counts["nfev"] + grids * 6 * 13**3
        got = self.calls["entropy.coherent_info"]
        errors = []
        if grids != qubit_channels_per_round * rounds:
            errors.append(f"{grids} Bloch-grid calls traced, expected {qubit_channels_per_round * rounds}")
        if self.counts["minimize"] == 0 or got < need:
            errors.append(f"coherent_info traced {got} times, fewer than nfev + grid points = {need}")
        return errors
