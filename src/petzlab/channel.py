"""Completely positive maps in Kraus form.

Construction of the standard channel zoo (erasure, qubit dephasing,
depolarizing, identity), Stinespring dilations, complementary channels,
Choi operators, adjoints, tensor powers, and loading from JSON files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParameterError,
    DimensionMismatchError,
    NotTracePreservingError,
)
from .linalg import _as_array, as_matrix
from .qstate import _ginibre

CPTP_ATOL = 1e-9
# tensor powers are materialized explicitly only up to this total dimension
TENSOR_DIM_LIMIT = 256


@dataclass(frozen=True, eq=False)
class Channel:
    """Quantum channel with Kraus operators of shape (d_out, d_in).

    trace_preserving=False marks the trace-non-increasing variant used for
    intermediate maps (sum of K† K at most the identity). kraus_stack is the
    read-only (r, d_out, d_in) array that the entries of kraus are views of.
    """

    d_in: int
    d_out: int
    kraus: tuple[np.ndarray, ...]
    trace_preserving: bool = True
    kraus_stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise BadParameterError("channel dimensions must be positive")
        ops = []
        for k in self.kraus:
            k = np.asarray(k, dtype=complex)
            if k.shape != (self.d_out, self.d_in):
                raise DimensionMismatchError(
                    f"Kraus shape {k.shape} != ({self.d_out}, {self.d_in})"
                )
            ops.append(k)
        if not ops:
            raise BadParameterError("channel needs at least one Kraus operator")
        stack = np.stack(ops)
        stack.setflags(write=False)
        if self.trace_preserving:
            _require_trace_preserving(stack)
        else:
            gram = (_dagger(stack) @ stack).sum(0)
            top = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2).max())
            if top > 1.0 + CPTP_ATOL:
                raise NotTracePreservingError(
                    f"trace-non-increasing map has K†K sum with eigenvalue {top!r}"
                )
        object.__setattr__(self, "kraus_stack", stack)
        object.__setattr__(self, "kraus", tuple(stack))

    def apply_mat(self, x) -> np.ndarray:
        """Apply the channel to an arbitrary operator, or to each operator
        of a (..., d_in, d_in) stack."""
        a = _as_array(x)
        if a.shape[-2:] != (self.d_in, self.d_in):
            raise DimensionMismatchError(
                f"operator shape {a.shape} != ({self.d_in}, {self.d_in})"
            )
        k = self.kraus_stack
        return (k @ a[..., None, :, :] @ _dagger(k)).sum(-3)

    def adjoint_apply(self, y) -> np.ndarray:
        """Heisenberg-picture adjoint: sum of K† Y K."""
        a = as_matrix(y)
        if a.shape != (self.d_out, self.d_out):
            raise DimensionMismatchError(
                f"operator shape {a.shape} != ({self.d_out}, {self.d_out})"
            )
        k = self.kraus_stack
        return (_dagger(k) @ a @ k).sum(0)

    def apply_to_second(self, x, left_dim: int) -> np.ndarray:
        """Apply id (x) channel to an operator on C^left_dim (x) C^d_in."""
        a = as_matrix(x)
        n = left_dim * self.d_in
        if a.shape != (n, n):
            raise DimensionMismatchError(
                f"operator shape {a.shape} != ({n}, {n})"
            )
        # out[(l, a), (l', b)] = sum_ii' x[(l, i), (l', i')] J[(i, a), (i', b)]
        # with J the unnormalized Choi operator, so that no intermediate
        # grows with the number of Kraus operators
        d, e, left = self.d_in, self.d_out, left_dim
        j = (self.choi() * d).reshape(d, e, d, e).transpose(0, 2, 1, 3)
        x = a.reshape(left, d, left, d).transpose(0, 2, 1, 3)
        y = x.reshape(left * left, d * d) @ j.reshape(d * d, e * e)
        return y.reshape(left, left, e, e).transpose(0, 2, 1, 3).reshape(
            left * e, left * e
        )

    def stinespring(self) -> np.ndarray:
        """Isometry V = sum_k K_k (x) |k>_E from C^d_in to C^d_out (x) C^d_E.

        The environment dimension equals the number of Kraus operators; the
        output factor comes first.
        """
        return self.kraus_stack.transpose(1, 0, 2).reshape(-1, self.d_in)

    def complementary(self) -> "Channel":
        """Channel to the environment of the Stinespring dilation; its j-th
        Kraus operator stacks the rows K_k[j, :] over k."""
        comp = tuple(self.kraus_stack.transpose(1, 0, 2))
        return Channel(self.d_in, len(self.kraus), comp, self.trace_preserving)

    def choi(self) -> np.ndarray:
        """Choi operator (id (x) channel) applied to the maximally entangled
        state, normalized to unit trace for a trace-preserving map; row
        (i, a) of v holds K_k[a, i] over k."""
        v = self.kraus_stack.transpose(2, 1, 0).reshape(-1, len(self.kraus))
        return v @ v.conj().T / self.d_in

    def tensor(self, other: "Channel") -> "Channel":
        """Tensor product channel, materialized explicitly."""
        d_in = self.d_in * other.d_in
        d_out = self.d_out * other.d_out
        if max(d_in, d_out) > TENSOR_DIM_LIMIT:
            raise BadParameterError(
                f"tensor product dimension {max(d_in, d_out)} exceeds the "
                f"supported limit {TENSOR_DIM_LIMIT}"
            )
        kraus = tuple(
            np.kron(a, b) for a in self.kraus for b in other.kraus
        )
        return Channel(
            d_in, d_out, kraus, self.trace_preserving and other.trace_preserving
        )

    def power(self, n: int) -> "Channel":
        """n-fold tensor power."""
        if n < 1:
            raise BadParameterError(f"tensor power {n} must be at least 1")
        out = self
        for _ in range(n - 1):
            out = out.tensor(self)
        return out


def _dagger(k: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return k.conj().swapaxes(-1, -2)


def _require_trace_preserving(kraus: np.ndarray) -> None:
    """Raise unless sum K†K = I within CPTP_ATOL for the (r, d_out, d_in)
    Kraus stack, or for each one of a (..., r, d_out, d_in) stack of them."""
    v = kraus.reshape(*kraus.shape[:-3], -1, kraus.shape[-1])  # stacked rows
    defect = float(np.abs(_dagger(v) @ v - np.eye(kraus.shape[-1])).max())
    if defect > CPTP_ATOL:
        raise NotTracePreservingError(
            f"sum of K†K deviates from identity by {defect:.3e}"
        )


def kraus_from_choi(choi: np.ndarray, d_in: int, d_out: int) -> list[np.ndarray]:
    """Recover a Kraus representation from a unit-trace Choi operator."""
    t = as_matrix(choi) * d_in
    w, v = np.linalg.eigh((t + t.conj().T) / 2)
    keep = w > 1e-12 * max(float(w.max()), 1e-300)
    cols = v[:, keep] * np.sqrt(w[keep])
    return [c.reshape(d_in, d_out).T for c in cols.T]


def _dimension(name: str, value: float) -> int:
    if not float(value).is_integer() or value < 1:
        raise BadParameterError(f"{name} dimension {value!r} invalid")
    return int(value)


def make_channel(name: str, *params: float) -> Channel:
    """Construct a named channel.

    Supported: identity(d), erasure(p[, d]), dephasing(p) on qubits, and
    depolarizing(p[, d]).
    """
    if name == "identity":
        if len(params) != 1:
            raise BadParameterError("identity takes one parameter: the dimension")
        d = _dimension(name, params[0])
        return Channel(d, d, (np.eye(d, dtype=complex),))

    if name == "erasure":
        if len(params) not in (1, 2):
            raise BadParameterError("erasure takes p and optionally the dimension")
        p = float(params[0])
        if not 0.0 <= p <= 1.0:
            raise BadParameterError(f"erasure probability {p!r} outside [0, 1]")
        d = _dimension(name, params[1]) if len(params) == 2 else 2
        # Kraus operator 1 + i is sqrt(p) |erased><i|, |erased> = |d>
        kraus = np.zeros((d + 1, d + 1, d), dtype=complex)
        kraus[0, :d] = np.sqrt(1.0 - p) * np.eye(d)
        kraus[np.arange(1, d + 1), d, np.arange(d)] = np.sqrt(p)
        return Channel(d, d + 1, tuple(kraus))

    if name == "dephasing":
        if len(params) != 1:
            raise BadParameterError("dephasing takes one parameter: p")
        p = float(params[0])
        if not 0.0 <= p <= 1.0:
            raise BadParameterError(f"dephasing probability {p!r} outside [0, 1]")
        z = np.diag([1.0, -1.0]).astype(complex)
        return Channel(
            2, 2, (np.sqrt(1.0 - p) * np.eye(2, dtype=complex), np.sqrt(p) * z)
        )

    if name == "depolarizing":
        if len(params) not in (1, 2):
            raise BadParameterError(
                "depolarizing takes p and optionally the dimension"
            )
        p = float(params[0])
        if not 0.0 <= p <= 1.0:
            raise BadParameterError(f"depolarizing probability {p!r} outside [0, 1]")
        d = _dimension(name, params[1]) if len(params) == 2 else 2
        # Kraus operator 1 + (i d + j) is sqrt(p / d) |i><j|
        n = np.arange(d * d)
        kraus = np.zeros((d * d + 1, d, d), dtype=complex)
        kraus[0] = np.sqrt(1.0 - p) * np.eye(d)
        kraus[1 + n, n // d, n % d] = np.sqrt(p / d)
        return Channel(d, d, tuple(kraus))

    raise BadParameterError(f"unknown channel name {name!r}")


def channel_from_dict(spec: dict) -> Channel:
    """Build a channel from the JSON schema
    {"d_in": int, "d_out": int, "kraus": [[[[re, im], ...], ...], ...]}."""
    try:
        d_in = int(spec["d_in"])
        d_out = int(spec["d_out"])
        raw = spec["kraus"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParameterError(f"malformed channel spec: {exc}") from exc
    kraus = []
    for mat in raw:
        rows = []
        for row in mat:
            try:
                rows.append([complex(re, im) for re, im in row])
            except (TypeError, ValueError) as exc:
                raise BadParameterError(
                    f"malformed Kraus entry, expected [re, im] pairs: {exc}"
                ) from exc
        kraus.append(np.asarray(rows, dtype=complex))
    return Channel(d_in, d_out, tuple(kraus))


def channel_to_dict(ch: Channel) -> dict:
    """Serialize a channel to the JSON schema accepted by channel_from_dict."""
    return {
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "kraus": [
            [[[float(z.real), float(z.imag)] for z in row] for row in k]
            for k in ch.kraus
        ],
    }


def load_channel(path: str) -> Channel:
    """Load a channel from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadParameterError(f"invalid channel JSON: {exc}") from exc
    return channel_from_dict(spec)


def parse_channel(text: str) -> Channel:
    """Parse a channel argument: either "name:p1[:p2]" or "@file.json"."""
    if text.startswith("@"):
        return load_channel(text[1:])
    parts = text.split(":")
    name = parts[0]
    try:
        params = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise BadParameterError(f"bad channel parameters in {text!r}") from exc
    return make_channel(name, *params)


def random_channel(
    d_in: int, d_out: int, kraus_count: int, rng: np.random.Generator
) -> Channel:
    """Haar-random channel from a random isometry into d_out * kraus_count.

    Requires d_out * kraus_count >= d_in so an isometry exists.
    """
    if d_out * kraus_count < d_in:
        raise BadParameterError(
            f"d_out * kraus_count = {d_out * kraus_count} < d_in = {d_in}"
        )
    q, _ = np.linalg.qr(_ginibre((d_out * kraus_count, d_in), rng))
    kraus = tuple(q[e * d_out : (e + 1) * d_out, :] for e in range(kraus_count))
    return Channel(d_in, d_out, kraus)
