"""Pauli-stochastic error models attached to circuit layers.

Every layer of a circuit is followed by one error channel:

* an entangling layer contributes, per two-qubit gate, a 15-rate Pauli
  channel on the gate's pair;
* a one-qubit layer contributes, per qubit, the two 3-rate channels of the
  X90 pulses inside the gate's five-pulse form, pushed through the
  remaining pulse factors of the gate.  For Clifford gates that push is an
  exact Pauli relabelling, so this module's compiled per-gate channel is
  exact wherever it is consumed (folding and fidelity estimation only ever
  see Clifford circuits).  For Euler gates the same compiled Pauli channel
  is a Pauli-stochastic stand-in (the exact pushed channel is a unitary
  mixture); the dense transfer-matrix and statevector paths in
  :mod:`cliffproxy.dense` handle those gates exactly at their pulse
  positions instead.

Idle qubits in entangling layers carry no gate and hence no error.

A :class:`NoiseModel` is read-only, down to each entry's probabilities.
It compiles each layer position once, into one :class:`LayerTables`
(:meth:`NoiseModel.layer_tables`), through which the fold, the Pauli walk,
:func:`layer_infidelities` and :mod:`cliffproxy.dense`'s transfer matrix
and sampler all read it.  A one-qubit layer's X90 entries compile in one
stacked pass for all its qubits and gates: the faults are relabelled
through :func:`cliffproxy.clifford.pulse_fault_codes` and convolved into
a probability table per qubit, one row per Clifford index plus the Euler
stand-in, and a (24, 4) eigenvalue table over all Clifford indices.  A
pair's table is its entry's 16 probabilities and eigenvalues
(:attr:`GateNoise.eigenvalues`).
Conjugation through a layer maps per-qubit letter codes (a 4-entry map
per one-qubit Clifford, a 16-entry map per CZ or CNOT pair).  The exact
fold of K circuits sharing their entangling layers takes one step per
gate of each entangling layer, its map and eigenvalue rows composed from
the gate's and the one-qubit layer's before it (in the last layer, also
after it); a qubit the layer leaves idle steps with its one-qubit rows.
Those rows are gathered, not rebuilt layer by layer: a pair's labels
from a (576, 16) table indexed by its Clifford indices 24 g + h, its
eigenvalue products from a table its one-qubit layer builds once per
kind and pairs (:meth:`LayerTables.products`) where several layers
share it, or factor by factor where one layer reads it or the circuits
would read fewer rows than it holds; each kind is one
gather per batch of layers (:func:`_step_tables`), in a step order
derived once per layout (:func:`_plan`).
The first layer's steps are per-gate blocks, which later layers step
and merge when a gate joins two; once one block covers all n qubits,
each gate steps that ``(K,) + (4,) * n`` array, which keeps its axes: a
gate on its leading axes is one gather, any other one batched product
with the gate's scaled permutation matrix.  The diagonal combines the
blocks left at the end.  An infidelity (:func:`process_infidelities_exact`)
needs only the sum of the diagonal.  Each step is then a tensor on the
letters of its qubits before and after its layer, with one nonzero per
label, and the sum contracts them qubit by qubit into one frontier over
the letters still open, at most about 4^D entries for D layers on a
line.  Where that frontier would reach 4^n, as when brickwork is deeper
than it is wide, the fold steps its last two layers' blocks backward
instead and contracts their last merge against the forward blocks,
combined, without building it.  Direct fidelity estimation walks single
Paulis back through the same tables, compiled into (eigenvalue, next
letters) steps (:attr:`LayerTables.steps`); like the fold, a walk reads a
circuit as its entangling layers and its one-qubit layers' Clifford
``indices``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from types import MappingProxyType

import numpy as np

from . import clifford as cl
from .circuits import (
    LayeredCircuit,
    OneQubitLayer,
    _draw_cliffords,
)
from .pauli import CODE_FROM_XZ, WALSH_KERNEL_1Q, XZ_FROM_CODE, PauliChannel, PauliString, pauli_walsh

__all__ = [
    "GateNoise",
    "LayerTables",
    "NoiseModel",
    "NoiseBudget",
    "SpamModel",
    "FoldSizeError",
    "sample_error_model",
    "fold_to_end",
    "fold_eigenvalues",
    "propagate_codes",
    "process_infidelity_exact",
    "process_infidelities_exact",
    "cliffordization_infidelities",
    "layer_infidelities",
    "noise_to_dict",
    "noise_from_dict",
    "FOLD_LIMIT",
]

FOLD_LIMIT = 10

# amplitude budget of one batched fold chunk (8 MB), at least one circuit
_FOLD_AMPLITUDES = 2**20
# amplitude budget of the gate tables gathered at once (512 kB), or of one fold layer or sweep step
_TABLE_AMPLITUDES = 2**16

# largest total probability fold_to_end may clip away as rounding noise
CLIP_TOLERANCE = 1e-12

# letter-product table on label codes (Klein group: X*Y=Z etc.)
_CODE_XOR = np.array(
    [[CODE_FROM_XZ[(xa ^ xb, za ^ zb)] for xb, zb in XZ_FROM_CODE] for xa, za in XZ_FROM_CODE],
    dtype=np.int64,
)


# the letters (w, 4^w) of each label on one or two qubits, the first the high digit
_DIGITS = {w: np.arange(4**w) >> 2 * np.arange(w)[::-1, None] & 3 for w in (1, 2)}
# a two-qubit label with its two letters swapped
_SWAP = (np.arange(16) & 3) << 2 | np.arange(16) >> 2


class FoldSizeError(ValueError):
    """Exact folding was requested above the dense limit; use Monte Carlo."""


@dataclass(frozen=True, eq=False)
class GateNoise:
    """Local Pauli error rates of one gate (identity probability first)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        p.setflags(write=False)
        if p.ndim != 1 or len(p) not in (4, 16):
            raise ValueError("expected 4 or 16 local probabilities")
        if not np.isfinite(p).all():
            raise ValueError("local probabilities must be finite")
        if p.min() < -1e-15 or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("invalid local probability vector")
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_rates(cls, rates) -> "GateNoise":
        r = np.asarray(rates, dtype=float)
        if len(r) not in (3, 15):
            raise ValueError("expected 3 or 15 non-identity rates")
        return cls(np.concatenate(([1.0 - r.sum()], r)))

    @classmethod
    def identity(cls, k: int) -> "GateNoise":
        p = np.zeros(4**k)
        p[0] = 1.0
        return cls(p)

    def __reduce__(self):
        # a copy goes through __post_init__, so its probabilities are read-only too
        return GateNoise, (self.probs,)

    @property
    def total(self) -> float:
        return float(1.0 - self.probs[0])

    @property
    def num_qubits(self) -> int:
        return 1 if len(self.probs) == 4 else 2

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Transfer-matrix diagonal of the gate's channel, computed once; read-only."""
        eig = pauli_walsh(self.probs, self.num_qubits)
        eig.setflags(write=False)
        return eig


def _compile_1q(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The X90 faults of m qubits, ``eps`` (m, 4), pushed to the end of
    each one-qubit gate, in one stacked pass.

    Returns the (m, 25, 4) probability tables of the product of the two
    pushed faults, rows 0-23 for the Clifford indices and row 24 for the
    Euler stand-in (faults not pushed), and the (m, 24, 4) eigenvalue
    tables of the Clifford rows.
    """
    codes = cl.pulse_fault_codes()
    first = np.concatenate([eps[:, codes[0]], eps[:, None]], axis=1)
    second = np.concatenate([eps[:, codes[1]], eps[:, None]], axis=1)
    probs = np.zeros(first.shape)
    # entry k sums first[i] * second[j] over the letters i, in code order,
    # with j the letter that i multiplies to k
    for i in range(4):
        probs += first[..., i, None] * second[..., _CODE_XOR[i]]
    # a stack of (4, 4) by (4, 1) products, one per row: pauli_walsh's sums
    eig = (WALSH_KERNEL_1Q @ probs[:, :24, :, None])[..., 0]
    return probs, eig


@dataclass(frozen=True, eq=False)
class LayerTables:
    """The compiled noise of one layer position (:meth:`NoiseModel.layer_tables`).

    ``entries`` holds the layer's :class:`GateNoise`, one per qubit of a
    one-qubit layer (``gate`` None) or per pair of an entangling layer of
    ``gate``.  For a one-qubit layer ``probs`` and ``eig`` stack each
    qubit's (25, 4) and (24, 4) tables of :func:`_compile_1q`; for an
    entangling layer they hold each pair's 16 probabilities and
    eigenvalues.  Both are read-only.
    """

    entries: tuple
    probs: np.ndarray
    eig: np.ndarray
    gate: str | None
    # a one-qubit layer's tables of :meth:`products`, by (kind, pair)
    _products: dict = field(default_factory=dict, repr=False)

    def products(self, kind: tuple, pair: tuple) -> np.ndarray:
        """A one-qubit layer's eigenvalue products (576, 16) on ``pair``,
        ascending, built once, read-only: row 24 g + h holds, for Clifford
        indices g and h on its lower and upper qubit, the product of their
        rows at the letters of each label under ``kind`` (:func:`_pair_digits`)."""
        hit = self._products.get((kind, pair))
        if hit is None:
            (a, b), digits = pair, _pair_digits(*kind)
            hit = self.eig[a][:, None, digits[0]] * self.eig[b][None, :, digits[1]]
            hit = self._products[kind, pair] = hit.reshape(576, 16)
            hit.setflags(write=False)
        return hit

    @cached_property
    def steps(self) -> list:
        """The Pauli walk's steps back through the layer, as lists: entry
        [q][g][c] is (eigenvalue, letter of g' P g) for qubit q, Clifford
        index g and letter c; entry [p][label] is (eigenvalue, letter a,
        letter b) of C' P C on pair p."""
        if self.gate is None:
            steps = np.empty(self.eig.shape, [("eig", float), ("code", np.intp)])
            steps["code"] = cl.inverse_conjugation_codes()
        else:
            steps = np.empty(self.eig.shape, [("eig", float), ("a", np.intp), ("b", np.intp)])
            steps["a"], steps["b"] = _pair_digits(self.gate, False)
        steps["eig"] = self.eig
        return steps.tolist()


class NoiseModel:
    """Per-gate Pauli error rates for a circuit family, a read-only value.

    Two-qubit entries are keyed by (gate name, pair), a CZ's pair sorted and
    a CNOT's control first, and one-qubit X90 entries by qubit.  In the
    Markovian mode the same gate reuses its rates at every layer position;
    otherwise keys carry the layer position and every application gets
    independently sampled rates.  ``one_qubit`` and ``two_qubit`` are
    read-only maps, and no attribute can be set after ``__init__``: to
    change an entry, build a new model.
    """

    def __init__(self, markovian: bool, one_qubit: dict, two_qubit: dict):
        one_qubit, two_qubit = MappingProxyType(dict(one_qubit)), MappingProxyType(dict(two_qubit))
        for table, k in ((one_qubit, 1), (two_qubit, 2)):
            for key, entry in table.items():
                if entry.num_qubits != k:
                    raise ValueError(f"noise entry {key!r} has {len(entry.probs)} probabilities, expected {4**k}")
        # _tables: (position or -1, n or entangling layer) -> LayerTables
        vars(self).update(markovian=markovian, one_qubit=one_qubit, two_qubit=two_qubit, _tables={})

    def __setattr__(self, name, *value):
        raise AttributeError(f"NoiseModel is read-only: build a new model rather than set {name!r}")

    # deletion passes no value
    __delattr__ = __setattr__

    def __reduce__(self):
        # the read-only entry maps do not pickle; a copy compiles its own tables
        return NoiseModel, (self.markovian, dict(self.one_qubit), dict(self.two_qubit))

    def entry_key(self, position: int, where, gate: str | None = None):
        """Entry key of the X90 pulses on qubit ``where``, or with ``gate``
        of that gate on the pair ``where``, at layer ``position``: only a
        non-Markovian key holds the position, and a CZ's pair is unordered."""
        if gate is None:
            return where if self.markovian else (position, where)
        a, b = sorted(where) if gate == "CZ" else where
        return (gate, a, b) if self.markovian else (position, gate, a, b)

    def xpi2_noise(self, position: int, qubit: int) -> GateNoise:
        entry = self.one_qubit.get(self.entry_key(position, qubit))
        if entry is None:
            raise KeyError(f"no one-qubit noise entry for qubit {qubit} at layer {position}")
        return entry

    def twoq_noise(self, position: int, name: str, pair) -> GateNoise:
        entry = self.two_qubit.get(self.entry_key(position, pair, name))
        if entry is None:
            raise KeyError(f"no two-qubit noise entry for {name} on {tuple(pair)} at layer {position}")
        return entry

    def layer_tables(self, position: int, layer) -> LayerTables:
        """The compiled noise of ``layer`` at ``position``, built on first use
        and shared by every reader: once per layer position, or once for all
        positions in the Markovian mode.  A missing entry raises KeyError."""
        one_qubit = isinstance(layer, OneQubitLayer)
        key = (-1 if self.markovian else position, layer.n if one_qubit else layer)
        hit = self._tables.get(key)
        if hit is None:
            if one_qubit:
                entries = tuple(self.xpi2_noise(position, q) for q in range(layer.n))
                probs, eig = _compile_1q(np.array([e.probs for e in entries]))
            else:
                entries = tuple(self.twoq_noise(position, layer.gate, p) for p in layer.pairs)
                probs = np.array([e.probs for e in entries]).reshape(-1, 16)
                eig = np.array([e.eigenvalues for e in entries]).reshape(-1, 16)
            probs.setflags(write=False)
            eig.setflags(write=False)
            gate = None if one_qubit else layer.gate
            hit = self._tables[key] = LayerTables(entries, probs, eig, gate)
        return hit


@dataclass(frozen=True)
class NoiseBudget:
    """Sampling budgets for random error models."""

    two_qubit: float = 1e-3
    one_qubit: float = 1e-4
    markovian: bool = True


def sample_error_model(
    circuit: LayeredCircuit,
    rng: np.random.Generator,
    two_q_budget: float = 1e-3,
    one_q_budget: float = 1e-4,
    markovian: bool = True,
) -> NoiseModel:
    """Random error model in the style used for the simulation studies.

    Each gate's total error rate is uniform on [0, budget] and is split
    across the 15 (or 3) non-identity labels by a flat draw on the simplex.
    Every qubit gets an X90 entry and every entangling pair a gate entry.
    """
    for budget in (two_q_budget, one_q_budget):
        if not 0.0 <= budget < 1.0:
            raise ValueError(f"budget {budget} outside [0, 1)")
    return _draw_missing_entries(NoiseModel(markovian, {}, {}), circuit, rng, two_q_budget, one_q_budget)


def _draw_missing_entries(
    model: NoiseModel,
    circuit: LayeredCircuit,
    rng: np.random.Generator,
    two_q_budget: float,
    one_q_budget: float,
) -> NoiseModel:
    """``model`` with an entry drawn, in layer order, for every gate of
    ``circuit`` that it has none for; existing entries are kept."""
    one_qubit, two_qubit = dict(model.one_qubit), dict(model.two_qubit)

    def sample_gate(k: int, budget: float) -> GateNoise:
        total = float(rng.uniform(0.0, budget)) if budget > 0 else 0.0
        if total == 0.0:
            return GateNoise.identity(k)
        split = rng.dirichlet(np.ones(4**k - 1))
        return GateNoise.from_rates(total * split)

    for pos, layer in enumerate(circuit.layers):
        if isinstance(layer, OneQubitLayer):
            for q in range(circuit.n):
                key = model.entry_key(pos, q)
                if key not in one_qubit:
                    one_qubit[key] = sample_gate(1, one_q_budget)
        else:
            for pair in layer.pairs:
                key = model.entry_key(pos, pair, layer.gate)
                if key not in two_qubit:
                    two_qubit[key] = sample_gate(2, two_q_budget)
    return NoiseModel(model.markovian, one_qubit, two_qubit)


def _check_width(n: int) -> None:
    if n > FOLD_LIMIT:
        raise FoldSizeError(
            f"exact folding capped at n={FOLD_LIMIT}; sample faults by Monte Carlo instead"
        )


def _clifford_indices(circuit: LayeredCircuit) -> np.ndarray:
    """The (one-qubit layers, n) int8 Clifford indices of ``circuit``."""
    # layers alternate, one-qubit layers at even positions
    rows = np.stack([layer.indices for layer in circuit.layers[::2]])
    if (rows < 0).any():
        raise cl.NotCliffordError("expected a Clifford circuit; Cliffordize first")
    return rows


def _gate_indices(circuits):
    """First circuit and the (K, one-qubit layers, n) Clifford indices of
    all K circuits, read one circuit at a time; (None, None) if K = 0."""
    template = None
    rows = []
    for circuit in circuits:
        if template is None:
            template = circuit
            _check_width(circuit.n)
        elif circuit.n != template.n or len(circuit.layers) != len(template.layers):
            raise ValueError("batched folds need circuits of one width and layer count")
        rows.append(_clifford_indices(circuit))
        if circuit.layers[1::2] != template.layers[1::2]:
            raise ValueError("batched folds need shared entangling layers")
    return template, np.stack(rows) if rows else None


@lru_cache(maxsize=None)
def _pair_digits(gate: str | None, swapped: bool) -> np.ndarray:
    """The letters (2, 16) of the image of each label under
    :func:`cliffproxy.clifford.twoq_conjugation_codes`, or of the label
    itself if ``gate`` is None, with both sides' letters swapped if
    ``swapped``: the map of a pair listed high qubit first, on its qubits
    in ascending order."""
    codes = np.arange(16) if gate is None else cl.twoq_conjugation_codes(gate)
    digits = _DIGITS[2][:, _SWAP[codes[_SWAP]] if swapped else codes]
    digits.setflags(write=False)
    return digits


@lru_cache(maxsize=None)
def _kind_tables(kind) -> tuple[np.ndarray, np.ndarray]:
    """The letters (w, 4^w) of each label's image under ``kind``, the
    identity on one qubit if None, else on a pair as :func:`_pair_digits`
    takes it, and the labels (24^w, 4^w) before a one-qubit layer: row
    24 g + h holds, for Clifford indices g and h on a pair's lower and
    upper qubit (g alone on one qubit), the label that reads each label."""
    codes = cl.inverse_conjugation_codes().astype(np.uint8)
    if kind is None:
        return _DIGITS[1], codes
    digits = _pair_digits(*kind)
    low, high = codes[:, digits].transpose(1, 0, 2)
    labels = (low[:, None] << 2 | high[None]).reshape(576, 16)
    labels.setflags(write=False)
    return digits, labels


def _apply_gate(h, rows, qubits, labels, eig):
    """``h <- eig * (h o map)`` on the axes of ``qubits`` (ascending) of
    the ``(K,) + (4,) * n`` array ``h``.

    ``labels`` (K, L) holds, for each circuit and each of the L labels on
    those axes of the result (first qubit the high digit), the label it
    reads; ``eig`` (K, L) the eigenvalue rows, or None for ones.  A gate
    keeps the axes (L = 4^w); reading one axis at the letters of a pair's
    16 labels makes it the pair's two.  A map on the array's leading axes
    is one gather.  Any other is one batched product with the (K, L, 4^w)
    matrix that holds each label's eigenvalue at the label it reads and
    zeros elsewhere: one nonzero term per sum, so the product is exact.  A
    pair on axes apart is first moved next to each other, and back after.
    """
    a, b = qubits[0], qubits[-1]
    if b - a > 1:
        moved = np.ascontiguousarray(np.moveaxis(h, 1 + b, 2 + a))
        out = _apply_gate(moved, rows, (a, a + 1), labels, eig)
        return np.ascontiguousarray(np.moveaxis(out, 2 + a, 1 + b))
    k, size = labels.shape
    before = 4**a
    width = 4 ** (b - a + 1)
    after = h.size // (k * before * width)
    if before == 1:
        out = np.take(h.reshape(k * width, after), labels + rows * width, axis=0)
        if eig is not None:
            out *= eig[..., None]
    else:
        mat = np.zeros((k, size, width))
        mat[rows, np.arange(size), labels] = 1.0 if eig is None else eig
        if after == 1:
            out = h.reshape(k, before, width) @ mat.transpose(0, 2, 1)
        else:
            out = mat[:, None] @ h.reshape(k, before, width, after)
    # L = 4^v labels take v axes
    return out.reshape(h.shape[: 1 + a] + (4,) * (size.bit_length() // 2) + h.shape[2 + b :])


def _layer_gates(n: int, entangling: tuple):
    """The gates of each of the ``entangling`` layers on n qubits: its
    pairs as it lists them, then a 1-tuple for each qubit it leaves idle.
    A circuit without entangling layers is one layer of idle qubits."""
    for pairs in [layer.pairs for layer in entangling] or [()]:
        paired = {q for pair in pairs for q in pair}
        yield list(pairs) + [(q,) for q in range(n) if q not in paired]


# the steps of one layout (:func:`_plan`)
_Plan = namedtuple("_Plan", "steps starts tables fields")


@lru_cache(maxsize=32)
def _plan(n: int, entangling: tuple, markovian: bool) -> _Plan:
    """The steps over the layers ``entangling`` on n qubits, once per
    layout and mode: ``steps`` (j, gate) of :func:`_layer_gates`, layer by
    layer from ``starts``, in the fold's order, that of the deepest axis a
    gate's qubits would hold if every step moved its axes to the front,
    which on one array (:func:`_forward`) fixes the result's last bits.

    A gate reads the one-qubit layer before it, and in the last layer the
    one after it too, under a kind: None for an idle qubit, else (gate,
    swapped) as :func:`_pair_digits` takes it, (None, False) after.
    ``tables`` holds each (one-qubit layer, kind, qubits) read, layer 0 in
    the Markovian mode, and, for a pair's table that two steps or more
    read, the fewest circuits that read as many rows as its
    :meth:`LayerTables.products` hold (else 0).  ``fields`` holds each step's
    layer, lower and upper qubit, pair eigenvalue row among all layers'
    (-1 if idle), and table before and after its layer (-1 but in the
    last layer).
    """
    depth, order, steps, starts = len(entangling), list(range(n)), [], []
    for j, group in enumerate(_layer_gates(n, entangling)):
        # pairs listed low qubit first, then those listed high first, then idle qubits
        group.sort(key=lambda gate: (len(gate) == 1, gate[0] > gate[-1]))
        group.sort(key=lambda gate: max(order.index(q) for q in gate))
        for gate in group:
            order = list(gate) + [q for q in order if q not in gate]
        starts.append(len(steps))
        steps += [(j, gate) for gate in group]
    starts.append(len(steps))
    offsets = np.cumsum([0] + [len(layer.pairs) for layer in entangling])
    fields, index, reads = np.full((6, len(steps)), -1), {}, {}
    for s, (j, gate) in enumerate(steps):
        kind = None if len(gate) == 1 else (entangling[j].gate, gate[0] > gate[1])
        qubits = tuple(sorted(gate))
        fields[:3, s] = j, qubits[0], qubits[-1]
        if kind:
            fields[3, s] = offsets[j] + entangling[j].pairs.index(gate)
        read = [(0 if markovian else j, kind, qubits)]
        if j == depth - 1:
            read.append((0 if markovian else depth, kind and (None, False), qubits))
        for at, key in zip((4, 5), read):
            fields[at, s], reads[key] = index.setdefault(key, len(index)), reads.get(key, 0) + 1
    fields.setflags(write=False)
    # the fewest circuits that read a pair's 576 rows, where several steps
    # share its table (the Markovian tables before the layers)
    builds = [-(-576 // reads[key]) if key[1] and reads[key] > 1 else 0 for key in index]
    return _Plan(steps, starts, [(*key, build) for key, build in zip(index, builds)], fields)


def _step_tables(template, gates, noise: NoiseModel, plan: _Plan):
    """A function of some step numbers of ``plan`` that returns their
    (labels, eigenvalue rows), both (K, 4^w) as :func:`_apply_gate` takes
    them.  A kind's labels are one gather (:func:`_kind_tables`), and its
    rows one from each table whose :meth:`LayerTables.products` the plan
    builds for as many circuits, else one per factor, all layers at once,
    multiplied: the same product.  A pair's rows are multiplied by
    its eigenvalues; in the last layer each is read at the labels of the
    one-qubit layer after it and multiplied by its rows."""
    k, layers = len(gates), template.layers
    one_qubit = [noise.layer_tables(2 * i, layer) for i, layer in enumerate(layers[::2])]
    pair_eig = [noise.layer_tables(i, layer).eig for i, layer in enumerate(layers) if i % 2]
    pair_eig = np.concatenate([np.empty((0, 16))] + pair_eig)
    # the one-qubit tables' rows, one table for all layers in the Markovian mode
    stacked = np.stack([tables.eig for tables in one_qubit[: 1 if noise.markovian else None]]).reshape(-1, 4)
    # a table's own rows, or its kind's factors (negative)
    kinds = {}
    source = np.array([
        t if build and k >= build else ~kinds.setdefault(kind, len(kinds))
        for t, (_, kind, _, build) in enumerate(plan.tables)
    ])

    def gathered(ids, at, after):
        """(labels, eig) by step of ``ids``, from their tables in fields
        ``at``, at the indices of the one-qubit layer ``after`` theirs"""
        j, low, high, rows, table = plan.fields[[0, 1, 2, 3, at]][:, ids]
        j = j + after
        # each step's first row of its one-qubit table in ``stacked``
        first = 24 * template.n * (0 * j if noise.markovian else j)[:, None]
        # int8 indices times 24 overflow
        g, h = (gates[:, j, q].T.astype(np.intp) for q in (low, high))
        out, sources = {}, source[table]
        for got in dict.fromkeys(sources.tolist()):
            sel = np.flatnonzero(sources == got)
            layer, kind, pair, _ = plan.tables[table[sel[0]]]
            digits, labels = _kind_tables(kind)
            index = g[sel] if kind is None else 24 * g[sel] + h[sel]
            labels = np.take(labels, index, axis=0)
            if got >= 0:
                eig = np.take(one_qubit[layer].products(kind, pair), index, axis=0)
            else:
                # np.take keeps the rows C-ordered, on which the sweep's last bits depend
                eig = np.take(stacked[first[sel] + 24 * low[sel, None] + g[sel]], digits[0], axis=-1)
                if kind:
                    eig = eig * np.take(stacked[first[sel] + 24 * high[sel, None] + h[sel]], digits[1], axis=-1)
            if kind and kind[0]:
                gate_eig = pair_eig[rows[sel]]
                eig *= (gate_eig[:, _SWAP] if kind[1] else gate_eig)[:, None]
            out.update(zip(ids[sel].tolist(), zip(labels, eig)))
        return out

    def tables(ids):
        ids = np.asarray(ids)
        out = gathered(ids, 4, 0)
        last = ids[plan.fields[5, ids] >= 0]
        for s, (before, eig) in gathered(last, 5, 1).items() if len(last) else ():
            labels, pre = out[s]
            out[s] = np.take_along_axis(labels, before, -1), eig * np.take_along_axis(pre, before, -1)
        return [out[s] for s in ids.tolist()]

    return tables


def _layer_steps(template, gates, noise: NoiseModel):
    """The steps of each entangling layer of :func:`_fold`, one list per
    layer in :func:`_plan`'s order: (qubits ascending, labels, eigenvalue
    rows) as :func:`_apply_gate` takes them (:func:`_step_tables`),
    gathered for as many layers at a time as ``_TABLE_AMPLITUDES`` holds,
    or one."""
    plan = _plan(template.n, template.layers[1::2], noise.markovian)
    tables, starts = _step_tables(template, gates, noise, plan), plan.starts
    # a step's labels and eigenvalues take at most 2 * 16 amplitudes per circuit
    batch = max(1, _TABLE_AMPLITUDES // (32 * len(gates) * max(np.diff(starts))))
    for first in range(0, len(starts) - 1, batch):
        last = min(first + batch, len(starts) - 1)
        steps = iter(tables(range(starts[first], starts[last])))
        for j in range(first, last):
            yield [(tuple(sorted(gate)), *next(steps)) for _, gate in plan.steps[starts[j] : starts[j + 1]]]


def _inverted(step):
    """The step undone: the inverse of its label map, and its eigenvalue
    row read through that inverse.  The sum over labels of a product of
    two arrays is unchanged when one is stepped and the other undone."""
    qubits, labels, eig = step
    inverse = np.argsort(labels, axis=-1)
    return qubits, inverse, eig[np.arange(len(eig))[:, None], inverse]


def _spread(block, union):
    """A view of the ``(K,) + (4,) * w`` array of ``block`` (qubits in
    any order, array) on the axes of the ascending qubits ``union``, with
    length 1 on the qubits it lacks."""
    qubits, arr = block
    order = sorted(range(len(qubits)), key=qubits.__getitem__)
    arr = arr.transpose([0] + [1 + i for i in order])
    return arr.reshape((len(arr),) + tuple(4 if q in qubits else 1 for q in union))


def _combine(blocks, n):
    """The ``(K,) + (4,) * n`` product of ``blocks``, which cover the n
    qubits once, multiplied in the order given."""
    union = tuple(range(n))
    out = _spread(blocks[0], union)
    for block in blocks[1:]:
        out = out * _spread(block, union)
    return out


def _gathered(block, qubit, letters, pair, eig=None):
    """``block`` read at the ``letters`` (K, 16) of ``qubit`` under each
    label of the two-qubit ``pair``, times the rows ``eig`` if given: its
    axis becomes the pair's two."""
    qubits, arr = block
    p = qubits.index(qubit)
    out = _apply_gate(arr, np.arange(len(arr))[:, None], (p,), letters, eig)
    return qubits[:p] + pair + qubits[p + 1 :], out


def _sides(first, second, step):
    """The two sides of the merge of the blocks ``first`` and ``second``,
    which hold the lower and the upper qubit of a pair step: the smaller
    block read at the step's labels with its eigenvalue row multiplied in,
    and the larger block with its qubit in the pair and that qubit's
    letters (K, 16) under the labels."""
    pair, labels, eig = step
    sides = sorted(
        [(first, pair[0], labels >> 2), (second, pair[1], labels & 3)],
        key=lambda side: side[0][1].size,
    )
    return _gathered(*sides[0], pair, eig), sides[1]


def _merge(first, second, step):
    """The block over both blocks' qubits, ascending, that a pair step
    joining them makes: one broadcast product of its two sides."""
    union = tuple(sorted(first[0] + second[0]))
    small, large = _sides(first, second, step)
    return union, _spread(small, union) * _spread(_gathered(*large, step[0]), union)


def _step_blocks(blocks, steps, rows, backward=False):
    """Step ``blocks``, a list of (ascending qubits, ``(K,) + (4,) * w``
    array) that cover the qubits once, through one entangling layer's
    ``steps``.

    A step inside one block is :func:`_apply_gate` on it, and one that
    joins two blocks merges them (:func:`_merge`).  Steps inside a block
    go first, then the joining ones from the top qubit down, so each merge
    adds the lower block in front of the larger one.  ``backward`` undoes
    each step instead (:func:`_inverted`) and holds the layer's last merge
    back: it returns the blocks, that merge as (first, second, undone
    step) or None, and the steps, as given, that act on the held blocks'
    qubits after it.  The caller applies those to the other side of the
    sum, where they commute with the rest of the layer.
    """
    blocks = list(blocks)

    def find(q):
        return next(i for i, block in enumerate(blocks) if q in block[0])

    steps = sorted(steps, key=lambda step: (find(step[0][0]) != find(step[0][-1]), -step[0][-1]))
    # the layer's last merge
    last, group = None, {q: i for i, block in enumerate(blocks) for q in block[0]}
    for i, (qubits, _, _) in enumerate(steps):
        low, high = group[qubits[0]], group[qubits[-1]]
        if low != high:
            last = i
            group = {q: low if g == high else g for q, g in group.items()}
    held, after = None, []
    for i, step in enumerate(steps):
        qubits = step[0]
        if held is not None and qubits[0] in held[0][0] + held[1][0]:
            after.append(step)
            continue
        if backward:
            step = _inverted(step)
        low, high = find(qubits[0]), find(qubits[-1])
        if low == high:
            block, arr = blocks[low]
            at = tuple(block.index(q) for q in qubits)
            blocks[low] = block, _apply_gate(arr, rows, at, *step[1:])
            continue
        pair = blocks[low], blocks[high], step
        blocks = [block for j, block in enumerate(blocks) if j not in (low, high)]
        if backward and i == last:
            held = pair
        else:
            blocks.append(_merge(*pair))
    return (blocks, held, after) if backward else blocks


def _runs(qubits, n):
    """(p, t) if ``qubits`` are the first p and the last t of n qubits,
    else None."""
    p = next((q for q in range(n) if q not in qubits), n)
    t = next((i for i, q in enumerate(range(n - 1, p - 1, -1)) if q not in qubits), n - p)
    return (p, t) if p + t == len(qubits) else None


def _meet(h, blocks, held):
    """Sum over labels of the ``(K,) + (4,) * n`` array ``h`` times the
    product of ``blocks`` and of the merge ``held`` (:func:`_step_blocks`),
    without building the merge.

    The large side of the merge (or, with none, the largest block) must
    hold, besides the step's qubit, the first p and the last t qubits; the
    rest lie between.  It must also be larger than every block.  One batched matrix product of ``h`` with its four
    rows, one per letter of the step's qubit (one row without a merge),
    sums those p + t axes out in one read pass of ``h``.  What is left is
    read at each label's letter and multiplied by the other factors.  A
    layout with no such side or block builds the merge, or combines the
    blocks, first.
    """
    k, n = len(h), h.ndim - 1
    if held is not None:
        small, (large, qubit, letters) = _sides(*held)
        runs = _runs(tuple(q for q in large[0] if q != qubit), n)
        # its result grows as the large side shrinks: a block as large
        # serves better, and the merge is then small
        if runs is None or any(block[1].size >= large[1].size for block in blocks):
            return _meet(h, blocks + [_merge(*held)], None)
        others = blocks + [small]
    else:
        large, *others = sorted(blocks, key=lambda block: (_runs(block[0], n) is None, -block[1].size))
        runs = _runs(large[0], n)
        if runs is None:
            return _meet(h, [(tuple(range(n)), _combine(blocks, n))], None)
    p, t = runs
    size = 4 ** (n - p - t)
    rows = large[1].reshape(k, 4**p, -1, 4**t)
    if t:
        out = (h.reshape(k, 4**p, size, 4**t) @ rows.transpose(0, 1, 3, 2)).sum(axis=1)
    else:
        out = (rows[..., 0].transpose(0, 2, 1) @ h.reshape(k, 4**p, size)).transpose(0, 2, 1)
    union = tuple(range(p, n - t))
    out = out.reshape((k,) + (4,) * len(union) + (-1,))
    if held is None:
        out = out[..., 0]
    else:
        at = _spread((held[2][0], letters.reshape(k, 4, 4)), union)
        out = np.take_along_axis(out, at[..., None], axis=-1)[..., 0]
    for block in others:
        out = out * _spread(block, union)
    return out.reshape(k, -1).sum(axis=1)


def _forward(blocks, layers, rows):
    """Step ``blocks`` forward through ``layers``, the steps of one
    entangling layer each: while more than one block is left, a layer
    steps and merges them (:func:`_step_blocks`); then each step is one
    :func:`_apply_gate` on the one array, with a peak of two such arrays."""
    for steps in layers:
        if len(blocks) > 1:
            blocks = _step_blocks(blocks, steps, rows)
            continue
        [(qubits, h)] = blocks
        # drop the list's reference, so each step frees the array
        del blocks
        for step in steps:
            h = _apply_gate(h, rows, *step)
        blocks = [(qubits, h)]
    return blocks


def _fold(template, gates, noise: NoiseModel):
    """Transfer-matrix diagonals, shape (K, 4^n), of the folded channels of
    K Clifford circuits: the entangling layers of ``template`` with the
    one-qubit Clifford indices ``gates``, shape (K, one-qubit layers, n).

    Walks the layers forward with ``h <- lambda_i * (h o pi_i)``, where
    pi_i maps a label Q to the label of C_i' Q C_i: the first layer's
    steps (:func:`_layer_steps`) act on ones, so they are blocks of their
    rows, which :func:`_forward` steps through every later layer and
    :func:`_combine` multiplies out.  A circuit without entangling layers
    is one layer of idle qubits.
    """
    k, n = len(gates), template.n
    layers = _layer_steps(template, gates, noise)
    blocks = _forward(_first_blocks(next(layers)), layers, np.arange(k)[:, None])
    return _combine(blocks, n).reshape(k, 4**n)


def _first_blocks(steps):
    """The blocks of a first entangling layer, which acts on ones: each
    step's eigenvalue row on its qubits."""
    return [(qubits, eig.reshape((len(eig),) + (4,) * len(qubits))) for qubits, _, eig in steps]


def _fold_sum(template, gates, noise: NoiseModel):
    """Sum over labels of each fold of :func:`_fold`, shape (K,), where
    :func:`_sweep_sum`'s frontier would reach 4^n.

    The sum of the diagonal needs no diagonal.  All entangling layers but
    the last ``min(2, D - 2)`` step forward (:func:`_forward`); those last
    ones step per-gate blocks backward (:func:`_step_blocks`), and their
    last merge is contracted, unbuilt, against the forward blocks combined
    into one array (:func:`_meet`).  With D <= 2 the sum is the product of
    the block sums.
    """
    k, n = len(gates), template.n
    rows = np.arange(k)[:, None]
    depth = max(gates.shape[1] - 1, 1)
    back = max(min(2, depth - 2), 0)
    layers = _layer_steps(template, gates, noise)
    blocks = _forward(_first_blocks(next(layers)), itertools.islice(layers, depth - 1 - back), rows)
    if not back:
        return np.prod([arr.reshape(k, -1).sum(axis=1) for _, arr in blocks], axis=0)
    # lowest block last, so the product writes the larger ones innermost
    h = _combine(sorted(blocks, key=lambda block: -block[0][0]), n)
    # a lone block is h itself: drop it, so each step frees the array
    del blocks
    last = list(layers)
    blocks, held = _first_blocks(map(_inverted, last[-1])), None
    if back == 2:
        blocks, held, after = _step_blocks(blocks, last[0], rows, backward=True)
        for step in after:
            h = _apply_gate(h, rows, *step)
    return _meet(h, blocks, held)


def _legs(j, qubits, depth):
    """The in and the out legs of the step on ``qubits`` in entangling
    layer ``j`` of ``depth``, the letters it reads and writes: leg (q, i)
    is qubit q's letter before layer i.  The letters before the first
    layer and after the last are summed at once, so they are no legs."""
    return [(q, j) for q in qubits if j], [(q, j + 1) for q in qubits if j + 1 < depth]


@lru_cache(maxsize=32)
def _sweep_plan(n: int, entangling: tuple):
    """The steps of :func:`_sweep_sum` over the layers ``entangling`` on n
    qubits by (lowest qubit, layer), as (step number of :func:`_plan`,
    :func:`_absorb`'s bookkeeping), and the most legs its frontier holds,
    once per layout; (None, n) once that reaches n, where the fold runs.

    The frontier is transposed by ``axes`` (None to keep it) to (K, shared
    legs, kept legs).  A step that reads shared legs and writes new ones
    gathers it at ``read[label]`` (the label itself if None), with ``own``
    None; any other is built dense, its nonzeros at ``read[label] + own``
    of ``size`` entries on its new legs, then the shared ones."""
    # each layer's gates by their lowest qubit
    layers = [{min(gate): gate for gate in group} for group in _layer_gates(n, entangling)]
    steps, legs, widest = [], [], 0
    for j, gate in [(j, gates[q]) for q in range(n) for j, gates in enumerate(layers) if q in gates]:
        # a leg opens at its first step and closes at its second
        ins, outs = _legs(j, sorted(gate), len(layers))
        shared = [leg for leg in legs if leg in ins + outs]
        kept = [leg for leg in legs if leg not in ins + outs]
        new = [leg for leg in ins + outs if leg not in legs]
        at = [legs.index(leg) for leg in shared + kept]
        axes = None if at == sorted(at) else [0] + [1 + a for a in at]
        read, own = np.zeros((2, 4 ** len(gate)), dtype=np.intp)
        # an in leg's letter is that of the label read, an out leg's the label's own
        for leg in shared if outs and new == outs else new + shared:
            read, own = 4 * read, 4 * own
            if leg in ins:
                read += _DIGITS[len(gate)][ins.index(leg)]
            else:
                own += _DIGITS[len(gate)][outs.index(leg)]
        if outs and new == outs:
            read, own, size = None if shared == ins else read, None, None
        else:
            size = 4 ** len(ins + outs)
        steps.append(((j, gate), (axes, (4 ** len(shared), 4 ** len(kept)), read, own, size)))
        legs = new + kept
        widest = max(widest, len(legs))
        if widest >= n:
            return None, n
    number = {step: s for s, step in enumerate(_plan(n, entangling, True).steps)}
    return [(number[step], absorb) for step, absorb in steps], widest


def _absorb(f, rows, labels, eig, axes, shape, read, own, size):
    """The frontier ``f`` (K, 4^m) times one step's tensor, summed over
    their shared legs, with :func:`_sweep_plan`'s bookkeeping; ``rows``
    (K, 1) numbers the circuits.  The step's (K, L) ``labels`` and ``eig``
    (:func:`_step_tables`) make a monomial: each out label's eigenvalue
    at the letters of that label and of the label it reads.  A gather
    reads the frontier there, a dense step is one batched product, and
    new legs go in front, where the next step on their qubit reads them.
    """
    k = len(f)
    if axes is not None:
        f = f.reshape((k,) + (4,) * (len(axes) - 1)).transpose(axes)
    f = f.reshape((k,) + shape)
    if own is None:
        if shape[0] > 1:
            at = labels if read is None else read[labels]
            f = np.take(f.reshape(-1, shape[1]), at + rows * shape[0], axis=0)
        return f * eig[..., None]
    # summed legs can send labels to one entry, which bincount adds up
    flat = np.broadcast_to(rows * size + read[labels] + own, eig.shape)
    tensor = np.bincount(flat.ravel(), eig.ravel(), k * size)
    return tensor.reshape(k, -1, shape[0]) @ f


def _sweep_sum(template, gates, noise: NoiseModel, order):
    """:func:`_fold_sum` contracted qubit by qubit, over a frontier of
    4^m entries for m legs (:func:`_legs`) in place of a 4^n array: each
    gate's step, a tensor on its legs, is taken into the frontier
    (:func:`_absorb`) in the ``order`` of :func:`_sweep_plan`, so D
    brickwork layers on a line hold about D legs open, whatever n.  The
    steps' tables are gathered (:func:`_step_tables`) as many at a time as
    ``_TABLE_AMPLITUDES`` holds, or one."""
    k = len(gates)
    tables = _step_tables(template, gates, noise, _plan(template.n, template.layers[1::2], noise.markovian))
    # a step's labels and eigenvalues take at most 2 * 16 amplitudes per circuit
    batch = max(1, _TABLE_AMPLITUDES // (32 * k))
    f, rows = np.ones((k, 1)), np.arange(k)[:, None]
    for start in range(0, len(order), batch):
        steps = order[start : start + batch]
        for (_, absorb), step in zip(steps, tables([s for s, _ in steps])):
            f = _absorb(f, rows, *step, *absorb)
    return f.reshape(k)


def _infidelities(template, gates, noise: NoiseModel):
    """1 - p_I of each fold of :func:`_fold`, over chunks of at most
    ``_FOLD_AMPLITUDES`` amplitudes; circuits fold independently.  p_I is
    the mean of the diagonal: :func:`_sweep_sum` where its largest
    frontier is smaller than 4^n, else :func:`_fold_sum`."""
    n = template.n
    order, width = _sweep_plan(n, template.layers[1::2])
    fold_sum = partial(_sweep_sum, order=order) if width < n else _fold_sum
    chunk = max(1, _FOLD_AMPLITUDES // 4**width)
    out = np.empty(len(gates))
    for start in range(0, len(gates), chunk):
        out[start : start + chunk] = 1.0 - fold_sum(template, gates[start : start + chunk], noise) / 4**n
    return out


def _walk_tables(noise: NoiseModel | None, layers, n: int) -> list:
    """The :attr:`LayerTables.steps` of each of ``layers``, read once for
    every walk over them; without noise, steps of eigenvalue 1.0, an exact
    product, shared by all walks."""
    if noise is not None:
        return [noise.layer_tables(i, layer).steps for i, layer in enumerate(layers)]
    # a layer has at most n qubits or pairs to step
    return [_noise_free_steps(getattr(layer, "gate", None), n) for layer in layers]


@lru_cache(maxsize=None)
def _noise_free_steps(gate: str | None, n: int) -> list:
    eig = np.ones((n, 24, 4) if gate is None else (n, 16))
    return LayerTables((), None, eig, gate).steps


def _walk_codes(layers, gates, tables, codes) -> tuple[float, list[int]]:
    """:func:`propagate_codes` on the entangling layers of ``layers``, with
    the Clifford index rows ``gates`` and the :func:`_walk_tables`
    ``tables``; the first step, a one-qubit layer, copies ``codes``."""
    lam = 1.0
    for i in range(len(layers) - 1, -1, -1):
        layer_eig = 1.0
        # layers alternate, one-qubit layers at even positions
        if i % 2 == 0:
            back = []
            for steps, g, c in zip(tables[i], gates[i // 2], codes):
                eig, c = steps[g][c]
                layer_eig *= eig
                back.append(c)
            codes = back
        else:
            for steps, (a, b) in zip(tables[i], layers[i].pairs):
                eig, codes[a], codes[b] = steps[4 * codes[a] + codes[b]]
                layer_eig *= eig
        lam *= layer_eig
    return lam, codes


def propagate_codes(
    circuit: LayeredCircuit, noise: NoiseModel | None, codes
) -> tuple[float, list[int]]:
    """Walk a Pauli's letter codes back through a Clifford circuit.

    Goes from the last layer to the first.  At each layer the eigenvalue
    of its error channel at the current letters (a product over the
    layer's gates) multiplies into the running value, then the letters
    map through the layer to those of L' P L.  Returns the product, 1.0
    without noise, and the letters of C' P C with the sign dropped.
    Public: the README lists it as fidelity estimation's walk, which the
    estimators run as :func:`_walk_codes` on tables read once.
    """
    tables = _walk_tables(noise, circuit.layers, circuit.n)
    return _walk_codes(circuit.layers, _clifford_indices(circuit).tolist(), tables, codes)


def fold_eigenvalues(circuit: LayeredCircuit, noise: NoiseModel) -> np.ndarray:
    """Transfer-matrix diagonal of the folded end-of-circuit error channel."""
    template, gates = _gate_indices([circuit])
    return _fold(template, gates, noise)[0]


def fold_to_end(circuit: LayeredCircuit, noise: NoiseModel) -> PauliChannel:
    """Exact end-of-circuit Pauli channel of a noisy Clifford circuit.

    Each layer's error is conjugated through all downstream Clifford layers
    and the distributions are convolved, all in the Walsh domain.  Negative
    probabilities left by rounding are clipped; a clipped mass above
    ``CLIP_TOLERANCE`` raises ValueError instead.
    """
    eig = fold_eigenvalues(circuit, noise)
    probs = pauli_walsh(eig, circuit.n) / 4**circuit.n
    clipped = -probs[probs < 0.0].sum()
    if clipped > CLIP_TOLERANCE:
        raise ValueError(
            f"folded channel has negative probability mass {clipped:.3g}, "
            f"above the rounding bound {CLIP_TOLERANCE:g}"
        )
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return PauliChannel(circuit.n, probs)


def process_infidelity_exact(circuit: LayeredCircuit, noise: NoiseModel) -> float:
    """1 - p_I of the folded channel (= process infidelity of the circuit)."""
    return float(process_infidelities_exact([circuit], noise)[0])


def process_infidelities_exact(circuits, noise: NoiseModel) -> np.ndarray:
    """Process infidelities of K Clifford circuits, folded in one pass.

    ``circuits`` is any iterable, a generator included; each circuit is read
    once and not kept.  The circuits must share their width, layer count
    and entangling layers, as the Cliffordizations of one target do;
    mismatched circuits raise ValueError.  Only p_I, the mean of the
    folded diagonal, is needed.  Where the circuits' pair lists allow it,
    the sum is contracted qubit by qubit (:func:`_sweep_sum`) over a
    frontier smaller than 4^n, about 4^D for D brickwork layers on a line;
    otherwise the fold runs from both ends (:func:`_fold_sum`), and the
    peak is two 4^n arrays.  Either runs in chunks of at most 2^20
    amplitudes (at least one circuit), and both gather their steps'
    tables in batches of at most 2^16 amplitudes (at least one layer, or
    one step for the sweep), so memory stays bounded.  The
    values agree with ``1 - fold_eigenvalues(c).mean()`` to rounding.
    """
    template, gates = _gate_indices(circuits)
    if template is None:
        return np.zeros(0)
    return _infidelities(template, gates, noise)


def cliffordization_infidelities(
    target: LayeredCircuit,
    noise: NoiseModel,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Process infidelities of ``k`` Cliffordizations of ``target``.

    Draws the same Clifford indices from ``rng``, leaving it in the same
    state, as ``k`` calls of ``cliffordize(target, rng)``, and returns the
    values :func:`process_infidelities_exact` gives for those circuits,
    without building them.  Only the target's width and entangling layers
    are read, so its one-qubit gates may be any gates.  A target wider
    than ``FOLD_LIMIT`` raises FoldSizeError before anything is drawn.
    """
    _check_width(target.n)
    gates = _draw_cliffords(rng, k, len(target.layers[::2]), target.n)
    return _infidelities(target, gates, noise)


def layer_infidelities(circuit: LayeredCircuit, noise: NoiseModel) -> list[float]:
    """Per-layer process infidelities 1 - p_I; their sum is the first-order
    estimate of (and an upper bound on the worst-case error of) the circuit."""
    out = []
    for pos, layer in enumerate(circuit.layers):
        probs = noise.layer_tables(pos, layer).probs
        if isinstance(layer, OneQubitLayer):
            # row 24 is the Euler gates' Pauli stand-in
            factors = [probs[q, g if g >= 0 else 24, 0] for q, g in enumerate(layer.indices.tolist())]
        else:
            factors = [row[0] for row in probs]
        out.append(1.0 - float(math.prod(factors)))
    return out


@dataclass(frozen=True)
class SpamModel:
    """Classical bit-flip SPAM: prep flips before the circuit, measurement
    flips on readout (asymmetric 0->1 / 1->0 allowed)."""

    prep: tuple[float, ...]
    meas0: tuple[float, ...]
    meas1: tuple[float, ...]

    def __post_init__(self):
        for name, vals in (("prep", self.prep), ("meas0", self.meas0), ("meas1", self.meas1)):
            for v in vals:
                if not 0.0 <= v < 0.5:
                    raise ValueError(f"{name} probability {v} outside [0, 0.5)")
        if not len(self.prep) == len(self.meas0) == len(self.meas1):
            raise ValueError("per-qubit arrays must have equal length")

    @classmethod
    def uniform(cls, n: int, prep: float, meas: float) -> "SpamModel":
        return cls((prep,) * n, (meas,) * n, (meas,) * n)

    @property
    def n(self) -> int:
        return len(self.prep)

    def prep_factor(self, qubit: int) -> float:
        return 1.0 - 2.0 * self.prep[qubit]

    def meas_factor(self, qubit: int) -> float:
        # Parity estimates are measurement-twirled, which symmetrises the
        # asymmetric flip rates exactly.
        return 1.0 - self.meas0[qubit] - self.meas1[qubit]

    @cached_property
    def factors(self) -> tuple[list[float], list[float]]:
        """Every qubit's prep and measurement factors, computed once."""
        qubits = range(self.n)
        return [self.prep_factor(q) for q in qubits], [self.meas_factor(q) for q in qubits]


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _label_text(k: int, label: int) -> str:
    return str(PauliString.from_label(k, label))


def noise_to_dict(noise: NoiseModel) -> dict:
    """JSON-ready dict with decimal-string rates for bit-exact replay."""

    def gate_entry(g: GateNoise) -> dict:
        k = g.num_qubits
        return {
            _label_text(k, lab): repr(float(g.probs[lab]))
            for lab in range(1, len(g.probs))
            if g.probs[lab] != 0.0
        }

    def key_str(key) -> str:
        if isinstance(key, tuple):
            return " ".join(str(k) for k in key)
        return str(key)

    return {
        "markovian": noise.markovian,
        "one_qubit": {key_str(k): gate_entry(v) for k, v in noise.one_qubit.items()},
        "two_qubit": {key_str(k): gate_entry(v) for k, v in noise.two_qubit.items()},
    }


def noise_from_dict(data: dict) -> NoiseModel:
    markovian = bool(data["markovian"])

    def parse_gate(entry: dict, k: int) -> GateNoise:
        probs = np.zeros(4**k)
        for text, rate in entry.items():
            probs[PauliString.from_text(text).label] = float(rate)
        probs[0] = 1.0 - probs[1:].sum()
        return GateNoise(probs)

    def parse_key(s: str):
        parts = s.split()
        vals = [int(p) if p.lstrip("-").isdigit() else p for p in parts]
        if len(vals) == 1:
            return vals[0]
        return tuple(vals)

    one_qubit = {parse_key(k): parse_gate(v, 1) for k, v in data["one_qubit"].items()}
    two_qubit = {parse_key(k): parse_gate(v, 2) for k, v in data["two_qubit"].items()}
    return NoiseModel(markovian, one_qubit, two_qubit)
