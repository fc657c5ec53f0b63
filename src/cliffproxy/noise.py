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
and sampler all read it.  A qubit's X90 entry compiles in one step for
all gates: its faults are relabelled through
:func:`cliffproxy.clifford.pulse_fault_codes` and convolved into a
probability table with one row per Clifford index plus the Euler
stand-in, and a (24, 4) eigenvalue table over all Clifford indices.  A
pair's table is its entry's 16 probabilities and eigenvalues
(:attr:`GateNoise.eigenvalues`).
Conjugation through a layer maps per-qubit letter codes (a 4-entry map
per one-qubit Clifford, a 16-entry map per CZ or CNOT pair).  The exact
fold of K circuits sharing their entangling layers takes one step per
gate of each entangling layer, its map and eigenvalue rows composed from
the gate's and the one-qubit layer's before it (in the last layer, also
after it); a qubit the layer leaves idle steps with its one-qubit rows.
The first layer's steps are per-gate blocks, which later layers step
and merge when a gate joins two; once one block covers all n qubits,
each gate steps that ``(K,) + (4,) * n`` array, which keeps its axes: a
gate on its leading axes is one gather, any other one batched product
with the gate's scaled permutation matrix.  The diagonal combines the
blocks left at the end.  An infidelity (:func:`process_infidelities_exact`),
the sum of the diagonal, steps its last two layers' blocks backward and
contracts their last merge against the forward blocks, combined, without
building it.  Direct fidelity estimation walks single Paulis back
through the same tables, compiled into (eigenvalue, next letters) steps
(:attr:`LayerTables.steps`); like the fold, a walk reads a circuit as its
entangling layers and its one-qubit layers' Clifford ``indices``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from . import clifford as cl
from .circuits import (
    LayeredCircuit,
    OneQubitLayer,
    TwoQubitLayer,
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

# largest total probability fold_to_end may clip away as rounding noise
CLIP_TOLERANCE = 1e-12

# letter-product table on label codes (Klein group: X*Y=Z etc.)
_CODE_XOR = np.array(
    [[CODE_FROM_XZ[(xa ^ xb, za ^ zb)] for xb, zb in XZ_FROM_CODE] for xa, za in XZ_FROM_CODE],
    dtype=np.int64,
)


# bit shift of each qubit's letter in a label on one or two qubits
_SHIFTS = {1: np.array([[0]]), 2: np.array([[2], [0]])}
# the letters (w, 4^w) of each label on one or two qubits
_DIGITS = {w: (np.arange(4**w) >> shifts) & 3 for w, shifts in _SHIFTS.items()}
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
    """One qubit's X90 faults pushed to the end of each one-qubit gate.

    Returns the (25, 4) probability table of the product of the two pushed
    faults, rows 0-23 for the Clifford indices and row 24 for the Euler
    stand-in (faults not pushed), and the (24, 4) eigenvalue table of the
    Clifford rows.
    """
    codes = cl.pulse_fault_codes()
    first = np.vstack([eps[codes[0]], eps])
    second = np.vstack([eps[codes[1]], eps])
    probs = np.zeros((25, 4))
    # entry k sums first[i] * second[j] over the letters i, in code order,
    # with j the letter that i multiplies to k
    for i in range(4):
        probs += first[:, i, None] * second[:, _CODE_XOR[i]]
    # row by row, as pauli_walsh does: a batched product sums in another
    # order, off by an ulp
    eig = np.array([np.dot(WALSH_KERNEL_1Q, row.reshape(4, 1)).reshape(4) for row in probs[:24]])
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

    def layer_tables(self, position: int, layer, n: int) -> LayerTables:
        """The compiled noise of ``layer`` at ``position`` of an n-qubit
        circuit, built on first use and shared by every reader: once per
        layer position, or once for all positions in the Markovian mode.
        A missing entry raises KeyError."""
        one_qubit = isinstance(layer, OneQubitLayer)
        key = (-1 if self.markovian else position, n if one_qubit else layer)
        hit = self._tables.get(key)
        if hit is None:
            if one_qubit:
                entries = tuple(self.xpi2_noise(position, q) for q in range(n))
                probs, eig = map(np.stack, zip(*(_compile_1q(e.probs) for e in entries)))
            else:
                entries = tuple(self.twoq_noise(position, layer.gate, p) for p in layer.pairs)
                probs = np.array([e.probs for e in entries]).reshape(-1, 16)
                eig = np.array([e.eigenvalues for e in entries]).reshape(-1, 16)
            probs.setflags(write=False)
            eig.setflags(write=False)
            gate = None if one_qubit else layer.gate
            hit = self._tables[key] = LayerTables(entries, probs, eig, gate)
        return hit

    def shifted(self, offset: int) -> "NoiseModel":
        """The model a circuit run from layer ``offset`` on sees: position
        ``i`` of the result holds this model's entries at ``i + offset``.
        A Markovian model has no positions and is returned as it is."""
        if self.markovian or offset == 0:
            return self

        def rebase(table: dict) -> dict:
            return {(key[0] - offset,) + key[1:]: v for key, v in table.items()}

        out = NoiseModel(False, rebase(self.one_qubit), rebase(self.two_qubit))
        # tables compiled from this model's entries hold for the moved ones
        object.__setattr__(out, "_tables", rebase(self._tables))
        return out


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
def _pair_digits(gate: str, swapped: bool) -> np.ndarray:
    """The letters (2, 16) of the image of each label under
    :func:`cliffproxy.clifford.twoq_conjugation_codes`, with both sides'
    letters swapped if ``swapped``: the map of a pair listed high qubit
    first, on its qubits in ascending order."""
    codes = cl.twoq_conjugation_codes(gate)
    digits = _DIGITS[2][:, _SWAP[codes[_SWAP]] if swapped else codes]
    digits.setflags(write=False)
    return digits


def _one_qubit_rows(qubits, layer, digits):
    """Labels before a one-qubit layer, and the products of its
    eigenvalues, for G gates on ``qubits`` (G, w) whose labels after it
    carry the letters ``digits`` (w, L): both (G, K, L).  ``layer`` is the
    layer's (n, K) Clifford indices and its (n, 24, 4) eigenvalue table."""
    gates, table = layer
    at = gates[qubits], np.arange(len(digits))[:, None]
    shifted = (cl.inverse_conjugation_codes()[:, digits] << _SHIFTS[len(digits)])[at]
    eig = table[:, :, digits][(qubits[..., None],) + at]
    if len(digits) == 1:
        return shifted[:, 0], eig[:, 0]
    return shifted[:, 0] | shifted[:, 1], eig[:, 0] * eig[:, 1]


def _fused_tables(qubits, digits, gate_eig, pre, post):
    """Tables of G gates of width w on ``qubits`` (G, w), composed with the
    one-qubit layers around them.

    ``digits`` (w, 4^w) holds the letters of the image of each of a gate's
    labels under its conjugation, and ``gate_eig`` (G, 4^w) the gates'
    eigenvalues, or is None for idle qubits.  ``pre`` and ``post`` are the
    one-qubit layers before and after the gates, as :func:`_one_qubit_rows`
    takes them; ``post`` may be None.
    Returns the mapped labels and the eigenvalue rows, both (G, K, 4^w),
    that :func:`_apply_gate` takes.
    """
    labels, eig = _one_qubit_rows(qubits, pre, digits)
    if gate_eig is not None:
        eig = gate_eig[:, None] * eig
    if post is not None:
        # each output label reads the tables at its label before ``post``
        before, post_eig = _one_qubit_rows(qubits, post, _DIGITS[qubits.shape[1]])
        eig = post_eig * np.take_along_axis(eig, before, axis=-1)
        labels = np.take_along_axis(labels, before, axis=-1)
    return labels, eig


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


def _layer_steps(template, gates, noise: NoiseModel):
    """The steps of each entangling layer of :func:`_fold`, one list per
    layer: (qubits ascending, labels, eigenvalue rows) as
    :func:`_apply_gate` takes them.  Gates step in order of the deepest
    axis their qubits would hold if every step moved its gate's axes to
    the front (``order``), which on one array (:func:`_forward`) fixes the
    order of each label's products, and so the result's last bits."""
    n = template.n
    depth = gates.shape[1] - 1

    def one_qubit_layer(j):
        table = noise.layer_tables(2 * j, template.layers[2 * j], n).eig
        return gates[:, j].T.astype(np.intp), table

    order = list(range(n))
    for j in range(max(depth, 1)):
        layer = template.layers[2 * j + 1] if depth else TwoQubitLayer(())
        pre = one_qubit_layer(j)
        post = one_qubit_layer(depth) if j == depth - 1 else None
        paired = [q for pair in layer.pairs for q in pair]
        idle = [(q,) for q in range(n) if q not in paired]
        pair_eig = noise.layer_tables(2 * j + 1, layer, n).eig
        steps = []
        for flip in (False, True):
            # pairs listed high qubit first step with their letters swapped
            group = [i for i, pair in enumerate(layer.pairs) if (pair[0] > pair[1]) == flip]
            if not group:
                continue
            pairs = [layer.pairs[i] for i in group]
            qubits, twoq = np.array(pairs), pair_eig[group]
            if flip:
                qubits, twoq = qubits[:, ::-1], twoq[:, _SWAP]
            digits = _pair_digits(layer.gate, flip)
            steps += zip(pairs, *_fused_tables(qubits, digits, twoq, pre, post))
        if idle:
            steps += zip(idle, *_fused_tables(np.array(idle), _DIGITS[1], None, pre, post))
        steps.sort(key=lambda step: max(order.index(q) for q in step[0]))
        for qubits, _, _ in steps:
            order = list(qubits) + [q for q in order if q not in qubits]
        yield [(tuple(sorted(qubits)), labels, eig) for qubits, labels, eig in steps]


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
    """Sum over labels of each fold of :func:`_fold`, shape (K,).

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


def _infidelities(template, gates, noise: NoiseModel):
    """1 - p_I of each fold of :func:`_fold`, over chunks of at most
    ``_FOLD_AMPLITUDES`` amplitudes; circuits fold independently.  p_I is
    the mean of the diagonal (:func:`_fold_sum`)."""
    n = template.n
    chunk = max(1, _FOLD_AMPLITUDES // 4**n)
    out = np.empty(len(gates))
    for start in range(0, len(gates), chunk):
        out[start : start + chunk] = 1.0 - _fold_sum(template, gates[start : start + chunk], noise) / 4**n
    return out


def _walk_tables(noise: NoiseModel | None, layers, n: int) -> list:
    """The :attr:`LayerTables.steps` of each of ``layers``, read once for
    every walk over them; without noise, steps of eigenvalue 1.0, an exact
    product, shared by all walks."""
    if noise is not None:
        return [noise.layer_tables(i, layer, n).steps for i, layer in enumerate(layers)]
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
    mismatched circuits raise ValueError.  The fold runs in chunks of at
    most 2^20 amplitudes (at least one circuit), so memory stays bounded.
    Only p_I, the mean of the folded diagonal, is needed, so the fold runs
    from both ends (:func:`_fold_sum`), and the peak is two 4^n arrays.
    The values agree with ``1 - fold_eigenvalues(c).mean()`` to rounding.
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
        probs = noise.layer_tables(pos, layer, circuit.n).probs
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
