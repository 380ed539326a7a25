"""Quantum comb construction and compatibility checking.

A comb here is a multi-slot quantum channel with ``n`` input wires
``A1..An`` and ``n`` output wires ``B1..Bn`` that is realized by a
sequence of unitary teeth acting on one external wire plus a shared
memory register: tooth ``t`` consumes input wire ``A{sigma[t]}``, acts
unitarily on (wire x memory), and emits output wire ``B{pi[t]}``.  The
memory starts in a pure state and is discarded at the end.  The hidden
permutations ``sigma`` / ``pi`` are what the discovery algorithms try to
recover from black-box access.

The channel is represented by its (unit-trace) Choi operator: the channel
applied to one half of a maximally entangled pair per input wire.  Wire
``A{i}`` of the Choi is the untouched entangled copy of input ``i``;
``B{j}`` is channel output ``j``.

An ordering ``((Ai1,Bj1),...,(Ain,Bjn))`` is *compatible* with a Choi
operator when, for every proper prefix, discarding the later outputs
leaves the later inputs maximally mixed and uncorrelated.
``check_comb_condition`` measures the worst trace-norm deviation from
that family of identities, which is exactly the certificate the
acceptance harness uses.  The prefix-k identity depends only on the
prefix node, the sets of the first k inputs and outputs, so the (n!)^2
orders share C(2n, n) - 1 nodes; ``compatible_orders`` finds every
compatible order by walking them from the empty prefix, and one node
function serves both, so they report the same deviations.  Both work on
one factor ``G`` with ``C = G G^H``, on sorted wires: a spec's
purification, or the verified Cholesky factor of a dense operator, which
also certifies that the operator is positive.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .tensors import (
    Op,
    WireSpace,
    correlation_norms,
    fold,
    haar_unitary,
    kron_all,
    marginal,
    partial_trace,
    random_pure_state,
    span,
    trace_norm,
    wire_key,
)

__all__ = [
    "CombSpec",
    "CausalOrder",
    "CombCheck",
    "RejectionBudgetError",
    "MAX_ENTRIES",
    "check_entries",
    "input_label",
    "output_label",
    "wire_roles",
    "build_choi",
    "choi_factor",
    "verified_factor",
    "check_comb_condition",
    "compatible_orders",
    "trace_out_tooth",
    "gen_unitary_comb",
    "gen_memoryless_comb",
    "gen_totalorder_comb",
    "gen_signaling_comb",
    "gen_fig3_comb",
    "enumerate_orders",
]

#: Most complex entries of any array formed from a comb: ``d^{2n} d_M`` for
#: its purification, ``dim^2`` for a dense Choi operator, Born table or
#: one prefix of the comb checker.  It also caps the (n!)^2 orders that
#: :func:`enumerate_orders` lists.
#: ``2^20`` is a dense Choi operator at n = 5 on qubit wires.
MAX_ENTRIES = 2**20

#: An ordering of teeth as ((input_label, output_label), ...) pairs.
CausalOrder = tuple[tuple[str, str], ...]


def check_entries(entries: int, what: str) -> None:
    """Raise ``ValueError`` before forming an array over :data:`MAX_ENTRIES`."""
    if entries > MAX_ENTRIES:
        raise ValueError(f"{what} would have {entries} entries, over the cap of {MAX_ENTRIES}")


def input_label(i: int) -> str:
    return f"A{i}"


def output_label(j: int) -> str:
    return f"B{j}"


def wire_roles(labels: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The input wires ``A…`` and the output wires ``B…`` of a comb, in ``labels`` order.

    Every wire must be one or the other, with as many inputs as outputs
    and at least one of each; any other wire set raises ``ValueError``.
    """
    ins = tuple(l for l in labels if l.startswith("A"))
    outs = tuple(l for l in labels if l.startswith("B"))
    if len(ins) + len(outs) != len(labels) or len(ins) != len(outs) or not ins:
        raise ValueError(
            f"wires {tuple(labels)} are not n >= 1 inputs A... and as many outputs B..."
        )
    return ins, outs


class RejectionBudgetError(RuntimeError):
    """Rejection sampling ran out of tries; carries the best candidate found."""

    def __init__(self, message: str, best_spec=None, best_floor: float = 0.0):
        super().__init__(message)
        self.best_spec = best_spec
        self.best_floor = best_floor


@dataclass(frozen=True)
class CombSpec:
    """Unitary-with-memory presentation of an ``n``-tooth comb.

    Attributes
    ----------
    n : number of teeth.
    wire_dim : dimension of every external wire.
    memory_dim : dimension of the shared memory register.
    psi0 : initial pure memory state, shape ``(memory_dim,)``.
    unitaries : one ``(wire_dim*memory_dim)``-square unitary per tooth, in
        temporal order; each acts on (wire x memory) with the wire factor first.
    input_perm : ``input_perm[t]`` is the 1-based input wire number consumed
        by tooth ``t`` (0-based).
    output_perm : same for output wire numbers.
    metadata : free-form provenance (generator name, seed, achieved floors).

    ``true_order``, ``input_labels`` and ``output_labels`` are each derived
    once, by ``functools.cached_property``, and kept in the instance
    ``__dict__`` beside :func:`verified_factor`'s memo.  They are not
    fields, so ``==``, ``repr`` and ``dataclasses.replace`` ignore them.
    """

    n: int
    wire_dim: int
    memory_dim: int
    psi0: np.ndarray
    unitaries: tuple[np.ndarray, ...]
    input_perm: tuple[int, ...]
    output_perm: tuple[int, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        psi0 = np.array(self.psi0, dtype=complex)
        psi0.setflags(write=False)
        object.__setattr__(self, "psi0", psi0)
        us = tuple(np.array(u, dtype=complex) for u in self.unitaries)
        for u in us:
            u.setflags(write=False)
        object.__setattr__(self, "unitaries", us)
        object.__setattr__(self, "input_perm", tuple(int(v) for v in self.input_perm))
        object.__setattr__(self, "output_perm", tuple(int(v) for v in self.output_perm))
        self._validate()

    def _validate(self):
        if self.n < 1:
            raise ValueError("need at least one tooth")
        for name in ("wire_dim", "memory_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if len(self.unitaries) != self.n:
            raise ValueError("one unitary per tooth required")
        if sorted(self.input_perm) != list(range(1, self.n + 1)):
            raise ValueError(f"input_perm {self.input_perm} is not a permutation of 1..n")
        if sorted(self.output_perm) != list(range(1, self.n + 1)):
            raise ValueError(f"output_perm {self.output_perm} is not a permutation of 1..n")
        if self.psi0.shape != (self.memory_dim,):
            raise ValueError("psi0 shape mismatch with memory_dim")
        if abs(np.linalg.norm(self.psi0) - 1.0) > 1e-9:
            raise ValueError("psi0 must be normalized")
        dt = self.wire_dim * self.memory_dim
        for t, u in enumerate(self.unitaries):
            if u.shape != (dt, dt):
                raise ValueError(f"tooth {t} unitary has shape {u.shape}, expected {(dt, dt)}")
            if np.abs(u @ u.conj().T - np.eye(dt)).max() > 1e-9:
                raise ValueError(f"tooth {t} matrix is not unitary")

    @cached_property
    def true_order(self) -> CausalOrder:
        return tuple(zip(map(input_label, self.input_perm), map(output_label, self.output_perm)))

    @cached_property
    def input_labels(self) -> tuple[str, ...]:
        return tuple(map(input_label, range(1, self.n + 1)))

    @cached_property
    def output_labels(self) -> tuple[str, ...]:
        return tuple(map(output_label, range(1, self.n + 1)))


@dataclass(frozen=True)
class CombCheck:
    """Result of a compatibility check for one candidate ordering."""

    ok: bool
    worst_deviation: float
    deviations: tuple[float, ...]  # per prefix length 0..n-1
    tol: float
    # verified bound on ||C - G G^H||_1 for the factor G the check used;
    # 0.0 for a spec, whose purification is exact
    residual_bound: float = 0.0


# ---------------------------------------------------------------------------
# Choi construction


def _apply_two_site(state, axes_labels, gate4, lab_a, lab_b, new_a, new_b):
    """Contract a two-site gate onto the named axes of a dense state tensor."""
    ia, ib = axes_labels.index(lab_a), axes_labels.index(lab_b)
    out = np.tensordot(gate4, state, axes=([2, 3], [ia, ib]))
    rest = [l for k, l in enumerate(axes_labels) if k not in (ia, ib)]
    return out, [new_a, new_b] + rest


def choi_factor(spec: CombSpec) -> tuple[WireSpace, np.ndarray]:
    """Simulate the comb on entangled-pair inputs and return its purification.

    Returns the wire space ``A1..An, B1..Bn`` (sorted), each wire of
    dimension ``spec.wire_dim``, and the ``d^{2n} x d_M`` matrix ``V`` whose
    columns are the final state's components along the memory basis, so
    that the unit-trace Choi operator is ``V V^H``.
    """
    d, dm, n = spec.wire_dim, spec.memory_dim, spec.n
    total = d ** (2 * n)
    check_entries(total * dm, "the purification")

    # State tensor over: one channel-side axis per tooth, one kept copy per
    # input wire, and the memory axis.  Each channel-side axis starts
    # maximally entangled with its copy.
    pair = np.eye(d) / math.sqrt(d)  # axes (channel, copy)
    factors = [pair] * n + [spec.psi0]
    state = reduce(np.multiply.outer, factors)
    labels: list[str] = []
    for t in range(n):
        labels += [f"T{t}", input_label(spec.input_perm[t])]
    labels.append("M")

    for t in range(n):
        gate4 = spec.unitaries[t].reshape(d, dm, d, dm)
        state, labels = _apply_two_site(
            state, labels, gate4, f"T{t}", "M", output_label(spec.output_perm[t]), "M"
        )

    wire_order = sorted((l for l in labels if l != "M"), key=wire_key)
    perm = [labels.index(l) for l in wire_order] + [labels.index("M")]
    v = state.transpose(perm).reshape(total, dm)
    return WireSpace(tuple(wire_order), (d,) * (2 * n)), v


def build_choi(spec: CombSpec) -> Op:
    """The comb's Choi operator ``V V^H`` for the ``V`` of :func:`choi_factor`.

    It has unit trace and rank at most ``spec.memory_dim``.
    """
    space, v = choi_factor(spec)
    check_entries(space.dim**2, "the Choi operator")
    return Op(space, v @ v.conj().T)


# ---------------------------------------------------------------------------
# compatibility checking


def _validate_order(order: Sequence[Sequence[str]], space: WireSpace) -> CausalOrder:
    order = tuple((str(a), str(b)) for a, b in order)
    ins, outs = wire_roles(space.labels)
    if sorted(a for a, _ in order) != sorted(ins) or sorted(b for _, b in order) != sorted(outs):
        raise ValueError(
            f"order {order} does not cover the Choi wires {space.labels} exactly once each"
        )
    return order


#: The low-rank factor must reproduce the Choi operator to this fraction of
#: its trace, in trace norm; it is fixed so that ``tol`` keeps its meaning.
_FACTOR_RTOL = 1e-13
# Rows per block of the factor's residual check, so no temporary is Choi-sized.
_RESIDUAL_ROWS = 8


def _pivoted_cholesky(c: np.ndarray, stop: float) -> np.ndarray:
    """Columns ``G`` with ``C ~ G G^H``, at most one per row of ``C``.

    Each step takes the largest remaining diagonal entry as its pivot and
    stops once none exceeds ``stop``.  Nothing here checks the result: an
    indefinite operator can leave a residual far larger than its diagonal.
    """
    rows = np.empty((1, c.shape[0]), dtype=complex)  # the columns of G, filled in as found
    diag = c.diagonal().real.copy()
    k = 0
    while k < c.shape[0]:
        p = int(np.argmax(diag))
        if not diag[p] > stop:  # also stops on NaN
            break
        if k == len(rows):
            # double the room: rows are copied O(log dim) times, and a
            # low-rank operator allocates no more than its factor needs
            rows = np.concatenate([rows, np.empty_like(rows)])
        rows[k] = (c[:, p] - rows[:k, p].conj() @ rows[:k]) / math.sqrt(diag[p])
        diag -= rows[k].real**2 + rows[k].imag**2
        k += 1
    return rows[:k].copy().T


def _residual_bound(c: np.ndarray, g: np.ndarray) -> float:
    """``sqrt(dim) * ||C - G G^H||_F``, a bound on ``||C - G G^H||_1``."""
    gh = g.conj().T
    block = np.empty((_RESIDUAL_ROWS, c.shape[0]), dtype=complex)
    total = 0.0
    for r in range(0, c.shape[0], _RESIDUAL_ROWS):
        out = block[: min(_RESIDUAL_ROWS, c.shape[0] - r)]
        np.matmul(g[r : r + _RESIDUAL_ROWS], gh, out=out)
        out -= c[r : r + _RESIDUAL_ROWS]
        total += np.vdot(out, out).real
    return math.sqrt(c.shape[0] * total)


def _node_deviation(space: WireSpace, g: np.ndarray, done: frozenset[str]) -> float:
    """The deviation of one prefix node of ``G G^H``, on a span that holds it.

    The node is the set ``done`` of its first k inputs and outputs.  Its
    wires keep ``space``'s sorted order, which puts the late inputs before
    the late outputs, so the result depends on the node alone.  The
    columns ``G_k`` are ``G`` with the late outputs folded in, so the
    marginal is ``G_k G_k^H``; folding the late inputs in as well gives
    ``H_k`` with ``Tr_late`` of the marginal equal to ``H_k H_k^H``.  Both terms of the deviation then map
    into the span of ``Q (x) 1_late``, where ``Q`` is an orthonormal basis
    of the columns of ``H_k``, and the deviation compressed there, ``K K^H``
    minus its own late marginal for ``K = (Q^H (x) 1) G_k``, has the same
    trace norm.  ``Q^H H_k`` is :func:`~causalcomb.tensors.span` of
    ``H_k``, and ``K`` is that with the late inputs split back out of its
    columns; where ``H_k`` has no fewer columns than rows, ``K`` is
    ``G_k`` itself.
    """
    early = [l for l in space.labels if l in done]
    late = [l for l in space.labels if l not in done]
    d_late = math.prod(space.dim_of(l) for l in late if l.startswith("A"))
    h = fold(space, g, early, late)
    gk = span(h).reshape(-1, h.shape[1] // d_late)
    check_entries(gk.shape[0] ** 2, f"the prefix-{len(done) // 2} deviation")
    # with the late wires last the product term is block diagonal, and it is
    # subtracted from the diagonal of each (early, early) block in place
    lhs = gk @ gk.conj().T
    blocks = lhs.reshape(len(lhs) // d_late, d_late, len(lhs) // d_late, d_late)
    small = np.trace(blocks, axis1=1, axis2=3) / d_late
    diag = np.einsum("iaja->iaj", blocks)  # writable view of the late diagonals
    diag -= small[:, None, :]
    return trace_norm(lhs)


def verified_factor(x: Op | CombSpec) -> tuple[WireSpace, np.ndarray, float]:
    """A factor ``G`` with ``C = G G^H``, its wire space and a bound on its residual.

    A :class:`CombSpec` gives its purification from :func:`choi_factor`,
    which is exact, so the residual is 0.0.  A dense ``Op`` over
    :data:`MAX_ENTRIES` entries raises ``ValueError``; any other is factored
    by pivoted Cholesky, stopped once no residual diagonal entry exceeds
    ``1e-13 * Tr C / dim``.  The factor is used only if
    ``sqrt(dim) * ||C - G G^H||_F``, a bound on ``||C - G G^H||_1`` and the
    residual returned, is at most ``1e-13 * Tr C``; as ``G G^H`` is
    positive semidefinite, so is ``C`` to within it.  An operator without
    positive trace, or one the factor cannot reproduce (indefinite or not
    Hermitian), raises ``ValueError``.  The rows of ``G`` follow sorted
    wire order (:func:`~causalcomb.tensors.wire_key`): a purification's
    already do, and an operator's factor is folded into it once.

    The result is computed once per input and kept in its ``__dict__``,
    where ``functools.cached_property`` keeps a spec's ``true_order``, with
    ``G`` read-only.  ``Op`` and ``CombSpec`` are frozen and hold read-only
    arrays, so the memo is keyed by content and is freed with its input.
    A refused operator is not memoized.  Sessions open on this memo too.
    """
    memo = vars(x)
    if "verified_factor" in memo:
        return memo["verified_factor"]
    if isinstance(x, CombSpec):
        space, g = choi_factor(x)
        residual = 0.0
    else:
        space, c = x.space, x.matrix
        check_entries(space.dim**2, "the Choi operator")
        trace = np.trace(c).real
        if not trace > 0:  # also refuses NaN
            raise ValueError(f"the operator has trace {trace:.3g}, not a positive one")
        bound = _FACTOR_RTOL * trace
        g = _pivoted_cholesky(c, bound / space.dim)
        residual = _residual_bound(c, g)
        if not residual <= bound:
            raise ValueError(
                f"the operator is not Hermitian positive semidefinite: G G^H misses it "
                f"by up to {residual:.3g} in trace norm, over {bound:.3g}"
            )
        labels = sorted(space.labels, key=wire_key)
        g = fold(space, g, labels, [])
        space = WireSpace(tuple(labels), tuple(space.dim_of(l) for l in labels))
    g.setflags(write=False)
    memo["verified_factor"] = space, g, residual
    return space, g, residual


def _check_tol(tol: float) -> None:
    """Refuse a ``tol`` that is not a positive finite number: at 0 or below,
    or NaN, roundoff fails the true order; at infinity every order passes."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")


def _comb_check(devs: tuple[float, ...], tol: float, residual: float) -> CombCheck:
    """One order's check from its prefix deviations, ``devs[k]`` for prefix k."""
    return CombCheck(max(devs) <= tol, max(devs), devs, tol, residual)


def check_comb_condition(
    choi: Op | CombSpec, order: Sequence[Sequence[str]], tol: float = 1e-9
) -> CombCheck:
    """Measure how far a Choi operator is from being a comb in the given tooth order.

    For each prefix length ``k`` (0..n-1) the marginal on (all inputs +
    first k outputs) is compared in trace norm against (marginal on first
    k teeth) x (maximally mixed on the later inputs).  ``ok`` means every
    deviation is at most ``tol``.  Each deviation is that of one prefix
    node, the set of the first k inputs and outputs (``_node_deviation``),
    and depends on the node alone; :func:`compatible_orders` walks the
    same nodes for every order at once and reports the same deviations.

    Every node is checked on the factor ``G`` of :func:`verified_factor`:
    a spec's purification, with no Choi-sized array formed, or the
    verified Cholesky factor of a dense ``Op``, whose bound on
    ``||C - G G^H||_1`` is reported as ``residual_bound``.  Each deviation
    is a linear map of ``C`` that at most doubles the trace norm, so the
    deviations of ``G G^H`` are those of ``C`` to within twice
    ``residual_bound``.  An operator that is not Hermitian positive
    semidefinite with a positive trace raises ``ValueError``, as does an
    operator or a prefix matrix over :data:`MAX_ENTRIES` (a prefix from
    n = 8 on qubit wires with d_M = 2).  The factor is computed once per
    input and kept on it, so checking many orders of one operator or spec
    factors it once.  A ``tol`` that is not a positive finite number
    raises ``ValueError`` before anything is factored.
    """
    _check_tol(tol)
    space, g, residual = verified_factor(choi)
    order = _validate_order(order, space)
    nodes = (frozenset().union(*order[:k]) for k in range(len(order)))
    return _comb_check(tuple(_node_deviation(space, g, done) for done in nodes), tol, residual)


def compatible_orders(
    choi: Op | CombSpec, tol: float = 1e-9
) -> tuple[dict[CausalOrder, CombCheck], int]:
    """Every tooth order compatible with a Choi operator, and the prefix nodes evaluated.

    An order is compatible exactly when every prefix node on its path
    passes.  The walk starts from the empty prefix and expands only nodes
    that pass, evaluating each node once per call; every
    :class:`CombCheck` equals :func:`check_comb_condition`'s for its order.
    A comb with one compatible order takes ``1 + sum(m^2 for m in 2..n)``
    nodes, where an exhaustive check scores ``(n!)^2`` orders.

    Returns each compatible order, in lexicographic wire order of its pairs,
    mapped to its :class:`CombCheck`, and the number of nodes evaluated.
    ``tol`` must be a positive finite number, as for
    :func:`check_comb_condition`.
    """
    _check_tol(tol)
    space, g, residual = verified_factor(choi)
    ins, outs = wire_roles(space.labels)
    nodes: dict[frozenset[str], float] = {}
    found: dict[CausalOrder, CombCheck] = {}

    def walk(order: CausalOrder, devs: tuple[float, ...]) -> None:
        if len(order) == len(ins):
            found[order] = _comb_check(devs, tol, residual)
            return
        done = frozenset().union(*order)
        if done not in nodes:
            nodes[done] = _node_deviation(space, g, done)
        if nodes[done] <= tol:
            devs += (nodes[done],)
            for a in ins:
                for b in outs:
                    if a not in done and b not in done:
                        walk(order + ((a, b),), devs)

    walk((), ())
    return found, len(nodes)


def trace_out_tooth(choi: Op, in_label: str, out_label: str) -> Op:
    """Remove one tooth: discard its output and feed its input maximally mixed.

    On the Choi operator this is the partial trace over the named wire
    pair; when the pair is a valid last tooth the result is again the Choi
    operator of a comb on the remaining wires.
    """
    keep = [l for l in choi.labels if l not in (in_label, out_label)]
    if len(keep) != len(choi.labels) - 2:
        raise KeyError(f"wires ({in_label}, {out_label}) not both present in {choi.labels}")
    return partial_trace(choi, keep)


def enumerate_orders(n: int) -> list[CausalOrder]:
    """All (n!)^2 candidate orderings for an n-tooth comb, ``n >= 1``.

    Inputs vary slowest: the orders run through the input permutations in
    lexicographic order and, for each, through every output permutation.
    The n^2 teeth ``(input_label(i), output_label(j))`` are built once per
    call and every order is a tuple of references to them, so the list
    costs about one n-tuple per order: 1.2 MB at n = 5 (14,400 orders)
    and under 50 MB at n = 6.  Each input permutation picks its rows of
    teeth once, and each order maps the output permutation over them.
    A bool or non-integer ``n`` raises ``TypeError``; ``n < 1``, and an
    ``n`` whose (n!)^2 orders exceed :data:`MAX_ENTRIES` (n >= 7), raise
    ``ValueError``, before anything is built; past n = 20 the message
    bounds the count rather than forming or printing it.
    """
    from itertools import permutations

    if isinstance(n, bool):
        raise TypeError("n must be an integer, not bool")
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"an order needs n >= 1 inputs, got n = {n}")
    if n > 20:  # (n!)^2 > 10^39; from n = 1000 on, str() refuses its 4,300 digits
        raise ValueError(
            "the list of orders for n > 20 would have over 10^39 entries, "
            f"over the cap of {MAX_ENTRIES}"
        )
    check_entries(math.factorial(n) ** 2, f"the list of n = {n} orders")
    wires = range(1, n + 1)
    teeth = [[(input_label(i), output_label(j)) for j in wires] for i in wires]
    perms = list(permutations(range(n)))
    orders = []
    for ins in perms:
        rows = [teeth[i] for i in ins]
        orders += [tuple(map(operator.getitem, rows, outs)) for outs in perms]
    return orders


# ---------------------------------------------------------------------------
# generators


def gen_unitary_comb(
    n: int,
    wire_dim: int,
    memory_dim: int,
    rng: np.random.Generator,
    input_perm: Sequence[int] | None = None,
    output_perm: Sequence[int] | None = None,
) -> CombSpec:
    """Haar-random unitary teeth, Haar-random pure memory, hidden permutations."""
    dt = wire_dim * memory_dim
    if input_perm is None:
        input_perm = rng.permutation(n) + 1
    if output_perm is None:
        output_perm = rng.permutation(n) + 1
    return CombSpec(
        n=n,
        wire_dim=wire_dim,
        memory_dim=memory_dim,
        psi0=random_pure_state(memory_dim, rng),
        unitaries=tuple(haar_unitary(dt, rng) for _ in range(n)),
        input_perm=tuple(int(v) for v in input_perm),
        output_perm=tuple(int(v) for v in output_perm),
        metadata={"generator": "unitary"},
    )


def gen_memoryless_comb(
    n: int,
    wire_dim: int,
    rng: np.random.Generator,
    constant_tooth: bool = False,
) -> CombSpec:
    """Product of independent single-wire teeth under a hidden output pairing.

    Without ``constant_tooth`` every tooth is a Haar unitary on its wire
    alone (memory dimension 1), so each (input, paired output) Choi factor
    is rank one.  With ``constant_tooth`` the temporally last tooth swaps
    its input into the memory and emits a fixed pure output instead; the
    overall Choi still factorizes tooth by tooth.
    """
    pi = tuple(int(v) for v in rng.permutation(n) + 1)
    if not constant_tooth:
        return CombSpec(
            n=n,
            wire_dim=wire_dim,
            memory_dim=1,
            psi0=np.ones(1),
            unitaries=tuple(haar_unitary(wire_dim, rng) for _ in range(n)),
            input_perm=tuple(range(1, n + 1)),
            output_perm=pi,
            metadata={"generator": "memoryless"},
        )
    d = wire_dim
    psi0 = np.zeros(d)
    psi0[0] = 1.0
    swap = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            swap[b * d + a, a * d + b] = 1.0
    unitaries = [np.kron(haar_unitary(d, rng), np.eye(d)) for _ in range(n - 1)]
    unitaries.append(swap)
    return CombSpec(
        n=n,
        wire_dim=d,
        memory_dim=d,
        psi0=psi0,
        unitaries=tuple(unitaries),
        input_perm=tuple(range(1, n + 1)),
        output_perm=pi,
        metadata={"generator": "memoryless+constant"},
    )


def pairwise_correlation_floor(spec: CombSpec) -> float:
    """Smallest pairwise correlation over tooth pairs (i, j) with j >= i.

    Pairs with j < i in tooth order are causally forced to be exactly
    uncorrelated and are excluded from the floor.  Each pair marginal is
    read from the comb's purification by :func:`~causalcomb.tensors.marginal`,
    so no Choi-sized array is formed, and the n(n+1)/2 of them go through
    one stacked :func:`~causalcomb.tensors.correlation_norms` call.
    """
    space, v = choi_factor(spec)
    pairs = [
        marginal(space, v, [input_label(spec.input_perm[i]), output_label(spec.output_perm[j])])
        for i in range(spec.n)
        for j in range(i, spec.n)
    ]
    return float(correlation_norms(np.stack(pairs), spec.wire_dim).min())


def gen_totalorder_comb(
    n: int,
    wire_dim: int,
    memory_dim: int,
    rng: np.random.Generator,
    corr_floor: float = 0.05,
    budget: int = 10_000,
) -> CombSpec:
    """Rejection-sample a unitary comb whose every causal pair is visibly correlated.

    Accepts the first draw in which every (input i, output j) pair with
    tooth positions j >= i has pairwise correlation at least
    ``corr_floor``.  The achieved floor is recorded in the metadata under
    ``achieved_chi_min``.  Raises :class:`RejectionBudgetError` after
    ``budget`` failed draws, carrying the best candidate seen.  A positive
    ``corr_floor`` that no draw can reach, because every pair it covers is
    exactly uncorrelated (``wire_dim`` 1, or ``memory_dim`` 1 with n >= 2),
    raises ``ValueError`` before the first draw.
    """
    if corr_floor > 0 and (wire_dim == 1 or (memory_dim == 1 and n >= 2)):
        why = (
            "on wires of dimension 1 every pair is uncorrelated"
            if wire_dim == 1
            else "without memory no input reaches a later tooth's output"
        )
        raise ValueError(f"no draw can reach pairwise correlation {corr_floor}: {why}")
    best, best_floor = None, -math.inf
    for _ in range(budget):
        spec = gen_unitary_comb(n, wire_dim, memory_dim, rng)
        floor = pairwise_correlation_floor(spec)
        if floor > best_floor:
            best, best_floor = spec, floor
        if floor >= corr_floor:
            meta = dict(spec.metadata)
            meta.update(generator="totalorder", achieved_chi_min=float(floor))
            return replace(spec, metadata=meta)
    raise RejectionBudgetError(
        f"no draw reached pairwise correlation {corr_floor} in {budget} tries "
        f"(best {best_floor:.4f})",
        best_spec=best,
        best_floor=best_floor,
    )


# ---------------------------------------------------------------------------
# structured examples


def _embed_qubit_gate(gate: np.ndarray, positions: Sequence[int], n_qubits: int) -> np.ndarray:
    """Place a k-qubit gate on the named positions of an n-qubit register."""
    k = len(positions)
    g = np.asarray(gate, dtype=complex).reshape((2,) * (2 * k))
    u = np.eye(2**n_qubits, dtype=complex).reshape((2,) * (2 * n_qubits))
    # contract gate output legs onto the register's row axes
    u = np.tensordot(g, u, axes=(list(range(k, 2 * k)), list(positions)))
    # tensordot puts the gate's k output axes first; restore register order
    order = list(positions) + [i for i in range(n_qubits) if i not in positions]
    inv = [order.index(i) for i in range(n_qubits)]
    u = u.transpose(inv + list(range(n_qubits, 2 * n_qubits)))
    return u.reshape(2**n_qubits, 2**n_qubits)


_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP2 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)


def gen_signaling_comb(rng: np.random.Generator | None = None) -> CombSpec:
    """Two-tooth qubit comb with maximal forward signaling through memory.

    Tooth 1 copies its input onto the memory qubit (computational-basis
    CNOT) and passes the input through as output 1; tooth 2 swaps the
    memory out as output 2 and discards its own input into the memory.
    Output 2 is then a perfect classical record of input 1, so the
    reversed tooth order is incompatible by a large margin.  With an rng
    the teeth are dressed by Haar local unitaries, which changes the comb
    but none of the compatibility margins.
    """
    u1 = _CNOT
    u2 = _SWAP2
    if rng is not None:
        u1 = kron_all([haar_unitary(2, rng), haar_unitary(2, rng)]) @ u1 @ kron_all(
            [haar_unitary(2, rng), np.eye(2)]
        )
        u2 = kron_all([haar_unitary(2, rng), haar_unitary(2, rng)]) @ u2 @ kron_all(
            [haar_unitary(2, rng), np.eye(2)]
        )
    return CombSpec(
        n=2,
        wire_dim=2,
        memory_dim=2,
        psi0=np.array([1.0, 0.0]),
        unitaries=(u1, u2),
        input_perm=(1, 2),
        output_perm=(1, 2),
        metadata={"generator": "signaling"},
    )


def gen_fig3_comb() -> CombSpec:
    """Three-tooth qubit comb that is pairwise uncorrelated but fully ordered.

    Outputs 1 and 2 are fresh maximally mixed qubits (halves of entangled
    pairs parked in memory).  Inputs 1 and 2 are stored and later control
    an X respectively a Z on the wire that becomes output 3.  Every
    single-input/single-output marginal is exactly maximally mixed, yet
    the joint state over (A1, A2, A3, B3) does not factorize, so pairwise
    independence tests see nothing while the full compatibility check
    still pins down the tooth order.
    """
    # register: qubit 0 = external wire, qubits 1..4 = memory (junk1, store1, junk2, store2)
    n_q = 5
    u1 = (
        _embed_qubit_gate(_CNOT, [0, 1], n_q)
        @ _embed_qubit_gate(_H, [0], n_q)
        @ _embed_qubit_gate(_SWAP2, [0, 2], n_q)
    )
    u2 = (
        _embed_qubit_gate(_CNOT, [0, 3], n_q)
        @ _embed_qubit_gate(_H, [0], n_q)
        @ _embed_qubit_gate(_SWAP2, [0, 4], n_q)
    )
    u3 = _embed_qubit_gate(_CZ, [4, 0], n_q) @ _embed_qubit_gate(_CNOT, [2, 0], n_q)
    psi0 = np.zeros(16)
    psi0[0] = 1.0
    return CombSpec(
        n=3,
        wire_dim=2,
        memory_dim=16,
        psi0=psi0,
        unitaries=(u1, u2, u3),
        input_perm=(1, 2, 3),
        output_perm=(1, 2, 3),
        metadata={"generator": "fig3-style-pairwise-blind"},
    )
