"""Query-metered black-box access to a hidden comb.

An :class:`OracleSession` wraps a hidden comb, a
:class:`~causalcomb.combs.CombSpec` or a dense Choi operator, and
exposes only what a lab could do with the physical process: run batches
of prepare-and-measure shots, each measuring every wire with one POVM
(``sample_batch``), read every (input, output) pair's frequencies from
one batch as one stack (``pair_frequencies``), estimate state overlaps
by destructive swap circuits (``swap_tests``, one batch per tested pair,
and ``overlap_estimate``, its two-state case), and wire a tooth shut
(``reduce``).  The hidden spec and its Choi operator are private
attributes with no accessor; discovery code sees statistics only, and
the session alone decides how they are drawn in each mode and what they
bill.  It reads the operator only through its factor, a
:class:`~causalcomb.combs.Factor`.  Only a sampled session holds a
random stream, seeded at its root and shared by its reduced children.

Every channel invocation — real or virtual — goes through one cumulative
query meter that reduced child sessions share with their parent.  An
overlap estimate at accuracy ``eps`` and confidence ``kappa`` costs
``2 * ceil(2 * eps^-2 * log(2 / kappa))`` invocations (two state
preparations per swap circuit run), billed when the estimate is read;
opening a batch of swap tests bills nothing.  In exact mode an estimate
is the true overlap and a batch's pair frequencies are Born
probabilities; the charging policy decides whether those virtual runs
and shots are still billed (``"theoretical"``) or only real invocations
count (``"actual"``, the default).  One rule, ``OracleSession._bill``,
applies it to every charge.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .combs import CombSpec, Factor, check_entries, verified_factor, wire_roles
from .povm import IcPovm, pair_probs, product_born_table
from .tensors import Op, WireSpace, contract_wire

# unused here; kept importable because the benchmark's tracer wraps them at
# this import site (ROADMAP item 1)
from .combs import build_choi  # noqa: F401
from .tensors import partial_trace  # noqa: F401

__all__ = [
    "MAX_SHOTS",
    "OracleConfig",
    "OracleSession",
    "PrepRecipe",
    "swap_test_sample_size",
    "swap_test_estimate",
]


#: How far a root session's ``Tr C = ||V||_F^2`` may be from 1.
_TRACE_ATOL = 1e-6

#: Categorical shots are drawn this many at a time: a block's uniforms and
#: cell indices take 0.5 MB, however many shots a table gets.
_SHOT_BLOCK = 2**15

#: The most shots a batch takes.  :func:`_multinomial` keeps cumulative
#: counts in float64, exact up to ``2**53``, and a draw's Poisson total
#: exceeds its shots by a few of their square roots, far less than ``2**52``.
MAX_SHOTS = 2**52

#: A sampled table is drawn in blocks of at most this many cells, whose
#: weights take 0.5 MB and one column's amplitudes 1 MB: cache-sized, and
#: far below the whole table's cap.
_BLOCK_CELLS = 2**16


def swap_test_sample_size(eps: float, kappa: float) -> int:
    """Circuit runs needed for overlap accuracy ``eps`` at confidence ``kappa``; an
    ``eps`` so small that the count overflows a float (below about 2e-154) raises ``ValueError``."""
    if not 0 < eps <= 1 or not 0 < kappa < 1:
        raise ValueError(f"need 0 < eps <= 1 and 0 < kappa < 1, got {eps}, {kappa}")
    try:
        return math.ceil(2.0 * eps**-2 * math.log(2.0 / kappa))
    except OverflowError:
        raise ValueError(f"eps = {eps} is too small: its circuit runs overflow a float") from None


def _drawable_runs(eps: float, kappa: float) -> int:
    """:func:`swap_test_sample_size`, refused with ``ValueError`` past a 64-bit
    count, the most a binomial draw takes."""
    n = swap_test_sample_size(eps, kappa)
    if n > np.iinfo(np.int64).max:
        raise ValueError(f"eps = {eps} needs {n} circuit runs, more than a 64-bit count holds")
    return n


def swap_test_estimate(
    overlap: float, eps: float, kappa: float, rng: np.random.Generator
) -> float:
    """Simulate a destructive swap-circuit overlap estimate at the shot level.

    Each of the ``N`` runs accepts with probability ``(1 + Tr[rho sigma])/2``;
    the returned estimate is ``2 * accepts / N - 1``.  The per-run circuit
    is never simulated gate by gate — the acceptance probability is the
    entire distribution of the measurement, so drawing the accept count
    directly is statistically identical.  An ``N`` beyond a 64-bit count,
    the draw's limit, raises ``ValueError`` before anything is drawn.
    """
    n = _drawable_runs(eps, kappa)
    p = min(max((1.0 + overlap) / 2.0, 0.0), 1.0)
    accepts = rng.binomial(n, p)
    return 2.0 * accepts / n - 1.0


@functools.cache
def _copy_space(label: str, d: int) -> WireSpace:
    """Input ``label`` and its primed copy, each of dimension ``d``: a swap operator's space."""
    return WireSpace((label, f"{label}'"), (d, d))


def _shot_count(n_shots) -> int:
    """``n_shots`` as a non-negative ``int``: a float or a boolean raises
    ``TypeError``, a negative count or one over :data:`MAX_SHOTS`
    ``ValueError``."""
    if isinstance(n_shots, bool):
        raise TypeError("a boolean is not a number of shots")
    n_shots = operator.index(n_shots)
    if n_shots < 0:
        raise ValueError(f"a number of shots cannot be negative, got {n_shots}")
    if n_shots > MAX_SHOTS:
        raise ValueError(f"a batch takes at most {MAX_SHOTS} shots, got {n_shots}")
    return n_shots


def _multinomial(rng: np.random.Generator, n: int, weights: np.ndarray) -> np.ndarray:
    """One exact ``Multinomial(n, p)`` draw for ``p = weights / weights.sum()``.

    Poisson counts with means ``n p`` are, given their sum ``s``,
    ``Multinomial(s, p)``.  Adding ``n - s`` categorical shots to them, or
    removing ``s - n`` of their ``s`` shots chosen uniformly without
    replacement, therefore leaves exactly ``Multinomial(n, p)``.  With
    fewer shots than cells every shot is categorical.

    ``weights`` must be a contiguous float64 array, and it is overwritten:
    it is scaled in place to the means and then holds a cumulative sum, so
    the returned counts are the only cell-sized array the draw allocates.
    """
    flat = weights.reshape(-1)
    if n >= flat.size:
        flat *= n / flat.sum()
        counts = rng.poisson(flat)
        s = int(counts.sum())
    else:
        counts, s = np.zeros(flat.size, np.int64), 0
    if s > n:
        # cumulative counts; exact in float64 below 2**53 shots
        np.copyto(flat, counts)
        np.cumsum(flat, out=flat)
        drop = rng.choice(s, s - n, replace=False, shuffle=False)
        drop.sort()  # the same cells, and the search walks the cdf once
        np.subtract.at(counts, np.searchsorted(flat, drop, side="right"), 1)
    elif s < n:
        np.cumsum(flat, out=flat)
        for done in range(s, n, _SHOT_BLOCK):
            u = rng.random(min(_SHOT_BLOCK, n - done))
            u.sort()  # sorted keys make the search walk the cdf once
            u *= flat[-1]
            np.add.at(counts, np.searchsorted(flat, u, side="right"), 1)
    return counts.reshape(weights.shape)


@dataclass(frozen=True)
class PrepRecipe:
    """One state preparation through the black box.

    Feed ``state`` into ``input_label``, keep every other input maximally
    entangled with a reference copy, run the process once, and discard
    ``discard_label`` from the result.
    """

    input_label: str
    state: np.ndarray
    discard_label: str


@dataclass
class OracleConfig:
    mode: str = "exact"  # "exact" | "sampled"
    seed: int | None = None
    query_policy: str = "actual"  # "actual" | "theoretical"
    query_log: IO[str] | None = None
    trial: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.query_policy not in ("actual", "theoretical"):
            raise ValueError(f"unknown query policy {self.query_policy!r}")
        if self.mode == "sampled" and self.seed is None:
            raise ValueError("sampled mode requires a seed")


class _QueryMeter:
    """Cumulative invocation counter shared across a session tree."""

    def __init__(self, log: IO[str] | None = None, trial: int | None = None):
        self.count = 0
        self._log = log
        self._trial = trial

    def charge(self, op: str, n: int) -> None:
        if n <= 0:
            return
        self.count += int(n)
        if self._log is not None:
            rec = {"trial": self._trial, "op": op, "n": int(n), "total": self.count}
            self._log.write(json.dumps(rec) + "\n")


class OracleSession:
    """Black-box handle on a comb; see the module docstring for the contract."""

    def __init__(self, comb: CombSpec | Op, config: OracleConfig | None = None):
        """Root session on a comb spec or a dense Choi operator, opened on
        the factor :func:`~causalcomb.combs.verified_factor` keeps on the
        comb, the checker's.  Nothing checks that an operator is a comb.
        Whatever that factor refuses, a trace other than 1 and wires that are
        not ``n >= 1`` inputs ``A…`` and ``n`` outputs ``B…``
        (:func:`~causalcomb.combs.wire_roles`) raise ``ValueError`` before
        anything is billed."""
        factor = verified_factor(comb)[0]
        if not abs(factor.trace - 1.0) <= _TRACE_ATOL:
            raise ValueError(f"the Choi operator has trace {factor.trace:.6g}, not 1")
        self._setup(factor, config or OracleConfig())

    def _setup(
        self,
        factor: Factor,
        config: OracleConfig,
        rng: np.random.Generator | None = None,
        meter: _QueryMeter | None = None,
    ) -> None:
        """The one place every session, root or reduced, gets its fields.

        The hidden Choi operator is ``factor``'s, whose input and output
        wires :func:`~causalcomb.combs.wire_roles` sorts out once, here.  A
        root session makes a query meter, and in sampled mode a random stream,
        from ``config``; a reduced child passes in its parent's.
        """
        self._inputs, self._outputs = wire_roles(factor.space.labels)
        self._config = config
        self._factor = factor
        sampled = config.mode == "sampled"
        self._rng = np.random.default_rng(config.seed) if rng is None and sampled else rng
        self._meter = meter if meter is not None else _QueryMeter(config.query_log, config.trial)

    def reduce(self, input_label: str, output_label: str) -> "OracleSession":
        """Session for the comb with one tooth wired shut.

        The named input is fed maximally mixed and the named output is
        discarded on every future invocation.  The child shares this
        session's query meter and random stream, and its factor is
        :meth:`~causalcomb.combs.Factor.shut`'s.  The labels must name an
        input and an output (:meth:`_check_pair`), and it must keep at least
        one tooth: shutting the last one raises ``ValueError``.  Both are
        checked before anything is folded.
        """
        pair = (input_label, output_label)
        self._check_pair(*pair)
        if self.n_teeth == 1:
            raise ValueError("the last tooth cannot be shut: a session keeps at least one")
        child = OracleSession.__new__(OracleSession)
        child._setup(self._factor.shut(*pair), self._config, self._rng, self._meter)
        return child

    # -- public geometry ----------------------------------------------------

    @property
    def mode(self) -> str:
        return self._config.mode

    @property
    def query_policy(self) -> str:
        return self._config.query_policy

    @property
    def query_count(self) -> int:
        return self._meter.count

    @property
    def wires(self) -> tuple[str, ...]:
        return self._factor.space.labels

    @property
    def input_labels(self) -> tuple[str, ...]:
        return self._inputs

    @property
    def output_labels(self) -> tuple[str, ...]:
        return self._outputs

    def dim_of(self, label: str) -> int:
        return self._factor.space.dim_of(label)

    @property
    def n_teeth(self) -> int:
        return len(self._inputs)

    # -- prepare-and-measure sampling ---------------------------------------

    def pair_frequencies(self, n_shots: int, povm: IcPovm) -> np.ndarray:
        """Every (input, output) pair's outcome frequencies from one batch, each
        wire measured with ``povm`` of ``m`` outcomes: a float array ``(n_in, n_out, m, m)``.

        Entry ``[i, j]`` is input ``i``'s and output ``j``'s table.  Sampled
        mode sums one :meth:`sample_batch` draw over the other inputs, once
        per input, then over the other outputs, and divides by ``n_shots``.
        Exact mode gives every pair's Born probabilities from the stack of
        pair states (:meth:`~causalcomb.combs.Factor.pair_states`), with no
        joint table, and bills ``n_shots`` under the theoretical policy only.
        Both modes check ``n_shots`` and ``povm`` as :meth:`sample_batch`
        does, before anything is drawn or billed, except that exact mode also
        takes 0 shots.
        """
        ins, outs = self._inputs, self._outputs
        if self.mode == "sampled":
            counts = self.sample_batch(n_shots, povm)
            # sorted wires: the inputs' axes precede the outputs'
            others = [tuple(k for k in range(len(ins)) if k != i) for i in range(len(ins))]
            # summed in the counts' own type: no sum of cells exceeds n_shots
            rows = np.stack([counts.sum(axis=o, dtype=counts.dtype) for o in others])
            tables = np.stack([rows.sum(axis=tuple(2 + k for k in o)) for o in others], axis=1)
            return tables / n_shots
        n_shots = _shot_count(n_shots)
        self._check_povm(povm)
        states = self._factor.pair_states([(a, b) for a in ins for b in outs])
        states = states.reshape(len(ins), len(outs), *states.shape[1:])
        probs = pair_probs(povm, povm, states)
        self._bill("independence", n_shots)
        return probs / probs.sum(axis=(-2, -1), keepdims=True)

    def sample_batch(self, n_shots: int, povm: IcPovm) -> np.ndarray:
        """Counts from ``n_shots`` independent prepare-and-measure shots,
        each wire measured with ``povm``.

        Returns an integer array with one axis per wire (inputs then
        outputs, sorted wire order), drawn from the factor's Born table,
        which must fit under :data:`~causalcomb.combs.MAX_ENTRIES`.  No
        cell exceeds ``n_shots``, so the counts are ``int32`` below
        ``2**31`` shots and ``int64`` from there; signed, so that the
        difference of two batches never wraps.  The
        counts are one exact multinomial draw over the whole table, which
        is statistically identical to looping single shots and costs
        ``n_shots`` queries either way.  ``n_shots`` must be a positive
        integer (:func:`_shot_count`) and ``povm`` a POVM on every wire's
        dimension (:meth:`_check_povm`); anything else raises before
        anything is drawn or billed.

        The draw is staged, and exact in law by the chain rule.  The lead
        wires are the fewest leading wires that leave at most
        :data:`_BLOCK_CELLS` cells per block, one block per lead outcome
        ``B``.  ``B``'s one ``(d^k,)`` row ``r`` on the ``k`` lead wires, the
        Kronecker product of its elements' rows (:attr:`IcPovm.rows`), gives its
        factor ``V_B = (r (x) 1) V`` (:meth:`~causalcomb.combs.Factor.block`).  Since
        the other wires' POVMs sum to the identity, the block's probability is ``||V_B||_F^2``.
        One :func:`_multinomial` draw gives the block totals, and one per
        nonzero block its counts from :func:`~causalcomb.povm.product_born_table`
        of ``V_B``, its slice.  ``V_B`` is formed for each read, so no two
        blocks' factors are held at once.  A table of at most
        :data:`_BLOCK_CELLS` cells is one block, which takes every shot
        without a draw.
        """
        n_shots = _shot_count(n_shots)
        if self.mode != "sampled":
            raise ValueError("sample_batch requires sampled mode")
        if n_shots < 1:
            raise ValueError("need at least one shot")
        self._check_povm(povm)
        m, n = povm.size, len(self.wires)
        check_entries(m**n, "the outcome table")
        k = 0
        while k < n - 1 and m ** (n - k) > _BLOCK_CELLS:
            k += 1
        lead = functools.reduce(np.kron, [povm.rows] * k, np.ones((1, 1)))
        q = np.array([np.linalg.norm(self._factor.block(r)) ** 2 for r in lead])
        totals = _multinomial(self._rng, n_shots, q) if q.size > 1 else [n_shots]
        counts = np.zeros(m**n, np.int32 if n_shots < 2**31 else np.int64)
        blocks = counts.reshape(q.size, -1)
        rest = self._factor.space.restrict(self.wires[k:])
        for b, (r, total) in enumerate(zip(lead, totals)):
            if total:
                tbl = product_born_table(rest, self._factor.block(r), povm)
                blocks[b] = _multinomial(self._rng, total, tbl).reshape(-1)
        self._bill("sample_batch", n_shots)
        return counts.reshape((m,) * n)

    def _check_povm(self, povm: IcPovm) -> None:
        """``ValueError`` naming the first wire that ``povm`` does not fit: it
        must be one POVM, not a mapping or a state set, on the wire's dimension."""
        is_povm = isinstance(povm, IcPovm) and povm.kind == "povm"
        for label in self.wires:
            d = self.dim_of(label)
            if not (is_povm and povm.dim == d):
                got = (
                    f"a {povm.kind} on dimension {povm.dim}"
                    if isinstance(povm, IcPovm)
                    else f"a {type(povm).__name__}"
                )
                raise ValueError(f"wire {label} needs a POVM on dimension {d}, got {got}")

    def _check_pair(self, input_label: str, discard: str) -> None:
        """``KeyError`` unless the labels name an input and an output wire."""
        if input_label not in self._inputs:
            raise KeyError(f"input label {input_label!r} is not an input wire of {self.wires}")
        if discard not in self._outputs:
            raise KeyError(f"discard label {discard!r} is not an output wire of {self.wires}")

    def _bill(self, op: str, n: int) -> None:
        """Charge ``n`` invocations as ``op``: always in sampled mode, where
        they run, and in exact mode only under the theoretical policy."""
        if self.mode == "sampled" or self.query_policy == "theoretical":
            self._meter.charge(op, n)

    # -- overlap estimation -------------------------------------------------

    def overlap_estimate(
        self, recipe_a: PrepRecipe, recipe_b: PrepRecipe, eps: float, kappa: float
    ) -> float:
        """Estimate ``Tr[rho_a rho_b]`` for two preparation recipes.

        Both recipes must feed one input and discard one output, else
        ``ValueError``.  This is the two-state case of :meth:`swap_tests`:
        it opens a batch on the two states, with that method's refusals and
        in its order, and reads its one estimate.  Sampled mode runs
        ``N = ceil(2 eps^-2 log(2/kappa))`` simulated swap circuits (2N
        queries); exact mode returns the true overlap, and the theoretical
        policy still bills the 2N virtual invocations.  ``kappa`` is the
        failure probability of this one estimate.
        """
        swap_test_sample_size(eps, kappa)
        pair = (recipe_a.input_label, recipe_a.discard_label)
        other = (recipe_b.input_label, recipe_b.discard_label)
        if other != pair:
            raise ValueError(f"recipes feed and discard different wires: {pair} vs {other}")
        estimate = self.swap_tests(*pair, (recipe_a.state, recipe_b.state), eps, kappa)
        return estimate(0, 1)

    def swap_tests(
        self, input_label: str, discard_label: str, states, eps: float, kappa: float
    ) -> Callable[[int, int], float]:
        """One batch of swap tests on the states that ``states`` leave behind.

        State ``a`` of ``states``, a stack ``(K, d, d)`` or a sequence of
        ``(d, d)`` states, is fed into ``input_label`` with
        ``discard_label`` discarded, which leaves ``rho_a``.  Returns
        ``estimate(a, b)``, the swap test of ``Tr[rho_a rho_b]`` at accuracy
        ``eps`` and confidence ``kappa``, as :meth:`overlap_estimate` runs
        it: each call makes sampled mode's draw (:func:`swap_test_estimate`)
        and only then bills ``2N`` as ``swap_test``, in call order.

        Opening the batch bills nothing and draws nothing.  It refuses, in
        this order, an ``eps`` or ``kappa`` out of range
        (:func:`swap_test_sample_size`), an input that is no wire, a state
        of another shape than ``(d, d)``, labels that name no input and
        output (:meth:`_check_pair`), and in sampled mode an ``N`` past a
        64-bit count.  A ``(K, d, d)`` ndarray, the stack discovery sends,
        is checked by its one shape, any other form state by state.  It then
        builds the pair's swap operator ``W`` on the input and its copy
        (:meth:`~causalcomb.combs.Factor.swap_matrix`) once, feeds the whole
        stack, as complex, into it with one :func:`~causalcomb.tensors.contract_wire`
        call, which leaves ``M_a`` on the copy for each state, and reads
        each exact overlap ``Tr[d s_b^T M_a] = d sum(M_a * s_b)`` off one product.
        """
        n = swap_test_sample_size(eps, kappa)
        d = self.dim_of(input_label)
        stack = isinstance(states, np.ndarray) and states.ndim == 3
        for state in states[:1] if stack else states:  # a stack's states share one shape
            if np.shape(state) != (d, d):
                raise ValueError(f"prep state shape {np.shape(state)} != wire dim {d}")
        self._check_pair(input_label, discard_label)
        if self.mode == "sampled":
            _drawable_runs(eps, kappa)
        states = np.asarray(states, dtype=complex).reshape(-1, d, d)
        w = self._factor.swap_matrix(input_label, discard_label)
        swap_op = Op(_copy_space(input_label, d), w)
        fed = contract_wire(swap_op, input_label, d * states.transpose(0, 2, 1))
        # sum(M_a * s_b), unconjugated, as one (1, d^2) @ (d^2, 1) product per
        # pair (a, b): the kernel, and so the bits, of a lone pair's dot
        rows, cols = fed.reshape(len(fed), 1, 1, -1), states.reshape(1, len(states), -1, 1)
        overlaps = d * np.matmul(rows, cols)[..., 0, 0].real

        def estimate(a: int, b: int) -> float:
            overlap = float(overlaps[a, b])
            if self.mode == "sampled":
                overlap = swap_test_estimate(overlap, eps, kappa, self._rng)
            self._bill("swap_test", 2 * n)
            return overlap

        return estimate
