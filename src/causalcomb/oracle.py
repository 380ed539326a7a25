"""Query-metered black-box access to a hidden comb.

An :class:`OracleSession` wraps a hidden :class:`~causalcomb.combs.CombSpec`
and exposes only what a lab could do with the physical process: run
batches of prepare-and-measure shots (``sample_batch``), read every
(input, output) pair's frequencies from one batch (``pair_frequencies``),
estimate state overlaps by destructive swap circuits
(``overlap_estimate``), and wire a tooth shut (``reduce``).  The hidden
spec and its Choi operator are private attributes with no accessor;
discovery code sees statistics only, and the session alone decides how
they are drawn in each mode and what they bill.

A session holds its Choi operator as a factor, ``C = V V^H`` with ``V`` of
shape ``d^{2n} x r``: the purification of the comb (``r = d_M``) for a
spec, the verified Cholesky factor of
:func:`~causalcomb.combs.verified_factor` for
:meth:`OracleSession.from_choi`.  ``C`` is therefore positive
semidefinite by construction.  Every method works on the factor, and no
session forms ``C`` itself: reductions and overlaps take the Gram of the
folded factor on its smaller side, a pair's statistics its state
``K K^H`` with every other wire folded into ``K``'s columns, and a
sampled table applies a product POVM to each column of ``V``.  The
factor of a spec counts ``d^{2n} d_M`` entries and a sampled table one
cell per joint outcome, and each must fit under
:data:`~causalcomb.combs.MAX_ENTRIES`; exact pair statistics form no
table, so they run as far as the factor fits.  A sampled batch is one
exact multinomial draw over its table: Poisson counts corrected to the
shot budget, drawn in the table's own buffer, so the counts are the
only other cell-sized array.

Every channel invocation — real or virtual — goes through one cumulative
query meter that reduced child sessions share with their parent.  An
overlap estimate at accuracy ``eps`` and confidence ``kappa`` costs
``2 * ceil(2 * eps^-2 * log(2 / kappa))`` invocations (two state
preparations per swap circuit run).  In exact mode an estimate is the
true overlap and a batch's pair frequencies are Born probabilities; the
charging policy decides whether those virtual runs and shots are still
billed (``"theoretical"``) or only real invocations count (``"actual"``,
the default).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import IO

import numpy as np

from .combs import CombSpec, check_entries, choi_factor, verified_factor, wire_roles
from .povm import IcPovm, pair_probs, povm_by_label, product_born_table
from .tensors import Op, WireSpace, contract_wire, fold, marginal, wire_key

# unused here; kept importable because the benchmark's tracer wraps them at
# this import site (ROADMAP item 1)
from .combs import build_choi  # noqa: F401
from .tensors import partial_trace  # noqa: F401

__all__ = [
    "OracleConfig",
    "OracleSession",
    "PrepRecipe",
    "swap_test_sample_size",
    "swap_test_estimate",
]


#: A reduced factor keeps the eigenvalues above this fraction of the largest one.
_RANK_RTOL = 1e-13

#: Categorical shots are drawn this many at a time: a block's uniforms and
#: cell indices take 0.5 MB, however many shots a table gets.
_SHOT_BLOCK = 2**15


def swap_test_sample_size(eps: float, kappa: float) -> int:
    """Circuit runs needed for overlap accuracy ``eps`` at confidence ``kappa``."""
    if not 0 < eps <= 1 or not 0 < kappa < 1:
        raise ValueError(f"need 0 < eps <= 1 and 0 < kappa < 1, got {eps}, {kappa}")
    return math.ceil(2.0 * eps**-2 * math.log(2.0 / kappa))


def swap_test_estimate(
    overlap: float, eps: float, kappa: float, rng: np.random.Generator
) -> float:
    """Simulate a destructive swap-circuit overlap estimate at the shot level.

    Each of the ``N`` runs accepts with probability ``(1 + Tr[rho sigma])/2``;
    the returned estimate is ``2 * accepts / N - 1``.  The per-run circuit
    is never simulated gate by gate — the acceptance probability is the
    entire distribution of the measurement, so drawing the accept count
    directly is statistically identical.
    """
    n = swap_test_sample_size(eps, kappa)
    p = min(max((1.0 + overlap) / 2.0, 0.0), 1.0)
    accepts = rng.binomial(n, p)
    return 2.0 * accepts / n - 1.0


def _shot_count(n_shots) -> int:
    """``n_shots`` as a non-negative ``int``: a float or a boolean raises
    ``TypeError``, a negative count ``ValueError``."""
    if isinstance(n_shots, bool):
        raise TypeError("a boolean is not a number of shots")
    n_shots = operator.index(n_shots)
    if n_shots < 0:
        raise ValueError(f"a number of shots cannot be negative, got {n_shots}")
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

    def __init__(self, spec: CombSpec, config: OracleConfig | None = None):
        self._setup(*choi_factor(spec), config or OracleConfig())

    def _setup(
        self,
        space: WireSpace,
        v: np.ndarray,
        config: OracleConfig,
        rng: np.random.Generator | None = None,
        meter: _QueryMeter | None = None,
    ) -> None:
        """The one place every session, root or reduced, gets its fields.

        The hidden Choi operator is ``C = V V^H`` on the sorted wires of
        ``space``, whose input and output wires
        :func:`~causalcomb.combs.wire_roles` sorts out once, here.  A root
        session draws a fresh random stream and query meter from
        ``config``; a reduced child passes in its parent's.
        """
        self._inputs, self._outputs = wire_roles(space.labels)
        self._config = config
        self._space = space
        self._v = v
        self._rng = rng if rng is not None else np.random.default_rng(config.seed)
        self._meter = meter if meter is not None else _QueryMeter(config.query_log, config.trial)
        # ((input, discard), swap operator, {state bytes: the state fed into it})
        self._swap_slot: tuple | None = None

    # -- construction from a Choi operator ----------------------------------

    @classmethod
    def from_choi(cls, choi: Op, config: OracleConfig | None = None) -> "OracleSession":
        """Root session on a raw Choi operator over wires ``A1..An, B1..Bn``.

        Nothing checks that ``choi`` is a comb, so this also admits
        processes with no causal order at all.  Its wires must be ``n >= 1``
        inputs ``A…`` and ``n`` outputs ``B…``, as
        :func:`~causalcomb.combs.wire_roles` decides; no wire is taken for
        an environment and traced out.  The operator must fit under
        :data:`~causalcomb.combs.MAX_ENTRIES`, and it must be Hermitian
        positive semidefinite with a positive trace: the session opens on
        its factor from :func:`~causalcomb.combs.verified_factor`, the one
        :func:`~causalcomb.combs.check_comb_condition` checks on, and any
        other operator raises ``ValueError`` here, before a query is
        billed.  The factor's rows are put into sorted wire order.
        """
        config = config or OracleConfig()
        check_entries(choi.space.dim**2, "the Choi operator")
        space, g, _ = verified_factor(choi)
        labels = tuple(sorted(space.labels, key=wire_key))
        sorted_space = WireSpace(labels, tuple(space.dim_of(l) for l in labels))
        session = cls.__new__(cls)
        session._setup(sorted_space, fold(space, g, labels, []), config)
        return session

    def reduce(self, input_label: str, output_label: str) -> "OracleSession":
        """Session for the comb with one tooth wired shut.

        The named input is fed maximally mixed and the named output is
        discarded on every future invocation.  The child shares this
        session's query meter and random stream.  It must keep at least one
        tooth: shutting the last one raises ``ValueError``.

        Both wires are folded into the factor's columns, which gives a
        factor ``K`` of the partial trace, and the Gram of ``K`` on its
        smaller side recompresses it to its numerical rank.  For a tall
        ``K`` an eigenvector ``u`` of ``K^H K`` gives the new column
        ``K u``; for a wide one an eigenvector of ``K K^H`` with
        eigenvalue ``lam`` is itself the column, scaled by ``sqrt(lam)``.
        """
        pair = (input_label, output_label)
        keep = [l for l in self.wires if l not in pair]
        if len(keep) != len(self.wires) - 2:
            raise KeyError(f"wires {pair} not both present in {self.wires}")
        k = fold(self._space, self._v, keep, pair)
        tall = k.shape[1] < k.shape[0]
        lam, u = np.linalg.eigh(k.conj().T @ k if tall else k @ k.conj().T)
        rank = lam > _RANK_RTOL * lam.max()
        v = k @ u[:, rank] if tall else u[:, rank] * np.sqrt(lam[rank])
        child = OracleSession.__new__(OracleSession)
        child._setup(self._space.restrict(keep), v, self._config, self._rng, self._meter)
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
        return self._space.labels

    @property
    def input_labels(self) -> tuple[str, ...]:
        return self._inputs

    @property
    def output_labels(self) -> tuple[str, ...]:
        return self._outputs

    def dim_of(self, label: str) -> int:
        return self._space.dim_of(label)

    @property
    def n_teeth(self) -> int:
        return len(self._inputs)

    # -- prepare-and-measure sampling ---------------------------------------

    def pair_frequencies(self, n_shots: int, povms) -> list[list[np.ndarray]]:
        """Every (input, output) pair's outcome frequencies from one batch.

        Entry ``[i][j]`` is input ``i``'s and output ``j``'s table.  Sampled
        mode sums one :meth:`sample_batch` draw over the other inputs, once
        per input, then over the other outputs, and divides by ``n_shots``.
        Exact mode gives each pair's Born probabilities from its state
        :func:`~causalcomb.tensors.marginal`, with no joint table, and
        bills ``n_shots`` under the theoretical policy only.  Both modes
        check ``n_shots`` and ``povms`` as :meth:`sample_batch` does, before
        anything is drawn or billed, except that exact mode also takes 0
        shots.
        """
        ins, outs = self._inputs, self._outputs
        if self.mode == "sampled":
            counts = self.sample_batch(n_shots, povms)
            # sorted wires: the inputs' axes precede the outputs'
            others = [[k for k in range(len(ins)) if k != i] for i in range(len(ins))]
            rows = [counts.sum(axis=tuple(o)) for o in others]
            return [
                [row.sum(axis=tuple(1 + k for k in o)) / n_shots for o in others] for row in rows
            ]
        n_shots = _shot_count(n_shots)
        pmap = self._povms(povms)
        probs = [
            [pair_probs(pmap[a], pmap[b], marginal(self._space, self._v, [a, b])) for b in outs]
            for a in ins
        ]
        self.note_virtual_queries(n_shots, op="independence")
        return [[p / p.sum() for p in row] for row in probs]

    def sample_batch(self, n_shots: int, povms) -> np.ndarray:
        """Counts from ``n_shots`` independent prepare-and-measure shots.

        Returns an integer array with one axis per wire (inputs then
        outputs, sorted wire order), drawn from the factor's Born table
        (:func:`~causalcomb.povm.product_born_table`), which must fit under
        :data:`~causalcomb.combs.MAX_ENTRIES`.  The counts are one exact
        multinomial draw over the whole table (:func:`_multinomial`), which
        is statistically identical to looping single shots and costs
        ``n_shots`` queries either way.  ``n_shots`` must be a positive
        integer (:func:`_shot_count`) and ``povms`` a POVM for each wire
        (:meth:`_povms`); anything else raises before anything is drawn or
        billed.
        """
        n_shots = _shot_count(n_shots)
        if self.mode != "sampled":
            raise ValueError("sample_batch requires sampled mode")
        if n_shots < 1:
            raise ValueError("need at least one shot")
        tbl = product_born_table(self._space, self._v, self._povms(povms))
        counts = _multinomial(self._rng, n_shots, tbl)
        self._meter.charge("sample_batch", n_shots)
        return counts

    def _povms(self, povms) -> dict[str, IcPovm]:
        """One POVM per wire, from one for every wire or a mapping by label.

        Each must be a POVM, not a state set, on its wire's dimension;
        anything else raises ``ValueError`` naming the wire.
        """
        pmap = povm_by_label(povms, self.wires)
        for label, povm in pmap.items():
            if povm.kind != "povm" or povm.dim != self.dim_of(label):
                raise ValueError(
                    f"wire {label} needs a POVM on dimension {self.dim_of(label)}, "
                    f"got a {povm.kind} on dimension {povm.dim}"
                )
        return pmap

    def note_virtual_queries(self, n: int, op: str = "virtual") -> None:
        """Charge ``n`` planned-but-not-executed invocations under the
        theoretical policy; a no-op under the actual policy."""
        if self._config.query_policy == "theoretical":
            self._meter.charge(op, n)

    # -- overlap estimation -------------------------------------------------

    def _swap_operator(self, input_label: str, discard: str) -> Op:
        """The swap test's acceptance operator on the input wire and a primed copy.

        ``Tr[rho_a rho_b] = Tr[(d s_a^T (x) d s_b^T) W]`` for the states
        left by feeding ``s_a`` and ``s_b`` into the input and discarding
        the output.  With ``K_x`` the factor's rows at input value ``x``,
        the discard folded into its columns, ``W[(x,u),(y,v)]`` is
        ``Tr(K_x K_y^H K_u K_v^H)``: ``Tr(P_xy P_uv)`` from the row Gram
        ``P_xy = K_x K_y^H``, or ``Tr(G_yu G_vx)`` from the column Gram
        ``G_yu = K_y^H K_u``, whichever has fewer entries.
        """
        if input_label not in self.input_labels:
            raise KeyError(f"input label {input_label!r} is not an input wire of {self.wires}")
        if discard not in self.output_labels:
            raise KeyError(f"discard label {discard!r} is not an output wire of {self.wires}")
        rest = [l for l in self.wires if l not in (input_label, discard)]
        d, d_out = self.dim_of(input_label), self.dim_of(discard)
        rows, cols = len(self._v) // (d * d_out), d_out * self._v.shape[1]
        check_entries((d * min(rows, cols)) ** 2, "the swap operator's Gram")
        if rows <= cols:
            k = fold(self._space, self._v, [input_label, *rest], [discard])
            gram, axes = k @ k.conj().T, (0, 2, 1, 3)  # [x, r, y, s] = P_xy[r, s]
        else:
            k = fold(self._space, self._v, rest, [input_label, discard])
            gram, axes = k.conj().T @ k, (3, 1, 0, 2)  # [y, a, u, b] = G_yu[a, b]
        t = gram.reshape(d, len(gram) // d, d, -1)
        # Tr(T_ij T_kl) for the blocks T_ij = t[i, :, j, :], then (x, u, y, v) first
        blocks = t.transpose(0, 2, 1, 3).reshape(d * d, -1)
        swapped = t.transpose(0, 2, 3, 1).reshape(d * d, -1)  # each T_kl transposed
        w = (blocks @ swapped.T).reshape(d, d, d, d).transpose(axes)
        space = WireSpace((input_label, f"{input_label}'"), (d, d))
        return Op(space, w.reshape(d * d, d * d))

    def overlap_estimate(
        self, recipe_a: PrepRecipe, recipe_b: PrepRecipe, eps: float, kappa: float
    ) -> float:
        """Estimate ``Tr[rho_a rho_b]`` for two preparation recipes.

        Sampled mode runs ``N = ceil(2 eps^-2 log(2/kappa))`` simulated
        swap circuits (2N queries).  Exact mode returns the true overlap;
        the theoretical policy still bills the 2N virtual invocations.
        ``kappa`` is the failure probability of this one estimate.

        Both recipes feed one input and discard one output.  One slot holds
        the swap operator ``W`` of the current pair.  Each distinct state
        ``s_a`` is fed into ``W`` once, leaving ``M_a`` on the copy, and the
        overlap is ``Tr[d s_b^T M_a] = d sum(M_a * s_b)``.
        """
        n = swap_test_sample_size(eps, kappa)
        pair = (recipe_a.input_label, recipe_a.discard_label)
        other = (recipe_b.input_label, recipe_b.discard_label)
        if other != pair:
            raise ValueError(f"recipes feed and discard different wires: {pair} vs {other}")
        d = self.dim_of(pair[0])
        s_a = np.asarray(recipe_a.state, dtype=complex)
        s_b = np.asarray(recipe_b.state, dtype=complex)
        for state in (s_a, s_b):
            if state.shape != (d, d):
                raise ValueError(f"prep state shape {state.shape} != wire dim {d}")
        if self._swap_slot is None or self._swap_slot[0] != pair:
            self._swap_slot = (pair, self._swap_operator(*pair), {})
        _, swap_op, fed = self._swap_slot
        key = s_a.tobytes()
        if key not in fed:
            fed[key] = contract_wire(swap_op, pair[0], d * s_a.T).matrix
        # sum(M_a * s_b), not np.vdot: M_a must not be conjugated
        overlap = float(d * (fed[key].ravel() @ s_b.ravel()).real)
        if self.mode == "sampled":
            self._meter.charge("swap_test", 2 * n)
            return swap_test_estimate(overlap, eps, kappa, self._rng)
        self.note_virtual_queries(2 * n, op="swap_test")
        return overlap
