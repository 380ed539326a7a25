"""Query-metered black-box access to a hidden comb.

An :class:`OracleSession` wraps a hidden :class:`~causalcomb.combs.CombSpec`
and exposes only what a lab could do with the physical process: run
batches of prepare-and-measure shots (``sample_batch``), estimate state
overlaps by destructive swap circuits (``overlap_estimate``), and wire a
tooth shut (``reduce``).  The hidden
spec and its Choi operator are private attributes with no accessor;
discovery code sees statistics only.

A session holds its Choi operator as a factor, ``C = V diag(w) V^H`` with
``V`` of shape ``d^{2n} x r`` and ``r`` real weights: the purification of
the comb (``w = 1``, ``r = d_M``) for a spec, an eigendecomposition for
:meth:`OracleSession.from_choi`.  Reducing a tooth and preparing states
work on the factor, and their cost grows with ``r``, not with the Choi
operator's size; only the Born tables of prepare-and-measure sampling
form ``C`` itself, once per session.

Every channel invocation — real or virtual — goes through one cumulative
query meter that reduced child sessions share with their parent.  An
overlap estimate at accuracy ``eps`` and confidence ``kappa`` costs
``2 * ceil(2 * eps^-2 * log(2 / kappa))`` invocations (two state
preparations per swap circuit run).  In exact mode the estimate is the
true overlap and the charging policy decides whether those virtual runs
are still billed (``"theoretical"``) or only real invocations count
(``"actual"``, the default).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .combs import DEFAULT_DIM_CAP, CombSpec, choi_factor
from .povm import povm_by_label, product_born_table
from .tensors import Op, WireSpace, contract_wire, is_hermitian, sort_wires, wire_key

# unused here; kept importable because the benchmark's tracer wraps them at
# this import site (ROADMAP item 1a)
from .combs import build_choi  # noqa: F401
from .tensors import partial_trace  # noqa: F401

__all__ = [
    "OracleConfig",
    "OracleSession",
    "PrepRecipe",
    "swap_test_sample_size",
    "swap_test_estimate",
]


#: Largest negative probability mass, as a fraction of the outcome table's
#: total, that clipping may absorb as roundoff.
_CLIP_RTOL = 1e-12
#: A factor keeps the eigenvalues above this fraction of the largest one.
_RANK_RTOL = 1e-13


def _eigen_factor(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues of a Hermitian matrix, the negligible dropped."""
    lam, u = np.linalg.eigh(mat)
    keep = np.abs(lam) > _RANK_RTOL * np.abs(lam).max()
    return u[:, keep], lam[keep]


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
    dim_cap: int = DEFAULT_DIM_CAP
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
        config = config or OracleConfig()
        space, v = choi_factor(spec, dim_cap=config.dim_cap)
        self._setup(space, v, np.ones(v.shape[1]), config)

    def _setup(
        self,
        space: WireSpace,
        v: np.ndarray,
        w: np.ndarray,
        config: OracleConfig,
        rng: np.random.Generator | None = None,
        meter: _QueryMeter | None = None,
    ) -> None:
        """The one place every session, root or reduced, gets its fields.

        The hidden Choi operator is ``C = V diag(w) V^H`` on the sorted
        wires of ``space``.  A root session draws a fresh random stream and
        query meter from ``config``; a reduced child passes in its parent's.
        """
        self._config = config
        self._space = space
        self._v = v
        self._w = w
        self._dense: Op | None = None  # C itself, formed for the first Born table
        self._rng = rng if rng is not None else np.random.default_rng(config.seed)
        self._meter = meter if meter is not None else _QueryMeter(config.query_log, config.trial)
        self._tables: dict = {}
        # ((input, discard), pair operator, {state bytes: fed state})
        self._prep_slot: tuple | None = None

    # -- construction from a Choi operator ----------------------------------

    @classmethod
    def from_choi(cls, choi: Op, config: OracleConfig | None = None) -> "OracleSession":
        """Root session on a raw Choi operator over wires ``A1..An, B1..Bn``.

        Nothing checks that ``choi`` is a comb, so this also admits
        processes with no causal order at all.  The wires are sorted, and
        the operator must fit under the configured dimension cap and be
        Hermitian.  Its factor comes from ``eigh``: eigenvalues of size at
        most ``1e-13`` of the largest are dropped, and the rest, negative
        ones included, are kept as signed weights.
        """
        config = config or OracleConfig()
        if choi.space.dim > config.dim_cap:
            raise ValueError(f"Choi dimension {choi.space.dim} exceeds cap {config.dim_cap}")
        choi = sort_wires(choi)
        if not is_hermitian(choi.matrix):
            raise ValueError("Choi operator is not Hermitian")
        session = cls.__new__(cls)
        session._setup(choi.space, *_eigen_factor(choi.matrix), config)
        return session

    def reduce(self, input_label: str, output_label: str) -> "OracleSession":
        """Session for the comb with one tooth wired shut.

        The named input is fed maximally mixed and the named output is
        discarded on every future invocation.  The child shares this
        session's query meter and random stream.

        Both wires are folded into the factor's columns, which gives a
        factor of the partial trace; a QR of it and ``eigh`` of the small
        ``R diag(w) R^H`` recompress it to its numerical rank.
        """
        pair = (input_label, output_label)
        keep = [l for l in self.wires if l not in pair]
        if len(keep) != len(self.wires) - 2:
            raise KeyError(f"wires {pair} not both present in {self.wires}")
        v, w = self._folded(keep, list(pair))
        q, r = np.linalg.qr(v)
        u, w = _eigen_factor((r * w) @ r.conj().T)
        child = OracleSession.__new__(OracleSession)
        child._setup(
            self._space.restrict(keep), q @ u, w, self._config, self._rng, self._meter
        )
        return child

    def _folded(self, rows: list[str], folded: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The factor with the ``folded`` wires moved into its columns.

        Returns ``V`` as a matrix whose rows run over the ``rows`` wires in
        that order, and the weights of its columns: the weights of ``V``
        repeated once per value of the folded wires.
        """
        space = self._space
        t = self._v.reshape(space.dims + (self._v.shape[1],))
        axes = [space.index(l) for l in rows + folded] + [len(space.dims)]
        d_folded = math.prod(space.dim_of(l) for l in folded)
        v = t.transpose(axes).reshape(-1, d_folded * self._v.shape[1])
        return v, np.tile(self._w, d_folded)

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
        return tuple(sorted((l for l in self.wires if l.startswith("A")), key=wire_key))

    @property
    def output_labels(self) -> tuple[str, ...]:
        return tuple(sorted((l for l in self.wires if l.startswith("B")), key=wire_key))

    def dim_of(self, label: str) -> int:
        return self._space.dim_of(label)

    @property
    def n_teeth(self) -> int:
        return len(self.input_labels)

    # -- prepare-and-measure sampling ---------------------------------------

    def _joint_table(self, povms) -> np.ndarray:
        """Exact outcome distribution of the standard prepare-measure scheme.

        Axis order follows the sorted wire labels (inputs first).  The
        entry for (a, b) equals the Born probability of the product POVM
        on the Choi operator, which is also exactly the distribution of
        drawing dual input states by their trace weights and measuring
        every output.

        Roundoff can leave tiny negative entries; they are clipped to zero
        and the table is renormalized.  A clipped mass above ``_CLIP_RTOL``
        of the table's total means the operator is not positive
        semidefinite, and raises ``ValueError``.
        """
        pmap = povm_by_label(povms, self.wires)
        key = tuple((l, tuple(e.tobytes() for e in pmap[l].elements)) for l in self.wires)
        if key not in self._tables:
            if self._dense is None:
                self._dense = Op(self._space, (self._v * self._w) @ self._v.conj().T)
            tbl = product_born_table(self._dense, pmap)
            total = tbl.sum()
            np.clip(tbl, 0.0, None, out=tbl)
            kept = tbl.sum()
            if kept - total > _CLIP_RTOL * kept:
                raise ValueError(
                    f"outcome table has negative probability mass {kept - total:.3g} "
                    f"against a total of {kept:.3g}: the operator is not positive "
                    "semidefinite"
                )
            tbl /= kept
            self._tables[key] = tbl
        return self._tables[key]

    def outcome_distribution(self, povms) -> np.ndarray:
        """Exact joint outcome table; the infinite-shot limit of sampling.

        Axes follow sorted wire order, inputs then outputs.  No queries
        are charged here; exact-probability callers account for their
        nominal shot budget via :meth:`note_virtual_queries`.
        """
        return self._joint_table(povms).copy()

    def sample_batch(self, n_shots: int, povms) -> np.ndarray:
        """Counts from ``n_shots`` independent prepare-and-measure shots.

        Returns an integer array shaped like the joint table (inputs then
        outputs, sorted wire order).  Drawing the whole multinomial at
        once is statistically identical to looping single shots and
        costs ``n_shots`` queries either way.
        """
        if self.mode != "sampled":
            raise ValueError("sample_batch requires sampled mode")
        if n_shots < 1:
            raise ValueError("need at least one shot")
        tbl = self._joint_table(povms)
        counts = self._rng.multinomial(n_shots, tbl.reshape(-1)).reshape(tbl.shape)
        self._meter.charge("sample_batch", n_shots)
        return counts

    def note_virtual_queries(self, n: int, op: str = "virtual") -> None:
        """Charge ``n`` planned-but-not-executed invocations under the
        theoretical policy; a no-op under the actual policy."""
        if self._config.query_policy == "theoretical":
            self._meter.charge(op, n)

    # -- overlap estimation -------------------------------------------------

    def _prepare(self, recipe: PrepRecipe) -> Op:
        """The state a recipe leaves behind, on the remaining wires or a span of them.

        Discarding an output commutes with feeding an input, so the
        discard is folded into the factor's columns once per (input,
        discard) pair, giving the pair operator ``K diag(w) K^H`` on the
        input and the remaining wires.  When the factor's columns, with the
        input folded in as well, are fewer than the remaining wires'
        dimension, every prepared state lives on their span.  ``K`` is then
        replaced by ``Q^H K`` for an orthonormal basis ``Q`` of that span,
        which is the ``R`` of a QR of those columns, and the state comes
        back as ``Q^H rho Q`` on one wire named after the wires it stands
        for.  ``Q`` is an isometry, so overlaps are unchanged.  Each
        distinct probe state is fed into the pair operator once.  One slot
        holds the current pair; a new pair replaces it.
        """
        d = self.dim_of(recipe.input_label)
        state = np.asarray(recipe.state, dtype=complex)
        if state.shape != (d, d):
            raise ValueError(f"prep state shape {state.shape} != wire dim {d}")
        pair = (recipe.input_label, recipe.discard_label)
        if self._prep_slot is None or self._prep_slot[0] != pair:
            self._prep_slot = (pair, self._pair_operator(*pair), {})
        _, pair_op, prepared = self._prep_slot
        key = state.tobytes()
        if key not in prepared:
            prepared[key] = contract_wire(pair_op, recipe.input_label, d * state.T)
        return prepared[key]

    def _pair_operator(self, input_label: str, discard: str | None) -> Op:
        """The Choi operator with ``discard`` traced out, as ``_prepare`` feeds it."""
        if discard is not None and discard not in self.output_labels:
            raise KeyError(f"discard label {discard!r} is not an output wire of {self.wires}")
        folded = [] if discard is None else [discard]
        rest = [l for l in self.wires if l != input_label and l not in folded]
        v, w = self._folded([input_label] + rest, folded)
        d_in = self.dim_of(input_label)
        rest_space = self._space.restrict(rest)
        k = v.reshape(d_in, rest_space.dim, -1)
        if d_in * k.shape[2] < rest_space.dim:
            # Q is never formed: Q^H k is R, reshaped
            r = np.linalg.qr(k.transpose(1, 0, 2).reshape(rest_space.dim, -1), mode="r")
            k = r.reshape(len(r), d_in, -1).transpose(1, 0, 2)
            rest_space = WireSpace((f"span({','.join(rest)})",), (len(r),))
        k = k.reshape(-1, k.shape[2])
        space = WireSpace((input_label,) + rest_space.labels, (d_in,) + rest_space.dims)
        return Op(space, (k * w) @ k.conj().T)

    def overlap_estimate(
        self, recipe_a: PrepRecipe, recipe_b: PrepRecipe, eps: float, kappa: float
    ) -> float:
        """Estimate ``Tr[rho_a rho_b]`` for two preparation recipes.

        Sampled mode runs ``N = ceil(2 eps^-2 log(2/kappa))`` simulated
        swap circuits (2N queries).  Exact mode returns the true overlap;
        the theoretical policy still bills the 2N virtual invocations.
        ``kappa`` is the failure probability of this one estimate.
        """
        n = swap_test_sample_size(eps, kappa)
        rho_a = self._prepare(recipe_a)
        rho_b = self._prepare(recipe_b)
        if rho_a.labels != rho_b.labels:
            raise ValueError(
                f"recipes leave different wires: {rho_a.labels} vs {rho_b.labels}"
            )
        # both states are Hermitian, so Tr[rho_a rho_b] = <rho_a, rho_b>_HS
        overlap = float(np.vdot(rho_a.matrix, rho_b.matrix).real)
        if self.mode == "sampled":
            self._meter.charge("swap_test", 2 * n)
            return swap_test_estimate(overlap, eps, kappa, self._rng)
        self.note_virtual_queries(2 * n, op="swap_test")
        return overlap
