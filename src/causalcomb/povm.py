"""Informationally complete POVMs, frame operators, and linear inversion.

A POVM with elements that span the operator space lets one read any state
off its outcome statistics: with ``|P>>`` the row-major vectorization of
an element, the frame operator ``F = sum |P><<P|`` is invertible exactly
when the POVM is informationally complete, and

    rho = unvec( F^-1 sum_a p_a |P_a>> )

recovers the state from exact probabilities.  The same frame eigenvalues
control how statistical error in the probabilities propagates to the
reconstruction, which is what the discovery module's correlation
estimator leans on.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combs import check_entries
from .tensors import WireSpace, random_pure_state, whole

__all__ = [
    "IcPovm",
    "FrameOperator",
    "sic_qubit",
    "tensor_povm",
    "state_set_of",
    "ic_povm_for_dim",
    "povm_preset",
    "frame_of",
    "pair_probs",
    "product_born_table",
    "reconstruct_pair",
]


@dataclass(frozen=True)
class IcPovm:
    """A finite collection of PSD operators, either a POVM or a state set.

    ``kind`` is ``"povm"`` (elements sum to the identity) or
    ``"state-set"`` (each element has unit trace).  Validation enforces
    whichever constraint applies; informational completeness is a property
    of the frame, checked separately via :func:`frame_of`.
    """

    elements: tuple[np.ndarray, ...]
    kind: str = "povm"
    name: str = ""

    def __post_init__(self):
        els = tuple(np.array(e, dtype=complex) for e in self.elements)
        if not els:
            raise ValueError("empty element list")
        d = els[0].shape[0]
        for e in els:
            if e.shape != (d, d):
                raise ValueError("all elements must be square of equal dimension")
            if np.abs(e - e.conj().T).max() > 1e-9:
                raise ValueError("elements must be Hermitian")
            if np.linalg.eigvalsh(e).min() < -1e-9:
                raise ValueError("elements must be PSD")
            e.setflags(write=False)
        if self.kind == "povm":
            if np.abs(sum(els) - np.eye(d)).max() > 1e-8:
                raise ValueError("POVM elements must sum to the identity")
        elif self.kind == "state-set":
            for e in els:
                if abs(np.trace(e) - 1.0) > 1e-8:
                    raise ValueError("state-set elements must have unit trace")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "elements", els)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def size(self) -> int:
        return len(self.elements)

    def stack(self) -> np.ndarray:
        """Elements as one array of shape (m, d, d)."""
        return np.stack(self.elements)

    # The elements are read-only, so what is derived from them is computed on
    # first use and kept, read-only too, on the instance.

    @functools.cached_property
    def dual(self) -> np.ndarray:
        """The dual frame ``F^-1 [|P_a>>]``, shape ``(d*d, m)``: ``dual @ p`` inverts ``p``."""
        dual = frame_of(self).inverse() @ _flat(self).T
        dual.setflags(write=False)
        return dual

    @functools.cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``sqrt(lam) u^H``, one per eigenvector ``u`` of each element, and their elements.

        Returns the ``(rows, d)`` matrix and, per row, the index of its
        element, in ascending order; the rows of element ``x`` give
        ``E_x = sum_k r_k^H r_k``.  A rank-one element has one row.
        Eigenvalues below ``1e-12`` of the element's largest are dropped.
        """
        rows, owner = [], []
        for x, e in enumerate(self.elements):
            lam, u = np.linalg.eigh(e)
            keep = lam > 1e-12 * lam.max()
            rows.append((u[:, keep] * np.sqrt(lam[keep])).conj().T)
            owner += [x] * int(keep.sum())
        rows, owner = np.vstack(rows), np.array(owner, dtype=int)
        rows.setflags(write=False)
        owner.setflags(write=False)
        return rows, owner


@dataclass(frozen=True)
class FrameOperator:
    """Frame operator of an element collection, with its spectral data."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    is_ic: bool

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def inverse(self) -> np.ndarray:
        if not self.is_ic:
            raise ValueError("frame is singular: collection is not informationally complete")
        return np.linalg.inv(self.matrix)


def _flat(povm: IcPovm) -> np.ndarray:
    """Row-major vectorized elements, shape (m, d*d)."""
    return povm.stack().reshape(povm.size, -1)


#: A frame counts as informationally complete when its smallest eigenvalue
#: exceeds this fraction of the largest one (or of 1, if that is larger).
_IC_RTOL = 1e-10


def frame_of(povm: IcPovm) -> FrameOperator:
    flat = _flat(povm)
    f = flat.T @ flat.conj()
    vals = np.linalg.eigvalsh(f)
    is_ic = bool(vals[0] > _IC_RTOL * max(vals[-1], 1.0))
    return FrameOperator(matrix=f, eigenvalues=vals, is_ic=is_ic)


# ---------------------------------------------------------------------------
# constructions


def sic_qubit() -> IcPovm:
    """The tetrahedral qubit SIC POVM (four subnormalized pure elements)."""
    s = np.sqrt(2)
    bloch = [
        (0.0, 0.0, 1.0),
        (2 * s / 3, 0.0, -1.0 / 3),
        (-s / 3, np.sqrt(2.0 / 3.0), -1.0 / 3),
        (-s / 3, -np.sqrt(2.0 / 3.0), -1.0 / 3),
    ]
    from .tensors import PAULI_X, PAULI_Y, PAULI_Z

    els = [
        (np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 4.0
        for x, y, z in bloch
    ]
    return IcPovm(tuple(els), kind="povm", name="sic2")


def tensor_povm(a: IcPovm, b: IcPovm) -> IcPovm:
    """Product POVM ``{A_i (x) B_j}`` in row-major (i, j) index order."""
    if a.kind != b.kind:
        raise ValueError("cannot tensor a POVM with a state set")
    els = tuple(np.kron(x, y) for x in a.elements for y in b.elements)
    return IcPovm(els, kind=a.kind, name=f"{a.name}*{b.name}")


def state_set_of(povm: IcPovm) -> IcPovm:
    """Normalize each element to unit trace, giving an IC state set."""
    els = tuple(e / np.trace(e).real for e in povm.elements)
    return IcPovm(els, kind="state-set", name=f"states({povm.name})")


def ic_povm_for_dim(d: int, rng: np.random.Generator | None = None) -> IcPovm:
    """An informationally complete POVM in dimension ``d``.

    Powers of two use tensor powers of the qubit SIC.  Other dimensions
    use a randomized frame completion: ``d*d`` Haar-random rank-one
    projectors, symmetrized through ``G^{-1/2} . G^{-1/2}`` so they sum to
    the identity; draws are rejected until the frame is comfortably
    invertible.  A ``d`` below 1 or not a whole number raises ``ValueError``
    before anything is built; a whole ``2.0`` is ``2``.
    """
    d = whole(d, "an IC POVM's dimension")
    if d < 1:
        raise ValueError(f"an IC POVM needs a dimension of at least 1, got {d}")
    if d == 1:
        return IcPovm((np.eye(1),), kind="povm", name="trivial1")
    if d & (d - 1) == 0:  # power of two
        povm = sic_qubit()
        while povm.dim < d:
            povm = tensor_povm(povm, sic_qubit())
        return IcPovm(povm.elements, kind="povm", name=f"sic{d}")
    if rng is None:
        raise ValueError(f"dimension {d} needs an rng for the randomized construction")
    for _ in range(100):
        kets = [random_pure_state(d, rng) for _ in range(d * d)]
        g = sum(np.outer(k, k.conj()) for k in kets)
        vals, vecs = np.linalg.eigh(g)
        if vals.min() < 1e-8:
            continue
        g_isqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        els = tuple(
            g_isqrt @ np.outer(k, k.conj()) @ g_isqrt for k in kets
        )
        povm = IcPovm(els, kind="povm", name=f"random-ic{d}")
        if frame_of(povm).lambda_min > 1e-6:
            return povm
    raise RuntimeError(f"failed to draw an IC POVM in dimension {d}")


def povm_preset(name: str, dim: int) -> IcPovm:
    """Resolve ``sic<d>``, the qubit SIC's tensor power for ``d`` a power of
    two equal to ``dim``, or ``random-ic:<seed>``, :func:`ic_povm_for_dim`
    on a whole seed of 0 or more.  Any other name raises ``ValueError``,
    starting ``POVM preset '<name>':``, that says what is wrong."""
    sic = re.fullmatch(r"sic([0-9]+)", name)
    seed = re.fullmatch(r"random-ic:([0-9]+)", name)
    if seed:
        return ic_povm_for_dim(dim, np.random.default_rng(int(seed[1])))
    if sic and int(sic[1]) == dim and dim & (dim - 1) == 0:
        return ic_povm_for_dim(dim)
    if sic:
        why = f"d = {int(sic[1])} is not a power of two equal to the wire dimension {dim}"
    elif name.startswith("random-ic:"):
        why = f"the seed {name[len('random-ic:'):]!r} is not a whole number of 0 or more"
    elif name.startswith("sic"):
        why = f"{name[len('sic'):]!r} is not a dimension"
    else:
        why = "there is no such preset"
    raise ValueError(
        f"POVM preset {name!r}: {why}; the presets are sic<d>, with d a power of two equal "
        "to the wire dimension, and random-ic:<seed>, with a whole seed of 0 or more"
    )


# ---------------------------------------------------------------------------
# statistics


def pair_probs(povm_a: IcPovm, povm_b: IcPovm, rho_ab: np.ndarray) -> np.ndarray:
    """Joint outcome matrix ``[..., a, b]`` of a product measurement on a bipartite state,
    or on each state of a stack ``(..., d_a d_b, d_a d_b)``; ``rho_ab`` is an array."""
    da, db = povm_a.dim, povm_b.dim
    t = rho_ab.reshape(rho_ab.shape[:-2] + (da, db, da, db))
    return np.einsum("aij,bkl,...jlik->...ab", povm_a.stack(), povm_b.stack(), t).real


def _per_wire(t: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """``(M_0 (x) M_1 (x) ...) t`` for a row-major vector ``t``, one factor per step.

    Each step maps the leading axis of ``t`` and puts the result last, so
    after the last step the new axes stand in the order of ``mats``.
    """
    for m in mats:
        t = t.reshape(m.shape[1], -1).T @ m.T
    return t.reshape(-1)


def _add_power(table: np.ndarray, amp: np.ndarray) -> None:
    """``table += |amp|^2``, squaring ``amp``'s real and imaginary parts in place."""
    parts = amp.view(np.float64)
    np.square(parts, out=parts)
    table += parts[0::2]
    table += parts[1::2]


def product_born_table(space: WireSpace, v: np.ndarray, povm: IcPovm) -> np.ndarray:
    """Outcome probabilities of measuring every wire of ``C = V V^H`` with ``povm``.

    Returns a real array with one axis per wire of ``space``.  ``C`` is
    never formed.  With ``r`` the :attr:`IcPovm.rows` of an element,
    ``Tr[(x) E C] = sum_c |((x) r) v_c|^2`` summed over the element's
    rows, so the rows are applied to one column of ``V`` at a time, two
    wires' Kronecker product per step, and the squares are added up; no
    entry can be negative.  The table and the amplitudes of one column
    must fit under :data:`~causalcomb.combs.MAX_ENTRIES`.
    """
    n, (rows, owner) = len(space.labels), povm.rows
    check_entries(povm.size**n, "the outcome table")
    check_entries(len(rows) ** n, "the outcome amplitudes")
    # two wires per step: 2.5 times as fast as one at n = 5, d_M = 2
    steps = [np.kron(rows, rows)] * (n // 2) + [rows] * (n % 2)
    table = np.zeros(len(rows) ** n)
    for vc in np.ascontiguousarray(v.T):
        _add_power(table, _per_wire(vc, steps))
    if not np.array_equal(owner, np.arange(povm.size)):
        # sum the rows of each element into its outcome
        table = _per_wire(table, [(np.arange(povm.size)[:, None] == owner).astype(float)] * n)
    return table.reshape((povm.size,) * n)


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct_pair(povm_a: IcPovm, povm_b: IcPovm, joint: np.ndarray) -> np.ndarray:
    """Two-sided linear inversion of joint outcome matrices.

    ``joint[..., a, b]`` are (empirical) probabilities of outcome pair
    (a, b) under the product measurement, for any number of leading
    axes; the result holds the Hermitized reconstruction on the
    bipartite space for each, exact when the matrix holds exact Born
    values.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.shape[-2:] != (povm_a.size, povm_b.size):
        raise ValueError(
            f"joint shape {joint.shape} does not end in ({povm_a.size}, {povm_b.size})"
        )
    v = povm_a.dual @ joint @ povm_b.dual.T  # indices ((i,i'), (j,j'))
    da, db, lead = povm_a.dim, povm_b.dim, joint.shape[:-2]
    mat = v.reshape(lead + (da, da, db, db)).swapaxes(-3, -2).reshape(lead + (da * db,) * 2)
    return (mat + mat.conj().swapaxes(-2, -1)) / 2
