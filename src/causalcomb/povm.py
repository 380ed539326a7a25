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

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .tensors import Op, random_pure_state

__all__ = [
    "IcPovm",
    "FrameOperator",
    "sic_qubit",
    "tensor_povm",
    "state_set_of",
    "ic_povm_for_dim",
    "povm_preset",
    "povm_by_label",
    "frame_of",
    "born_probs",
    "pair_probs",
    "product_born_table",
    "reconstruct",
    "reconstruct_pair",
    "frame_norm_bounds",
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


def frame_of(povm: IcPovm, ic_tol: float = 1e-10) -> FrameOperator:
    flat = _flat(povm)
    f = flat.T @ flat.conj()
    vals = np.linalg.eigvalsh(f)
    is_ic = bool(vals[0] > ic_tol * max(vals[-1], 1.0))
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
    invertible.
    """
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
    """Resolve a preset name (``sic2``, ``sic4``, ..., ``random-ic:<seed>``)."""
    if name.startswith("sic"):
        want = int(name[3:])
        if want != dim:
            raise ValueError(f"preset {name} does not match wire dimension {dim}")
        if want & (want - 1) != 0:
            raise ValueError(f"preset {name}: SIC tensor powers need a power of two")
        return ic_povm_for_dim(want)
    if name.startswith("random-ic:"):
        seed = int(name.split(":", 1)[1])
        return ic_povm_for_dim(dim, np.random.default_rng(seed))
    raise ValueError(f"unknown POVM preset {name!r}")


def povm_by_label(povms, labels) -> dict[str, IcPovm]:
    """One POVM per wire label: a single POVM for every wire, or a mapping."""
    if isinstance(povms, IcPovm):
        return {l: povms for l in labels}
    return {l: povms[l] for l in labels}


# ---------------------------------------------------------------------------
# statistics


def born_probs(povm: IcPovm, rho: np.ndarray | Op) -> np.ndarray:
    mat = rho.matrix if isinstance(rho, Op) else np.asarray(rho)
    return np.einsum("aij,ji->a", povm.stack(), mat).real


def pair_probs(povm_a: IcPovm, povm_b: IcPovm, rho_ab: np.ndarray | Op) -> np.ndarray:
    """Joint outcome matrix for a product measurement on a bipartite state."""
    mat = rho_ab.matrix if isinstance(rho_ab, Op) else np.asarray(rho_ab)
    da, db = povm_a.dim, povm_b.dim
    t = mat.reshape(da, db, da, db)
    return np.einsum("aij,bkl,jlik->ab", povm_a.stack(), povm_b.stack(), t).real


def product_born_table(x: Op, povms: Mapping[str, IcPovm]) -> np.ndarray:
    """Outcome probabilities of measuring every wire of ``x`` with its POVM.

    Returns a real array with one axis per wire, in ``x``'s label order.
    """
    missing = set(x.labels) - set(povms)
    if missing:
        raise KeyError(f"no POVM given for wires {sorted(missing)}")
    labels = x.labels
    n = len(labels)
    t = x.matrix.reshape(x.space.dims * 2)
    # contract wire 0 repeatedly; finished outcome axes pile up in front
    for k in range(n):
        stack = povms[labels[k]].stack()
        # current layout: k outcome axes, then rows, then cols of the rest
        row_ax = k + 0
        col_ax = k + (n - k)
        t = np.tensordot(stack, t, axes=([1, 2], [col_ax, row_ax]))
    # outcome axes are now reversed (last contracted first)
    t = t.transpose(tuple(reversed(range(n))))
    return np.ascontiguousarray(t.real)


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct(povm: IcPovm, probs: Sequence[float]) -> np.ndarray:
    """Linear inversion of outcome probabilities; Hermitized, not PSD-projected."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (povm.size,):
        raise ValueError(f"expected {povm.size} probabilities, got shape {probs.shape}")
    frame = frame_of(povm)
    flat = _flat(povm)
    vec = frame.inverse() @ (flat.T @ probs)
    d = povm.dim
    mat = vec.reshape(d, d)
    return (mat + mat.conj().T) / 2


def reconstruct_pair(povm_a: IcPovm, povm_b: IcPovm, joint: np.ndarray) -> np.ndarray:
    """Two-sided linear inversion of a joint outcome matrix.

    ``joint[a, b]`` are (empirical) probabilities of outcome pair (a, b)
    under the product measurement; the result is the Hermitized
    reconstruction on the bipartite space, exact when the matrix holds
    exact Born values.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.shape != (povm_a.size, povm_b.size):
        raise ValueError(
            f"joint shape {joint.shape} != ({povm_a.size}, {povm_b.size})"
        )
    ma = frame_of(povm_a).inverse() @ _flat(povm_a).T  # (da^2, m_a)
    mb = frame_of(povm_b).inverse() @ _flat(povm_b).T
    v = ma @ joint @ mb.T  # indices ((i,i'), (j,j'))
    da, db = povm_a.dim, povm_b.dim
    mat = v.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)
    return (mat + mat.conj().T) / 2


def frame_norm_bounds(povm: IcPovm, rho, sigma) -> dict:
    """Frame sandwich on the Hilbert-Schmidt distance of two states.

    Returns ``lower <= hs <= upper`` where the bounds are the squared
    probability-vector distance divided by the largest respectively
    smallest frame eigenvalue, and ``hs`` is ``||rho - sigma||_2^2``.
    """
    frame = frame_of(povm)
    p = born_probs(povm, rho)
    q = born_probs(povm, sigma)
    gap = float(((p - q) ** 2).sum())
    mr = rho.matrix if isinstance(rho, Op) else np.asarray(rho)
    ms = sigma.matrix if isinstance(sigma, Op) else np.asarray(sigma)
    hs = float(np.linalg.norm(mr - ms) ** 2)
    return {
        "lower": gap / frame.lambda_max,
        "upper": gap / frame.lambda_min,
        "hs": hs,
    }
