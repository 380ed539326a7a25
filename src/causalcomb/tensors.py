"""Dense linear algebra on labeled multi-wire operators.

Everything downstream (comb construction, black-box sessions, discovery)
manipulates operators that live on a tensor product of named wires.  A
``WireSpace`` is an ordered tuple of labels with per-wire dimensions; the
label order fixes the Kronecker order of the matrix.  Two operators on the
same wires in different orders are different matrices, so cross-module
comparisons normalize to sorted label order first (``reorder`` /
``sort_wires``).

All matrices are dense complex ``numpy`` arrays.  Construction freezes the
backing array (``writeable = False``) so values are immutable once built.
A comb's low-rank factor ``C = V V^H`` is not an ``Op``: it is a
:class:`~causalcomb.combs.Factor`, whose methods are its only reads.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "is_whole",
    "whole",
    "WireSpace",
    "Op",
    "wire_key",
    "tensor",
    "partial_trace",
    "reorder",
    "sort_wires",
    "contract_wire",
    "trace_norm",
    "numerical_rank",
    "correlation_norm",
    "correlation_norms",
    "haar_unitary",
    "random_density",
    "random_pure_state",
    "max_entangled_ket",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_LABEL_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


def is_whole(value) -> bool:
    """Whether ``value`` is a whole number: ``0``, ``3`` or ``3.0``, never
    ``2.6``, ``-1``, ``True`` or ``"3"``.  A boolean is not a number."""
    if type(value) is int:  # the common case, without the ABC checks
        return value >= 0
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return value >= 0 and (isinstance(value, numbers.Integral) or float(value).is_integer())


def whole(value, what: str) -> int:
    """``value`` as an ``int`` if it :func:`is_whole`; else ``ValueError``
    naming ``what``, before anything converts it."""
    if not is_whole(value):
        raise ValueError(f"{what} must be a non-negative whole number, got {value!r}")
    return int(value)


def wire_key(label: str):
    """Natural sort key for wire labels: ``A2`` before ``A10``, ``A`` before ``B``."""
    m = _LABEL_RE.match(label)
    if m is None:
        return (label, -1)
    stem, num = m.groups()
    return (stem, int(num) if num else -1)


@dataclass(frozen=True)
class WireSpace:
    """Ordered collection of named wires with dimensions, each a whole number
    of at least 1 stored as ``int``; any other, ``2.7`` or ``True``, raises ``ValueError``."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dims", tuple(whole(d, "a wire dimension") for d in self.dims))
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate wire labels: {self.labels}")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"wire dimensions must be >= 1: {self.dims}")
        object.__setattr__(self, "_index", {l: k for k, l in enumerate(self.labels)})  # not a field

    @property
    def dim(self) -> int:
        """Total (product) dimension."""
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no wire {label!r} in {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.index(label)]

    def restrict(self, labels: Iterable[str]) -> "WireSpace":
        """Sub-space on ``labels``, preserving this space's wire order."""
        want = set(labels)
        missing = want - set(self.labels)
        if missing:
            raise KeyError(f"no wires {sorted(missing)} in {self.labels}")
        pairs = [(l, d) for l, d in zip(self.labels, self.dims) if l in want]
        return WireSpace(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


@dataclass(frozen=True)
class Op:
    """A square operator on a :class:`WireSpace`.

    The matrix is coerced to complex, checked against the space dimension,
    and frozen.  A complex array is not copied: the operator takes
    ownership of it and makes it read-only, so the caller must not hand
    over an array it still means to write.  ``Op`` makes no positivity or
    trace assumptions.
    """

    space: WireSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        if mat.shape[0] != self.space.dim:
            raise ValueError(
                f"matrix dim {mat.shape[0]} != wire-space dim {self.space.dim} "
                f"for wires {self.space.labels}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    def dim_of(self, label: str) -> int:
        return self.space.dim_of(label)


# ---------------------------------------------------------------------------
# wire algebra


def tensor(a: Op, b: Op) -> Op:
    """Kronecker product; label collision is an error."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise ValueError(f"wire labels appear on both factors: {sorted(overlap)}")
    space = WireSpace(a.labels + b.labels, a.space.dims + b.space.dims)
    return Op(space, np.kron(a.matrix, b.matrix))


def _as_tensor(x: Op) -> np.ndarray:
    return x.matrix.reshape(x.space.dims * 2)


def partial_trace(x: Op, keep: Iterable[str]) -> Op:
    """Trace out every wire not in ``keep``; the kept wires retain their order.

    ``keep`` may be empty, in which case the result is a 1x1 operator on the
    empty wire space (the full trace).
    """
    keep_set = set(keep)
    missing = keep_set - set(x.labels)
    if missing:
        raise KeyError(f"no wires {sorted(missing)} to keep in {x.labels}")
    n = len(x.labels)
    t = _as_tensor(x)
    row_idx = list(range(n))
    col_idx = [i if x.labels[i] not in keep_set else n + i for i in range(n)]
    out_idx = [i for i in range(n) if x.labels[i] in keep_set]
    out_idx += [n + i for i in range(n) if x.labels[i] in keep_set]
    sub = np.einsum(t, row_idx + col_idx, out_idx)
    space = x.space.restrict(keep_set)
    return Op(space, sub.reshape(space.dim, space.dim))


def reorder(x: Op, new_labels: Sequence[str]) -> Op:
    """Permute wires into ``new_labels`` order (same label set required)."""
    if sorted(new_labels) != sorted(x.labels):
        raise ValueError(f"{tuple(new_labels)} is not a permutation of {x.labels}")
    if tuple(new_labels) == x.labels:
        return x
    n = len(x.labels)
    perm = [x.space.index(l) for l in new_labels]
    t = _as_tensor(x).transpose(perm + [n + p for p in perm])
    space = WireSpace(tuple(new_labels), tuple(x.space.dims[p] for p in perm))
    return Op(space, t.reshape(space.dim, space.dim))


def sort_wires(x: Op) -> Op:
    """Canonical form: wires sorted by :func:`wire_key`."""
    return reorder(x, sorted(x.labels, key=wire_key))


def contract_wire(x: Op, label: str, k: np.ndarray) -> np.ndarray:
    """Apply ``k`` to one wire and trace that wire out.

    Returns the matrix ``Tr_w[(k_w (x) 1) x]`` on the remaining wires, in
    ``x``'s order.  ``k`` is one ``(d, d)`` kernel or a stack ``(..., d, d)``
    of them, contracted in one ``einsum``; a stack gives one matrix per
    kernel, each bit for bit the matrix of its own call.  A kernel whose last
    two axes are not ``(d, d)`` raises ``ValueError``.  This is the workhorse
    for feeding states into a Choi operator (use ``k = d * state.T``) and for
    accumulating measurement elements (use ``k = povm_element``).
    """
    w = x.space.index(label)
    dims = x.space.dims
    d = dims[w]
    k = np.asarray(k, dtype=complex)
    if k.shape[-2:] != (d, d):
        raise ValueError(f"contraction kernel shape {k.shape} != wire dim {d}")
    pre, post = math.prod(dims[:w]), math.prod(dims[w + 1 :])
    t = x.matrix.reshape(pre, d, post, pre, d, post)
    # Tr_w[(K x 1) X] contracts K[r, s] against X[row_w = s, col_w = r].
    res = np.einsum("asbtrc,...rs->...abtc", t, k)
    return res.reshape(k.shape[:-2] + (pre * post, pre * post))


# ---------------------------------------------------------------------------
# norms and spectra


def trace_norm(m: np.ndarray):
    """Sum of singular values (Schatten 1-norm) of the Hermitian array ``m``, per matrix of a stack.

    ``m`` must be Hermitian: its singular values are then the absolute
    values of its eigenvalues, and only its lower triangle is read, as
    with ``numpy.linalg.eigvalsh``.  One matrix gives a float; a stack
    ``(..., n, n)`` an array of its leading shape.
    """
    s = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    return float(s) if m.ndim == 2 else s


def numerical_rank(x: Op | np.ndarray, tol: float = 1e-10) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    s = np.linalg.svd(x.matrix if isinstance(x, Op) else x, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def correlation_norm(x: Op, side_a: Sequence[str]) -> float:
    """Trace-norm distance of a bipartite state from the product of its marginals.

    ``side_a`` names the wires of one side; the remaining wires form the
    other side.  Zero iff the state factorizes across the cut.
    """
    side_a = list(side_a)
    side_b = [l for l in x.labels if l not in set(side_a)]
    if not side_a or not side_b:
        raise ValueError("both sides of the cut must be non-empty")
    d_a = math.prod(x.dim_of(l) for l in side_a)
    return correlation_norms(reorder(x, side_a + side_b).matrix, d_a)


def correlation_norms(m: np.ndarray, d_a: int):
    """``||rho - rho_A (x) rho_B||_1`` for each matrix ``rho`` of a stack ``(..., d, d)``.

    Each matrix is on ``A (x) B`` in that Kronecker order, with ``A`` of
    dimension ``d_a``; ``rho_A`` and ``rho_B`` are its partial traces.
    Each must be Hermitian, as a state is, and so then is its distance
    from the product, which :func:`trace_norm` needs.  One matrix gives a
    float, a stack an array of its leading shape; the whole stack takes
    one :func:`trace_norm` call.
    """
    m = np.asarray(m)
    lead, d = m.shape[:-2], m.shape[-1]
    t = m.reshape(lead + (d_a, d // d_a) * 2)
    rho_a = np.einsum("...ijkj->...ik", t)
    rho_b = np.einsum("...ijil->...jl", t)
    prod = rho_a[..., :, None, :, None] * rho_b[..., None, :, None, :]
    return trace_norm((t - prod).reshape(m.shape))


# ---------------------------------------------------------------------------
# random ensembles


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phases are divided out so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random ket of length ``dim``."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(
    dim: int, rank: int | None = None, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Random density matrix of the given rank in a Haar-random eigenbasis.

    The nonzero spectrum is a flat-Dirichlet draw.
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    spectrum = rng.dirichlet(np.ones(rank))
    u = haar_unitary(dim, rng)[:, :rank]
    return (u * spectrum) @ u.conj().T


def max_entangled_ket(dim: int) -> np.ndarray:
    """(1/sqrt(d)) sum_i |ii> as a length d*d vector."""
    return np.eye(dim).reshape(dim * dim) / math.sqrt(dim)
