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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "WireSpace",
    "Op",
    "wire_key",
    "tensor",
    "partial_trace",
    "reorder",
    "sort_wires",
    "contract_wire",
    "trace_norm",
    "is_hermitian",
    "numerical_rank",
    "correlation_norm",
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


def wire_key(label: str):
    """Natural sort key for wire labels: ``A2`` before ``A10``, ``A`` before ``B``."""
    m = _LABEL_RE.match(label)
    if m is None:
        return (label, -1)
    stem, num = m.groups()
    return (stem, int(num) if num else -1)


@dataclass(frozen=True)
class WireSpace:
    """Ordered collection of named wires with dimensions."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate wire labels: {self.labels}")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"wire dimensions must be >= 1: {self.dims}")

    @property
    def dim(self) -> int:
        """Total (product) dimension."""
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
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


def _mat(x) -> np.ndarray:
    return x.matrix if isinstance(x, Op) else np.asarray(x)


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


def contract_wire(x: Op, label: str, k: np.ndarray) -> Op:
    """Apply ``k`` to one wire and trace that wire out.

    Returns ``Tr_w[(k_w (x) 1) x]`` as an operator on the remaining wires.
    This is the workhorse for feeding states into a Choi operator (use
    ``k = d * state.T``) and for accumulating measurement elements
    (use ``k = povm_element``).
    """
    n = len(x.labels)
    w = x.space.index(label)
    d = x.space.dims[w]
    k = np.asarray(k, dtype=complex)
    if k.shape != (d, d):
        raise ValueError(f"contraction kernel shape {k.shape} != wire dim {d}")
    t = _as_tensor(x)
    row_idx = list(range(n))
    col_idx = list(range(n, 2 * n))
    # Tr_w[(K x 1) X] contracts K[r, s] against X[row_w = s, col_w = r].
    k_idx = [2 * n, w]
    col_idx[w] = 2 * n
    out_idx = [i for i in range(n) if i != w] + [n + i for i in range(n) if i != w]
    res = np.einsum(t, row_idx + col_idx, k, k_idx, out_idx)
    space = x.space.restrict(set(x.labels) - {label})
    return Op(space, res.reshape(space.dim, space.dim))


# ---------------------------------------------------------------------------
# norms and spectra


# Relative asymmetry below which a matrix counts as Hermitian, and the row
# block the test walks so that its temporaries stay a few rows wide.
_HERMITIAN_RTOL = 1e-12
_HERMITIAN_ROWS = 64


def _largest_part(a: np.ndarray):
    """Largest absolute real or imaginary part; NaN if ``a`` holds one."""
    return np.maximum(np.abs(a.real).max(), np.abs(a.imag).max())


def is_hermitian(m: np.ndarray) -> bool:
    """Whether no part of ``m - m^H`` exceeds 1e-12 times the largest of ``m``.

    Block row ``r`` is compared from its diagonal block rightwards, which
    covers every pair of mirrored entries once.  A NaN entry makes it false.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    asym = scale = 0.0
    for r in range(0, m.shape[0], _HERMITIAN_ROWS):
        rows, cols = m[r : r + _HERMITIAN_ROWS], m[r:, r : r + _HERMITIAN_ROWS]
        # np.maximum, unlike max, carries a NaN through
        asym = np.maximum(asym, _largest_part(rows[:, r:] - cols.conj().T))
        scale = np.maximum(scale, _largest_part(rows))
    return bool(asym <= _HERMITIAN_RTOL * scale)


def trace_norm(x) -> float:
    """Sum of singular values (Schatten 1-norm).

    A Hermitian matrix, up to a relative asymmetry of 1e-12, takes the
    eigenvalue path: its singular values are the absolute values of its
    eigenvalues, and ``eigvalsh`` costs about half an SVD.  Any other
    matrix goes through the SVD.
    """
    m = _mat(x)
    if is_hermitian(m):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def numerical_rank(x, tol: float = 1e-10) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    s = np.linalg.svd(_mat(x), compute_uv=False)
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
    rho_a = partial_trace(x, side_a)
    rho_b = partial_trace(x, side_b)
    prod = reorder(tensor(rho_a, rho_b), x.labels)
    return trace_norm(x.matrix - prod.matrix)


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
    dim: int,
    rank: int | None = None,
    rng: np.random.Generator | None = None,
    uniform_spectrum: bool = False,
) -> np.ndarray:
    """Random density matrix of the given rank in a Haar-random eigenbasis.

    With ``uniform_spectrum`` the nonzero eigenvalues are all ``1/rank``
    (so ``rank=dim`` gives the maximally mixed state); otherwise the
    spectrum is a flat-Dirichlet draw.
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    if uniform_spectrum:
        spectrum = np.full(rank, 1.0 / rank)
    else:
        spectrum = rng.dirichlet(np.ones(rank))
    u = haar_unitary(dim, rng)[:, :rank]
    return (u * spectrum) @ u.conj().T


def max_entangled_ket(dim: int) -> np.ndarray:
    """(1/sqrt(d)) sum_i |ii> as a length d*d vector."""
    return np.eye(dim).reshape(dim * dim) / math.sqrt(dim)


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, mats) if mats else np.eye(1, dtype=complex)
