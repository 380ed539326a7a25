"""Shared pytest plumbing: the acceptance-criteria summary table, and test helpers.

Acceptance tests register one verdict each via :func:`record`; the
terminal-summary hook prints the whole table after the run so the
per-criterion outcome is visible even when every test passes, after a
line of :func:`library_versions` that ``pytest -q`` would otherwise hide.
:func:`reference_check` is the direct comb-condition checker the fast
one is compared against, :func:`reference_born_table` the dense Born
table the factored one is compared against, :func:`session_born_table`
the whole normalized table a session samples from, and
:func:`global_unitary_choi` a process with no causal order.
:func:`reference_correlation_norm` is the per-pair correlation formula the
stacked kernel is compared against, and :func:`pauli6` a six-outcome
qubit POVM to mix with the SIC.
"""

import platform

import numpy as np

from causalcomb.combs import CombCheck
from causalcomb.povm import IcPovm, product_born_table
from causalcomb.tensors import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Op,
    WireSpace,
    haar_unitary,
    max_entangled_ket,
    partial_trace,
    reorder,
    sort_wires,
    tensor,
)

ACCEPTANCE: dict[int, tuple[str, bool, str]] = {}


def record(num: int, name: str, passed: bool, details: str = "") -> None:
    ACCEPTANCE[num] = (name, bool(passed), details)


def library_versions() -> str:
    """Python, NumPy and BLAS versions, one line.

    The sampled pins read NumPy ``Generator`` streams and the exact ones
    BLAS roundoff, so a pin that fails on another NumPy or BLAS shows it.
    NumPy before 1.26 cannot report its BLAS, which then reads "unknown".
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.section("versions")
    terminalreporter.write_line(library_versions())
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        name, passed, details = ACCEPTANCE[num]
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {num:2d}: {verdict}  {name}"
        if details:
            line += f"  ({details})"
        terminalreporter.write_line(line)


def maximally_mixed(space):
    return Op(space, np.eye(space.dim) / space.dim)


def reference_check(choi, order, tol=1e-9):
    """Per prefix, from the full Choi: Kronecker product, sorted wires, SVD."""
    ins = [p[0] for p in order]
    outs = [p[1] for p in order]
    devs = []
    for k in range(len(order)):
        lhs = sort_wires(partial_trace(choi, ins + outs[:k]))
        small = partial_trace(choi, ins[:k] + outs[:k])
        late = WireSpace(tuple(ins[k:]), tuple(choi.dim_of(l) for l in ins[k:]))
        rhs = sort_wires(tensor(small, maximally_mixed(late)))
        devs.append(float(np.linalg.svd(lhs.matrix - rhs.matrix, compute_uv=False).sum()))
    worst = max(devs)
    return CombCheck(ok=worst <= tol, worst_deviation=worst, deviations=tuple(devs), tol=tol)


def reference_born_table(x, povms):
    """Born table of measuring every wire of the dense operator ``x`` with its POVM.

    Contracts one wire's POVM elements with the dense operator at a time;
    one real axis per wire, in ``x``'s label order.
    """
    labels = x.labels
    n = len(labels)
    t = x.matrix.reshape(x.space.dims * 2)
    # contract wire 0 repeatedly; finished outcome axes pile up in front
    for k in range(n):
        # current layout: k outcome axes, then rows, then cols of the rest
        t = np.tensordot(povms[labels[k]].elements, t, axes=([1, 2], [n, k]))
    # outcome axes are now reversed (last contracted first)
    return np.ascontiguousarray(t.transpose(tuple(reversed(range(n)))).real)


def session_born_table(session, povm):
    """The normalized Born table a sampled session draws from, read off its factor.

    No session method returns a whole table: ``sample_batch`` forms it one
    block at a time, draws from each block and drops it.  One real axis
    per wire, in sorted wire order, each measured with ``povm``.
    """
    table = product_born_table(session._factor.space, session._factor.v, povm)
    return table / table.sum()


def global_unitary_choi(n, seed):
    """Choi operator of one Haar-random unitary from all inputs to all outputs.

    Every output depends on every input, so no tooth can come last and
    the process has no causal order at all.  The operator has rank one.
    """
    dim = 2**n
    u = haar_unitary(dim, np.random.default_rng(seed))
    v = np.kron(np.eye(dim), u) @ max_entangled_ket(dim)
    labels = tuple(f"A{k}" for k in range(1, n + 1)) + tuple(f"B{k}" for k in range(1, n + 1))
    return Op(WireSpace(labels, (2,) * (2 * n)), np.outer(v, v.conj()))


def reference_correlation_norm(x, side_a):
    """``||x - x_A (x) x_B||_1`` one operator at a time: partial traces, Kronecker
    product, reorder, and the sum of singular values, as :func:`reference_check` takes it."""
    side_b = [l for l in x.labels if l not in side_a]
    prod = reorder(tensor(partial_trace(x, side_a), partial_trace(x, side_b)), x.labels)
    return np.linalg.svd(x.matrix - prod.matrix, compute_uv=False).sum()


def pauli6():
    """The six Pauli eigenprojectors, each weighted 1/3: an IC qubit POVM of six outcomes."""
    els = [(np.eye(2) + s * p) / 6 for p in (PAULI_X, PAULI_Y, PAULI_Z) for s in (1, -1)]
    return IcPovm(tuple(els), kind="povm", name="pauli6")
