"""Billed queries are the paper's cost measure: pin them on a fixed seed grid.

Each cell runs one discovery algorithm on one seeded comb and records its
emitted order, failure, swap tests and billed queries.  Only integers and
labels are pinned, never floats, so the table holds on any BLAS.  A change
to any of them is a change to what the paper's algorithms cost, and must
be made here, on purpose, rather than slip through.

Cells: ``general`` (exact, theoretical policy) at n = 2-4 x d_M = 1, 2, 4;
``totalorder`` and ``memoryless`` exact under the theoretical policy and
sampled, at n = 2-4, plus each promise algorithm on the other's comb,
where the promise is broken.
"""

import numpy as np
import pytest

from causalcomb.combs import gen_memoryless_comb, gen_totalorder_comb, gen_unitary_comb
from causalcomb.discovery import (
    ASSUMPTION_VIOLATED as TIES,
    NOT_MEMORYLESS as TWO,
    discover_general,
    discover_memoryless,
    discover_totalorder,
)
from causalcomb.oracle import OracleConfig, OracleSession
from causalcomb.povm import sic_qubit

SHOTS = 100_000

#: (algorithm, comb kind, mode, n, d_M) -> (order, failure, swap tests, billed queries)
PINS = {
    ("general", "unitary", "exact", 2, 1): ("A2B1 A1B2", None, 17, 4013500846075964),
    ("general", "unitary", "exact", 2, 2): ("A2B2 A1B1", None, 14, 3305235990886088),
    ("general", "unitary", "exact", 2, 4): ("A2B2 A1B1", None, 14, 3305235990886088),
    ("general", "unitary", "exact", 3, 1): ("A3B2 A2B3 A1B1", None, 24, 5666118841519008),
    ("general", "unitary", "exact", 3, 2): ("A3B3 A2B2 A1B1", None, 21, 4957853986329132),
    ("general", "unitary", "exact", 3, 4): ("A1B2 A3B1 A2B3", None, 42, 9915707972658264),
    ("general", "unitary", "exact", 4, 1): ("A4B3 A3B1 A2B2 A1B4", None, 40, 9443531402531680),
    ("general", "unitary", "exact", 4, 2): ("A2B3 A1B1 A4B2 A3B4", None, 82, 19359239375189944),
    ("general", "unitary", "exact", 4, 4): ("A3B1 A4B4 A2B3 A1B2", None, 43, 10151796257721556),
    ("totalorder", "totalorder", "exact", 2, 2): ("A2B2 A1B1", None, 0, 100000),
    ("memoryless", "memoryless", "exact", 2, 1): ("A1B1 A2B2", None, 0, 100000),
    ("totalorder", "totalorder", "exact", 3, 2): ("A2B3 A1B2 A3B1", None, 0, 100000),
    ("memoryless", "memoryless", "exact", 3, 1): ("A1B3 A2B1 A3B2", None, 0, 100000),
    ("totalorder", "totalorder", "exact", 4, 2): ("A3B4 A1B3 A4B2 A2B1", None, 0, 100000),
    ("memoryless", "memoryless", "exact", 4, 1): ("A1B4 A2B3 A3B2 A4B1", None, 0, 100000),
    ("totalorder", "memoryless", "exact", 3, 1): ("A1B1 A2B2 A3B3", TIES, 0, 100000),
    ("memoryless", "totalorder", "exact", 3, 2): ("A1B1 A2B2 A3B3", TWO, 0, 100000),
    ("totalorder", "totalorder", "sampled", 2, 2): ("A2B2 A1B1", None, 0, 100000),
    ("memoryless", "memoryless", "sampled", 2, 1): ("A1B1 A2B2", None, 0, 100000),
    ("totalorder", "totalorder", "sampled", 3, 2): ("A2B3 A1B2 A3B1", None, 0, 300000),
    ("memoryless", "memoryless", "sampled", 3, 1): ("A1B3 A2B1 A3B2", None, 0, 100000),
    ("totalorder", "totalorder", "sampled", 4, 2): ("A3B4 A1B3 A4B2 A2B1", None, 0, 300000),
    ("memoryless", "memoryless", "sampled", 4, 1): ("A1B4 A2B3 A3B2 A4B1", None, 0, 100000),
    ("totalorder", "memoryless", "sampled", 3, 1): ("A1B1 A2B2 A3B3", TIES, 0, 300000),
    ("memoryless", "totalorder", "sampled", 3, 2): ("A1B1 A2B2 A3B3", TWO, 0, 100000),
}


def _comb(kind, n, d_m):
    rng = np.random.default_rng([2020, n, d_m, len(kind)])
    if kind == "unitary":
        return gen_unitary_comb(n, 2, d_m, rng)
    if kind == "totalorder":
        return gen_totalorder_comb(n, 2, d_m, rng)
    return gen_memoryless_comb(n, 2, rng)


def _run(algorithm, kind, mode, n, d_m):
    spec = _comb(kind, n, d_m)
    config = OracleConfig(mode=mode, seed=100 * n + d_m, query_policy="theoretical")
    session = OracleSession(spec, config)
    if algorithm == "general":
        report = discover_general(session)
    elif algorithm == "totalorder":
        report = discover_totalorder(session, sic_qubit(), SHOTS, 0.05)
    else:
        report = discover_memoryless(session, sic_qubit(), SHOTS, 0.1)
    order = " ".join(a + b for a, b in report.order) if report.order is not None else None
    swap_tests = report.diagnostics.get("swap_tests", 0)
    return order, report.failure, swap_tests, report.queries


def _cells():
    cells = [("general", "unitary", "exact", n, d_m) for n in (2, 3, 4) for d_m in (1, 2, 4)]
    for mode in ("exact", "sampled"):
        for n in (2, 3, 4):
            cells.append(("totalorder", "totalorder", mode, n, 2))
            cells.append(("memoryless", "memoryless", mode, n, 1))
        # broken promises
        cells.append(("totalorder", "memoryless", mode, 3, 1))
        cells.append(("memoryless", "totalorder", mode, 3, 2))
    return cells


@pytest.mark.parametrize("cell", _cells(), ids=lambda c: "-".join(map(str, c)))
def test_orders_failures_and_bills_are_pinned(cell):
    assert _run(*cell) == PINS[cell]
