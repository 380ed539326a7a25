"""The checker's verdicts: pin each comb's number of compatible orders.

Each cell builds one seeded comb, writes it to a comb file and runs
``causalcomb verify --enumerate`` on it, which reports the orders
compatible with the comb at the default tolerance.  The pinned counts
were taken from the exhaustive loop, which checks every one of the
(n!)^2 orders; any way of finding the compatible orders must reproduce
them.  Only integers are pinned, never deviations, so the table holds on
any BLAS.

Cells: Haar-random unitary combs at d_M = 1 and 2, memoryless combs with
and without a constant tooth, at n = 2-4 and seeds 0 and 1, all on qubit
wires; the dressed signaling comb at seeds 0 and 1; the fig3 comb.
"""

import math
import re

import numpy as np
import pytest

from causalcomb.cli import main
from causalcomb.combs import (
    gen_fig3_comb,
    gen_memoryless_comb,
    gen_signaling_comb,
    gen_unitary_comb,
)
from causalcomb.serialize import save_comb

#: (comb kind, n, seed) -> number of compatible orders
PINS = {
    ("unitary-1", 2, 0): 2,
    ("unitary-1", 2, 1): 2,
    ("unitary-1", 3, 0): 6,
    ("unitary-1", 3, 1): 6,
    ("unitary-1", 4, 0): 24,
    ("unitary-1", 4, 1): 24,
    ("unitary-2", 2, 0): 1,
    ("unitary-2", 2, 1): 1,
    ("unitary-2", 3, 0): 1,
    ("unitary-2", 3, 1): 1,
    ("unitary-2", 4, 0): 1,
    ("unitary-2", 4, 1): 1,
    ("memoryless", 2, 0): 2,
    ("memoryless", 2, 1): 2,
    ("memoryless", 3, 0): 6,
    ("memoryless", 3, 1): 6,
    ("memoryless", 4, 0): 24,
    ("memoryless", 4, 1): 24,
    ("memoryless+constant", 2, 0): 3,
    ("memoryless+constant", 2, 1): 3,
    ("memoryless+constant", 3, 0): 14,
    ("memoryless+constant", 3, 1): 14,
    ("memoryless+constant", 4, 0): 90,
    ("memoryless+constant", 4, 1): 90,
    ("signaling", 2, 0): 2,
    ("signaling", 2, 1): 2,
    ("fig3", 3, 0): 12,
}


def _comb(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "unitary-1":
        return gen_unitary_comb(n, 2, 1, rng)
    if kind == "unitary-2":
        return gen_unitary_comb(n, 2, 2, rng)
    if kind == "memoryless":
        return gen_memoryless_comb(n, 2, rng)
    if kind == "memoryless+constant":
        return gen_memoryless_comb(n, 2, rng, constant_tooth=True)
    if kind == "signaling":
        return gen_signaling_comb(rng)
    return gen_fig3_comb()


@pytest.mark.parametrize("cell", list(PINS), ids=lambda c: "-".join(map(str, c)))
def test_compatible_order_counts_are_pinned(capsys, tmp_path, cell):
    kind, n, seed = cell
    spec = _comb(kind, n, seed)
    assert spec.n == n
    path = tmp_path / "comb.json"
    save_comb(spec, path)
    code = main(["verify", str(path), "--enumerate"])
    lines = capsys.readouterr().out.splitlines()
    valid, total = map(int, re.match(r"(\d+)/(\d+) orders valid", lines[-1]).groups())
    assert (valid, total) == (PINS[cell], math.factorial(n) ** 2)
    assert sum(line.startswith("ok ") for line in lines) == valid
    assert code == (0 if valid else 1)
