"""The comb-condition checker against its direct, per-prefix reference.

The reference builds each prefix marginal from the full Choi operator,
forms (early marginal) x (maximally mixed later inputs) with a Kronecker
product, sorts both sides' wires and takes the SVD trace norm of the
difference.  The checker instead walks the prefixes from the longest down,
traces out one output per step, and subtracts the product term from the
diagonal blocks of one reordered copy; deviations and verdicts must agree.
"""

import numpy as np
import pytest

from causalcomb.combs import (
    CombCheck,
    build_choi,
    check_comb_condition,
    enumerate_orders,
    gen_unitary_comb,
)
from causalcomb.tensors import Op, WireSpace, partial_trace, sort_wires, tensor


def maximally_mixed(space):
    return Op(space, np.eye(space.dim) / space.dim)


def _reference_check(choi, order, tol=1e-9):
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


def _assert_same(choi, order):
    got = check_comb_condition(choi, order)
    ref = _reference_check(choi, order)
    np.testing.assert_allclose(got.deviations, ref.deviations, rtol=0, atol=1e-12)
    assert got.ok == ref.ok, order
    assert got.worst_deviation == max(got.deviations)
    return got


@pytest.mark.parametrize("memory_dim", [1, 2])
def test_every_order_at_n3_matches_the_reference(memory_dim):
    spec = gen_unitary_comb(3, 2, memory_dim, np.random.default_rng(30 + memory_dim))
    choi = build_choi(spec)
    verdicts = {o: _assert_same(choi, o).ok for o in enumerate_orders(3)}
    assert verdicts[spec.true_order]
    if memory_dim == 2:
        # with memory every earlier input signals to every later output
        assert sum(verdicts.values()) == 1
    else:
        # independent single-wire teeth may run in any order
        assert sum(verdicts.values()) == 6


@pytest.mark.parametrize("n, samples", [(4, 8), (5, 2)])
@pytest.mark.parametrize("memory_dim", [1, 2])
def test_sampled_orders_match_the_reference(n, samples, memory_dim):
    rng = np.random.default_rng([n, memory_dim, 7])
    spec = gen_unitary_comb(n, 2, memory_dim, rng)
    choi = build_choi(spec)
    orders = enumerate_orders(n)
    picks = [orders[i] for i in rng.choice(len(orders), size=samples, replace=False)]
    assert _assert_same(choi, spec.true_order).ok
    for order in picks:
        _assert_same(choi, order)
    # the generator's teeth run backwards: valid only without memory
    backwards = spec.true_order[::-1]
    assert _assert_same(choi, backwards).ok == (memory_dim == 1)
