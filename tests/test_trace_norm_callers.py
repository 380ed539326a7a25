"""Every trace norm the package takes is of a Hermitian matrix.

``tensors.trace_norm`` reads only the lower triangle of its argument, as
``numpy.linalg.eigvalsh`` does, so a caller that handed it a matrix that
is not Hermitian would get a wrong number silently.  Each import site of
``trace_norm`` is patched with a recorder that checks its argument, and
the checker, the order walk, both modes of the independence matrix and
the norm-chain lemma then run through it.
"""

import numpy as np
import pytest
from test_verdict_pins import PINS
from test_verdict_pins import _comb as _verdict_comb

from causalcomb import checks, combs, tensors
from causalcomb.combs import check_comb_condition, compatible_orders, gen_unitary_comb
from causalcomb.discovery import independence_matrix
from causalcomb.oracle import OracleConfig, OracleSession
from causalcomb.povm import sic_qubit

SITES = (tensors, combs, checks)


@pytest.fixture
def reached(monkeypatch):
    """Patch ``trace_norm`` at every import site; count the calls per site."""
    calls = {module.__name__: 0 for module in SITES}
    original = tensors.trace_norm

    def recorder(name):
        def recorded(m):
            assert np.abs(m - m.conj().swapaxes(-2, -1)).max() <= 1e-12
            calls[name] += 1
            return original(m)

        return recorded

    for module in SITES:
        monkeypatch.setattr(module, "trace_norm", recorder(module.__name__))
    return calls


def _combs():
    """The verdict-pin combs, then the qutrit comb of the checker reference test."""
    specs = [_verdict_comb(*cell) for cell in PINS]
    return specs + [gen_unitary_comb(3, 3, 2, np.random.default_rng(3))]


def test_every_trace_norm_the_package_takes_is_of_a_hermitian_matrix(reached):
    specs = _combs()
    for spec in specs:
        order = spec.true_order
        assert check_comb_condition(spec, order).ok
        check_comb_condition(spec, order[::-1])
        if spec.n <= 3:
            assert order in compatible_orders(spec)[0]
    sic = sic_qubit()
    for mode in ("exact", "sampled"):
        for spec in specs[2:24:6]:  # one n = 3 qubit comb of each kind but the signaling one
            session = OracleSession(spec, OracleConfig(mode=mode, seed=5))
            independence_matrix(session, sic, 10_000, 0.1)
    assert checks.check_norm_chain(0).passed
    assert all(reached.values()), reached
