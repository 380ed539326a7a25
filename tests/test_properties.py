"""Property tests: invariants of the wire algebra and the comb checker."""

from typing import get_type_hints

import numpy as np
import pytest
from conftest import reference_check

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from causalcomb.combs import (  # noqa: E402
    build_choi,
    check_comb_condition,
    enumerate_orders,
    gen_unitary_comb,
)
from causalcomb.runner import (  # noqa: E402
    ALGORITHM_KEYS,
    GENERATOR_KEYS,
    ORACLE_KEYS,
    ConfigError,
    ExperimentConfig,
)
from causalcomb.tensors import Op, WireSpace, partial_trace, reorder, sort_wires  # noqa: E402

# few examples each: these run in the tier-1 suite
FEW = settings(max_examples=15, deadline=None, database=None)


@st.composite
def relabelled_checks(draw):
    n = draw(st.integers(2, 3))
    memory_dim = draw(st.sampled_from([1, 2]))
    seed = draw(st.integers(0, 2**16))
    order = draw(st.sampled_from(enumerate_orders(n)))
    in_perm = draw(st.permutations(range(1, n + 1)))
    out_perm = draw(st.permutations(range(1, n + 1)))
    return n, memory_dim, seed, order, in_perm, out_perm


@FEW
@given(relabelled_checks())
def test_relabelling_teeth_leaves_deviations_unchanged(case):
    n, memory_dim, seed, order, in_perm, out_perm = case
    choi = build_choi(gen_unitary_comb(n, 2, memory_dim, np.random.default_rng(seed)))
    rename = {f"A{i}": f"A{in_perm[i - 1]}" for i in range(1, n + 1)}
    rename.update({f"B{j}": f"B{out_perm[j - 1]}" for j in range(1, n + 1)})
    renamed = Op(WireSpace(tuple(rename[l] for l in choi.labels), choi.space.dims), choi.matrix)
    renamed_order = tuple((rename[a], rename[b]) for a, b in order)
    # put the renamed wires back into sorted order, so the matrix changes too
    renamed = sort_wires(renamed)
    before = check_comb_condition(choi, order)
    after = check_comb_condition(renamed, renamed_order)
    np.testing.assert_allclose(after.deviations, before.deviations, rtol=0, atol=1e-12)
    assert after.ok == before.ok


@st.composite
def operators_with_permutation_and_cut(draw):
    k = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    labels = [f"W{i}" for i in range(k)]
    dim = int(np.prod(dims))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    perm = draw(st.permutations(labels))
    keep = draw(st.lists(st.sampled_from(labels), unique=True))
    return Op(WireSpace(tuple(labels), tuple(dims)), mat), perm, keep


@FEW
@given(operators_with_permutation_and_cut())
def test_partial_trace_and_reorder_commute(case):
    x, perm, keep = case
    traced_after = partial_trace(reorder(x, perm), keep)
    traced_first = reorder(partial_trace(x, keep), [l for l in perm if l in keep])
    assert traced_after.labels == traced_first.labels
    np.testing.assert_allclose(traced_after.matrix, traced_first.matrix, rtol=0, atol=1e-12)


@st.composite
def low_rank_states_and_orders(draw):
    n = draw(st.integers(3, 4))
    rank = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    order = draw(st.sampled_from(enumerate_orders(n)))
    return n, rank, seed, order


@FEW
@given(low_rank_states_and_orders())
def test_checker_matches_the_reference_on_low_rank_states(case):
    n, rank, seed, order = case
    rng = np.random.default_rng(seed)
    dim = 4**n
    v = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    labels = tuple(f"A{k}" for k in range(1, n + 1)) + tuple(f"B{k}" for k in range(1, n + 1))
    state = Op(WireSpace(labels, (2,) * (2 * n)), v @ v.conj().T / np.linalg.norm(v) ** 2)
    got = check_comb_condition(state, order)
    ref = reference_check(state, order)
    np.testing.assert_allclose(got.deviations, ref.deviations, rtol=0, atol=1e-12)
    assert got.ok == ref.ok


def _picked(section, selector, tables):
    """Each key of each table, under the entry that picks the table."""
    return [
        (section, {selector: c}, k, kind) for c, t in tables.items() for k, (kind, _) in t.items()
    ]


#: (section, the entry that picks its table, key, type) for every key a
#: config can hold, each generator and algorithm key under a kind or name
#: that reads it
CONFIG_KEYS = [
    ("generator", {}, "kind", tuple(GENERATOR_KEYS)),
    *_picked("generator", "kind", GENERATOR_KEYS),
    ("algorithm", {}, "name", tuple(ALGORITHM_KEYS)),
    *_picked("algorithm", "name", ALGORITHM_KEYS),
    *[("oracle", {}, k, kind) for k, (kind, _) in ORACLE_KEYS.items()],
    *[
        (None, {}, k, kind)
        for k, kind in get_type_hints(ExperimentConfig).items()
        if kind in (int, float)
    ],
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=4,
)


def admits(kind, value) -> bool:
    """The type rule, stated apart from the library: a tuple admits its
    strings, ``bool`` and ``str`` only themselves, ``float`` any number,
    ``int`` a whole number (``3`` or ``3.0``, not negative)."""
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if kind in (bool, str) or isinstance(value, bool):
        return type(value) is kind
    if kind is float:
        return isinstance(value, (int, float))
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return whole and value >= 0


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from(CONFIG_KEYS), st.data())
def test_a_value_of_the_wrong_type_is_always_a_config_error(case, data):
    """Never another exception, for any key of any section."""
    section, picks, key, kind = case
    value = data.draw(JSON_VALUES.filter(lambda v: not admits(kind, v)))
    config = {"generator": {"kind": "unitary"}, "algorithm": {"name": "general"}}
    if section is None:
        config[key] = value
    else:
        config[section] = {**config.get(section, {}), **picks, key: value}
    with pytest.raises(ConfigError, match=f"{key} must be"):
        ExperimentConfig.from_dict(config)
