"""Slow cross-checks of N(l,k) values against one stack DFS over the whole tree.

Outside the tier-1 ``tests/`` path: the stack DFS needs tens of seconds per
row.  Run with ``PYTHONPATH=src python -m pytest tests_slow -q``.
"""

import pytest

from antipower import SearchParams, compute_n, naive_has_k_anti_power_factor, naive_has_k_power_factor
from antipower.detect import ends_in_anti_power, ends_in_power
from antipower.ramsey import extension_dfs


@pytest.mark.parametrize(
    "l,k,n,nodes",
    [(4, 5, 48, 1_226_541), (5, 5, 55, 2_849_105), (3, 6, 58, 968_735), (6, 5, 56, 4_535_583)],
)
def test_binary_n_values_agree_with_the_stack_dfs(l, k, n, nodes):
    out = compute_n(SearchParams(l=l, k=k, length_cap=200))
    deepest, dfs_nodes, hits = extension_dfs(
        b"", 0, 2, 200, lambda t: ends_in_power(t, l) or ends_in_anti_power(t, k)
    )
    assert not hits
    assert (out.status, out.value, out.nodes_explored) == ("exact", n, nodes)
    assert (len(deepest) + 1, out.max_avoiding_word.symbols, dfs_nodes) == (n, deepest, nodes)
    assert not naive_has_k_power_factor(out.max_avoiding_word, l)
    assert not naive_has_k_anti_power_factor(out.max_avoiding_word, k)
