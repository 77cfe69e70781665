"""The two avoidance constructions certified on long prefixes by the factor scan.

Outside the tier-1 ``tests/`` path: the 390 625-symbol scan takes about
17 s.  Run with ``PYTHONPATH=src python -m pytest tests_slow -q``.
"""

import pytest

from antipower import RecurrentAvoiderWord, SparseAvoiderWord, find_anti_power_factor


@pytest.mark.parametrize(
    "word,k,length",
    [
        (RecurrentAvoiderWord, 6, 78_125),
        (RecurrentAvoiderWord, 6, 5**8),
        (SparseAvoiderWord, 4, 100_000),
    ],
)
def test_avoiders_have_no_anti_power_factor_at_paper_scale(word, k, length):
    assert find_anti_power_factor(word(), k, length) is None
