"""Exact outputs against a golden file.

Every exact value here is a rational, so a change that keeps the outputs
keeps every string of ``data/exact_golden.json``: closed-form and oracle
moments, b^2 by the Hankel route and by the operator chain (to k = 6,
and over the whole chain with its stop), and R_{-1} of the closure in
both bases, on every finite system's default sample and on Hahn
(a = 1/2, b = 2) at N = 16 and, opt-in (``pytest -m slow``), N = 32.
The file changes only through ``helpers.write_exact_golden``, for a
change meant to move exact values.
"""

import json

import pytest

from helpers import EXACT_GOLDEN, SLOW_GOLDEN, exact_golden_cases, exact_golden_values

GOLDEN = json.loads(EXACT_GOLDEN.read_text())
CASES = exact_golden_cases()


def test_golden_file_covers_every_case():
    assert list(GOLDEN) == list(CASES)


@pytest.mark.parametrize(
    "label", [pytest.param(label, marks=[pytest.mark.slow] if label == SLOW_GOLDEN else []) for label in CASES]
)
def test_exact_values_match_the_golden_file(label):
    assert exact_golden_values(CASES[label]) == GOLDEN[label]
