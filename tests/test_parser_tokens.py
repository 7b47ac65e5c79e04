"""Every package module stays within 8192 tokens.

CPython's parser keeps a module's tokens in an array that doubles as it
fills; past 8192 tokens it grows to 16384 entries while the module is
compiled.  A module that crossed that size raised the benchmark's peak
resident size by about 0.25 MiB on every workload.
"""

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "krylov_exact"
TOKEN_BUFFER = 8192


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_fits_the_parser_token_buffer(path):
    with open(path, "rb") as fh:
        count = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert count <= TOKEN_BUFFER, f"{path.name}: {count} tokens"
