"""Seeded inputs of the benchmark workloads.

The finite-system parameter families are a frozen copy of the valid
samples in ``tests/helpers.py``.  They are copied rather than imported so
that a change to the test helpers cannot change what the benchmark
measures between a parent commit and its child.
"""

from __future__ import annotations

import random
from fractions import Fraction

FINITE_SYSTEMS = [
    "krawtchouk",
    "hahn",
    "dual-hahn",
    "racah",
    "quantum-q-krawtchouk",
    "q-krawtchouk",
    "affine-q-krawtchouk",
    "q-hahn",
    "dual-q-hahn",
    "q-racah",
]

#: Thermal systems with their catalog-default parameters.
THERMAL_PARAMS = {
    "meixner": {"c": "1/2", "b": "1"},
    "charlier": {"a": "1"},
    "hermite": {},
    "laguerre": {"g": "3/2"},
    "gegenbauer": {"g": "2"},
    "jacobi": {"g": "2", "h": "3"},
}


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def param_samples(system: str, N: int) -> list[dict]:
    """Three valid exact parameter sets for the given finite system."""
    q = Fraction
    if system == "krawtchouk":
        return [{"p": "1/3"}, {"p": "1/2"}, {"p": "4/5"}]
    if system == "hahn":
        return [{"a": "1", "b": "1"}, {"a": "1/2", "b": "2"}, {"a": "3", "b": "5/2"}]
    if system == "dual-hahn":
        return [{"a": "1", "b": "2"}, {"a": "1/2", "b": "3"}, {"a": "2", "b": "2"}]
    if system == "racah":
        return [
            {"d": "1", "a": str(N + 2), "b": "3/2"},
            {"d": "1/2", "a": str(N + 1), "b": "5/4"},
            {"d": "2", "a": str(N + 3), "b": "5/2"},
        ]
    if system == "quantum-q-krawtchouk":
        return [
            {"q": "1/2", "p": _frac(q(3, 2) * q(1, 2) ** -N)},
            {"q": "1/3", "p": _frac(2 * q(1, 3) ** -N)},
            {"q": "2/5", "p": _frac(3 * q(2, 5) ** -N)},
        ]
    if system == "q-krawtchouk":
        return [{"q": "1/2", "p": "2/3"}, {"q": "1/3", "p": "1"}, {"q": "3/5", "p": "5/2"}]
    if system == "affine-q-krawtchouk":
        return [{"q": "1/2", "p": "3/2"}, {"q": "1/3", "p": "2"}, {"q": "2/5", "p": "1"}]
    if system in ("q-hahn", "dual-q-hahn"):
        return [
            {"q": "1/2", "a": "1/2", "b": "1/3"},
            {"q": "1/3", "a": "1/4", "b": "1/2"},
            {"q": "2/5", "a": "2/3", "b": "1/5"},
        ]
    if system == "q-racah":
        return [
            {"q": "1/2", "d": "1/2", "b": "1/2", "a": _frac(q(1, 2) ** (N + 2))},
            {"q": "1/2", "d": "1/2", "b": "3/4", "a": _frac(q(1, 2) ** (N + 1) / 3)},
            {"q": "2/5", "d": "1/2", "b": "1/2", "a": _frac(q(2, 5) ** N / 4)},
        ]
    raise ValueError(f"no samples for {system}")


def exact_position_jobs(seed: int) -> list[tuple[str, int, int, dict]]:
    """(system, N, K, params) for every exact-position job.

    The seed picks one of the three valid samples for each (system, N).
    """
    rng = random.Random(seed)
    plan = [(8, 12, FINITE_SYSTEMS), (16, 6, ["krawtchouk", "hahn"])]
    jobs = []
    for N, K, systems in plan:
        for system in systems:
            jobs.append((system, N, K, rng.choice(param_samples(system, N))))
    return jobs


def time_grid(seed: int, count: int = 20) -> list[str]:
    """Exact time strings t_i = i/4 + u_i, u_i a seeded multiple of 1/1000 below 1/4."""
    rng = random.Random(seed)
    return [_frac(Fraction(i, 4) + Fraction(rng.randrange(1, 250), 1000)) for i in range(count)]
