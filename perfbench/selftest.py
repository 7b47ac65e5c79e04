"""Self-test of the benchmark gates: perturbed results must be rejected.

    python3 perfbench/selftest.py

Runs one small exact-position job and one thermal-chain job (Hermite)
as the benchmark does, first unchanged, then with one moment of the
oracle or one b^2 of the operator chain perturbed far below any
printing precision.  Exits nonzero unless the clean jobs pass and each
perturbed job fails the gate that guards that quantity.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import workload as wl

ke = wl.ke


def perturbed(name: str, change):
    """Context manager: ``krylov_exact.<name>`` returns ``change(result)``."""
    original = getattr(ke, name)

    class _Patch:
        def __enter__(self):
            setattr(ke, name, lambda *a, **k: change(original(*a, **k)))

        def __exit__(self, *exc):
            setattr(ke, name, original)
            return False

    return _Patch()


def bump_moment(table, delta):
    values = list(table.values)
    values[2] = values[2] + delta
    return dataclasses.replace(table, values=values)


def bump_b2(chain, factor):
    b2 = list(chain.b_squared)
    b2[0] = b2[0] * factor
    return dataclasses.replace(chain, b_squared=b2)


def gates_failed(job) -> list:
    return wl.run_job(job, job.prepare(), None).gate_failures or []


def main() -> int:
    exact = wl.exact_job("krawtchouk", 8, 6, {"p": "1/3"})
    reference = json.loads(wl.REFERENCE.read_text())
    thermal = wl.thermal_job("hermite", None, wl.time_grid(0), reference)
    big = ke.Context("bigreal", wl.PRECISION)

    cases = [
        ("exact job, unchanged", exact, None, []),
        ("exact job, mu_2 + 10^-30", exact,
         perturbed("moments_oracle", lambda t: bump_moment(t, Fraction(1, 10**30))),
         ["closed_form_equals_oracle"]),
        ("exact job, b_1^2 * (1 + 10^-30)", exact,
         perturbed("operator_lanczos", lambda c: bump_b2(c, 1 + Fraction(1, 10**30))),
         ["hankel_b2_equals_operator_b2"]),
        ("thermal job, unchanged", thermal, None, []),
        ("thermal job, mu_2 * (1 + 10^-30)", thermal,
         perturbed("moments_oracle", lambda t: bump_moment(t, t.values[2] * big.num("1e-30"))),
         ["closed_form_within_verify_tolerance"]),
        ("thermal job, b_1^2 * (1 + 10^-40)", thermal,
         perturbed("operator_lanczos", lambda c: bump_b2(c, 1 + big.num("1e-40"))),
         ["b2_reference_digits"]),
    ]
    ok = True
    for label, job, patch, expected in cases:
        if patch is None:
            failed = gates_failed(job)
        else:
            with patch:
                failed = gates_failed(job)
        good = failed == expected
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: failed gates {failed}, expected {expected}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
