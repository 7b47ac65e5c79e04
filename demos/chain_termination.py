"""Lanczos chains and the early-termination signature.

The six systems with linear spectrum produce moment sequences that are
constant or geometric, which kills the chain after two (or even one)
coefficients.  Systems with genuinely curved spectra keep going.  The
script also reproduces the Hankel-determinant bookkeeping: the
determinant of the moment matrix equals the triangular product
prod_k b_k^(2(n+1-k)), not the plain product of the b_k^2.

Usage:
    python3 demos/chain_termination.py
"""

from krylov_exact import (
    Context,
    SystemKind,
    default_system,
    detect_noncomplexity,
    hankel_check,
    moments_closed_finite,
    moments_to_lanczos,
)

exact = Context("exact")
big = Context("bigreal", 50)

print("=" * 72)
print("chain termination across the catalog (K = 6)")
print("=" * 72)
for kind in SystemKind:
    if kind.is_finite:
        label = detect_noncomplexity(default_system(kind, exact))
    else:
        label = detect_noncomplexity(default_system(kind, big), beta="1")
    print(f"{kind.value:24s} {label}")

print()
print("Constant moments stop the chain at O_2; the pure geometric sequence")
print("of the harmonic oscillator stops one step earlier, at O_1.")

print()
print("=" * 72)
print("Hankel determinant vs Lanczos products (q-Racah, exact)")
print("=" * 72)
spec = default_system(SystemKind.Q_RACAH, exact)
table = moments_closed_finite(spec, K=6)
coeffs = moments_to_lanczos(table)
for n in (2, 3):
    lhs, rhs, naive_fails = hankel_check(table, coeffs, n)
    print(f"n = {n}:")
    print(f"  det(mu_(i+j))          = {exact.fmt(lhs)}")
    print(f"  prod b_k^(2(n+1-k))    = {exact.fmt(rhs)}  (equal: {lhs == rhs})")
    naive = exact.one
    for k in range(1, n + 1):
        naive = naive * coeffs.b2(k)
    print(f"  naive prod b_k^2       = {exact.fmt(naive)}  (wrong: {naive_fails})")
