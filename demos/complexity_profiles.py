"""Complexity profiles K(t) from the orthonormal operator chains.

Three contrasting profiles:

* the harmonic oscillator's two-operator chain gives K(t) = sin(2t)^2,
* a Krawtchouk lattice has a three-operator chain, so K(t) stays below 2,
* the Gegenbauer system has no early termination and a long chain whose
  amplitudes still satisfy the unit sum rule at every time.

Pass --csv PATH to dump the Gegenbauer profile for plotting.

Usage:
    python3 demos/complexity_profiles.py [--csv profile.csv]
"""

import argparse

import mpmath
from mpmath import mp

from krylov_exact import (
    Context,
    energy_pair,
    krylov_profile,
    make_system,
    operator_lanczos,
    position_pair,
    trace_inner,
    wightman_inner,
)

parser = argparse.ArgumentParser()
parser.add_argument("--csv", default=None, help="write the Gegenbauer profile here")
parser.add_argument("--n-max", type=int, default=40, help="thermal truncation level")
args = parser.parse_args()

ctx = Context("bigreal", 50)
times = [ctx.num(i) / 8 for i in range(17)]

print("=" * 72)
print("harmonic oscillator: chain (O_0, O_1), K(t) = sin(2t)^2")
print("=" * 72)
spec = make_system("hermite", None, {}, ctx)
pair = energy_pair(spec, n_max=args.n_max)
ip = wightman_inner(pair, ctx.num(1))
chain = operator_lanczos(pair, ip)
prof = krylov_profile(chain, pair, ip, times)
with ctx.work():
    dev = max(abs(k - mp.sin(2 * t) ** 2) for k, t in zip(prof.complexity, times))
print(f"chain stops at O_{chain.stop_index}; max |K(t) - sin(2t)^2| = {mpmath.nstr(dev, 3)}")

print()
print("=" * 72)
print("Krawtchouk lattice (N = 6, p = 1/2): bounded three-level chain")
print("=" * 72)
spec = make_system("krawtchouk", 6, {"p": "1/2"}, ctx)
pair = position_pair(spec)
ip = trace_inner(pair)
chain = operator_lanczos(pair, ip)
prof = krylov_profile(chain, pair, ip, times)
print(f"chain stops at O_{chain.stop_index}")
for t, k in list(zip(times, prof.complexity))[::4]:
    print(f"  t = {mpmath.nstr(t, 4):>6s}  K(t) = {mpmath.nstr(k, 8)}")
print(f"bound K <= {len(chain.vectors) - 1} holds: {all(k <= len(chain.vectors) - 1 for k in prof.complexity)}")

print()
print("=" * 72)
print(f"Gegenbauer (g = 2, beta = 1, n_max = {args.n_max}): no early stop")
print("=" * 72)
spec = make_system("gegenbauer", None, {"g": "2"}, ctx)
pair = energy_pair(spec, n_max=args.n_max)
ip = wightman_inner(pair, ctx.num(1))
chain = operator_lanczos(pair, ip)
prof = krylov_profile(chain, pair, ip, times)
worst = max(prof.sum_rule_defect(i) for i in range(len(times)))
print(f"chain length {len(chain.vectors)}; worst |sum phi^2 - 1| = {mpmath.nstr(worst, 3)}")
for t, k in list(zip(times, prof.complexity))[::4]:
    print(f"  t = {mpmath.nstr(t, 4):>6s}  K(t) = {mpmath.nstr(k, 8)}")

if args.csv:
    with open(args.csv, "w") as fh:
        fh.write(prof.to_csv())
    print(f"profile written to {args.csv}")
