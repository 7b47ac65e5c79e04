"""Generate the 150-digit b^2 reference for the thermal-chain workload.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference_b2.json``.  Each chain is truncated where
the timed workload truncates it: a fixed n_max, or the certified
truncation that the 50-digit closed-form thermal sum (K=6, beta=1)
chooses.  The truncations are all resolved before the 150-digit context
exists, because creating that context raises mpmath's global precision
for the rest of the process.  This is why the timed workload never
creates it and reads this file instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import krylov_exact as ke  # noqa: E402

from inputs import THERMAL_PARAMS  # noqa: E402
from workload import BETA, K_THERMAL, PRECISION, THERMAL_PLAN, thermal_n_max  # noqa: E402

REFERENCE_PRECISION = 150
OUT = HERE / "reference_b2.json"


def main() -> int:
    work = ke.Context("bigreal", PRECISION)
    n_max = {}
    for system, fixed in THERMAL_PLAN:
        spec = ke.make_system(system, None, THERMAL_PARAMS[system], work)
        n_max[system] = thermal_n_max(ke.moments_closed_thermal(spec, K_THERMAL, beta=BETA), fixed)

    ref = ke.Context("bigreal", REFERENCE_PRECISION)
    chains = {}
    for system, _fixed in THERMAL_PLAN:
        spec = ke.make_system(system, None, THERMAL_PARAMS[system], ref)
        pair = ke.energy_pair(spec, n_max=n_max[system])
        chain = ke.operator_lanczos(pair, ke.wightman_inner(pair, ref.num(BETA)))
        chains[system] = {
            "n_max": n_max[system],
            "stopped": chain.stopped,
            "b_squared": [ref.fmt(v) for v in chain.b_squared],
        }
        print(f"{system}: n_max={n_max[system]}, {len(chain.b_squared)} steps", file=sys.stderr)
    doc = {
        "precision": REFERENCE_PRECISION,
        "beta": BETA,
        "K": K_THERMAL,
        "params": {s: THERMAL_PARAMS[s] for s, _ in THERMAL_PLAN},
        "chains": chains,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
