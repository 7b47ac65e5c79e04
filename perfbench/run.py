"""krylov-exact benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: exact-position,
thermal-chain, verify-cli (see perfbench/README.md).  The workload runs
in a fresh interpreter (workload.py); SETUP_RUNS more fresh interpreters
only set up, so that set-up time is a median.  Times are scaled to a
fixed machine speed (speed.py); the wall times are in the info line.  With ``--trace 0`` the
last line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The line before it records the
environment.  Exit code 0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
WORKLOADS = ("exact-position", "thermal-chain", "verify-cli")
SETUP_RUNS = 8
#: Every process must have ended by then (the limit for one run is 180 s).
DEADLINE_S = 170


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child(args, setup_only: bool, begin: float) -> dict:
    """Run workload.py in a fresh interpreter and return its result."""
    cmd = [
        sys.executable, str(WORKLOAD), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = DEADLINE_S - (time.monotonic() - begin)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "krylov_exact" / "__init__.py").is_file():
        print(f"krylov_exact sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.monotonic()
    setup_runs = [child(args, True, begin) for _ in range(SETUP_RUNS)]
    res = child(args, False, begin)
    setup_runs.append(res)
    setups = [r["setup_s"] for r in setup_runs]

    attempted, failed = res["attempted"], res["failed"]
    gate_failures = res["gate_failures"]
    if args.trace:
        traced = res["traced"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        gate_failures = sorted(set(gate_failures) | set(traced["gate_failures"]))
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "run_s": metric(res["run_s"], "s"),
            "job_p50_s": metric(res["job_p50_s"], "s"),
            "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
            "b2_digits": metric(res["b2_digits"], "digits"),
            "sum_rule_digits": metric(res["sum_rule_digits"], "digits"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MiB"),
        }
    correct = failed == 0 and not gate_failures
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": res["passes"],
        "pass_s": res["pass_s"],
        "pass_wall_s": res["pass_wall_s"],
        "job_s": res["job_s"],
        "setup_s_samples": setups,
        "setup_wall_s_samples": [r["setup_wall_s"] for r in setup_runs],
        "counts_per_pass": res["counts_per_pass"],
        "gate_failures": gate_failures,
        "env": dict(res["env"], git_commit=git_commit()),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
