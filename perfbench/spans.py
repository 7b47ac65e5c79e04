"""Span tracer that wraps the public functions of krylov_exact.

Each wrapped function is replaced wherever a caller looks its name up:
in the module that defines it, in every krylov_exact module that
imported it, and in the package namespace the benchmark calls through.
A span records (name, start, end, parent span, job id); spans stay in
memory and are written out once, when the run ends.  Some functions
also add exact counts taken from their results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

#: Wrapped functions per module.  ``numeric`` has no heavy entry point;
#: its backend and precision are recorded as run metadata instead.
TARGETS = {
    "catalog": ["make_system"],
    "operators": [
        "position_pair",
        "energy_pair",
        "trace_inner",
        "wightman_inner",
        "inner",
        "liouville",
        "operator_lanczos",
        "matrix_exponential_conjugate",
        "eig_symmetric",
    ],
    "moments": ["moments_closed_finite", "moments_closed_thermal", "moments_oracle"],
    "chain": ["moments_to_lanczos", "lanczos_to_moments", "b123_closed_forms", "hankel_check"],
    "dynamics": ["verify_closure", "heisenberg_closed_form", "krylov_profile", "closure_diagonal_identity"],
    "verify": ["run_system_checks"],
    "cli": ["main"],
}

#: Exact counts read off a function's result: span name -> [(metric, fn)].
RESULT_COUNTS = {
    "operators.operator_lanczos": [("operators.operator_lanczos.steps", lambda r: len(r.b_squared))],
    "moments.moments_closed_thermal": [
        ("moments.moments_closed_thermal.terms", lambda r: r.truncation.n_max + 1)
    ],
    "dynamics.krylov_profile": [
        ("dynamics.krylov_profile.amplitudes", lambda r: sum(len(row) for row in r.phi))
    ],
    "verify.run_system_checks": [
        ("verify.checks", len),
        ("verify.checks_failed", lambda r: sum(not c.passed for c in r)),
    ],
}

JOB = "job"


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = None
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counters = RESULT_COUNTS.get(name, ())
        bigreal_arg = name == "verify.run_system_checks"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1, self.job, None]
            if bigreal_arg:
                rec[5] = not args[0].ctx.is_exact
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            for key, count in counters:
                counts[key] += count(result)
            return result

        return traced

    def install(self):
        """Replace every target function by its traced wrapper."""
        wrappers = {}
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"krylov_exact.{module}")
            for fn_name in names:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fn_name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "krylov_exact" and not mod_name.startswith("krylov_exact."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def job_span(self, job_id):
        """A benchmark-side span around one job."""
        index = len(self.spans)
        self.job = job_id
        self.spans.append([JOB, perf_counter(), None, -1, job_id, None])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = perf_counter()
            self.job = None

    # -- summaries ------------------------------------------------------

    def totals(self) -> dict:
        """Inclusive time, self time and call count per span name."""
        incl: Counter = Counter()
        self_t: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, parent, _job, _flag in self.spans:
            dur = end - start
            incl[name] += dur
            self_t[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_t[self.spans[parent][0]] -= dur
        return {"inclusive": incl, "self": self_t, "calls": calls}

    def calls_per_bigreal_system(self, name: str) -> float:
        """Calls of ``name`` made inside bigreal run_system_checks, per such call."""
        systems = [i for i, s in enumerate(self.spans) if s[0] == "verify.run_system_checks" and s[5]]
        if not systems:
            return 0.0
        inside = set(systems)
        hits = 0
        for s in self.spans:
            if s[0] != name:
                continue
            parent = s[3]
            while parent >= 0 and parent not in inside:
                parent = self.spans[parent][3]
            hits += parent >= 0
        return hits / len(systems)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job", "bigreal"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )

