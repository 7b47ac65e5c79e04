"""Command-line interface.

Subcommands expose the library as reproducible, machine-readable
reports: system data (``list-systems``), moment tables (``moments``),
chain reports (``lanczos``), complexity profiles (``complexity``), the
closed-form/oracle comparison (``heisenberg-check``), and the invariant
suites (``verify``).  Every report embeds its fully resolved
configuration; identical configurations produce byte-identical output.
``heisenberg-check`` and thermal ``complexity`` run on ``verify``'s pair
(:func:`~krylov_exact.verify.check_pair`); ``verify --all`` runs each
system's default sample and rejects ``-N`` and ``--param``.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import mpmath

from . import __version__
from .catalog import (
    DEFAULT_PARAMS,
    REQUIRED_PARAMS,
    SystemKind,
    make_system,
)
from .chain import chain_report
from .dynamics import HEISENBERG_TIMES, heisenberg_check, krylov_profile, verify_closure
from .errors import KrylovExactError
from .moments import moments_closed
from .numeric import BIGREAL, DEFAULT_PRECISION, EXACT, RATIONAL_BACKEND, Context
from .operators import energy_pair, operator_lanczos, trace_inner, wightman_inner
from .verify import check_pair, run_system_checks


class ConfigError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="krylov-exact",
        description="Moments, Lanczos chains, and complexity profiles of solvable systems",
    )
    p.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (rationals: {RATIONAL_BACKEND}, mpmath backend: {mpmath.libmp.BACKEND})",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_system=True):
        if needs_system:
            sp.add_argument("--system", required=True, help="system name, e.g. krawtchouk")
            sp.add_argument("-N", type=int, default=None, help="lattice size (finite systems)")
            sp.add_argument(
                "--param",
                action="append",
                default=[],
                metavar="NAME=VALUE",
                help="system parameter as p/q or decimal; repeatable",
            )
        sp.add_argument("--mode", choices=[EXACT, BIGREAL], default=None)
        sp.add_argument("--precision", type=int, default=None, help="bigreal decimal digits")
        sp.add_argument("--beta", default=None, help="inverse temperature (thermal systems)")
        sp.add_argument("-K", type=int, default=6, help="moments through mu_2K")
        sp.add_argument("--tail-tol", default=None, help="relative tail bound for thermal sums")
        sp.add_argument("--output", default=None, help="write the report here instead of stdout")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("list-systems", help="catalog summary")
    sp.add_argument("--format", choices=["table", "json"], default="table")
    sp.add_argument("--output", default=None)

    common(sub.add_parser("moments", help="closed-form moment table"))
    common(sub.add_parser("lanczos", help="Lanczos chain report"))

    sp = sub.add_parser("complexity", help="K(t) profile")
    common(sp)
    sp.add_argument(
        "--t-grid",
        nargs=3,
        metavar=("START", "STOP", "COUNT"),
        default=("0", "5", "21"),
        help="time grid (decimal strings and a count)",
    )
    sp.add_argument("--n-max", type=int, default=None, help="truncation for thermal systems (at least 2)")

    sp = sub.add_parser("heisenberg-check", help="closed form vs exponential oracle")
    common(sp)
    sp.add_argument(
        "--t-grid",
        nargs="+",
        default=HEISENBERG_TIMES,
        metavar="T",
        help="times to test",
    )

    sp = sub.add_parser("verify", help="run the invariant suite")
    common(sp, needs_system=False)
    sp.add_argument("--system", default=None)
    sp.add_argument("-N", type=int, default=None)
    sp.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    sp.add_argument("--all", action="store_true", help="verify all 16 systems with default samples")
    return p


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--param: expected NAME=VALUE, got {item!r}")
        name, val = item.split("=", 1)
        out[name.strip()] = val.strip()
    return out


def _resolve_context(args, kind: SystemKind | None) -> Context:
    needs_big = args.command in ("complexity", "heisenberg-check")
    mode = args.mode
    if mode is None:
        finite = kind is not None and kind.is_finite
        mode = EXACT if (finite and not needs_big) else BIGREAL
    if mode == EXACT:
        if kind is not None and not kind.is_finite:
            raise ConfigError("--mode: mode=exact requires a finite discrete system")
        if needs_big:
            raise ConfigError(f"--mode: mode=exact cannot run {args.command} (needs exponentials)")
    precision = args.precision if args.precision is not None else DEFAULT_PRECISION
    if precision < 30 and mode == BIGREAL:
        raise ConfigError("--precision: bigreal precision must be at least 30")
    ctx = Context(mode, precision)
    for flag, raw in (("--beta", args.beta), ("--tail-tol", args.tail_tol)):
        if raw is not None and not _number(ctx, flag, raw) > 0:
            raise ConfigError(f"{flag}: must be positive, got {raw!r}")
    return ctx


def _number(ctx: Context, flag: str, raw: str):
    """``raw`` as a scalar of ``ctx``; a malformed value is a
    configuration error naming ``flag``."""
    try:
        return ctx.num(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{flag}: not a number: {raw!r}") from None


def _parse_kind(name) -> SystemKind:
    try:
        return SystemKind(name)
    except ValueError:
        raise ConfigError(f"--system: unknown system {name!r}") from None


def _resolve_system(args, ctx: Context):
    kind = _parse_kind(args.system)
    params = _parse_params(args.param)
    if not params and not args.N and DEFAULT_PARAMS[kind][1]:
        # fall back to the documented default sample
        n_def, p_def = DEFAULT_PARAMS[kind]
        params = dict(p_def)
        args.N = n_def
    if kind.is_finite:
        if args.N is None:
            raise ConfigError("-N: required for finite systems")
        if args.beta is not None:
            raise ConfigError("--beta: only applies to the six thermal systems")
    else:
        if args.N is not None:
            raise ConfigError(f"-N: {kind.value} is infinite")
        if args.beta is None:
            raise ConfigError("--beta: required for thermal systems")
    try:
        return make_system(kind, args.N, params, ctx)
    except KrylovExactError as exc:
        raise ConfigError(f"--param: {exc}") from exc


def _resolved_config(args, spec, ctx) -> dict:
    return {
        "command": args.command,
        "system": spec.kind.value if spec else None,
        "N": spec.N if spec else None,
        "params": {k: ctx.fmt(v) for k, v in sorted(spec.params.items())} if spec else {},
        "mode": ctx.mode,
        "precision": ctx.precision,
        "beta": args.beta,
        "K": getattr(args, "K", None),
        "format": getattr(args, "format", None),
    }


def _emit(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_with_config(config: dict, body: str) -> str:
    return f"# config: {json.dumps(config, sort_keys=True)}\n{body}"


def cmd_list_systems(args) -> int:
    rows = []
    for kind in SystemKind:
        n_def, p_def = DEFAULT_PARAMS[kind]
        rows.append(
            {
                "system": kind.value,
                "class": "finite" if kind.is_finite else "thermal",
                "parameters": list(REQUIRED_PARAMS[kind]),
                "default_N": n_def,
                "default_params": p_def,
            }
        )
    if args.format == "json":
        _emit(args, json.dumps(rows, sort_keys=True, indent=2) + "\n")
        return 0
    lines = [f"{'system':24s} {'class':8s} {'parameters':12s} default sample"]
    for r in rows:
        sample = ", ".join(f"{k}={v}" for k, v in r["default_params"].items()) or "-"
        if r["default_N"]:
            sample = f"N={r['default_N']}, {sample}"
        lines.append(f"{r['system']:24s} {r['class']:8s} {','.join(r['parameters']) or '-':12s} {sample}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_moments(args) -> int:
    ctx = _resolve_context(args, _parse_kind(args.system))
    spec = _resolve_system(args, ctx)
    table = moments_closed(spec, K=args.K, beta=args.beta, tail_tol=args.tail_tol)
    config = _resolved_config(args, spec, ctx)
    if args.format == "json":
        doc = table.to_json_dict()
        doc["config"] = config
        _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        _emit(args, _csv_with_config(config, table.to_csv()))
    return 0


def cmd_lanczos(args) -> int:
    ctx = _resolve_context(args, _parse_kind(args.system))
    spec = _resolve_system(args, ctx)
    doc = chain_report(spec, beta=args.beta, K=args.K, tail_tol=args.tail_tol)
    doc["config"] = _resolved_config(args, spec, ctx)
    if args.format == "csv":
        rows = ["k,b_squared"]
        rows += [f"{k+1},{v}" for k, v in enumerate(doc["b_squared"])]
        _emit(args, _csv_with_config(doc["config"], "\n".join(rows) + "\n"))
    else:
        _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _time_grid(args, ctx):
    start, stop, count = args.t_grid
    try:
        count = int(count)
    except ValueError:
        raise ConfigError(f"--t-grid: COUNT must be an integer, got {count!r}") from None
    if count < 1:
        raise ConfigError("--t-grid: COUNT must be positive")
    t0, t1 = _number(ctx, "--t-grid", start), _number(ctx, "--t-grid", stop)
    if count == 1:
        return [t0]
    step = (t1 - t0) / (count - 1)
    return [t0 + step * i for i in range(count)]


def cmd_complexity(args) -> int:
    kind = _parse_kind(args.system)
    ctx = _resolve_context(args, kind)
    spec = _resolve_system(args, ctx)
    if args.n_max is not None and spec.is_finite:
        raise ConfigError("--n-max: only applies to the six thermal systems")
    if args.n_max is not None and args.n_max < 2:
        raise ConfigError(f"--n-max: must be at least 2, got {args.n_max}")
    if spec.is_finite:
        pair = energy_pair(spec)
        ip = trace_inner(pair)
    elif args.n_max is not None:
        pair = energy_pair(spec, n_max=args.n_max)
        ip = wightman_inner(pair, args.beta)
    else:
        _, pair, ip = check_pair(spec, args.beta, args.K, args.tail_tol)
    chain = operator_lanczos(pair, ip)
    times = _time_grid(args, ctx)
    config = _resolved_config(args, spec, ctx)
    config["t_grid"] = list(args.t_grid)
    config["n_max"] = pair.dim - 1
    config["stop_index"] = chain.stop_index
    prof = krylov_profile(chain, pair, ip, times, meta=config)
    if args.format == "json":
        _emit(args, json.dumps(prof.to_json_dict(), sort_keys=True, indent=2) + "\n")
    else:
        _emit(args, _csv_with_config(config, prof.to_csv()))
    return 0


def cmd_heisenberg_check(args) -> int:
    kind = _parse_kind(args.system)
    ctx = _resolve_context(args, kind)
    spec = _resolve_system(args, ctx)
    _, pair, _ = check_pair(spec, args.beta, args.K, args.tail_tol)
    times = [_number(ctx, "--t-grid", t) for t in args.t_grid]
    closure = verify_closure(pair)
    devs, passed = heisenberg_check(pair, closure, times)
    rows = [{"t": tv, "max_deviation": ctx.fmt(dev)} for tv, dev in zip(args.t_grid, devs)]
    config = _resolved_config(args, spec, ctx)
    doc = {"config": config, "checks": rows, "passed": bool(passed)}
    if args.format == "json":
        _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        body = "t,max_deviation\n" + "\n".join(f"{r['t']},{r['max_deviation']}" for r in rows) + "\n"
        _emit(args, _csv_with_config(config, body))
    return 0 if passed else 1


def _verify_one(kind: SystemKind, args) -> tuple[dict, list]:
    """(resolved config, check rows) of one system."""
    ctx = _resolve_context(args, kind)
    if kind.is_finite and args.beta is not None and not args.all:
        raise ConfigError("--beta: only applies to the six thermal systems")
    if not kind.is_finite and args.N is not None:
        raise ConfigError(f"-N: {kind.value} is infinite")
    n_def, p_def = DEFAULT_PARAMS[kind]
    params = _parse_params(args.param) or dict(p_def)
    n = args.N if args.N is not None else n_def
    beta = None if kind.is_finite else args.beta or "1"
    try:
        spec = make_system(kind, n, params, ctx)
    except KrylovExactError as exc:
        if args.all:
            raise  # reported as the system's setup row
        raise ConfigError(f"--param: {exc}") from exc
    checks = run_system_checks(spec, beta=beta, K=args.K, tail_tol=args.tail_tol)
    config = _resolved_config(args, spec, ctx)
    config["beta"] = beta
    return config, checks


def cmd_verify(args) -> int:
    """The check table, or with ``--format json`` one document: the
    options as given, per system its resolved config and check rows (or
    its setup error), and the overall verdict."""
    if not args.all and not args.system:
        raise ConfigError("--system: required unless --all is given")
    if args.all:
        for flag, given in (("-N", args.N is not None), ("--param", args.param)):
            if given:
                raise ConfigError(f"{flag}: applies to one --system, not to --all")
    kinds = list(SystemKind) if args.all else [_parse_kind(args.system)]
    kinds.sort(key=lambda k: k.value)
    results = []  # (system, config, checks, setup error)
    for kind in kinds:
        try:
            results.append((kind.value, *_verify_one(kind, args), None))
        except KrylovExactError as exc:
            results.append((kind.value, None, [], exc))
    all_ok = all(err is None and all(c.passed for c in checks) for _, _, checks, err in results)
    if args.format == "json":
        systems = [
            {"system": name, "error": str(err), "passed": False}
            if err is not None
            else {
                "system": name,
                "config": config,
                "checks": [asdict(c) for c in checks],
                "passed": all(c.passed for c in checks),
            }
            for name, config, checks, err in results
        ]
        options = {k: v for k, v in vars(args).items() if k != "output"}
        text = json.dumps({"config": options, "systems": systems, "passed": all_ok}, sort_keys=True, indent=2)
        _emit(args, text + "\n")
        return 0 if all_ok else 1
    lines = []
    for name, _, checks, err in results:
        if err is not None:
            lines.append(f"{name:24s} {'setup':40s} {'-':>12s} error: {err}")
        for c in checks:
            lines.append(f"{name:24s} {c.name:40s} {c.status:>6s}  expected: {c.expected}; got: {c.got}")
    summary = "all checks passed" if all_ok else "FAILURES present"
    _emit(args, "\n".join(lines) + f"\n{summary}\n")
    return 0 if all_ok else 1


COMMANDS = {
    "list-systems": cmd_list_systems,
    "moments": cmd_moments,
    "lanczos": cmd_lanczos,
    "complexity": cmd_complexity,
    "heisenberg-check": cmd_heisenberg_check,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "K", 1) < 1:
            raise ConfigError(f"-K: must be at least 1, got {args.K}")
        if getattr(args, "N", None) is not None and args.N < 1:
            raise ConfigError(f"-N: must be at least 1, got {args.N}")
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except KrylovExactError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
