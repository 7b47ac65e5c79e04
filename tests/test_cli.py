import json
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import krylov_exact.cli
from krylov_exact import Context, make_system, numeric, operators
from krylov_exact.cli import main
from krylov_exact.errors import ParameterOutOfRange
from krylov_exact.numeric import RATIONAL_BACKEND, Mantissas
from krylov_exact.verify import SystemChecks

from helpers import FINITE_KINDS, exact_chain, rounded_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_systems(capsys):
    code, out, _ = run(capsys, "list-systems")
    assert code == 0
    assert "krawtchouk" in out and "jacobi" in out
    code, out, _ = run(capsys, "list-systems", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 16


def test_moments_csv_constant_rows(capsys):
    code, out, _ = run(
        capsys,
        "moments", "--system", "krawtchouk", "-N", "6",
        "--param", "p=1/2", "--mode", "exact", "-K", "6",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "m,mu_m,provenance,tail_bound"
    evens = [l.split(",")[1] for l in lines[2:] if int(l.split(",")[0]) % 2 == 0]
    # every even moment equals mu_2 = 2 sum A_n C_{n+1} / |eta|^2 = 4/13
    assert evens[0] == "1"
    assert set(evens[1:]) == {"4/13"}
    odds = [l.split(",")[1] for l in lines[2:] if int(l.split(",")[0]) % 2 == 1]
    assert set(odds) == {"0"}


def test_moments_exact_thermal_rejected(capsys):
    code, _, err = run(capsys, "moments", "--system", "hermite", "--mode", "exact", "--beta", "1")
    assert code == 2
    assert "mode=exact requires a finite discrete system" in err


def test_beta_validation(capsys):
    code, _, err = run(capsys, "moments", "--system", "hermite")
    assert code == 2
    assert "--beta" in err
    code, _, err = run(
        capsys, "moments", "--system", "krawtchouk", "-N", "4", "--param", "p=1/2", "--beta", "1"
    )
    assert code == 2
    assert "--beta" in err


def test_config_errors(capsys):
    code, _, err = run(capsys, "moments", "--system", "nosuch")
    assert code == 2 and "--system" in err
    code, _, err = run(capsys, "moments", "--system", "krawtchouk", "--param", "p")
    assert code == 2 and "--param" in err
    code, _, err = run(capsys, "moments", "--system", "krawtchouk", "-N", "4", "--param", "p=7/2")
    assert code == 2 and "--param" in err
    # malformed values exit 2 naming their flag, never with a traceback
    for flag, argv in [
        ("--param", ["moments", "--system", "krawtchouk", "-N", "6", "--param", "p=abc"]),
        ("--param", ["moments", "--system", "krawtchouk", "-N", "6", "--param", "p=1/0"]),
        ("-N", ["moments", "--system", "krawtchouk", "-N", "0", "--param", "p=1/2"]),
        ("--beta", ["moments", "--system", "charlier", "--beta", "abc", "-K", "2"]),
        ("--beta", ["moments", "--system", "charlier", "--beta", "-1", "-K", "2"]),
        ("--beta", ["verify", "--system", "hermite", "--beta", "0"]),
        ("--tail-tol", ["moments", "--system", "charlier", "--beta", "1", "--tail-tol", "abc", "-K", "2"]),
        ("--tail-tol", ["moments", "--system", "charlier", "--beta", "1", "--tail-tol", "0", "-K", "2"]),
        # non-finite values, and tolerances that certify nothing or do not apply
        ("--beta", ["moments", "--system", "hermite", "--beta", "inf"]),
        ("--t-grid", ["heisenberg-check", "--system", "hermite", "--beta", "1", "--t-grid", "nan"]),
        ("--t-grid", ["complexity", "--system", "hermite", "--beta", "1", "--t-grid", "0", "inf", "3"]),
        ("--tail-tol", ["moments", "--system", "charlier", "--beta", "1", "--tail-tol", "2"]),
        ("--tail-tol", ["moments", "--system", "charlier", "--beta", "1", "--tail-tol", "1"]),
        ("--tail-tol", ["verify", "--all", "--tail-tol", "1"]),
        ("--tail-tol", ["moments", "--system", "hahn", "--tail-tol", "1e-3"]),
        ("--tail-tol", ["verify", "--system", "hahn", "--tail-tol", "1e-3"]),
        ("--t-grid", ["complexity", "--system", "hermite", "--beta", "1", "--t-grid", "0", "5", "abc"]),
        ("--t-grid", ["complexity", "--system", "hermite", "--beta", "1", "--t-grid", "0", "x", "3"]),
        ("--t-grid", ["heisenberg-check", "--system", "hermite", "--beta", "1", "--t-grid", "1/0"]),
        # verify flags that would be misapplied: one N or parameter set for
        # all 16 systems, a temperature for a finite one
        ("-N", ["verify", "--all", "-N", "8"]),
        ("--param", ["verify", "--all", "--param", "p=1/2"]),
        ("--beta", ["verify", "--system", "krawtchouk", "--beta", "1"]),
        ("-N", ["verify", "--system", "hermite", "-N", "8"]),
        # a cut for a finite system, or one below two levels
        ("--n-max", ["complexity", "--system", "krawtchouk", "--n-max", "3"]),
        ("--n-max", ["complexity", "--system", "hermite", "--beta", "1", "--n-max", "1"]),
        ("--n-max", ["complexity", "--system", "hermite", "--beta", "1", "--n-max", "0"]),
        ("--n-max", ["complexity", "--system", "hermite", "--beta", "1", "--n-max", "-4"]),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"configuration error: {flag}: "), (argv, err)
    # an empty time list would check nothing and pass; argparse rejects it
    with pytest.raises(SystemExit) as exc:
        main(["heisenberg-check", "--system", "racah", "--t-grid"])
    assert exc.value.code == 2 and "--t-grid" in capsys.readouterr().err


def test_moments_json_embeds_config(capsys):
    code, out, _ = run(
        capsys,
        "moments", "--system", "meixner", "--beta", "1", "--format", "json", "-K", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["system"] == "meixner"
    assert doc["config"]["mode"] == "bigreal"
    assert doc["truncation"]["n_max"] > 0
    assert len(doc["mu"]) == 7


def test_determinism_byte_identical(capsys, tmp_path):
    argv = [
        "moments", "--system", "q-racah", "-N", "5",
        "--param", "q=1/2", "--param", "d=1/2", "--param", "a=1/256", "--param", "b=3/4",
        "--mode", "exact", "-K", "5",
    ]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(f1)]) == 0
    assert main(argv + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_lanczos_report(capsys):
    code, out, _ = run(
        capsys,
        "lanczos", "--system", "krawtchouk", "-N", "5", "--param", "p=1/2",
        "--mode", "exact", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "StopsAtO2"
    assert doc["stop_index"] == 2
    assert len(doc["b_squared"]) == 2
    assert doc["hankel"]["lhs"] == doc["hankel"]["rhs"]


def test_lanczos_classification_is_the_verify_stop_row(capsys):
    # both commands read the label off one SystemChecks per system
    code, out, _ = run(capsys, "verify", "--all", "--format", "json")
    assert code == 0
    systems = json.loads(out)["systems"]
    assert len(systems) == 16
    for system in systems:
        thermal = system["config"]["beta"] is not None
        argv = ["lanczos", "--system", system["system"], "--format", "json"] + ["--beta", "1"] * thermal
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        (got,) = [c["got"] for c in system["checks"] if c["name"].endswith("_is_zero") or c["name"] == "chain_classification"]
        assert json.loads(out)["classification"] == got, argv


def test_complexity_profile_csv(capsys):
    code, out, _ = run(
        capsys,
        "complexity", "--system", "krawtchouk", "-N", "3", "--param", "p=1/2",
        "--t-grid", "0", "2", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("t,K,phi_0")
    assert len(lines) == 7


def test_complexity_records_its_cut(capsys):
    grid = ["--t-grid", "0", "1", "2", "--format", "json"]
    cuts = []
    for argv in (
        ["--system", "krawtchouk", "-N", "3", "--param", "p=1/2"],
        ["--system", "hermite", "--beta", "1", "--n-max", "12"],
        ["--system", "hermite", "--beta", "1"],
    ):
        code, out, _ = run(capsys, "complexity", *argv, *grid)
        assert code == 0, argv
        cuts.append(json.loads(out)["meta"]["n_max"])
    spec = make_system("hermite", None, {}, Context("bigreal", 50))
    pair, _ = SystemChecks(spec, "1", 6, None).pair
    assert cuts == [3, 12, pair.dim - 1]


def test_heisenberg_check_passes(capsys):
    code, out, _ = run(
        capsys,
        "heisenberg-check", "--system", "dual-hahn", "-N", "4",
        "--param", "a=1", "--param", "b=2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 4


def test_verify_single_system(capsys):
    code, out, _ = run(capsys, "verify", "--system", "krawtchouk", "-N", "4", "--param", "p=1/3")
    assert code == 0
    assert "all checks passed" in out
    assert "b3_is_zero" in out


def test_verify_thermal_oracle_beyond_the_cut(capsys):
    # the oracle pair must reach past the closed form's last term
    code, out, _ = run(capsys, "verify", "--system", "gegenbauer", "--precision", "60")
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed"


def test_moments_thermal_tail_at_beta_half(capsys):
    code, out, _ = run(capsys, "moments", "--system", "charlier", "--beta", "1/2", "-K", "2")
    assert code == 0
    assert len(out.splitlines()) == 2 + 5


def test_verify_requires_target(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "--system" in err


def test_verify_small_k_runs_every_check(capsys):
    # b_3 and the b_1..b_3 closed forms need mu_6, i.e. K >= 3
    code, out, _ = run(capsys, "verify", "--system", "krawtchouk", "-K", "2")
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed"
    rows = {line.split()[1]: line for line in out.splitlines()[:-1]}
    assert "setup" not in rows
    assert "not applicable" in rows["b123_closed_forms"]
    assert "not applicable" in rows["b3_is_zero"]
    _, full, _ = run(capsys, "verify", "--system", "krawtchouk")
    assert set(rows) == {line.split()[1] for line in full.splitlines()[:-1]}


def test_k_below_one_rejected(capsys):
    for command in ("moments", "verify"):
        for k in ("0", "-1"):
            code, out, err = run(capsys, command, "--system", "krawtchouk", "-K", k)
            assert code == 2, (command, k)
            assert out == ""
            assert err.startswith("configuration error: -K:"), (command, k)


def test_verify_bigreal_decomposes_h_once(capsys, monkeypatch):
    # the position pair and the doubled pair of the scaling check each ask
    # for their eigenbasis once; implicit QL runs once for both, since 2H
    # has the eigenvalues 2E and the same Q
    calls = []
    real = operators.eig_symmetric

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "eig_symmetric", counting)
    numeric._implicit_ql.cache_clear()
    code, out, _ = run(capsys, "verify", "--system", "hahn", "--mode", "bigreal")
    assert code == 0
    assert "heisenberg_closed_form_vs_oracle" in out and "profile_sum_rule" in out
    assert len(calls) == 2
    assert numeric._implicit_ql.cache_info().misses == 1


def test_verify_report_independent_of_earlier_contexts(capsys, monkeypatch):
    monkeypatch.setattr(mpmath.mp, "dps", 15)  # start from mpmath's default
    before = run(capsys, "verify", "--system", "gegenbauer")
    assert before[0] == 0
    big = Context("bigreal", 300)
    big.sqrt(big.num(2))
    assert run(capsys, "verify", "--system", "gegenbauer") == before


def test_version_names_backends(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert f"rationals: {RATIONAL_BACKEND}" in out
    assert f"mpmath backend: {mpmath.libmp.BACKEND}" in out


@pytest.mark.parametrize("system", ["racah", "quantum-q-krawtchouk", "q-racah"])
def test_verify_unbuildable_system_is_a_config_error(capsys, system):
    # the N=6 default parameters are invalid at N=12 for these systems
    code, out, err = run(capsys, "verify", "--system", system, "-N", "12")
    assert code == 2 and out == ""
    assert err.startswith("configuration error: --param:")
    assert code == run(capsys, "moments", "--system", system, "-N", "12")[0]


def test_verify_defaults_valid_at_any_n(capsys):
    code, out, _ = run(capsys, "verify", "--system", "krawtchouk", "-N", "12")
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed"


def test_n_and_params_resolve_alike_in_every_command(capsys):
    # without --param, the default sample's parameters at the given N
    code, out, err = run(capsys, "heisenberg-check", "--system", "hahn", "-N", "2", "--format", "json")
    assert code == 0, err
    config = json.loads(out)["config"]
    verify_code, verify_out, _ = run(
        capsys, "verify", "--system", "hahn", "-N", "2", "--mode", "bigreal", "--format", "json"
    )
    assert verify_code == 0
    verified = json.loads(verify_out)["systems"][0]["config"]
    assert (config["N"], config["params"]) == (verified["N"], verified["params"]) == (2, {"a": "1.0", "b": "1.5"})
    # without -N, the default sample's N for the given parameters
    for command in ("moments", "verify"):
        code, out, _ = run(capsys, command, "--system", "hahn", "--param", "a=1", "--param", "b=3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        resolved = doc["config"] if command == "moments" else doc["systems"][0]["config"]
        assert (resolved["N"], resolved["params"]) == (6, {"a": "1", "b": "3"})


def _unbuildable(monkeypatch):
    """Make every system fail at set-up inside ``verify``."""

    def fail(kind, *args, **kwargs):
        raise ParameterOutOfRange(f"{kind.value}: unbuildable")

    monkeypatch.setattr(krylov_exact.cli, "make_system", fail)


def test_verify_all_reports_setup_rows(capsys, monkeypatch):
    _unbuildable(monkeypatch)
    code, out, err = run(capsys, "verify", "--all")
    assert code == 1 and err == ""
    rows = out.splitlines()
    assert rows[-1] == "FAILURES present"
    assert len(rows[:-1]) == 16 and all(r.split()[1] == "setup" for r in rows[:-1])


@pytest.mark.parametrize(
    "argv",
    [["--system", "gegenbauer"], ["--system", "krawtchouk", "-K", "2"], ["--all"]],
)
def test_verify_json_matches_the_table(capsys, monkeypatch, argv):
    if argv == ["--all"]:
        _unbuildable(monkeypatch)  # setup rows in both formats
    code, text, _ = run(capsys, "verify", *argv)
    json_code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    doc = json.loads(out)
    assert json_code == code
    assert doc["passed"] is (text.splitlines()[-1] == "all checks passed")
    # one text row per check, or per system that could not be set up
    table = [(line.split()[0], line.split()[2] == "pass") for line in text.splitlines()[:-1]]
    rows = [
        (s["system"], c["passed"])
        for s in doc["systems"]
        for c in (s["checks"] if "checks" in s else [{"passed": False}])
    ]
    assert rows == table
    assert all(set(c) == {"name", "expected", "got", "passed"} for s in doc["systems"] for c in s.get("checks", []))
    configured = [s for s in doc["systems"] if "config" in s]
    assert all(s["config"]["system"] == s["system"] for s in configured)


@pytest.mark.parametrize("system,beta", [("gegenbauer", "1/2"), ("laguerre", "1")])
def test_heisenberg_check_runs_on_the_verify_pair(capsys, system, beta):
    # Gegenbauer at beta=1/2 is certified at cut 12 by the K=6 closed form
    # and at cut 11 by a K=2 one; both commands must check the same pair
    code, out, _ = run(capsys, "heisenberg-check", "--system", system, "--beta", beta, "--format", "json")
    assert code == 0
    devs = [row["max_deviation"] for row in json.loads(out)["checks"]]
    code, out, _ = run(capsys, "verify", "--system", system, "--beta", beta, "--format", "json")
    assert code == 0
    (checks,) = [s["checks"] for s in json.loads(out)["systems"]]
    (got,) = [c["got"] for c in checks if c["name"] == "heisenberg_closed_form_vs_oracle"]
    with mpmath.workdps(60):
        assert mpmath.mpf(got) == max(mpmath.mpf(d) for d in devs)


def test_k_sets_the_thermal_truncation(capsys):
    argv = ["heisenberg-check", "--system", "gegenbauer", "--beta", "1/2"]
    code2, out2, _ = run(capsys, *argv, "-K", "2")
    code6, out6, _ = run(capsys, *argv, "-K", "6")
    assert code2 == code6 == 0
    assert out2.splitlines()[1:] != out6.splitlines()[1:]


def _fractions(m: Mantissas) -> tuple:
    """The exact (re, im) of a Mantissas as Fraction arrays."""
    re, im, exp = m.merged()
    scale = Fraction(2) ** exp
    return tuple(np.zeros(re.shape, dtype=object) if p is None else p * scale for p in (re, im))


@pytest.mark.slow
def test_every_product_equals_per_entry_dots(capsys, monkeypatch):
    """Opt-in (``pytest -m slow``): every Context.matmul that
    ``verify --all --mode bigreal`` and thermal ``complexity`` make is
    recomputed.  A product of two factors is recomputed entry by entry
    with Context.dot and must agree in type and value; a longer chain is
    the exact product of its factors, each part rounded once.  A left
    operand with summed columns is recomputed from its source against the
    right operand's rows expanded by the same groups.  Every exact
    Mantissas.product, those of the eigenbasis moves included, is
    recomputed in ``Fraction`` arithmetic from its factors' values."""
    sources, products = {}, []  # id(Mantissas) -> (it, source array, groups)
    mantissas, summed_columns = Context.mantissas, Mantissas.summed_columns
    matmul, product = Context.matmul, Mantissas.product

    def remembering(self, a):
        m = mantissas(self, a)
        if id(m) not in sources:
            sources[id(m)] = (m, a, None)
        return m

    def remembering_sums(self, groups, count):
        m = summed_columns(self, groups, count)
        sources[id(m)] = (m, sources[id(self)][1], groups)
        return m

    def checked(self, *factors):
        out = matmul(self, *factors)
        (_, a, groups), *rest = (sources.get(id(x), (x, x, None)) for x in factors)
        rest = [r for _, r, _ in rest]
        rest[0] = rest[0] if groups is None else rest[0][groups]
        if len(rest) == 1:
            for (i, j), x in np.ndenumerate(out):
                ref = self.dot(a[i], rest[0][:, j])
                assert type(x) is type(ref) and x == ref
        else:
            re, im = exact_chain([a, *rest])
            for index, x in np.ndenumerate(out):
                parts = (x.real, x.imag) if hasattr(x, "_mpc_") else (x, self.zero)
                assert parts == (rounded_value(self.mp, re[index]), rounded_value(self.mp, im[index]))
        return out

    def checked_product(self, *others):
        out = product(self, *others)
        re, im = _fractions(self)
        for other in others:
            o_re, o_im = _fractions(other)
            re, im = re @ o_re - im @ o_im, re @ o_im + im @ o_re
        got_re, got_im = _fractions(out)
        assert got_re.tolist() == re.tolist() and got_im.tolist() == im.tolist()
        products.append(1)
        return out

    monkeypatch.setattr(Context, "mantissas", remembering)
    monkeypatch.setattr(Mantissas, "summed_columns", remembering_sums)
    monkeypatch.setattr(Context, "matmul", checked)
    monkeypatch.setattr(Mantissas, "product", checked_product)
    assert run(capsys, "verify", "--all", "--mode", "bigreal")[0] == 0
    # ten position pairs: at least a Heisenberg check and a profile each
    assert len(products) > 10 * 20
    before = len(products)
    for system in ("meixner", "charlier", "hermite", "laguerre", "gegenbauer", "jacobi"):
        assert run(capsys, "complexity", "--system", system, "--beta", "1")[0] == 0
    # at least one product per time of the default 21-point grid
    assert len(products) - before >= 6 * 21


def test_complexity_runs_the_untruncated_two_level_pair(capsys):
    code, out, _ = run(capsys, "complexity", "--system", "krawtchouk", "-N", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["stop_index"] == 2 and doc["meta"]["n_max"] == 1
    with mpmath.workdps(60):
        worst = max(abs(sum(mpmath.mpf(v) ** 2 for v in row) - 1) for row in doc["phi"])
        assert worst <= mpmath.mpf("1e-30")


def test_verify_expects_the_stop_at_o2_for_every_two_level_system(capsys):
    for kind in FINITE_KINDS:
        code, out, _ = run(capsys, "verify", "--system", kind.value, "-N", "1")
        assert code == 0, kind
        rows = {line.split()[1]: line.split()[2] for line in out.splitlines()[:-1]}
        assert rows["b3_is_zero"] == "pass" and "chain_classification" not in rows, kind


@pytest.mark.parametrize("system", ["hahn", "q-racah"])
@pytest.mark.parametrize("mode", ["exact", "bigreal"])
def test_verify_checks_a_known_stop_below_k(capsys, system, mode):
    # N = 2: the closed-form stop is 4 < K = 6, so b_5 = 0 is checked
    code, out, _ = run(capsys, "verify", "--system", system, "-N", "2", "--mode", mode)
    assert code == 0
    rows = {line.split()[1]: line.split(None, 3)[2:] for line in out.splitlines()[:-1]}
    assert "chain_classification" not in rows
    assert rows["b5_is_zero"] == ["pass", "expected: stop at O_4; got: StopsAtO4"]


def test_a_failing_value_marks_only_the_rows_that_read_it(capsys):
    # at 50 digits the Jacobi moments through mu_20 give b_9^2 < 0, which
    # only the rows reading the moment-route b^2 see
    code, out, _ = run(capsys, "verify", "--system", "jacobi", "-K", "10")
    assert code == 1
    rows = [line.split(None, 3) for line in out.splitlines()[:-1]]
    _, full, _ = run(capsys, "verify", "--system", "jacobi")
    assert [r[1] for r in rows] == [line.split()[1] for line in full.splitlines()[:-1]]
    failed = {name: got for _, name, status, got in rows if status == "FAIL"}
    assert list(failed) == [
        "lanczos_recursion_vs_operator_chain",
        "b123_closed_forms",
        "chain_roundtrip",
        "chain_classification",
        "hankel_identity_n2",
    ]
    assert all(got.split("got: ")[1].startswith("error: b_9^2 = ") and got.endswith("< 0") for got in failed.values())
    code, out, _ = run(capsys, "verify", "--system", "jacobi", "-K", "10", "--format", "json")
    (system,) = json.loads(out)["systems"]
    assert code == 1 and "error" not in system
    assert [c["name"] for c in system["checks"] if not c["passed"]] == list(failed)
