import json


from krylov_exact.cli import main


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


def test_verify_requires_target(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "--system" in err


def test_env_precision_override(capsys, monkeypatch):
    monkeypatch.setenv("KRYLOV_EXACT_PRECISION", "40")
    code, out, _ = run(
        capsys, "moments", "--system", "charlier", "--beta", "1", "--format", "json", "-K", "2"
    )
    assert code == 0
    assert json.loads(out)["config"]["precision"] == 40
    monkeypatch.setenv("KRYLOV_EXACT_PRECISION", "junk")
    code, _, err = run(capsys, "moments", "--system", "charlier", "--beta", "1")
    assert code == 2 and "KRYLOV_EXACT_PRECISION" in err


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
