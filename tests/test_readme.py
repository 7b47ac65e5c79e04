"""README's examples run as written, and the public names all resolve."""

import re
import shlex
from pathlib import Path

import krylov_exact
from krylov_exact.catalog import REQUIRED_PARAMS, SystemKind
from krylov_exact.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def test_quick_tour_runs():
    (tour,) = _blocks("python")
    exec(compile(tour, "README.md", "exec"), {})


def test_command_lines_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # commands may write --output files
    commands = [
        shlex.split(line, comments=True)
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("krylov-exact ")
    ]
    assert len(commands) >= 7
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()


def test_public_names_resolve():
    missing = [name for name in krylov_exact.__all__ if not hasattr(krylov_exact, name)]
    assert missing == []


def test_catalog_table_matches_the_code():
    """The catalog table lists every system in the order of `SystemKind`,
    with its class and its parameters as the catalog defines them."""
    header = "| system | class | parameters | spectrum |\n|---|---|---|---|\n"
    body = README.split(header, 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in body.splitlines()]
    got = [(name, cls.split()[0], params.strip("`")) for name, cls, params, _ in rows]
    want = [
        (kind.value, "finite" if kind.is_finite else "thermal", ", ".join(REQUIRED_PARAMS[kind]) or "--")
        for kind in SystemKind
    ]
    assert got == want
