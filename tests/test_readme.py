"""The README's library example runs as written, its CLI commands parse
and run, and its names exist."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np

import kpca_ood
from kpca_ood import baselines, cli, fileio

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "auroc" in capsys.readouterr().out


def test_module_references_resolve():
    # Every `module.name` (or `module.name(...)`) whose module is one of the
    # package's names an attribute of that module.
    modules = {m.name for m in pkgutil.iter_modules(kpca_ood.__path__)}
    found = re.findall(r"`(\w+)\.(\w+)[`(]", README.read_text())
    refs = {(m, name) for m, name in found if m in modules}
    assert len(refs) >= 10
    missing = [f"{m}.{name}" for m, name in sorted(refs)
               if not hasattr(importlib.import_module(f"kpca_ood.{m}"), name)]
    assert missing == []


def test_cli_commands_parse():
    # Every `kpca-ood ...` command of the sh blocks, continuation lines
    # joined and comments dropped, passes the parser and the argument gate.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["kpca-ood"]]
    assert len(commands) >= 9
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        cli._check_args(args)


def test_cli_walkthrough_runs(tmp_path, monkeypatch):
    # Every `kpca-ood ...` command of the sh blocks runs in order and exits
    # 0. The fuse block reads two files no command above it writes: a pca
    # model, and energy.csv made the way the README says.
    monkeypatch.chdir(tmp_path)
    ran = 0
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines]
        commands = [argv[1:] for argv in commands if argv[:1] == ["kpca-ood"]]
        if any(argv[0] == "fuse" for argv in commands):
            assert cli.main(["fit", "--train", "data.ind.oodf", "--method", "pca",
                             "--out", "pca.oodm"]) == 0
            logits = fileio.load_features("data.ood.oodf")
            fileio.save_scores("energy.csv", np.arange(len(logits)),
                               baselines.energy_score(logits))
        for argv in commands:
            assert cli.main(argv) == 0, argv
            ran += 1
    assert ran >= 9
