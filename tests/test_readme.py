"""The README's library example runs as written, and its names exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import kpca_ood

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
