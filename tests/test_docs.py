"""The README's command-line and library examples run as written against
the package, and the module functions it names exist."""

import importlib
import re
import shlex
from pathlib import Path

from helpers import clustered_dataset

import pmltk
from pmltk.cli import main
from pmltk.data import save

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return section, code


def test_library_example_runs(tmp_path, monkeypatch):
    # the example reads original.sml from the working directory
    save(clustered_dataset(n=48, d=5, l=4, groups=3, seed=21), tmp_path / "original.sml",
         "sparse-multilabel")
    monkeypatch.chdir(tmp_path)
    _, code = library_block()
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert 0.0 <= scope["report"].ap <= 1.0


def test_library_section_names_exist():
    section, _ = library_block()
    names = set(re.findall(r"\bpmltk\.(\w+)", section))
    assert {"load", "fit", "run_benchmark", "ExperimentConfig"} <= names
    assert [n for n in sorted(names) if not hasattr(pmltk, n)] == []
    assert callable(pmltk.select_lambda2)


def test_command_line_example_runs(tmp_path, monkeypatch, capsys):
    # the example reads original.sml and test.sml from the working directory
    save(clustered_dataset(n=48, d=5, l=4, groups=3, seed=21), tmp_path / "original.sml",
         "sparse-multilabel")
    save(clustered_dataset(n=20, d=5, l=4, groups=3, seed=22), tmp_path / "test.sml",
         "sparse-multilabel")
    monkeypatch.chdir(tmp_path)
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    [block] = re.findall(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    lines = block.splitlines()
    assert len(lines) == 6 and all(line.startswith("pmltk ") for line in lines)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
    assert (tmp_path / "report.csv").read_text().startswith("split,")


def test_bad_settings_exit_1_before_any_read(tmp_path, capsys):
    # the settings the README lists as failing before any file is read
    text = " ".join(README.read_text(encoding="utf-8").split())
    [listed] = re.findall(r"a bad setting \((.*?)\) exits with code 1 before any file is read",
                          text)
    settings = re.findall(r"`(--[\w-]+ \S+)`", listed)
    assert settings == ["--lambda2 nan", "--cv-folds 1", "--alpha 2", "--lambda2-grid -1",
                        "--seed -1"]
    for setting in settings:
        # the dataset does not exist: a read would exit 2
        assert main(["benchmark", str(tmp_path / "missing.sml"), *setting.split()]) == 1, setting
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: "), setting


def test_module_qualified_names_resolve():
    # every backticked `pipeline.X`, `pmltk.data.X`, ... names a real attribute
    text = README.read_text(encoding="utf-8")
    modules = "pipeline|data|trainer|metrics|enrichment|graph|_blas|cli"
    names = re.findall(rf"`(?:pmltk\.)?({modules})\.(\w+)[^`]*`", text)
    assert names
    missing = [f"{module}.{name}" for module, name in sorted(set(names))
               if not hasattr(importlib.import_module(f"pmltk.{module}"), name)]
    assert missing == []
