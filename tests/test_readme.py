"""The README's claims: the Library example prints what its comments say, the
Command line block runs, the Thresholds table gives the value of each module
constant it names, the tolerance flags it lists per subcommand are the ones
the parser takes, coefficient-tensor JSON has its keys in the order shown, and
the package exports its modules' __all__ lists."""

import contextlib
import dataclasses
import importlib
import io
import json
import pathlib
import pkgutil
import re
import shlex

import lu3q
from lu3q import BlochTensor, bloch_to_dict
from lu3q.cli import main
from conftest import physical_bloch

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_example_prints_its_comments():
    code = re.search(r"^## Library\n+```python\n(.*?)^```", README, re.S | re.M).group(1)
    claims = [line.split("#", 1)[1].strip() for line in code.splitlines()
              if line.startswith("print(")]
    assert len(claims) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == claims


def test_thresholds_table_matches_module_constants():
    table = README[README.index("### Thresholds"):README.index("## JSON formats")]
    rows = re.findall(r"^\| `(\w+)` \| (\S+) \| `(\w+)` \|", table, re.M)
    assert len(rows) == 12
    for name, value, module in rows:
        assert getattr(importlib.import_module(f"lu3q.{module}"), name) == float(value), name


def test_tolerance_flags_per_subcommand_match_the_parser(capsys):
    tolerance_flags = ("--tol-abs", "--tol-rel", "--zero-tol", "--deg-tol")
    taken = {}
    for command in ("decompose", "fingerprint", "compare", "orbit-test", "reconstruct", "example"):
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out
        taken[command] = {f for f in tolerance_flags if f"[{f} " in usage}
    names = lambda text: set(re.findall(r"`([\w-]+)`", text))
    section = README[README.index("Each subcommand takes only"):README.index("### Thresholds")]
    listed = {}
    for commands, flags in re.findall(r"^- ((?:`[\w-]+`(?:, )?)+): (.+)$", section, re.M):
        listed.update((command, names(flags)) for command in names(commands))
    assert listed == {c: f for c, f in taken.items() if f}
    table = README[README.index("### Thresholds"):README.index("## JSON formats")]
    columns = dict(re.findall(r"\| `(--[\w-]+)` \(([^)]*)\) \|$", table, re.M))
    assert set(columns) == set(tolerance_flags)
    for flag, commands in columns.items():
        assert names(commands) == {c for c, f in taken.items() if flag in f}, flag


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", README, re.S | re.M).group(1)
    lines = block.splitlines()
    commands = [i for i, line in enumerate(lines) if line.startswith("lu3q ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for i in commands:
        argv = shlex.split(lines[i])[1:]
        assert main(argv) == 0, lines[i]
        out = capsys.readouterr().out
        if argv[0] == "compare":
            shown = []
            for line in lines[i + 1:]:
                if not line.startswith("#"):
                    break
                shown.append(line[1:])
            assert json.loads(out) == json.loads("".join(shown))
            assert json.loads(out)["verdict"] == "equivalent"


def test_coefficient_tensor_keys_in_readme_order(rng):
    block = README[README.index("Coefficient tensor"):README.index("`fingerprint` emits")]
    keys = re.findall(r'"(\w+)":', block)
    assert keys == [f.name for f in dataclasses.fields(BlochTensor)]
    assert list(bloch_to_dict(physical_bloch(rng))) == keys


def test_package_exports_each_module_list():
    assert len(lu3q.__all__) == len(set(lu3q.__all__))
    modules = [importlib.import_module(f"lu3q.{info.name}")
               for info in pkgutil.iter_modules(lu3q.__path__)]
    owners = {attr: module for module in modules for attr in getattr(module, "__all__", ())}
    assert sorted(owners) == sorted(lu3q.__all__)
    for attr, module in owners.items():
        assert getattr(lu3q, attr) is getattr(module, attr), attr
