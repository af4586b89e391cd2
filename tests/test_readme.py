"""The README's claims: the Library example prints what its comments say, and
the Thresholds table gives the value of each module constant it names."""

import contextlib
import importlib
import io
import pathlib
import re

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
