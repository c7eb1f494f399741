"""The README's examples run and print what the README shows."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from copoly.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block_after(marker: str, lang: str = "") -> str:
    """The body of the first fenced block tagged ``lang`` after ``marker``."""
    fence = re.compile(rf"^```{lang}\n(.*?)^```$", re.DOTALL | re.MULTILINE)
    return fence.search(README, README.index(marker)).group(1)


def test_quick_start_prints_its_comments():
    """Each ``print`` of the quick start prints the text of its ``# ...`` comment."""
    code = _block_after("## Quick start", "python")
    shown = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    assert len(shown) == 3
    assert out.getvalue().splitlines() == shown


def test_compute_example_prints_the_shown_rows(capsys):
    assert "copoly compute --family laguerre --alpha 1/2 --n 3\n" in README
    shown = _block_after("`compute` prints the rows with their `mu` eigenvalues:")
    assert main(["compute", "--family", "laguerre", "--alpha", "1/2", "--n", "3"]) == 0
    assert capsys.readouterr().out == shown


def test_ci_list_names_every_workflow_step():
    """The "Continuous integration" list names each ``- name:`` step in order, in bold,
    and each ``- uses:`` step as code."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    start = README.index("### Continuous integration\n")
    section = README[start:README.index("\n## ", start)]
    listed = re.findall(r"^\* \*\*(.+?)\*\*", section, re.MULTILINE)
    assert listed == re.findall(r"^ +- name: (.+)$", workflow, re.MULTILINE)
    actions = re.findall(r"^ +- uses: (\S+)$", workflow, re.MULTILINE)
    assert actions and all(f"`{action}`" in section for action in actions)
