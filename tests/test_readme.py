"""The README's Library section: its example runs, and the names it lists
with their reasons are exactly aquiver.__all__."""

import contextlib
import io
import re
from pathlib import Path

import aquiver

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().startswith("['P_")


def test_library_section_lists_every_public_name():
    # each bullet after the example gives one reason a name is kept
    after = _library_section().split("\n```\n", 1)[1]
    bullets = next(par for par in after.split("\n\n") if par.startswith("- "))
    listed = re.findall(r"`([A-Za-z_]\w*)`", bullets)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert sorted(listed) == sorted(aquiver.__all__)
