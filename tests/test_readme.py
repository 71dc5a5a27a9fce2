"""The Quick start block of README.md runs, and prints what its result
comments say."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Quick start (Python)", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _expected_output(block: str) -> list[str]:
    """The result comment of each ``print`` line: its own trailing
    ``# ...``, else the comment line right after it."""
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            _, sep, comment = line.partition("#")
            out.append(comment.strip() if sep else lines[i + 1].removeprefix("# ").strip())
    return out


def test_quick_start_prints_its_result_comments():
    block = _quick_start()
    want = _expected_output(block)
    assert len(want) == 2  # min_distance/is_mds, and the verify_lift summary
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, str(README), "exec"), {})
    assert buf.getvalue().splitlines() == want
