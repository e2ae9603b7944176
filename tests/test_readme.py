"""README's code examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the library example writes the report set with its paired baseline
    assert len(list((tmp_path / "reports").iterdir())) == 14
    rejections = (tmp_path / "reports" / "rejections.csv").read_text(encoding="utf-8")
    assert rejections.startswith("metric,with_psg,without_psg\n")
