"""The README's library tour runs against the package's current exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(block, {})
