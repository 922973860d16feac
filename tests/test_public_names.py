"""The documented public surface stays importable.

The README's "Library quick start" block is run as written, so a public
name it uses that is removed or renamed fails here; every name in
oscmlab.__all__ must resolve, once.
"""

import re
from collections import Counter
from pathlib import Path

import oscmlab

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs():
    exec(compile(quick_start_block(), str(README), "exec"), {})


def test_every_exported_name_resolves_once():
    repeated = [name for name, n in Counter(oscmlab.__all__).items() if n > 1]
    assert repeated == []
    missing = [name for name in oscmlab.__all__ if not hasattr(oscmlab, name)]
    assert missing == []
