"""The documented public surface stays importable.

The README's "Library quick start" block is run as written, so a public
name it uses that is removed or renamed fails here; every name in
oscmlab.__all__ must resolve, once.
"""

from collections import Counter

import oscmlab

from readme import README, fenced, section


def test_readme_quick_start_runs():
    block = "\n".join(fenced(section("Library quick start"), "python")[0])
    exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves_once():
    repeated = [name for name, n in Counter(oscmlab.__all__).items() if n > 1]
    assert repeated == []
    missing = [name for name in oscmlab.__all__ if not hasattr(oscmlab, name)]
    assert missing == []
