"""README.md as the tests that hold it to the code read it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def section(heading):
    """The README's text under a '## ' heading, up to the next one."""
    text = README.read_text()
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def fenced(text, lang):
    """The lines of each of text's fenced blocks tagged lang."""
    return [body.splitlines() for tag, body in FENCED.findall(text)
            if tag == lang]
