import re
from pathlib import Path

import curvedflats

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_bind_and_readme_session_runs():
    # Every exported name binds under a star import, and the README's
    # library session runs as written: a stale export or a stale example
    # fails here.
    namespace = {}
    exec("from curvedflats import *", namespace)
    assert [n for n in curvedflats.__all__ if n not in namespace] == []
    session = re.search(
        r"A minimal library session:\n\n```python\n(.*?)```", README.read_text(), re.S
    )
    assert session is not None
    exec(compile(session.group(1), str(README), "exec"), {})
