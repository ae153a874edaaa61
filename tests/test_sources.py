"""Source-level checks that need no import of the code they read."""

import ast
from pathlib import Path

import qrsgame

# The oldest Python that pyproject.toml's requires-python and the CI matrix
# admit.
OLDEST_PYTHON = (3, 10)


def test_package_parses_on_oldest_python():
    """Syntax newer than 3.10 (except*, type statements, PEP 695 generics)
    would break the package there even though every test here passes."""
    paths = sorted(Path(qrsgame.__file__).parent.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)
