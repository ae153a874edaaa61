"""tools/srcstats.py, the line splitter whose tables track the size of src/."""

import importlib.util
from pathlib import Path

SRCSTATS_PATH = Path(__file__).resolve().parents[1] / "tools" / "srcstats.py"

# 20 lines: docstrings on lines 1-2, 9 and 16-17; comments alone on lines 4
# and 10; code on lines 5 (with a comment), 8, 11-12, 15 and 19-20 (a string
# that is not a docstring); the other six are blank.
FIXTURE = '''"""Module docstring
on two lines."""

# A comment line.
import os  # code with a comment


def f(x):
    """One-line docstring."""
    # Indented comment.
    return (x +
            1)


class C:
    """Class
    docstring."""

    TEXT = """a string
    that is not a docstring"""
'''


def load_srcstats():
    spec = importlib.util.spec_from_file_location("srcstats", SRCSTATS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_split_counts_a_fixture_module():
    assert load_srcstats().split(FIXTURE) == [7, 5, 2, 6, 20]


def test_table_of_the_checkout_totals_every_line():
    """Each module's columns add up to its line count, and the table's last
    row sums the columns."""
    srcstats = load_srcstats()
    rows = srcstats.modules()
    assert rows
    for name, (code, doc, comment, blank, total) in rows.items():
        text = (srcstats.ROOT / srcstats.PACKAGE / name).read_text(encoding="utf-8")
        assert code + doc + comment + blank == total == len(text.splitlines()), name
    last = srcstats.table("HEAD", rows).splitlines()[-1].split()
    assert last == ["total", *map(str, map(sum, zip(*rows.values())))]
