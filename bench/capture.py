"""Recompute ``reference.json``: every corpus item's output, as the package gives it now.

Usage, from the root of a source checkout:

    python3 bench/capture.py

The references pin the outputs of the commit at which the benchmark was
defined; rerun this only when a change to the package is meant to alter
them, and say so in the change.
"""

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    for name, wl in workloads.WORKLOADS.items():
        items = wl.corpus(ROOT)
        refs[name] = {str(it.index): wl.reference(it, wl.op(it)) for it in items}
        print(f"{name}: {len(items)} references", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
