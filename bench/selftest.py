"""Self-test of the benchmark itself.

Usage, from the root of a source checkout:

    python3 bench/selftest.py

For every workload it injects one wrong reference value and asserts that
the op using it is counted as failed, then runs a short end-to-end and a
short traced pass and asserts that the metric names and units are exactly
those declared in BENCHMARK.json. Finally it runs the whole command with
one wrong reference and asserts a nonzero exit and a nonzero error rate.
"""

import contextlib
import copy
import io
import json
import re
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def corrupt(refs: dict, wl, item) -> dict:
    """Copy of ``refs`` with one value of ``item``'s reference made wrong."""
    bad = copy.deepcopy(refs)
    ref = bad[wl.name][str(item.index)]
    if "stdout" in ref:
        ref["stdout"] = re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), ref["stdout"], 1)
    else:
        key = next(k for k, v in ref.items() if isinstance(v, float))
        ref[key] += 1e-6
    return bad


def declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def main() -> int:
    refs = workloads.load_references()
    env = workloads.src_env(ROOT)
    for name, wl in workloads.WORKLOADS.items():
        items = wl.generate(0, ROOT)
        log = run.run_ops(wl, items, corrupt(refs, wl, items[0]), count=1)
        assert log.failed == 1, f"{name}: a wrong reference went unnoticed"

        log, metrics, _, _ = run.end_to_end(wl, refs, 0.2, 0, env)
        assert log.failed == 0, f"{name}: {log.problems}"
        assert units(metrics) == declared("end_to_end"), f"{name}: end-to-end names differ"

        wl.trace_ops = 2
        log, metrics, _, _ = run.per_layer(wl, items, refs, env)
        assert log.failed == 0, f"{name}: {log.problems}"
        assert units(metrics) == declared("per_layer"), f"{name}: per-layer names differ"
        print(f"{name}: checks fail on a wrong reference; metric names match", file=sys.stderr)

    wl = workloads.WORKLOADS["honest-sample"]
    bad = corrupt(refs, wl, wl.generate(0, ROOT)[0])
    workloads.load_references = lambda: bad
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", wl.name, "--seed", "0", "--seconds", "1", "--trace", "0"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code != 0, "command exited 0 with a failed check"
    assert result["failed"] > 0 and not result["correct"], result
    print("command: exits nonzero when error_rate > 0", file=sys.stderr)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
