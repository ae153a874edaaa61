"""The benchmark's CLI contract, replayed in-process.

``bench/workloads.py`` pins the exit code and stdout of 21 ``qrs``
invocations in ``bench/reference.json``. This test runs the same
invocations through ``main`` so that a change to any printed digit shows
up in the test suite, not only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

from qrsgame.cli import main

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look themselves up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_cli_session_matches_reference(tmp_path, monkeypatch, capsys):
    workloads = load_workloads()
    references = workloads.load_references()["cli-session"]
    items = workloads.CliSession().corpus(tmp_path)
    assert len(items) == len(references)
    monkeypatch.chdir(tmp_path)
    problems = []
    for item in items:
        argv, _ = item.data
        code = main(argv)
        out = capsys.readouterr().out
        ref = references[str(item.index)]
        if code != ref["code"]:
            problems.append(f"{argv}: exit code {code} != {ref['code']}")
        diff = workloads.compare_stdout(out, ref["stdout"])
        if diff is not None:
            problems.append(f"{argv}: {diff}")
    assert problems == []
