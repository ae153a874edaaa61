"""The benchmark's pinned outputs, replayed in-process.

``bench/workloads.py`` pins the exit code and stdout of 21 ``qrs``
invocations, and the tally digest and estimate of every ``honest-sample``
grid point, in ``bench/reference.json``. These tests run the same
invocations through ``main``, and a sample of the grid points through the
workload's own op, so that a change to any printed digit or any drawn
count shows up in the test suite, not only when the benchmark runs. The
reference file is only read.
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


def test_honest_sample_matches_reference():
    """Every 11th honest grid point, one per visibility, reproduces its
    pinned tally digest bit for bit and its estimate and standard error
    exactly, so RNG or floating-point drift in the sampler or estimator
    fails here."""
    workloads = load_workloads()
    references = workloads.load_references()["honest-sample"]
    sample = workloads.HonestSample()
    assert len(references) == sample.corpus_size
    checked = 0
    for index in range(0, sample.corpus_size, 11):
        item = sample.item(index)
        out = sample.op(item)
        ref = references[str(index)]
        assert sample.check(item, out, ref) == [], index
        assert (out[2].value, out[2].stderr) == (ref["estimate"], ref["stderr"]), index
        checked += 1
    assert checked == 21
