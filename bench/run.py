"""qrsgame benchmark: one workload, end-to-end or traced per layer.

Usage, from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``calibrate-counts``, ``soundness-audit``, ``honest-sample``
and ``cli-session`` (see ``workloads.py`` and ``README.md``). Each is a
closed loop: one client in one process, no threads, each op issued when
the previous one returns, after one untimed warm-up op.

``--trace 0`` runs ops for S seconds and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of ops with every traced public name of
qrsgame wrapped (see ``tracer.py``), then the same ops again untraced,
and reports per-layer metrics derived from the spans plus the tracing
overhead. Every op's output is checked; a failed check counts as a failed
op and the command exits 1. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
stamped with the environment, goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
SRC_MODULES = ("qmath", "states", "game", "witness", "cli")

# Span names reported per layer, each as <name>.calls and <name>.self_s.
SPAN_METRICS = (
    "qmath.eig2",
    "qmath.eig4",
    "qmath.partial_trace",
    "qmath.tensor",
    "qmath.is_density_matrix",
    "qmath.real_trace_product",
    "qmath.bloch_to_density",
    "states.RefereeEnsemble",
    "states.referee_state",
    "states.werner_state",
    "game.exact_payoff.honest",
    "game.exact_payoff.lhs",
    "game.exact_payoff.custom",
    "game.joint_probabilities",
    "game.BinaryPovm",
    "game.simulate_runs",
    "game.estimate_payoff",
    "game.realize_lhs_best",
    "witness.rstar_oracle",
    "witness.lhs_bound",
    "witness.t_operator",
    "witness.worst_assignment",
    "witness.ensemble_from_counts",
    "witness.bootstrap_calibration",
    "witness.calibrate",
    "cli.main",
)

SETUP_REPS = 10
STARTUP_REPS = 5
IMPORT_TIMER = (
    "import time{0}; t = time.perf_counter(); import {1}; print(time.perf_counter() - t)"
)


@dataclass
class OpLog:
    latencies: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    work: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def combine(logs: list[OpLog]) -> OpLog:
    out = OpLog()
    for log in logs:
        out.latencies += log.latencies
        out.labels += log.labels
        out.work += log.work
        out.failed += log.failed
        out.problems += log.problems
        out.wall_s += log.wall_s
    return out


def run_ops(
    wl, items, refs, *, seconds=None, count=None, first=0, trace_path=None, recorder=None
):
    """Closed loop over ``items`` from index ``first`` (cycling) for
    ``seconds`` or ``count`` ops."""
    log = OpLog()
    wl_refs = refs[wl.name]
    start = perf_counter()
    deadline = start + seconds if seconds is not None else None
    k = first
    while True:
        item = items[k % len(items)]
        path = None if trace_path is None else str(trace_path(k))
        if recorder is not None:
            recorder.op_id = k
        t0 = perf_counter()
        try:
            out = wl.op(item, path)
            error = None
        except Exception as exc:  # a failed op is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        problems = [error] if error else wl.check(item, out, wl_refs[str(item.index)])
        log.latencies.append(t1 - t0)
        log.labels.append(item.label)
        log.work += wl.work(item)
        if problems:
            log.failed += 1
            if len(log.problems) < 10:
                log.problems.append(f"item {item.index} ({item.label}): {'; '.join(problems)}")
        k += 1
        if (deadline is not None and t1 >= deadline) or (count is not None and k - first >= count):
            break
    log.wall_s = perf_counter() - start
    return log


def _python(args, env=None, timeout=120):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout, check=True,
    )


def median_import_s(module: str, env: dict, reps: int, preload: str = "") -> float:
    """Median in-interpreter import time of ``module`` over fresh interpreters.

    ``preload`` names a module imported, untimed, before the timed import.
    """
    code = IMPORT_TIMER.format(f", {preload}" if preload else "", module)
    return statistics.median(float(_python(["-c", code], env).stdout) for _ in range(reps))


def median_wall_s(args: list[str], env: dict, reps: int) -> float:
    walls = []
    for _ in range(reps):
        t0 = perf_counter()
        _python(args, env)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def setup_once(wl, seed: int, env: dict):
    """One set-up: import qrsgame in a fresh interpreter, then build the inputs.

    numpy is loaded before qrsgame's import is timed. On a 2-vCPU VM its
    own load time swings between runs by tens of milliseconds, mostly
    OpenBLAS thread start-up, and no change to qrsgame can move it. It is
    reported on its own as cli.numpy_import_ms and inside startup_ms.
    """
    import_s = median_import_s("qrsgame", env, 1, preload="numpy")
    t0 = perf_counter()
    items = wl.generate(seed, ROOT)
    return import_s + perf_counter() - t0, items


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def src_lines() -> dict[str, int]:
    pkg = ROOT / "src" / "qrsgame"
    lines = {m: len((pkg / f"{m}.py").read_text().splitlines()) for m in SRC_MODULES}
    lines["total"] = sum(len(p.read_text().splitlines()) for p in sorted(pkg.glob("*.py")))
    return lines


def env_stamp(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qrsgame").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm_up(wl, item) -> None:
    """One untimed op; a failure here shows up again in the measured ops."""
    try:
        wl.op(item)
    except Exception:
        pass


def end_to_end(wl, refs, seconds: float, seed: int, env: dict):
    # Set-up runs SETUP_REPS times: once before the ops, then between
    # equal slices of the timed section. The host alternates for seconds
    # at a time between a fast and a slow state, so set-ups taken back to
    # back all land in one state; spread out, their 90th percentile reads
    # the slow state in nearly every run, as op_p90_ms does.
    setup, items = setup_once(wl, seed, env)
    setups = [setup]
    warm_up(wl, items[0])
    slices = []
    for _ in range(SETUP_REPS - 1):
        first = sum(s.attempted for s in slices)
        slices.append(
            run_ops(wl, items, refs, seconds=seconds / (SETUP_REPS - 1), first=first)
        )
        setups.append(setup_once(wl, seed, env)[0])
    log = combine(slices)
    setup_s = float(np.percentile(setups, 90))
    lat = log.latencies
    busy = sum(lat)
    p90 = float(np.percentile(lat, 90))
    cli = wl.name == "cli-session"
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_p90_ms": metric(p90 * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(children=cli), "MB"),
    }
    extra = {
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "samples": metric(log.attempted, "count"),
        "samples_beyond_p90": metric(sum(x > p90 for x in lat), "count"),
        "wall_s": metric(log.wall_s, "s"),
        "error_rate": metric(log.failed / log.attempted, "ratio"),
    }
    if wl.name == "calibrate-counts":
        extra["bootstrap_trials_per_s"] = metric(log.work / busy, "1/s")
    elif wl.name == "soundness-audit":
        extra["strategy_evals_per_s"] = metric(log.work / busy, "1/s")
    elif cli:
        extra["startup_ms"] = metric(
            median_wall_s(["-c", "import qrsgame.cli"], env, STARTUP_REPS) * 1e3, "ms"
        )
        for kind in wl.kinds:
            kind_lat = [x for x, lab in zip(lat, log.labels) if lab == kind]
            if kind_lat:
                extra[f"cli.{kind}.p50_ms"] = metric(statistics.median(kind_lat) * 1e3, "ms")
    return log, metrics, extra, None


def per_layer(wl, items, refs, env: dict):
    import tracer
    from workloads import CliSession

    warm_up(wl, items[0])
    n = wl.trace_ops
    if wl.name == "cli-session":
        span_dir = OUT_DIR / "cli-spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        traced = run_ops(wl, items, refs, count=n, trace_path=lambda k: span_dir / f"{k}.npz")
        spans = tracer.merge_spans(
            [tracer.load_spans(str(span_dir / f"{k}.npz")) for k in range(n)], list(range(n))
        )
    else:
        rec = tracer.Recorder()
        rec.install()
        try:
            traced = run_ops(wl, items, refs, count=n, recorder=rec)
        finally:
            rec.uninstall()
        spans = rec.spans()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save_spans(spans, str(OUT_DIR / f"spans-{wl.name}.npz"))
    replay = run_ops(wl, items, refs, count=n)

    table = tracer.layer_table(spans)
    metrics = {}
    for name in SPAN_METRICS:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = metric(row["calls"], "count")
        metrics[f"{name}.self_s"] = metric(row["self_s"], "s")
    boot = tracer.bootstrap_counts(spans)
    metrics["witness.lhs_bound_per_rstar"] = metric(
        boot["lhs_in_rstar"] / boot["rstar"] if boot["rstar"] else 0.0, "count"
    )
    metrics["witness.bootstrap_failures"] = metric(boot["failures"], "count")
    metrics["witness.bootstrap_ok_ratio"] = metric(
        (boot["trials"] - boot["failures"]) / boot["trials"] if boot["trials"] else 0.0, "ratio"
    )
    cli_ms = dict.fromkeys(
        [f"cli.{kind}.p50_ms" for kind in CliSession.kinds]
        + ["cli.python_ms", "cli.numpy_import_ms", "cli.startup_ms"],
        0.0,
    )
    if wl.name == "cli-session":
        for kind in CliSession.kinds:
            kind_lat = [x for x, lab in zip(replay.latencies, replay.labels) if lab == kind]
            cli_ms[f"cli.{kind}.p50_ms"] = statistics.median(kind_lat) * 1e3 if kind_lat else 0.0
        cli_ms["cli.python_ms"] = median_wall_s(["-c", "pass"], env, STARTUP_REPS) * 1e3
        cli_ms["cli.numpy_import_ms"] = median_import_s("numpy", env, STARTUP_REPS) * 1e3
        cli_ms["cli.startup_ms"] = (
            median_wall_s(["-c", "import qrsgame.cli"], env, STARTUP_REPS) * 1e3
        )
    metrics.update({k: metric(v, "ms") for k, v in cli_ms.items()})
    metrics["trace.overhead_ratio"] = metric(
        sum(traced.latencies) / sum(replay.latencies), "ratio"
    )
    for module, count in src_lines().items():
        metrics[f"src.{module}.lines"] = metric(count, "lines")
    means = {
        name: {"calls": row["calls"], "mean_us": row["mean_s"] * 1e6}
        for name, row in sorted(table.items())
    }
    return combine([traced, replay]), metrics, {"trace_ops": metric(n, "count")}, means


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qrsgame" / "__init__.py").is_file():
        print(f"error: no qrsgame sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    env = workloads.src_env(ROOT)
    stamp = env_stamp(args.seed)

    if args.trace:
        items = wl.generate(args.seed, ROOT)
        log, metrics, extra, means = per_layer(wl, items, refs, env)
    else:
        log, metrics, extra, means = end_to_end(wl, refs, args.seconds, args.seed, env)

    print(f"# workload {wl.name}: closed loop, 1 client, seed {args.seed}, "
          f"trace {args.trace}, work unit = {wl.work_unit}")
    print(f"# env {json.dumps(stamp)}")
    for name, m in {**metrics, **extra}.items():
        print(f"{name} = {m['value']} {m['unit']}")
    if means:
        for name, row in means.items():
            print(f"span {name}: calls={row['calls']} mean_us={row['mean_us']:.2f}")
    print(f"ops: attempted={log.attempted} failed={log.failed}")
    for problem in log.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": stamp,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
        "extra": extra,
        "span_means": means,
        "problems": log.problems,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0 if log.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
