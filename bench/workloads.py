"""The four benchmark workloads: inputs, one op each, and output checks.

Every workload draws its items from a fixed corpus. Item i of a corpus is
generated from its own substream of the workload's master seed, so the
corpus never changes and ``reference.json`` holds, per item, the outputs
captured from the package when the benchmark was defined. The run seed
only chooses the order in which the corpus is visited. Items are built
with the benchmark's own numpy code; the package receives only those
generated inputs.

An op is one ``calibrate`` call, one ensemble audit, one honest grid
point or one CLI invocation. ``check`` returns a list of problems, empty
when the output matches both the closed forms that exist and the
captured references.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through the module objects so that the tracer, which swaps
# module attributes, sees the benchmark's own calls too.
from qrsgame import game, states, witness

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

KEYS = ((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1))
SQRT3 = math.sqrt(3.0)
TOL = 1e-9
HONEST_TOL = 1e-10

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _substream(master: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master, index]))


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _projector(n: np.ndarray) -> np.ndarray:
    return 0.5 * (np.eye(2) + sum(n[i] * _PAULI[i] for i in range(3)))


def _ideal_vectors() -> dict:
    vectors = {}
    for j, s in KEYS:
        v = np.zeros(3)
        v[j - 1] = float(s)
        vectors[(j, s)] = v
    return vectors


def _perturbed_vectors(rng: np.random.Generator) -> dict:
    """Ideal directions under a random rotation, shrunk and jittered."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    vectors = {}
    for j, s in KEYS:
        v = rng.uniform(0.3, 1.0) * s * q[:, j - 1] + 0.05 * rng.normal(size=3)
        norm = np.linalg.norm(v)
        vectors[(j, s)] = v / norm if norm > 1.0 else v
    return vectors


def _sampled_counts(vectors: dict, per_axis: int, rng: np.random.Generator) -> dict:
    counts = {}
    for (j, s), n in vectors.items():
        for axis in (1, 2, 3):
            p = min(max(0.5 * (1.0 + n[axis - 1]), 0.0), 1.0)
            plus = int(rng.binomial(per_axis, p))
            counts[(j, s, axis, 1)] = plus
            counts[(j, s, axis, -1)] = per_axis - plus
    return counts


def _exact_counts(vectors: dict, per_axis: int) -> dict:
    counts = {}
    for (j, s), n in vectors.items():
        for axis in (1, 2, 3):
            plus = round(per_axis * 0.5 * (1.0 + n[axis - 1]))
            counts[(j, s, axis, 1)] = plus
            counts[(j, s, axis, -1)] = per_axis - plus
    return counts


def _close(got: float, want: float, tol: float = TOL) -> bool:
    return abs(got - want) <= tol


def _visit_order(size: int, seed: int) -> list[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(size)]


@dataclass
class Item:
    index: int
    data: object
    label: str = "op"


class Workload:
    """One named workload over a fixed corpus of ``corpus_size`` items."""

    name = ""
    corpus_size = 0
    trace_ops = 0  # ops in a traced run; fixed so counts repeat per seed
    work_unit = "ops"

    def item(self, index: int) -> Item:
        raise NotImplementedError

    def corpus(self, root: Path) -> list[Item]:
        return [self.item(i) for i in range(self.corpus_size)]

    def generate(self, seed: int, root: Path) -> list[Item]:
        return [self.item(i) for i in _visit_order(self.corpus_size, seed)]

    def op(self, item: Item, trace_path: str | None = None):
        raise NotImplementedError

    def work(self, item: Item) -> int:
        return 1

    def reference(self, item: Item, out) -> dict:
        raise NotImplementedError

    def check(self, item: Item, out, ref: dict) -> list[str]:
        raise NotImplementedError


class CalibrateCounts(Workload):
    """calibrate(counts=...) on well-measured and sparse tomography records.

    Item 0 mod 16 holds noise-free counts of the ideal ensemble, where the
    calibrated rate is exactly 1. Odd items have 5 counts per axis, so a
    Poisson resample empties some axis in about one bootstrap trial in
    nine; the rest have 2000 counts per axis.
    """

    name = "calibrate-counts"
    corpus_size = 256
    trace_ops = 24
    work_unit = "bootstrap trials"
    master = 14080563_1
    trials = 5
    dense = 2000
    sparse = 5

    def item(self, index: int) -> Item:
        rng = _substream(self.master, index)
        if index % 16 == 0:
            counts, kind = _exact_counts(_ideal_vectors(), self.dense), "ideal"
        elif index % 2:
            counts, kind = _sampled_counts(_perturbed_vectors(rng), self.sparse, rng), "sparse"
        else:
            counts, kind = _sampled_counts(_perturbed_vectors(rng), self.dense, rng), "dense"
        return Item(index, witness.CountRecord(counts), kind)

    def op(self, item: Item, trace_path: str | None = None):
        return witness.calibrate(counts=item.data, trials=self.trials, seed=item.index)

    def work(self, item: Item) -> int:
        return self.trials

    def reference(self, item: Item, out) -> dict:
        boot = out.bootstrap
        return {
            "r_star": out.r_star_oracle,
            "boot_mean": boot.mean,
            "boot_std": boot.std,
            "failures": boot.failures,
        }

    def check(self, item: Item, out, ref: dict) -> list[str]:
        problems = []
        boot = out.bootstrap
        if item.label == "ideal" and not _close(out.r_star_oracle, 1.0):
            problems.append(f"ideal r* {out.r_star_oracle!r} != 1")
        for key, got in (
            ("r_star", out.r_star_oracle),
            ("boot_mean", boot.mean),
            ("boot_std", boot.std),
        ):
            if not _close(got, ref[key]):
                problems.append(f"{key} {got!r} != reference {ref[key]!r}")
        if boot.failures != ref["failures"]:
            problems.append(f"bootstrap failures {boot.failures} != reference {ref['failures']}")
        return problems


def _lhs_params(rng: np.random.Generator) -> tuple:
    """Signs, hidden qubit and analyzer of a random deterministic adversary."""
    signs = tuple(int(x) for x in rng.integers(0, 2, size=3) * 2 - 1)
    direction = _unit(rng)
    hidden = direction * rng.random() ** (1.0 / 3.0)
    if rng.random() < 0.5:
        b1 = np.kron(_projector(direction), _projector(_unit(rng)))
    else:
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s = g.conj().T @ g
        b1 = rng.random() * s / np.linalg.eigvalsh(s)[-1]
    return signs, hidden, np.eye(4) - b1, b1


def _custom_params(rng: np.random.Generator, n_components: int = 3) -> tuple:
    """Weights, Alice response tables and referee effects of a local mixture."""
    weights = rng.random(n_components)
    weights /= weights.sum()
    components = []
    for w in weights:
        alice = {j: float(rng.random()) for j in (1, 2, 3)}
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = g.conj().T @ g
        components.append((float(w), alice, rng.random() * s / np.linalg.eigvalsh(s)[-1]))
    return tuple(components)


class SoundnessAudit(Workload):
    """Acceptance criterion 04 in ops: one ensemble audited per op.

    Each op calibrates r* with rstar_oracle, builds and scores a fresh pool
    of no-steering strategies plus the ensemble's optimal adversary at r*,
    and evaluates the bound 1e-3 below r*. Item 0 mod 16 is the ideal
    ensemble, where r* is exactly 1.
    """

    name = "soundness-audit"
    corpus_size = 128
    trace_ops = 64
    work_unit = "strategy evaluations"
    master = 14080563_2
    n_lhs = 30
    n_custom = 10

    def item(self, index: int) -> Item:
        rng = _substream(self.master, index)
        if index % 16 == 0:
            vectors, kind = _ideal_vectors(), "ideal"
        else:
            vectors, kind = _perturbed_vectors(rng), "perturbed"
        lhs = [_lhs_params(rng) for _ in range(self.n_lhs)]
        custom = [_custom_params(rng) for _ in range(self.n_custom)]
        return Item(index, (states.RefereeEnsemble(vectors), lhs, custom), kind)

    def op(self, item: Item, trace_path: str | None = None):
        ensemble, lhs, custom = item.data
        rstar = witness.rstar_oracle(ensemble)
        spec = game.canonical_game(rstar)
        worst = -math.inf
        for signs, hidden, b0, b1 in lhs:
            strategy = game.LhsDeterministic(signs, hidden, game.BinaryPovm(b0, b1))
            worst = max(worst, game.exact_payoff(spec, strategy, ensemble))
        for components in custom:
            strategy = game.CustomLocal(tuple(game.LocalComponent(*c) for c in components))
            worst = max(worst, game.exact_payoff(spec, strategy, ensemble))
        best = game.realize_lhs_best(spec, ensemble)
        worst = max(worst, game.exact_payoff(spec, best, ensemble))
        below = witness.lhs_bound(ensemble, rstar - 1e-3) if rstar > 1e-3 else None
        return rstar, worst, below

    def work(self, item: Item) -> int:
        return self.n_lhs + self.n_custom + 1

    def reference(self, item: Item, out) -> dict:
        return {"r_star": out[0], "worst": out[1]}

    def check(self, item: Item, out, ref: dict) -> list[str]:
        rstar, worst, below = out
        problems = []
        if item.label == "ideal" and not _close(rstar, 1.0):
            problems.append(f"ideal r* {rstar!r} != 1")
        if worst > 1e-9:
            problems.append(f"no-steering payoff {worst!r} > 1e-9 at r*")
        if below is not None and not below > 0.0:
            problems.append(f"lhs_bound(r* - 1e-3) = {below!r} is not positive")
        if not _close(rstar, ref["r_star"]):
            problems.append(f"r* {rstar!r} != reference {ref['r_star']!r}")
        if not _close(worst, ref["worst"]):
            problems.append(f"worst payoff {worst!r} != reference {ref['worst']!r}")
        return problems


def _tally_digest(tally) -> str:
    cells = sorted(tally.counts.items())
    return hashlib.sha256(repr(cells).encode()).hexdigest()[:16]


class HonestSample(Workload):
    """Honest players over a Werner-weight x visibility grid.

    Each op builds HonestQuantum(werner_state(W), partial_bsm_povm(v)),
    takes its exact payoff on the ideal ensemble, then samples and
    estimates it at a fixed number of rounds per setting.
    """

    name = "honest-sample"
    w_grid = np.linspace(0.0, 1.0, 21)
    v_grid = np.linspace(0.5, 1.0, 11)
    corpus_size = len(w_grid) * len(v_grid)
    trace_ops = 400
    work_unit = "grid points"
    master = 14080563_3
    n_per_setting = 100_000

    def item(self, index: int) -> Item:
        rng = _substream(self.master, index)
        w = float(self.w_grid[index % len(self.w_grid)])
        v = float(self.v_grid[index // len(self.w_grid)])
        r = float(rng.uniform(0.8, 1.3))
        return Item(index, (w, v, r, states.RefereeEnsemble(_ideal_vectors())))

    def op(self, item: Item, trace_path: str | None = None):
        w, v, r, ensemble = item.data
        spec = game.canonical_game(r)
        strategy = game.HonestQuantum(states.werner_state(w), game.partial_bsm_povm(v))
        exact = game.exact_payoff(spec, strategy, ensemble)
        tally = game.simulate_runs(spec, strategy, ensemble, self.n_per_setting, item.index)
        return exact, tally, game.estimate_payoff(spec, tally)

    def reference(self, item: Item, out) -> dict:
        _, tally, est = out
        return {"tally": _tally_digest(tally), "estimate": est.value, "stderr": est.stderr}

    def check(self, item: Item, out, ref: dict) -> list[str]:
        w, v, r, _ = item.data
        exact, tally, est = out
        problems = []
        closed = 3.0 * v * w - SQRT3 * r * (2.0 - v)
        if not _close(exact, closed, HONEST_TOL):
            problems.append(f"exact payoff {exact!r} != 3vW - sqrt(3) r (2 - v) = {closed!r}")
        if _tally_digest(tally) != ref["tally"]:
            problems.append("simulated tally differs from reference")
        for key, got in (("estimate", est.value), ("stderr", est.stderr)):
            if not _close(got, ref[key]):
                problems.append(f"{key} {got!r} != reference {ref[key]!r}")
        return problems


_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def compare_stdout(got: str, want: str) -> str | None:
    """None when text matches byte for byte and numbers within 1e-9 relative."""
    got_parts = _NUMBER.split(got)
    want_parts = _NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return "stdout has a different shape from the reference"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            if g != w:
                return f"stdout text {g!r} != reference {w!r}"
        elif g != w and not math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-12):
            return f"stdout number {g} != reference {w}"
    return None


def src_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliSession(Workload):
    """Each qrs subcommand as its own subprocess on fixed small inputs.

    The corpus is seven invocation kinds with three variants each. A run
    visits rounds of all seven kinds in a seeded order, each with a seeded
    variant, so every kind is sampled equally often.
    """

    name = "cli-session"
    corpus_size = 21
    trace_ops = 21
    work_unit = "invocations"
    master = 14080563_4
    rounds = 64
    kinds = (
        "payoff",
        "payoff-n",
        "sweep",
        "simulate",
        "chsh",
        "calibrate-ensemble",
        "calibrate-counts",
    )

    def variants(self, root: Path) -> list[tuple[str, list[str]]]:
        """The 21 (kind, argv) invocations; writes their input files."""
        out_dir = root / ".bench_out" / "cli"
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = _substream(self.master, 0)
        ensembles = [_ideal_vectors(), _perturbed_vectors(rng), _perturbed_vectors(rng)]
        ens_paths, counts_paths = [], []
        for k, vectors in enumerate(ensembles):
            path = out_dir / f"ensemble_{k}.json"
            records = [
                {"j": j, "s": s, "n": [float(x) for x in vectors[(j, s)]]} for j, s in KEYS
            ]
            path.write_text(json.dumps({"vectors": records}, indent=2) + "\n")
            ens_paths.append(str(path.relative_to(root)))
            counts = _sampled_counts(vectors, 500, rng)
            path = out_dir / f"counts_{k}.csv"
            rows = ["j,s,axis,outcome,count"] + [
                f"{j},{s:+d},{axis},{o:+d},{n}" for (j, s, axis, o), n in counts.items()
            ]
            path.write_text("\n".join(rows) + "\n")
            counts_paths.append(str(path.relative_to(root)))
        points = (("0.698", "1.081"), ("0.9", "1"), ("0.3", "1.2"))
        out = []
        for k, (w, r) in enumerate(points):
            out.append(("payoff", ["payoff", "--W", w, "--r", r]))
            out.append(
                ("payoff-n", ["payoff", "--W", w, "--r", r, "--n", "20000", "--seed", str(k)])
            )
            out.append(
                ("sweep", ["sweep", "--r", r, "--w-min", "0", "--w-max", "1", "--steps", "11"])
            )
            out.append(
                ("simulate", ["simulate", "--W", w, "--r", r, "--n", "20000", "--seed", str(7 + k)])
            )
            out.append(("chsh", ["chsh", "--W", w]))
            out.append(("calibrate-ensemble", ["calibrate", "--ensemble", ens_paths[k]]))
            out.append(
                (
                    "calibrate-counts",
                    ["calibrate", "--counts", counts_paths[k], "--trials", "3", "--seed", str(k)],
                )
            )
        return out

    def corpus(self, root: Path) -> list[Item]:
        return [
            Item(i, (argv, root), kind) for i, (kind, argv) in enumerate(self.variants(root))
        ]

    def generate(self, seed: int, root: Path) -> list[Item]:
        corpus = self.corpus(root)
        by_kind = {kind: [it for it in corpus if it.label == kind] for kind in self.kinds}
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(self.rounds):
            for kind in rng.permutation(self.kinds):
                choices = by_kind[str(kind)]
                items.append(choices[int(rng.integers(len(choices)))])
        return items

    def op(self, item: Item, trace_path: str | None = None):
        argv, root = item.data
        if trace_path is None:
            cmd = [sys.executable, "-m", "qrsgame.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), trace_path, *argv]
        proc = subprocess.run(
            cmd, cwd=root, env=src_env(root), capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout

    def reference(self, item: Item, out) -> dict:
        return {"code": out[0], "stdout": out[1]}

    def check(self, item: Item, out, ref: dict) -> list[str]:
        code, stdout = out
        problems = []
        if code != ref["code"]:
            problems.append(f"exit code {code} != reference {ref['code']}")
        diff = compare_stdout(stdout, ref["stdout"])
        if diff is not None:
            problems.append(diff)
        return problems


WORKLOADS = {
    w.name: w for w in (CalibrateCounts(), SoundnessAudit(), HonestSample(), CliSession())
}


def load_references() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
