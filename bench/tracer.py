"""In-memory span recorder that times calls into qrsgame from outside.

``Recorder.install`` replaces each public name listed in ``TRACED`` with a
timing wrapper in every qrsgame module namespace that binds it (the
defining module and every module that imported the name), so calls made
inside the package are seen too. Classes are timed by wrapping their
``__init__``. ``uninstall`` puts every original back. The package source
is never edited.

A span is (name, start, end, parent span, op id, raised). Self time is a
span's duration minus the durations of its direct children; spans nest
strictly because every workload runs in one thread.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# Public names timed per module. eig_hermitian is split by operator
# dimension and exact_payoff by strategy shape, because those paths cost
# very different amounts and different optimisations target them.
TRACED = {
    "qmath": (
        "eig_hermitian",
        "partial_trace",
        "tensor",
        "is_density_matrix",
        "real_trace_product",
        "bloch_to_density",
    ),
    "states": ("RefereeEnsemble", "referee_state", "werner_state"),
    "game": (
        "BinaryPovm",
        "joint_probabilities",
        "exact_payoff",
        "simulate_runs",
        "estimate_payoff",
        "realize_lhs_best",
    ),
    "witness": (
        "t_operator",
        "lhs_bound",
        "worst_assignment",
        "rstar_oracle",
        "ensemble_from_counts",
        "bootstrap_calibration",
        "calibrate",
    ),
    "cli": ("main",),
}

_SHAPES = {"HonestQuantum": "honest", "LhsDeterministic": "lhs", "CustomLocal": "custom"}


def _span_namer(module: str, name: str):
    """Return a function of the call arguments giving the span name."""
    if (module, name) == ("qmath", "eig_hermitian"):
        return lambda args, kwargs: f"qmath.eig{np.shape(args[0])[0]}"
    if (module, name) == ("game", "exact_payoff"):
        return lambda args, kwargs: "game.exact_payoff." + _SHAPES.get(
            type(args[1]).__name__, "other"
        )
    fixed = f"{module}.{name}"
    return lambda args, kwargs: fixed


class Recorder:
    """Collects spans in parallel typed arrays for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.op_id = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, namer):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            nid = rec._ids.get(name)
            if nid is None:
                nid = rec._ids[name] = len(rec.names)
                rec.names.append(name)
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.op.append(rec.op_id)
            rec.error.append(0)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.error[idx] = 1
                raise
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("recorder is already installed")
        modules = {m: importlib.import_module(f"qrsgame.{m}") for m in TRACED}
        namespaces = [importlib.import_module("qrsgame"), *modules.values()]
        for module, names in TRACED.items():
            for name in names:
                orig = getattr(modules[module], name)
                namer = _span_namer(module, name)
                if isinstance(orig, type):
                    init = orig.__dict__["__init__"]
                    self._restore.append((orig, "__init__", init))
                    setattr(orig, "__init__", self._wrap(init, namer))
                    continue
                wrapped = self._wrap(orig, namer)
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is orig]:
                        self._restore.append((ns, attr, orig))
                        setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
        }


def save_spans(spans: dict[str, np.ndarray], path: str) -> None:
    np.savez_compressed(path, **spans)


def load_spans(path: str) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def merge_spans(parts: list[dict[str, np.ndarray]], op_ids: list[int]) -> dict[str, np.ndarray]:
    """Concatenate span sets from several processes into one.

    Name ids are remapped onto a shared name table, parent indices are
    offset, and every span of part k gets op id ``op_ids[k]``.
    """
    ids: dict[str, int] = {}
    cols: dict[str, list[np.ndarray]] = {
        k: [] for k in ("name_id", "start", "end", "parent", "op", "error")
    }
    offset = 0
    for part, op_id in zip(parts, op_ids):
        remap = np.array(
            [ids.setdefault(n, len(ids)) for n in part["names"].tolist()], dtype=np.int32
        )
        n = len(part["start"])
        cols["name_id"].append(remap[part["name_id"]])
        cols["start"].append(part["start"])
        cols["end"].append(part["end"])
        cols["parent"].append(np.where(part["parent"] >= 0, part["parent"] + offset, -1))
        cols["op"].append(np.full(n, op_id, dtype=np.int32))
        cols["error"].append(part["error"])
        offset += n
    merged = {k: np.concatenate(v) for k, v in cols.items()}
    merged["names"] = np.array(list(ids), dtype=str)
    return merged


def layer_table(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self seconds and mean inclusive seconds."""
    names = spans["names"].tolist()
    if not names:
        return {}
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    nid = spans["name_id"]
    calls = np.bincount(nid, minlength=len(names))
    self_s = np.bincount(nid, weights=self_time, minlength=len(names))
    incl_s = np.bincount(nid, weights=dur, minlength=len(names))
    return {
        name: {
            "calls": int(calls[i]),
            "self_s": float(self_s[i]),
            "mean_s": float(incl_s[i] / calls[i]) if calls[i] else 0.0,
        }
        for i, name in enumerate(names)
    }


def bootstrap_counts(spans: dict[str, np.ndarray]) -> dict[str, int]:
    """Bisection and bootstrap tallies derived from span parentage.

    A bootstrap trial is one ``ensemble_from_counts`` call made directly by
    ``bootstrap_calibration``; it fails when that call, or the
    ``rstar_oracle`` call that follows it, raised.
    """
    names = spans["names"].tolist()
    if not names:
        return {"rstar": 0, "lhs_in_rstar": 0, "trials": 0, "failures": 0}
    nid = spans["name_id"]
    parent = spans["parent"]
    err = spans["error"].astype(bool)

    def mask(name: str) -> np.ndarray:
        return nid == names.index(name) if name in names else np.zeros(len(nid), bool)

    def under(child: str, parent_name: str) -> np.ndarray:
        m = mask(child)
        pm = mask(parent_name)
        has_parent = parent >= 0
        out = np.zeros(len(nid), dtype=bool)
        out[m & has_parent] = pm[parent[m & has_parent]]
        return out

    trials = under("witness.ensemble_from_counts", "witness.bootstrap_calibration")
    rstar_in_boot = under("witness.rstar_oracle", "witness.bootstrap_calibration")
    return {
        "rstar": int(mask("witness.rstar_oracle").sum()),
        "lhs_in_rstar": int(under("witness.lhs_bound", "witness.rstar_oracle").sum()),
        "trials": int(trials.sum()),
        "failures": int((trials & err).sum() + (rstar_in_boot & err).sum()),
    }
