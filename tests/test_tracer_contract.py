"""The benchmark tracer wraps public names by string; they must all exist."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import qrsgame.game
from qrsgame.game import (
    CustomLocal,
    HonestQuantum,
    LhsDeterministic,
    LocalComponent,
    canonical_game,
)
from qrsgame.states import referee_ideal, werner_state

from helpers import singlet_projector_bc

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.TRACED
    for module, names in tracer.TRACED.items():
        namespace = importlib.import_module(f"qrsgame.{module}")
        missing = [name for name in names if not callable(getattr(namespace, name, None))]
        assert not missing, f"qrsgame.{module} lacks traced names {missing}"


def test_exact_payoff_spans_are_named_by_strategy_shape():
    """LhsDeterministic is a CustomLocal, yet the per-layer split still
    times it apart from the general mixture."""
    povm = singlet_projector_bc()
    strategies = (
        HonestQuantum(werner_state(1.0), povm),
        LhsDeterministic((1, 1, 1), np.zeros(3), povm),
        CustomLocal((LocalComponent(1.0, {1: 0.5, 2: 0.5, 3: 0.5}, np.eye(2) / 2.0),)),
    )
    spec, ensemble = canonical_game(1.0), referee_ideal()
    recorder = load_tracer().Recorder()
    recorder.install()
    try:
        for strategy in strategies:
            qrsgame.game.exact_payoff(spec, strategy, ensemble)
    finally:
        recorder.uninstall()
    shapes = [n for n in recorder.names if n.startswith("game.exact_payoff.")]
    assert shapes == [f"game.exact_payoff.{s}" for s in ("honest", "lhs", "custom")]
