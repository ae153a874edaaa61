"""States shared by the players and the states the referee sends.

Conventions used by every module in this package: the computational basis
is the sigma_3 eigenbasis with |0> the +1 eigenvector, two-qubit operators
are Kronecker products in (first x second) order, and the Bell states are

    |Psi-+-> = (|01> -+- |10>)/sqrt(2),   |Phi-+-> = (|00> -+- |11>)/sqrt(2).

Referee ensembles are six qubit states indexed by a key (j, s) with
j in {1, 2, 3} and s in {+1, -1}; the state for key (j, s) is (1 + n.sigma)/2,
and a frozen RefereeEnsemble stores the six checked n once, as one read-only
(6, 3) stack in SETTING_KEYS order. The ideal ensemble has n = s * e_j.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .qmath import (
    BLOCH_NORM_TOL,
    _density_entries,
    _rebuilt_from,
    bloch_to_density,
    check_bloch,
    check_hermitian,
    identity,
    is_density_matrix,
    is_integer,
    real_trace_product,
)

SETTING_KEYS: tuple[tuple[int, int], ...] = (
    (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1),
)


class BellIndex(Enum):
    PSI_MINUS = "PsiMinus"
    PSI_PLUS = "PsiPlus"
    PHI_MINUS = "PhiMinus"
    PHI_PLUS = "PhiPlus"


_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_BELL_KETS = {
    BellIndex.PSI_MINUS: np.array([0.0, _INV_SQRT2, -_INV_SQRT2, 0.0], dtype=complex),
    BellIndex.PSI_PLUS: np.array([0.0, _INV_SQRT2, _INV_SQRT2, 0.0], dtype=complex),
    BellIndex.PHI_MINUS: np.array([_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2], dtype=complex),
    BellIndex.PHI_PLUS: np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex),
}


def bell_state(idx: BellIndex) -> np.ndarray:
    """Projector onto the requested Bell state."""
    if not isinstance(idx, BellIndex):
        raise ValueError(f"expected a BellIndex, got {idx!r}")
    ket = _BELL_KETS[idx]
    return np.outer(ket, ket.conj())


def _check_weight(w: float) -> None:
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner weight must lie in [0, 1], got {w}")


def werner_state(w: float) -> np.ndarray:
    """Werner state w |Psi-><Psi-| + (1 - w) 1/4 for w in [0, 1]."""
    _check_weight(w)
    return w * bell_state(BellIndex.PSI_MINUS) + (1.0 - w) * identity(4) / 4.0


def werner_from_bell_weights(p: float) -> tuple[np.ndarray, float]:
    """Mix |Psi-> with weight p against the other three Bell states.

    The three unwanted Bell states enter with weight (1 - p)/3 each, which
    reproduces werner_state(w) with w = (4 p - 1)/3. Returns the state and w.
    """
    if not 0.25 <= p <= 1.0:
        raise ValueError(f"singlet weight must lie in [0.25, 1], got {p}")
    rest = (1.0 - p) / 3.0
    state = p * bell_state(BellIndex.PSI_MINUS) + rest * (
        bell_state(BellIndex.PSI_PLUS)
        + bell_state(BellIndex.PHI_MINUS)
        + bell_state(BellIndex.PHI_PLUS)
    )
    return state, (4.0 * p - 1.0) / 3.0


@dataclass(frozen=True)
class RefereeEnsemble:
    """Six referee states, checked once and stored once as one read-only (6, 3) ``stack``."""

    vectors: Mapping[tuple[int, int], np.ndarray]
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    __reduce__ = _rebuilt_from("vectors")

    def __post_init__(self) -> None:
        if set(self.vectors) != set(SETTING_KEYS):
            raise ValueError(
                f"ensemble must cover exactly the keys {sorted(SETTING_KEYS)}, "
                f"got {sorted(self.vectors)}"
            )
        stack = np.array([check_bloch(self.vectors[key], f"Bloch vector for {key}")
                          for key in SETTING_KEYS])
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "vectors", MappingProxyType(dict(zip(SETTING_KEYS, stack))))

    def vector(self, j: int, s: int) -> np.ndarray:
        if (j, s) not in self.vectors:
            raise ValueError(f"no referee state for key (j={j}, s={s})")
        return self.vectors[(j, s)]


def referee_ideal() -> RefereeEnsemble:
    """The six ideal referee states, Bloch vectors s * e_j."""
    vectors = {(j, s): np.array([s if i == j else 0 for i in (1, 2, 3)], dtype=float)
               for j, s in SETTING_KEYS}
    return RefereeEnsemble(vectors)


def referee_state(ensemble: RefereeEnsemble, j: int, s: int) -> np.ndarray:
    """Density matrix of the referee state for key (j, s)."""
    return bloch_to_density(ensemble.vector(j, s))


def referee_states(ensemble: RefereeEnsemble) -> np.ndarray:
    """All six referee density matrices as one (3, 2, 2, 2) stack.

    Entry [j - 1, 0 if s > 0 else 1] is bitwise referee_state(ensemble, j, s):
    each state has bloch_to_density's closed-form entries for its row of the
    ensemble's stack, which the ensemble checked, so it is not checked again.
    """
    rows = [_density_entries(*n) for n in ensemble.stack.tolist()]
    return np.array(rows, dtype=complex).reshape(3, 2, 2, 2)


def depolarize_ensemble(ensemble: RefereeEnsemble, eta: float) -> RefereeEnsemble:
    """Shrink every Bloch vector by eta in [0, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {eta}")
    return RefereeEnsemble({k: eta * v for k, v in ensemble.vectors.items()})


def rotate_ensemble(ensemble: RefereeEnsemble, rot: np.ndarray) -> RefereeEnsemble:
    """Apply one rotation matrix to every Bloch vector."""
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        raise ValueError(f"rotation must be a 3x3 matrix, got shape {rot.shape}")
    if not np.isfinite(rot).all():
        raise ValueError("rotation is not finite")
    if np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-9 or np.linalg.det(rot) < 0.0:
        raise ValueError("rotation must be orthogonal with determinant +1")
    return RefereeEnsemble({k: rot @ v for k, v in ensemble.vectors.items()})


def fidelity_pure(rho: np.ndarray, m: np.ndarray) -> float:
    """Fidelity of a qubit state with the pure state of unit Bloch vector m.

    For a target projector (1 + m.sigma)/2 this is (1 + n_rho . m)/2.
    """
    m = check_bloch(m, "target Bloch vector")
    if abs(np.linalg.norm(m) - 1.0) > BLOCH_NORM_TOL:
        raise ValueError("target Bloch vector must be a unit vector")
    rho = check_hermitian(rho, 2, "fidelity_pure density matrix")
    check = is_density_matrix(rho)
    if not check:
        raise ValueError(f"fidelity_pure expects a density matrix ({check.describe()})")
    return real_trace_product(rho, bloch_to_density(m))


def ensemble_to_dict(ensemble: RefereeEnsemble) -> dict:
    """JSON-ready form: {"vectors": [{"j": ..., "s": ..., "n": [...]}, ...]}."""
    records = [
        {"j": j, "s": s, "n": [float(x) for x in ensemble.vector(j, s)]}
        for j, s in SETTING_KEYS
    ]
    return {"vectors": records}


def ensemble_from_dict(data: dict) -> RefereeEnsemble:
    """Inverse of ensemble_to_dict; duplicate, missing or non-integer keys are rejected."""
    if not isinstance(data, dict) or not isinstance(data.get("vectors"), list):
        raise ValueError("ensemble JSON must be an object with a 'vectors' list")
    vectors: dict[tuple[int, int], np.ndarray] = {}
    for rec in data["vectors"]:
        try:
            key = (rec["j"], rec["s"])
            numeric = not any(isinstance(x, (bool, str)) for x in rec["n"])
            vec = np.asarray(rec["n"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed ensemble record {rec!r}") from exc
        if not numeric:
            raise ValueError(f"ensemble record {rec!r} has a Bloch component that is not a number")
        if not all(is_integer(k) for k in key):
            raise ValueError(f"ensemble record {rec!r} has a key that is not an integer")
        if key in vectors:
            raise ValueError(f"duplicate referee key (j={key[0]}, s={key[1]})")
        vectors[key] = vec
    return RefereeEnsemble(vectors)


def save_ensemble(ensemble: RefereeEnsemble, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ensemble_to_dict(ensemble), fh, indent=2)
        fh.write("\n")


def load_ensemble(path: str) -> RefereeEnsemble:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"could not parse ensemble JSON {path}: {exc}") from exc
    return ensemble_from_dict(data)
