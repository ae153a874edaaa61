"""States shared by the players and the states the referee sends.

Conventions used by every module in this package: the computational basis
is the sigma_3 eigenbasis with |0> the +1 eigenvector, two-qubit operators
are Kronecker products in (first x second) order, and the singlet is

    |Psi-> = (|01> - |10>)/sqrt(2).

Referee ensembles are six qubit states indexed by a key (j, s) with
j in {1, 2, 3} and s in {+1, -1}; the state for key (j, s) is (1 + n.sigma)/2,
and a frozen RefereeEnsemble stores the six checked n once, as one read-only
(6, 3) stack in SETTING_KEYS order, and caches on the first read their
density matrices as one read-only (3, 2, 2, 2) stack, the one the honest
pairing and the channel check read. The ideal ensemble has n = s * e_j.

Every witness reader in game and witness takes an ensemble's sums from its
one WitnessForm, built here and cached on the first read, read-only with
the ensemble: the sign table, (8, 3) A_a for the eight sign rows and (3,) B,
and the pairing sums D_j = n_(j,+) - n_(j,-) and S_j = n_(j,+) + n_(j,-).
The arithmetic both read on sign tables is here too: the top witness
eigenvalues |A_a - r B| - 2 sqrt(3) r and the first sign row of their
maximum, on one table or on a stack of them (one per bootstrap trial),
each table of a stack with the bits of that table alone.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .qmath import (
    _density_entries,
    _frozen,
    _rebuilt_from,
    bloch_to_density,
    check_bloch,
    check_fraction,
    check_type,
    identity,
    is_integer,
)

SETTING_KEYS: tuple[tuple[int, int], ...] = (
    (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1),
)

SQRT3 = math.sqrt(3.0)
TWO_SQRT3 = 2.0 * SQRT3

SIGN_TRIPLES: tuple[tuple[int, int, int], ...] = tuple(itertools.product((-1, 1), repeat=3))

_SIGNS = np.array(SIGN_TRIPLES, dtype=float)
_SIGN_SET = frozenset(SIGN_TRIPLES)


def check_signs(signs: object, name: str) -> tuple[int, int, int]:
    """signs as three Python ints +/-1 by the integer rule; three Python ints pass on one lookup."""
    triple = tuple(signs) if np.iterable(signs) else ()
    if tuple(map(type, triple)) != (int, int, int) or triple not in _SIGN_SET:
        if len(triple) != 3 or any(not is_integer(a) or a not in (-1, 1) for a in triple):
            raise ValueError(f"{name} must be three integers +/-1, got {signs}")
        triple = tuple(int(a) for a in triple)
    return triple


def _sign_tables(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # From (..., 6, 3) Bloch vectors in SETTING_KEYS order: the eight A rows
    # as (..., 8, 3) in SIGN_TRIPLES order, and B as (..., 3), elementwise,
    # so each table of a stack has the bits of that table alone. The witness
    # form's one table and the bootstrap's trial stacks are built here.
    plus, minus = vectors[..., 0::2, :], vectors[..., 1::2, :]
    diffs = (plus - minus)[..., None, :, :]
    rows = (
        _SIGNS[:, 0:1] * diffs[..., 0, :]
        + _SIGNS[:, 1:2] * diffs[..., 1, :]
        + _SIGNS[:, 2:3] * diffs[..., 2, :]
    )
    sums = (plus + minus) / SQRT3
    return rows, sums[..., 0, :] + sums[..., 1, :] + sums[..., 2, :]


class WitnessForm(NamedTuple):
    """One ensemble's witness sums, read-only.

    ``rows`` (8, 3) and ``vec_b`` (3,) are its sign table: A_a in
    SIGN_TRIPLES order and B. ``pairs[j - 1]`` is (D_j, S_j) as six Python
    floats, the sums the witness pairing of a local strategy's effect table
    reads.
    """

    rows: np.ndarray
    vec_b: np.ndarray
    pairs: tuple


def _witness_norms(rows: np.ndarray, vec_b: np.ndarray, r: np.ndarray) -> tuple:
    # t_a = A_a - r B and |t_a| for all eight a, with one rate per table (r
    # of shape ...). The norm is the sum of squares np.linalg.norm(axis=-1)
    # takes, without its dispatch.
    t = rows - r[..., None, None] * vec_b[..., None, :]
    return t, np.sqrt(np.add.reduce(t * t, axis=-1))


def _top_eigenvalues(rows: np.ndarray, vec_b: np.ndarray, r: float | np.ndarray) -> np.ndarray:
    # lambda_max(T_a(r)) = |A_a - r B| - 2 sqrt(3) r for all eight a.
    r = np.asarray(r, dtype=float)
    return _witness_norms(rows, vec_b, r)[1] - TWO_SQRT3 * r[..., None]


def _first_max(values: np.ndarray) -> tuple[int, int, int]:
    # The sign assignment of the largest value; lexicographically smallest
    # on ties within 1e-15, compared as Python floats.
    values = values.tolist()
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best] + 1e-15:
            best = i
    return SIGN_TRIPLES[best]


# Read-only operators the constructors scale. The singlet is the outer product
# of |Psi-> with entries 1/sqrt(2), not a literal 0.5: its bits (entries
# 0.4999999999999999, signed zeros in three imaginary parts) are the ones every
# honest payoff reads. The identity fraction is an exact power of two, so each
# entry has the bits that scaling a fresh identity gives.
_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
_SINGLET = _frozen(np.outer(_PSI_MINUS, _PSI_MINUS.conj()))
_QUARTER_IDENTITY4 = _frozen(identity(4) / 4.0)


def werner_state(w: float) -> np.ndarray:
    """Werner state w |Psi-><Psi-| + (1 - w) 1/4 for w in [0, 1]."""
    w = check_fraction(w, "Werner weight")
    return w * _SINGLET + (1.0 - w) * _QUARTER_IDENTITY4


@dataclass(frozen=True, eq=False)
class RefereeEnsemble:
    """Six referee states, checked once and stored once as one read-only (6, 3) ``stack``.

    The keys must be the six of SETTING_KEYS, each a pair of Python or numpy
    integers: (1.0, 1) and (2, True) are rejected, not matched by equality.
    ``witness_form`` and ``density_stack`` are ``functools.cached_property``
    values: each is built from the stack on its first read and kept in the
    instance ``__dict__``; construction never builds them, and pickling and
    copying drop them.
    """

    vectors: Mapping[tuple[int, int], np.ndarray]
    stack: np.ndarray = field(init=False, repr=False)
    __reduce__ = _rebuilt_from("vectors")

    def __post_init__(self) -> None:
        for key in check_type(self.vectors, Mapping, "vectors"):
            if not (isinstance(key, tuple) and len(key) == 2 and all(map(is_integer, key))):
                raise ValueError(f"ensemble key {key!r} is not a pair of integers")
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

    @cached_property
    def witness_form(self) -> WitnessForm:
        """The ensemble's WitnessForm, built on the first read."""
        rows, vec_b = _sign_tables(self.stack)
        rows.setflags(write=False)
        vec_b.setflags(write=False)
        plus, minus = self.stack[0::2], self.stack[1::2]
        pairs = tuple(tuple(d + s) for d, s in zip((plus - minus).tolist(),
                                                   (plus + minus).tolist()))
        return WitnessForm(rows, vec_b, pairs)

    @cached_property
    def density_stack(self) -> np.ndarray:
        """All six referee density matrices as one read-only (3, 2, 2, 2) stack.

        Entry [j - 1, 0 if s > 0 else 1] is bitwise referee_state(self, j, s):
        each state has bloch_to_density's closed-form entries for its row of
        the stack, which the constructor checked, so it is not checked again.
        """
        rows = [_density_entries(*n) for n in self.stack.tolist()]
        stack = np.array(rows, dtype=complex).reshape(3, 2, 2, 2)
        stack.setflags(write=False)
        return stack

    def vector(self, j: int, s: int) -> np.ndarray:
        """The Bloch vector for key (j, s); j and s follow the integer rule."""
        if not (is_integer(j) and is_integer(s)) or (j, s) not in self.vectors:
            raise ValueError(f"no referee state for key (j={j}, s={s})")
        return self.vectors[(j, s)]


def referee_ideal() -> RefereeEnsemble:
    """The six ideal referee states, Bloch vectors s * e_j."""
    vectors = {(j, s): np.array([s if i == j else 0 for i in (1, 2, 3)], dtype=float)
               for j, s in SETTING_KEYS}
    return RefereeEnsemble(vectors)


def referee_state(ensemble: RefereeEnsemble, j: int, s: int) -> np.ndarray:
    """Density matrix of the referee state for key (j, s)."""
    return bloch_to_density(check_type(ensemble, RefereeEnsemble, "ensemble").vector(j, s))


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
