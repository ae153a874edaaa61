"""Soundness analysis: witness operators, calibration and regime labels.

A no-steering adversary with fixed Alice signs a and an arbitrary response
effect E on the referee qubit collects payoff tr(E T_a(r)), where T_a(r)
is the witness operator assembled from the referee Bloch vectors. The
best such adversary therefore earns the top eigenvalue of T_a(r), which
is |A_a - r B| - 2 sqrt(3) r in closed form (states computes it beside the
sign table, for game too), and the game is sound at rate r exactly when
that value is nonpositive for all eight sign assignments.
The calibration oracle takes the least such r as the largest root of a
quadratic, rounded up to a multiple of 2^-34; the tests check it against
bisection and the eigenvalues against numpy's eigensolver.

Calibration reports also carry ``rstar_printed``, a second closed-form
readout with a different normalization; its docstring says how the two
differ. The oracle is the operational one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .game import CustomLocal, GameSpec, HonestQuantum, LocalComponent, Strategy
from .game import BinaryPovm, CountTable, _cell_rows, _substream, exact_payoff
from .qmath import _as_numbers, _rebuilt_from, check_fraction, check_integer, check_nonnegative
from .qmath import check_real, check_seed, check_type, density_to_bloch, identity, pauli, tensor
from .states import SETTING_KEYS, SIGN_TRIPLES, SQRT3, TWO_SQRT3, RefereeEnsemble
from .states import _first_max, _sign_tables, _top_eigenvalues, check_signs
from .states import werner_state

# Werner-weight landmarks: below W_NO_BELL no Bell inequality can be
# violated, above W_KNOWN_BELL a (non-CHSH) violation is known, above
# W_CHSH the CHSH inequality itself is violated.
W_NO_BELL = 0.6595
W_KNOWN_BELL = 0.7056
W_CHSH = 1.0 / math.sqrt(2.0)

REGIME_UNSTEERABLE = "unsteerable-by-this-game"
REGIME_STEERABLE_NO_BELL = "steerable-no-known-Bell"
REGIME_OPEN_WINDOW = "steerable-open-Bell-window"
REGIME_BELL = "Bell-violating"


class CalibrationError(RuntimeError):
    """Raised when no sound penalty rate can be certified."""


class UnusedArgumentsError(ValueError):
    """calibrate was given arguments, named in ``args``, that its ensemble path does not use."""

    def __str__(self) -> str:
        return f"calibrate with an ensemble does not use {' or '.join(self.args)}"


def assignment_vectors(
    ensemble: RefereeEnsemble, assignment: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The pair (A, B): signed difference sum and scaled total sum.

    A = sum_j a_j (n_(j,+) - n_(j,-)) depends on the sign assignment,
    B = sum_j (n_(j,+) + n_(j,-)) / sqrt(3) does not.
    """
    signs = check_signs(assignment, "assignment")
    rows, vec_b = check_type(ensemble, RefereeEnsemble, "ensemble").witness_form[:2]
    return rows[SIGN_TRIPLES.index(signs)], vec_b


def t_operator(
    ensemble: RefereeEnsemble, assignment: tuple[int, int, int], r: float
) -> np.ndarray:
    """Witness operator T_a(r) = (A - r B) . sigma - 2 sqrt(3) r."""
    r = check_nonnegative(r, "penalty rate r")
    vec_a, vec_b = assignment_vectors(ensemble, assignment)
    t = vec_a - r * vec_b
    out = -TWO_SQRT3 * r * identity(2)
    for i in (1, 2, 3):
        out += t[i - 1] * pauli(i)
    return out


def lhs_bound(ensemble: RefereeEnsemble, r: float) -> float:
    """Best no-steering payoff at rate r: max over signs of the top
    witness eigenvalue."""
    table = check_type(ensemble, RefereeEnsemble, "ensemble").witness_form[:2]
    return float(np.max(_top_eigenvalues(*table, check_nonnegative(r, "penalty rate r"))))


def worst_assignment(ensemble: RefereeEnsemble, r: float) -> tuple[int, int, int]:
    """Sign assignment attaining lhs_bound; lexicographically smallest on ties."""
    table = check_type(ensemble, RefereeEnsemble, "ensemble").witness_form[:2]
    return _first_max(_top_eigenvalues(*table, check_nonnegative(r, "penalty rate r")))


# The calibration below takes one sign table or a stack of them, as
# _top_eigenvalues does. Where one table took a dot product with `@` or
# np.linalg.norm of a vector, matmul runs the same BLAS dot and gemv kernels
# on the stack; a summed product would round differently.


def _largest_root(rows: np.ndarray, vec_b: np.ndarray, c: float) -> np.ndarray:
    # Per table, the largest over assignments of the positive root of
    # (c - B.B) r^2 + 2 (A.B) r - A.A = 0, in the cancellation-free form
    # A.A / (A.B + sqrt((A.B)^2 + (c - B.B) A.A)); A.A = 0 gives 0.
    aa = np.einsum("...ij,...ij->...i", rows, rows)
    ab = np.matmul(rows, vec_b[..., None])[..., 0]
    bb = np.matmul(vec_b[..., None, :], vec_b[..., None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = aa / (ab + np.sqrt(ab * ab + (c - bb) * aa))
    return np.where(aa == 0.0, 0.0, roots).max(axis=-1)


# r* is reported on the grid where a bisection on [0, 4] to 1e-10 ends, so
# it matches the bisection oracle in the tests to within one grid step.
_RSTAR_GRID = 2.0 ** -34


def _sound(rows: np.ndarray, vec_b: np.ndarray, k: np.ndarray) -> np.ndarray:
    # Per table, whether lhs_bound(k * grid) <= 0.
    return _top_eigenvalues(rows, vec_b, k * _RSTAR_GRID).max(axis=-1) <= 0.0


def _rstar_tables(rows: np.ndarray, vec_b: np.ndarray) -> np.ndarray:
    # rstar_oracle for each table of (..., 8, 3) and (..., 3), shape ...; NaN
    # where it raises. One grid walk for all tables: from the rounded-up root,
    # step up while unsound (dead past 4), then down while the step below is sound.
    root = _largest_root(rows, vec_b, 12.0)
    live = root <= 4.0
    k = np.ceil(np.where(live, root, 0.0) / _RSTAR_GRID).astype(np.int64)
    step = live & ~_sound(rows, vec_b, k)
    while step.any():
        k += step
        live &= k * _RSTAR_GRID <= 4.0
        step = live & ~_sound(rows, vec_b, k)
    step = live & (k > 0) & _sound(rows, vec_b, k - 1)
    while step.any():
        k -= step
        step &= (k > 0) & _sound(rows, vec_b, k - 1)
    return np.where(live, k * _RSTAR_GRID, np.nan)


def _first_rstar(rate: np.ndarray) -> float:
    # One table's rate from _rstar_tables, which must be a number.
    rstar = float(rate)
    if math.isnan(rstar):
        raise CalibrationError("no sound penalty rate below 4; ensemble is unphysical")
    return rstar


def rstar_oracle(ensemble: RefereeEnsemble) -> float:
    """Least r >= 0 on the grid k * 2^-34 with lhs_bound(r) <= 0.

    The bound is nonpositive exactly when |A - r B| <= 2 sqrt(3) r for all
    signs, so the boundary is the largest positive root of
    (12 - B.B) r^2 + 2 (A.B) r - A.A = 0. That root is rounded up onto the
    grid and walked up while the bound fails, then down while it still
    holds one step below (the bootstrap's walk, on one table): the
    upper end of the final bracket of the bisection the tests keep as this
    function's oracle, so the bound at the result is nonpositive.

    At r = sqrt(3), A - r B = -2 sum_j n_(j,-a_j) has norm at most 6 =
    2 sqrt(3) r, so r* <= sqrt(3) for every ensemble in the unit ball; the
    "below 4" error only guards roots that come out NaN or infinite.
    """
    table = check_type(ensemble, RefereeEnsemble, "ensemble").witness_form[:2]
    return _first_rstar(_rstar_tables(*table))


def _printed(rows: np.ndarray, vec_b: np.ndarray) -> float:
    bb = float(vec_b @ vec_b)
    if 3.0 - bb <= 0.0:
        raise ValueError(f"printed closed form undefined: B.B = {bb:.6f} >= 3")
    return float(_largest_root(rows, vec_b, 3.0))


def rstar_printed(ensemble: RefereeEnsemble) -> float:
    """Closed-form calibration readout with the conventional normalization.

    The same root as rstar_oracle's with 3 in place of 12: the max over
    signs of (sqrt((A.B)^2 + A.A (3 - B.B)) - A.B) / (3 - B.B). The
    sign-sum vector enters unhalved, so on the ideal ensemble this yields
    2, twice the operational boundary found by rstar_oracle; calibration
    reports carry both so the discrepancy stays visible.
    """
    return _printed(*check_type(ensemble, RefereeEnsemble, "ensemble").witness_form[:2])


class CountRecord(CountTable):
    """Tomography counts per (j, s, axis, outcome) cell; s and outcome are signed."""

    CELLS = ((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1))
    HEADER = "j,s,axis,outcome,count"
    ROW = "{},{:+d},{},{:+d},{}"
    NAME = "count"


# Position of each (j, s, axis, outcome) cell in a flattened (6, 3, 2)
# count array: key in SETTING_KEYS order, axis, then outcome +1 before -1.
_CELL_POSITION = {
    cell: i
    for i, cell in enumerate(
        (j, s, axis, o) for j, s in SETTING_KEYS for axis in (1, 2, 3) for o in (1, -1)
    )
}
# The same positions in sorted cell order, the order a bootstrap trial draws in.
_SORTED_POSITION = np.array([_CELL_POSITION[c] for c in sorted(_CELL_POSITION)], dtype=np.intp)


def _count_row(record: CountRecord) -> np.ndarray:
    # The record's counts in _CELL_POSITION order. An axis without counts,
    # where inversion would leave NaN, raises.
    row = np.array([record.counts.get(cell, 0) for cell in _CELL_POSITION], dtype=np.int64)
    empty = np.argwhere(row.reshape(6, 3, 2).sum(axis=-1) == 0)
    if len(empty):
        key, axis = empty[0]
        j, s = SETTING_KEYS[key]
        raise ValueError(f"no counts for key (j={j}, s={s}) on axis {axis + 1}")
    return row


def _invert(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Direct inversion of (..., 6, 3, 2) counts into (..., 6, 3) Bloch
    # vectors, clipped radially onto the unit ball, and which were clipped,
    # (..., 6). An axis without counts leaves NaN in its vector.
    plus, minus = counts[..., 0], counts[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        vectors = (plus - minus) / (plus + minus)
    norms = np.sqrt(np.matmul(vectors[..., None, :], vectors[..., None])[..., 0, 0])
    clipped = norms > 1.0
    np.divide(vectors, norms[..., None], out=vectors, where=clipped[..., None])
    return vectors, clipped


def _clipped_keys(clipped: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple(key for key, c in zip(SETTING_KEYS, clipped) if c)


def ensemble_from_counts(
    record: CountRecord,
) -> tuple[RefereeEnsemble, tuple[tuple[int, int], ...]]:
    """Reconstruct all six referee states; also report which got clipped."""
    row = _count_row(check_type(record, CountRecord, "record"))
    vectors, clipped = _invert(row.reshape(6, 3, 2))
    return RefereeEnsemble(dict(zip(SETTING_KEYS, vectors))), _clipped_keys(clipped)


def _mean_fidelity(vectors: np.ndarray) -> float:
    # avg_fidelity: the mean over keys of (1 + s n_(j,s)[j]) / 2, each state's fidelity with s e_j.
    total = sum(1.0 + s * n[j - 1] for (j, s), n in zip(SETTING_KEYS, vectors))
    return float(total) / (2.0 * len(SETTING_KEYS))


@dataclass(frozen=True)
class BootstrapResult:
    """Spread of the calibration boundary under Poisson count resampling."""

    mean: float
    std: float
    failures: int


# Count rows inverted and calibrated per array pass, so the working arrays
# stay a few hundred kB whatever the number of trials; what grows is the
# calibrated rates, 8 bytes per trial, as they are computed.
_BOOTSTRAP_BLOCK = 1024


def _calibrated_stack(record: CountRecord, trials: int = 200, seed: int = 0) -> tuple:
    # One pass over a (1 + trials, 6, 3, 2) count stack: row 0 is the
    # record's _count_row (checked first), row 1 + t trial t's Poisson redraw
    # of its cells, in sorted order, from substream [seed, t]. Returns the
    # trials' BootstrapResult, then the record's rate (NaN if it fails),
    # vectors, clipped flags and sign table.
    row = _count_row(record)
    trials = check_integer(trials, 1, math.inf, "trials must be an integer >= 1")
    seed = check_seed(seed)
    drawn = _SORTED_POSITION[row[_SORTED_POSITION] > 0]
    base = row[drawn]
    rates = []
    for start in range(0, 1 + trials, _BOOTSTRAP_BLOCK):
        counts = np.zeros((min(_BOOTSTRAP_BLOCK, 1 + trials - start), row.size), dtype=np.int64)
        for n in range(max(start, 1), start + len(counts)):
            counts[n - start, drawn] = _substream(seed, n - 1).poisson(base)
        if not start:
            counts[0] = row
        vectors, clipped = _invert(counts.reshape(-1, 6, 3, 2))
        # RefereeEnsemble's check as a mask: clipped vectors lie in the
        # unit ball, so only the finiteness half can fail.
        ok = np.isfinite(vectors).all(axis=(1, 2))
        tables = _sign_tables(vectors[ok])
        rates.append(np.full(len(ok), np.nan))
        rates[-1][ok] = _rstar_tables(*tables)
        if not start:  # row 0 has no empty axis, so its vectors are finite
            point = rates[0][0], vectors[0], clipped[0], (tables[0][0], tables[1][0])
    values = np.concatenate(rates)[1:]
    values = values[~np.isnan(values)]
    if not len(values):
        raise CalibrationError("every bootstrap trial failed to calibrate")
    spread = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return BootstrapResult(float(np.mean(values)), spread, trials - len(values)), point


def bootstrap_calibration(
    record: CountRecord, trials: int = 200, seed: int = 0
) -> BootstrapResult:
    """Poisson-resample the counts and recalibrate.

    Every trial draws from its own substream of ``seed``, so a trial's
    counts do not depend on how many trials run; trials are inverted and
    calibrated as arrays, _BOOTSTRAP_BLOCK at a time, in the stacked pass
    ``calibrate`` runs on counts, behind the record's own row. A record with
    an empty axis raises ValueError before any trial, as in ``calibrate``.
    Trials whose resampled counts cannot be calibrated (an axis without
    counts, or no sound rate below 4) are excluded and counted.
    """
    return _calibrated_stack(check_type(record, CountRecord, "record"), trials, seed)[0]


def chsh_werner(w: float) -> float:
    """CHSH value 2 sqrt(2) w of werner_state(w) at the optimal angles.

    Alice measures along 0 and pi/2 in the z-x plane, Bob along +/- pi/4;
    the tests recompute the four correlators from the density matrix as
    the oracle for this closed form.
    """
    return 2.0 * math.sqrt(2.0) * check_fraction(w, "Werner weight")


def werner_threshold(spec: GameSpec, analyzer: BinaryPovm, ensemble: RefereeEnsemble) -> float:
    """W_game: the Werner weight up to which honest players do not win.

    werner_state is affine in W and the payoff is linear in the shared
    state, so the honest payoff with this analyzer and ensemble is affine
    in W, P(W) = P(0) + (P(1) - P(0)) W, and is positive exactly above
    -P(0) / (P(1) - P(0)). When P(1) <= P(0) no weight wins, and the
    threshold is inf; so it is when the slope is within 1e-12 of the
    payoffs' scale, as at visibility 0, where it is 0 up to rounding noise
    of either sign. With the ideal analyzer and ensemble it is r/sqrt(3);
    at visibility v on the ideal ensemble, sqrt(3) r (2 - v) / (3 v).
    """
    check_type(analyzer, BinaryPovm, "analyzer")
    p0, p1 = (
        exact_payoff(spec, HonestQuantum(werner_state(w), analyzer), ensemble) for w in (0.0, 1.0)
    )
    if p1 - p0 <= 1e-12 * max(1.0, abs(p0), abs(p1)):
        return math.inf
    return -p0 / (p1 - p0)


def regime_at(w: float, w_game: float) -> str:
    """Place a Werner weight on the steering/Bell map of a game whose
    honest players win exactly above the weight w_game (see
    werner_threshold). w_game takes check_real's rule and may be
    infinite, as werner_threshold's inf is, but not NaN. The Bell
    landmarks are properties of the state."""
    w = check_fraction(w, "Werner weight")
    w_game = check_real(w_game, "w_game")
    if math.isnan(w_game):
        raise ValueError("w_game must not be NaN")
    if w <= w_game:
        return REGIME_UNSTEERABLE
    if w > W_KNOWN_BELL:
        return REGIME_BELL
    if w > W_NO_BELL:
        return REGIME_OPEN_WINDOW
    return REGIME_STEERABLE_NO_BELL


def regime_classify(w: float, r: float) -> str:
    """Place a Werner weight on the steering/Bell map for a game at rate r
    played with the ideal analyzer and ensemble, where W_game = r/sqrt(3)."""
    check_fraction(w, "Werner weight")  # before the rate, so a bad weight is the error reported
    return regime_at(w, check_nonnegative(r, "penalty rate r") / SQRT3)


def _check_kraus(kraus: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    kraus = kraus if np.iterable(kraus) else ()
    ops = tuple(_as_numbers(k, complex, "Kraus operator") for k in kraus)
    if not ops or any(k.shape != (2, 2) or not np.isfinite(k).all() for k in ops):
        raise ValueError("channel must be given as finite 2x2 Kraus operators")
    total = sum(k.conj().T @ k for k in ops)
    if np.max(np.abs(total - identity(2))) > 1e-9:
        raise ValueError("Kraus operators violate completeness beyond 1e-9")
    return ops


def _apply(ops: tuple[np.ndarray, ...], rho: np.ndarray) -> np.ndarray:
    # The channel sum_i K_i rho K_i^dag, on Kraus operators that _check_kraus has passed.
    return sum(k @ rho @ k.conj().T for k in ops)


def _dual(ops: tuple[np.ndarray, ...], effect: np.ndarray) -> np.ndarray:
    # The dual map sum_i K_i^dag E K_i, on Kraus operators that _check_kraus has passed.
    return sum(k.conj().T @ effect @ k for k in ops)


def _channel_ensemble(ops: tuple[np.ndarray, ...], ensemble: RefereeEnsemble) -> RefereeEnsemble:
    # Every referee state sent through the channel of checked Kraus operators.
    states = ensemble.density_stack.reshape(6, 2, 2)
    vectors = (density_to_bloch(_apply(ops, rho)) for rho in states)
    return RefereeEnsemble(dict(zip(SETTING_KEYS, vectors)))


def _dual_strategy(ops: tuple[np.ndarray, ...], strategy: Strategy) -> Strategy:
    # Bob's side of the strategy through the dual map of checked Kraus operators.
    if isinstance(strategy, HonestQuantum):
        # The dual map acts on the referee factor only; b0 follows from b1
        # because the dual of a trace-preserving channel is unital.
        b1 = _dual(tuple(tensor(identity(2), k) for k in ops), strategy.bob_povm.b1)
        return HonestQuantum(strategy.shared_state, BinaryPovm(identity(4) - b1, b1))
    return CustomLocal(LocalComponent(c.weight, c.alice_plus, _dual(ops, c.effect))
                       for c in strategy.components)


def channel_covariance_check(
    ensemble: RefereeEnsemble,
    kraus: tuple[np.ndarray, ...],
    strategy: Strategy,
) -> bool:
    """Verify that a channel on the referee states only relabels Bob's POVM.

    Sending every referee state through the channel while Bob keeps his
    measurement gives the same joint probabilities, within 1e-9 on every
    cell, as keeping the states and handing Bob the dual-transformed
    measurement. Since soundness quantifies over all of Bob's measurements,
    such a channel can never open a loophole.
    """
    check_type(ensemble, RefereeEnsemble, "ensemble")
    ops = _check_kraus(kraus)
    state_route = _cell_rows(strategy, _channel_ensemble(ops, ensemble))
    povm_route = _cell_rows(_dual_strategy(ops, strategy), ensemble)
    return all(abs(p - q) <= 1e-9 for row, other in zip(state_route, povm_route)
               for p, q in zip(row, other))


@dataclass(frozen=True)
class CalibrationReport:
    """Everything the referee needs to pick a defensible penalty rate.

    ``bound_at_r`` is kept as a read-only copy of the mapping checked here.
    """

    r_star_oracle: float
    r_star_printed: float
    r_star_legal: float
    worst_assignment: tuple[int, int, int]
    avg_fidelity: float
    bound_at_r: Mapping[float, float]
    clipped_keys: tuple[tuple[int, int], ...]
    bootstrap: BootstrapResult | None
    __reduce__ = _rebuilt_from("r_star_oracle", "r_star_printed", "r_star_legal",
                               "worst_assignment", "avg_fidelity", "bound_at_r",
                               "clipped_keys", "bootstrap")

    def __post_init__(self) -> None:
        bound_at = MappingProxyType(dict(self.bound_at_r))
        if self.r_star_oracle < 0.0:
            raise ValueError("calibrated rate cannot be negative")
        at_oracle = bound_at.get(self.r_star_oracle)
        if at_oracle is None or at_oracle > 1e-9:
            raise ValueError("report bound curve is inconsistent with the calibrated rate")
        object.__setattr__(self, "bound_at_r", bound_at)


_BOUND_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)


def calibrate(
    ensemble: RefereeEnsemble | None = None,
    counts: CountRecord | None = None,
    *,
    trials: int | None = None,
    seed: int | None = None,
) -> CalibrationReport:
    """Full calibration from either a known ensemble or tomography counts.

    With counts, the ensemble is reconstructed by direct inversion and the
    boundary's spread is bootstrapped over ``trials`` resamplings drawn from
    ``seed`` (200 and 0 when not given, as in bootstrap_calibration), in
    one stacked pass whose row 0 is the record; an empty axis raises before
    ``trials`` or ``seed`` is checked. With a known ensemble only the
    deterministic readouts are produced, and giving ``trials`` or ``seed``
    raises. The printed closed form is set to NaN when its domain condition
    fails, never silently substituted.
    """
    if (ensemble is None) == (counts is None):
        raise ValueError("provide exactly one of ensemble or counts")
    given = {name: v for name, v in (("trials", trials), ("seed", seed)) if v is not None}
    if counts is None:
        if given:
            raise UnusedArgumentsError(*given)
        vectors, clipped, boot = check_type(ensemble, RefereeEnsemble, "ensemble").stack, (), None
        table = ensemble.witness_form[:2]
        rate = _rstar_tables(*table)
    else:
        boot, (rate, vectors, flags, table) = _calibrated_stack(
            check_type(counts, CountRecord, "counts"), **given)
        clipped = _clipped_keys(flags)
    oracle = _first_rstar(rate)
    try:
        printed = _printed(*table)
    except ValueError:
        printed = float("nan")
    grid = (*_BOUND_GRID, oracle)
    values = _top_eigenvalues(*table, np.array(grid))
    bound_at = dict(zip(grid, np.max(values, axis=-1).tolist()))
    return CalibrationReport(
        r_star_oracle=oracle,
        r_star_printed=printed,
        r_star_legal=max(oracle, 1.0),
        worst_assignment=_first_max(values[-1]),
        avg_fidelity=_mean_fidelity(vectors),
        bound_at_r=bound_at,
        clipped_keys=clipped,
        bootstrap=boot,
    )


def report_to_dict(report: CalibrationReport) -> dict:
    """JSON-ready form of a calibration report."""
    boot = report.bootstrap
    return {
        "r_star_oracle": report.r_star_oracle,
        "r_star_printed": report.r_star_printed,
        "r_star_legal": report.r_star_legal,
        "worst_assignment": list(report.worst_assignment),
        "avg_fidelity": report.avg_fidelity,
        "clipped_keys": [list(k) for k in report.clipped_keys],
        "bootstrap": None
        if boot is None
        else {"mean": boot.mean, "std": boot.std, "failures": boot.failures},
    }

