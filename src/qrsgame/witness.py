"""Soundness analysis: witness operators, calibration and regime labels.

A no-steering adversary with fixed Alice signs a and an arbitrary response
effect E on the referee qubit collects payoff tr(E T_a(r)), where T_a(r)
is the witness operator assembled from the referee Bloch vectors. The
best such adversary therefore earns the top eigenvalue of T_a(r), which
is |A_a - r B| - 2 sqrt(3) r in closed form, and the game is sound at rate
r exactly when that value is nonpositive for all eight sign assignments.
The calibration oracle takes the least such r as the largest root of a
quadratic, rounded up to a multiple of 2^-34; the tests check it against
bisection and the eigenvalues against numpy's eigensolver.

Calibration reports also carry ``rstar_printed``, a second closed-form
readout with a different normalization; its docstring says how the two
differ. The oracle is the operational one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .game import SQRT3, CustomLocal, GameSpec, HonestQuantum, LocalComponent, Strategy
from .game import BinaryPovm, CountTable, check_rate, exact_payoff, joint_probabilities
from .qmath import bloch_to_density, density_to_bloch, identity, is_integer, pauli, tensor
from .states import SETTING_KEYS, RefereeEnsemble, _check_weight, werner_state

TWO_SQRT3 = 2.0 * SQRT3

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

SIGN_TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    itertools.product((-1, 1), repeat=3)
)


class CalibrationError(RuntimeError):
    """Raised when no sound penalty rate can be certified."""


_SIGNS = np.array(SIGN_TRIPLES, dtype=float)

# The witness arithmetic below works on stacks of sign tables (leading
# axes ...), one per ensemble or bootstrap trial, and gives each table the
# same bits as a stack of one. Where one table took a dot product with `@`
# or np.linalg.norm of a vector, matmul runs the same BLAS dot and gemv
# kernels on the stack; a summed product would round differently.


def _sign_tables(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # From (..., 6, 3) Bloch vectors in SETTING_KEYS order: the eight A rows
    # as (..., 8, 3) in SIGN_TRIPLES order, and B as (..., 3).
    plus, minus = vectors[..., 0::2, :], vectors[..., 1::2, :]
    diffs = (plus - minus)[..., None, :, :]
    rows = (
        _SIGNS[:, 0:1] * diffs[..., 0, :]
        + _SIGNS[:, 1:2] * diffs[..., 1, :]
        + _SIGNS[:, 2:3] * diffs[..., 2, :]
    )
    sums = (plus + minus) / SQRT3
    return rows, sums[..., 0, :] + sums[..., 1, :] + sums[..., 2, :]


def _sign_table(ensemble: RefereeEnsemble) -> tuple[np.ndarray, np.ndarray]:
    return _sign_tables(ensemble.stack)


def assignment_vectors(
    ensemble: RefereeEnsemble, assignment: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The pair (A, B): signed difference sum and scaled total sum.

    A = sum_j a_j (n_(j,+) - n_(j,-)) depends on the sign assignment,
    B = sum_j (n_(j,+) + n_(j,-)) / sqrt(3) does not.
    """
    if len(assignment) != 3 or any(a not in (-1, 1) for a in assignment):
        raise ValueError(f"assignment must be three values of +/-1, got {assignment}")
    rows, vec_b = _sign_table(ensemble)
    return rows[SIGN_TRIPLES.index(tuple(assignment))], vec_b


def t_operator(
    ensemble: RefereeEnsemble, assignment: tuple[int, int, int], r: float
) -> np.ndarray:
    """Witness operator T_a(r) = (A - r B) . sigma - 2 sqrt(3) r."""
    r = check_rate(r)
    vec_a, vec_b = assignment_vectors(ensemble, assignment)
    t = vec_a - r * vec_b
    out = -TWO_SQRT3 * r * identity(2)
    for i in (1, 2, 3):
        out += t[i - 1] * pauli(i)
    return out


def _top_eigenvalues(rows: np.ndarray, vec_b: np.ndarray, r: float | np.ndarray) -> np.ndarray:
    # lambda_max(T_a(r)) = |A_a - r B| - 2 sqrt(3) r for all eight a, with
    # one rate per table (r of shape ...). The norm is the sum of squares
    # np.linalg.norm(axis=-1) takes, without its dispatch.
    r = np.asarray(r, dtype=float)
    t = rows - r[..., None, None] * vec_b[..., None, :]
    return np.sqrt(np.add.reduce(t * t, axis=-1)) - TWO_SQRT3 * r[..., None]


def _first_max(values: np.ndarray) -> tuple[int, int, int]:
    # The sign assignment of the largest value; lexicographically smallest
    # on ties within 1e-15.
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best] + 1e-15:
            best = i
    return SIGN_TRIPLES[best]


def lhs_bound(ensemble: RefereeEnsemble, r: float) -> float:
    """Best no-steering payoff at rate r: max over signs of the top
    witness eigenvalue."""
    return float(np.max(_top_eigenvalues(*_sign_table(ensemble), check_rate(r))))


def worst_assignment(ensemble: RefereeEnsemble, r: float) -> tuple[int, int, int]:
    """Sign assignment attaining lhs_bound; lexicographically smallest on ties."""
    return _first_max(_top_eigenvalues(*_sign_table(ensemble), check_rate(r)))


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
    # rstar_oracle for each of T tables, (T, 8, 3) and (T, 3); NaN where it
    # raises. One grid walk for all tables: from the rounded-up root, step up
    # while unsound (dead past 4), then down while the step below is sound.
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


def _rstar(rows: np.ndarray, vec_b: np.ndarray) -> float:
    rstar = float(_rstar_tables(rows[None], vec_b[None])[0])
    if math.isnan(rstar):
        raise CalibrationError("no sound penalty rate below 4; ensemble is unphysical")
    return rstar


def rstar_oracle(ensemble: RefereeEnsemble) -> float:
    """Least r >= 0 on the grid k * 2^-34 with lhs_bound(r) <= 0.

    The bound is nonpositive exactly when |A - r B| <= 2 sqrt(3) r for all
    signs, so the boundary is the largest positive root of
    (12 - B.B) r^2 + 2 (A.B) r - A.A = 0. That root is rounded up onto the
    grid and walked up while the bound fails, then down while it still
    holds one step below (the bootstrap's walk, on a stack of one): the
    upper end of the final bracket of the bisection the tests keep as this
    function's oracle, so the bound at the result is nonpositive.

    At r = sqrt(3), A - r B = -2 sum_j n_(j,-a_j) has norm at most 6 =
    2 sqrt(3) r, so r* <= sqrt(3) for every ensemble in the unit ball; the
    "below 4" error only guards roots that come out NaN or infinite.
    """
    return _rstar(*_sign_table(ensemble))


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
    return _printed(*_sign_table(ensemble))


class CountRecord(CountTable):
    """Tomography counts per (j, s, axis, outcome) cell; s and outcome are signed."""

    CELLS = ((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1))
    HEADER = "j,s,axis,outcome,count"
    ROW = "{},{:+d},{},{:+d},{}"
    NAME = "count"


def bloch_from_counts(record: CountRecord, key: tuple[int, int]) -> np.ndarray:
    """Direct-inversion Bloch vector for one key of a complete record (all six keys).

    Component i is (N+ - N-)/(N+ + N-) on axis i; vectors that land outside
    the unit ball from counting noise are clipped radially back onto it.
    """
    return ensemble_from_counts(record)[0].vector(*key)


# Position of each (j, s, axis, outcome) cell in a flattened (6, 3, 2)
# count array: key in SETTING_KEYS order, axis, then outcome +1 before -1.
_CELL_POSITION = {
    cell: i
    for i, cell in enumerate(
        (j, s, axis, o) for j, s in SETTING_KEYS for axis in (1, 2, 3) for o in (1, -1)
    )
}


def _invert(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Direct inversion of (T, 6, 3, 2) counts into (T, 6, 3) Bloch vectors,
    # clipped radially onto the unit ball, and which were clipped, (T, 6).
    # An axis without counts leaves NaN in its vector.
    plus, minus = counts[..., 0], counts[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        vectors = (plus - minus) / (plus + minus)
    norms = np.sqrt(np.matmul(vectors[..., None, :], vectors[..., None])[..., 0, 0])
    clipped = norms > 1.0
    np.divide(vectors, norms[..., None], out=vectors, where=clipped[..., None])
    return vectors, clipped


def ensemble_from_counts(
    record: CountRecord,
) -> tuple[RefereeEnsemble, tuple[tuple[int, int], ...]]:
    """Reconstruct all six referee states; also report which got clipped."""
    counts = np.array([record.counts.get(cell, 0) for cell in _CELL_POSITION], dtype=np.int64)
    vectors, clipped = _invert(counts.reshape(1, 6, 3, 2))
    empty = np.argwhere(np.isnan(vectors[0]))
    if len(empty):
        key, axis = empty[0]
        j, s = SETTING_KEYS[key]
        raise ValueError(f"no counts for key (j={j}, s={s}) on axis {axis + 1}")
    ensemble = RefereeEnsemble(dict(zip(SETTING_KEYS, vectors[0])))
    return ensemble, tuple(key for key, c in zip(SETTING_KEYS, clipped[0]) if c)


def average_fidelity(ensemble: RefereeEnsemble) -> float:
    """Mean fidelity of the six referee states with their ideal directions.

    The ideal state for key (j, s) is pure with Bloch vector s e_j, so each
    fidelity is (1 + s n_(j,s)[j]) / 2, the value fidelity_pure returns.
    """
    total = sum(1.0 + s * ensemble.vector(j, s)[j - 1] for j, s in SETTING_KEYS)
    return float(total) / (2.0 * len(SETTING_KEYS))


@dataclass
class BootstrapResult:
    """Spread of the calibration boundary under Poisson count resampling."""

    mean: float
    std: float
    failures: int


# Bootstrap trials resampled and calibrated per array pass, so the working
# arrays stay a few hundred kB whatever the number of trials; what grows is
# the calibrated rates, 8 bytes per trial, as they are computed.
_BOOTSTRAP_BLOCK = 1024


def bootstrap_calibration(
    record: CountRecord, trials: int = 200, seed: int = 0
) -> BootstrapResult:
    """Poisson-resample the counts and recalibrate.

    Every trial draws from its own substream of ``seed``, so a trial's
    counts do not depend on how many trials run; trials are inverted and
    calibrated as arrays, _BOOTSTRAP_BLOCK at a time. Trials whose
    resampled counts cannot be calibrated (an axis without counts, or no
    sound rate below 4) are excluded and counted.
    """
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    cells = sorted(record.counts)
    base = np.array([record.counts[c] for c in cells], dtype=np.int64)
    index = np.array([_CELL_POSITION[c] for c in cells], dtype=np.intp)
    calibrated = []
    for start in range(0, trials, _BOOTSTRAP_BLOCK):
        block = range(start, min(start + _BOOTSTRAP_BLOCK, trials))
        counts = np.zeros((len(block), len(_CELL_POSITION)), dtype=np.int64)
        for row, trial in enumerate(block):
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
            counts[row, index] = rng.poisson(base)
        vectors, _ = _invert(counts.reshape(-1, 6, 3, 2))
        # RefereeEnsemble's check as a mask: clipped vectors lie in the
        # unit ball, so only the finiteness half can fail.
        ok = np.isfinite(vectors).all(axis=(1, 2))
        rstar = _rstar_tables(*_sign_tables(vectors[ok]))
        calibrated.append(rstar[~np.isnan(rstar)])
    values = np.concatenate(calibrated)
    if not len(values):
        raise CalibrationError("every bootstrap trial failed to calibrate")
    spread = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return BootstrapResult(float(np.mean(values)), spread, trials - len(values))


def chsh_werner(w: float) -> float:
    """CHSH value 2 sqrt(2) w of werner_state(w) at the optimal angles.

    Alice measures along 0 and pi/2 in the z-x plane, Bob along +/- pi/4;
    the tests recompute the four correlators from the density matrix as
    the oracle for this closed form.
    """
    _check_weight(w)
    return 2.0 * math.sqrt(2.0) * w


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
    p0, p1 = (
        exact_payoff(spec, HonestQuantum(werner_state(w), analyzer), ensemble) for w in (0.0, 1.0)
    )
    if p1 - p0 <= 1e-12 * max(1.0, abs(p0), abs(p1)):
        return math.inf
    return -p0 / (p1 - p0)


def regime_at(w: float, w_game: float) -> str:
    """Place a Werner weight on the steering/Bell map of a game whose
    honest players win exactly above the weight w_game (see
    werner_threshold). The Bell landmarks are properties of the state."""
    _check_weight(w)
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
    _check_weight(w)  # before the rate, so a bad weight is the error reported
    return regime_at(w, check_rate(r) / SQRT3)


def _check_kraus(kraus: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    ops = tuple(np.asarray(k, dtype=complex) for k in kraus)
    if not ops or any(k.shape != (2, 2) or not np.isfinite(k).all() for k in ops):
        raise ValueError("channel must be given as finite 2x2 Kraus operators")
    total = sum(k.conj().T @ k for k in ops)
    if np.max(np.abs(total - identity(2))) > 1e-9:
        raise ValueError("Kraus operators violate completeness beyond 1e-9")
    return ops


def channel_apply(kraus: tuple[np.ndarray, ...], rho: np.ndarray) -> np.ndarray:
    """Apply the channel sum_i K_i rho K_i^dag to a qubit state."""
    ops = _check_kraus(kraus)
    return sum(k @ np.asarray(rho, dtype=complex) @ k.conj().T for k in ops)


def channel_dual(kraus: tuple[np.ndarray, ...], effect: np.ndarray) -> np.ndarray:
    """Apply the dual map sum_i K_i^dag E K_i to a qubit effect."""
    ops = _check_kraus(kraus)
    return sum(k.conj().T @ np.asarray(effect, dtype=complex) @ k for k in ops)


def channel_ensemble(
    kraus: tuple[np.ndarray, ...], ensemble: RefereeEnsemble
) -> RefereeEnsemble:
    """Send every referee state through the channel."""
    vectors = {}
    for key in SETTING_KEYS:
        rho = channel_apply(kraus, bloch_to_density(ensemble.vector(*key)))
        vectors[key] = density_to_bloch(rho)
    return RefereeEnsemble(vectors)


def _dual_povm(kraus: tuple[np.ndarray, ...], povm: BinaryPovm) -> BinaryPovm:
    # Dual map acting on the referee factor only; b0 follows from b1
    # because the dual of a trace-preserving channel is unital.
    b1 = sum(
        tensor(identity(2), k.conj().T) @ povm.b1 @ tensor(identity(2), k)
        for k in kraus
    )
    return BinaryPovm(identity(4) - b1, b1)


def _dual_strategy(kraus: tuple[np.ndarray, ...], strategy: Strategy) -> Strategy:
    if isinstance(strategy, HonestQuantum):
        return HonestQuantum(strategy.shared_state, _dual_povm(kraus, strategy.bob_povm))
    if isinstance(strategy, CustomLocal):
        components = tuple(
            LocalComponent(c.weight, dict(c.alice_plus), channel_dual(kraus, c.effect))
            for c in strategy.components
        )
        return CustomLocal(components)
    raise ValueError(f"unknown strategy type {type(strategy).__name__}")


def channel_covariance_check(
    ensemble: RefereeEnsemble,
    kraus: tuple[np.ndarray, ...],
    strategy: Strategy,
    tol: float = 1e-9,
) -> bool:
    """Verify that a channel on the referee states only relabels Bob's POVM.

    Sending every referee state through the channel while Bob keeps his
    measurement gives the same joint probabilities as keeping the states
    and handing Bob the dual-transformed measurement. Since soundness
    quantifies over all of Bob's measurements, such a channel can never
    open a loophole.
    """
    ops = _check_kraus(kraus)
    moved_states = channel_ensemble(ops, ensemble)
    moved_povm = _dual_strategy(ops, strategy)
    for key in SETTING_KEYS:
        p_state_route = joint_probabilities(strategy, moved_states, *key)
        p_povm_route = joint_probabilities(moved_povm, ensemble, *key)
        for cell in p_state_route:
            if not abs(p_state_route[cell] - p_povm_route[cell]) <= tol:
                return False
    return True


@dataclass
class CalibrationReport:
    """Everything the referee needs to pick a defensible penalty rate."""

    r_star_oracle: float
    r_star_printed: float
    r_star_legal: float
    worst_assignment: tuple[int, int, int]
    avg_fidelity: float
    bound_at_r: dict[float, float]
    clipped_keys: tuple[tuple[int, int], ...]
    bootstrap: BootstrapResult | None

    def __post_init__(self) -> None:
        if self.r_star_oracle < 0.0:
            raise ValueError("calibrated rate cannot be negative")
        at_oracle = self.bound_at_r.get(self.r_star_oracle)
        if at_oracle is None or at_oracle > 1e-9:
            raise ValueError("report bound curve is inconsistent with the calibrated rate")


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
    ``seed``, each left to bootstrap_calibration's default when not given;
    with a known ensemble only the deterministic readouts are produced, and
    giving ``trials`` or ``seed`` raises. The printed closed form is set to
    NaN when its domain condition fails, never silently substituted.
    """
    if (ensemble is None) == (counts is None):
        raise ValueError("provide exactly one of ensemble or counts")
    clipped: tuple[tuple[int, int], ...] = ()
    boot = None
    given = {name: v for name, v in (("trials", trials), ("seed", seed)) if v is not None}
    if counts is None:
        if given:
            raise ValueError(f"calibrate with an ensemble does not use {' or '.join(given)}")
    else:
        ensemble, clipped = ensemble_from_counts(counts)
        boot = bootstrap_calibration(counts, **given)
    assert ensemble is not None
    table = _sign_table(ensemble)
    oracle = _rstar(*table)
    try:
        printed = _printed(*table)
    except ValueError:
        printed = float("nan")
    rates = (*_BOUND_GRID, oracle)
    values = _top_eigenvalues(*table, np.array(rates))
    bound_at = dict(zip(rates, np.max(values, axis=-1).tolist()))
    return CalibrationReport(
        r_star_oracle=oracle,
        r_star_printed=printed,
        r_star_legal=max(oracle, 1.0),
        worst_assignment=_first_max(values[-1]),
        avg_fidelity=average_fidelity(ensemble),
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


def save_report(report: CalibrationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")
