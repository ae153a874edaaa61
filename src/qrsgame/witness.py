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

from .game import SQRT3, CustomLocal, HonestQuantum, LhsDeterministic, LocalComponent, Strategy
from .game import BinaryPovm, CountTable, check_rate, joint_probabilities
from .qmath import bloch_to_density, density_to_bloch, identity, pauli, tensor
from .states import SETTING_KEYS, RefereeEnsemble

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


def _sign_table(ensemble: RefereeEnsemble) -> tuple[np.ndarray, np.ndarray]:
    # The eight A rows as an (8, 3) array in SIGN_TRIPLES order, and B.
    vectors = ensemble.vectors
    diffs = [vectors[(j, 1)] - vectors[(j, -1)] for j in (1, 2, 3)]
    rows = _SIGNS[:, 0:1] * diffs[0] + _SIGNS[:, 1:2] * diffs[1] + _SIGNS[:, 2:3] * diffs[2]
    vec_b = np.zeros(3)
    for j in (1, 2, 3):
        vec_b += (vectors[(j, 1)] + vectors[(j, -1)]) / SQRT3
    return rows, vec_b


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


def _top_eigenvalues(rows: np.ndarray, vec_b: np.ndarray, r: float) -> np.ndarray:
    # lambda_max(T_a(r)) = |A_a - r B| - 2 sqrt(3) r for all eight a at once.
    r = check_rate(r)
    return np.linalg.norm(rows - r * vec_b, axis=1) - TWO_SQRT3 * r


def lhs_bound(ensemble: RefereeEnsemble, r: float) -> float:
    """Best no-steering payoff at rate r: max over signs of the top
    witness eigenvalue."""
    return float(np.max(_top_eigenvalues(*_sign_table(ensemble), r)))


def worst_assignment(ensemble: RefereeEnsemble, r: float) -> tuple[int, int, int]:
    """Sign assignment attaining lhs_bound; lexicographically smallest on ties."""
    values = _top_eigenvalues(*_sign_table(ensemble), r)
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best] + 1e-15:
            best = i
    return SIGN_TRIPLES[best]


def _largest_root(rows: np.ndarray, vec_b: np.ndarray, c: float) -> float:
    # Largest over assignments of the positive root of
    # (c - B.B) r^2 + 2 (A.B) r - A.A = 0, in the cancellation-free form
    # A.A / (A.B + sqrt((A.B)^2 + (c - B.B) A.A)); A.A = 0 gives 0.
    aa = np.einsum("ij,ij->i", rows, rows)
    ab = rows @ vec_b
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = aa / (ab + np.sqrt(ab * ab + (c - float(vec_b @ vec_b)) * aa))
    return float(np.max(np.where(aa == 0.0, 0.0, roots)))


# r* is reported on the grid where a bisection on [0, 4] to 1e-10 ends, so
# it matches the bisection oracle in the tests to within one grid step.
_RSTAR_GRID = 2.0 ** -34


def rstar_oracle(ensemble: RefereeEnsemble) -> float:
    """Least r >= 0 on the grid k * 2^-34 with lhs_bound(r) <= 0.

    The bound is nonpositive exactly when |A - r B| <= 2 sqrt(3) r for all
    signs, so the boundary is the largest positive root of
    (12 - B.B) r^2 + 2 (A.B) r - A.A = 0. That root is rounded up onto the
    grid and stepped until the bound holds there and fails one step below:
    the upper end of the final bracket of the bisection the tests keep as
    this function's oracle, so the bound at the result is nonpositive.

    At r = sqrt(3), A - r B = -2 sum_j n_(j,-a_j) has norm at most 6 =
    2 sqrt(3) r, so r* <= sqrt(3) for every ensemble in the unit ball; the
    "below 4" error only guards roots that come out NaN or infinite.
    """
    rows, vec_b = _sign_table(ensemble)
    root = _largest_root(rows, vec_b, 12.0)
    if not root <= 4.0:
        raise CalibrationError("no sound penalty rate below 4; ensemble is unphysical")

    def sound(k: int) -> bool:
        return np.max(_top_eigenvalues(rows, vec_b, k * _RSTAR_GRID)) <= 0.0

    k = math.ceil(root / _RSTAR_GRID)
    while not sound(k):
        k += 1
        if k * _RSTAR_GRID > 4.0:
            raise CalibrationError("no sound penalty rate below 4; ensemble is unphysical")
    while k > 0 and sound(k - 1):
        k -= 1
    return k * _RSTAR_GRID


def rstar_printed(ensemble: RefereeEnsemble) -> float:
    """Closed-form calibration readout with the conventional normalization.

    The same root as rstar_oracle's with 3 in place of 12: the max over
    signs of (sqrt((A.B)^2 + A.A (3 - B.B)) - A.B) / (3 - B.B). The
    sign-sum vector enters unhalved, so on the ideal ensemble this yields
    2, twice the operational boundary found by rstar_oracle; calibration
    reports carry both so the discrepancy stays visible.
    """
    rows, vec_b = _sign_table(ensemble)
    bb = float(vec_b @ vec_b)
    if 3.0 - bb <= 0.0:
        raise ValueError(f"printed closed form undefined: B.B = {bb:.6f} >= 3")
    return _largest_root(rows, vec_b, 3.0)


class CountRecord(CountTable):
    """Tomography counts per (j, s, axis, outcome) cell; s and outcome are signed."""

    CELLS = ((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1))
    HEADER = "j,s,axis,outcome,count"
    ROW = "{},{:+d},{},{:+d},{}"
    NAME = "count"


def bloch_from_counts(record: CountRecord, key: tuple[int, int]) -> np.ndarray:
    """Direct-inversion Bloch vector for one referee key.

    Component i is (N+ - N-)/(N+ + N-) on axis i; vectors that land outside
    the unit ball from counting noise are clipped radially back onto it.
    """
    return _invert_counts(record, key)[0]


def _invert_counts(record: CountRecord, key: tuple[int, int]) -> tuple[np.ndarray, bool]:
    # The inverted vector and whether it had to be clipped onto the sphere.
    j, s = key
    vec = np.zeros(3)
    for axis in (1, 2, 3):
        plus = record.cell(j, s, axis, 1)
        minus = record.cell(j, s, axis, -1)
        total = plus + minus
        if total == 0:
            raise ValueError(f"no counts for key (j={j}, s={s}) on axis {axis}")
        vec[axis - 1] = (plus - minus) / total
    norm = float(np.linalg.norm(vec))
    if norm > 1.0:
        vec /= norm
    return vec, norm > 1.0


def ensemble_from_counts(
    record: CountRecord,
) -> tuple[RefereeEnsemble, tuple[tuple[int, int], ...]]:
    """Reconstruct all six referee states; also report which got clipped."""
    vectors = {}
    clipped = []
    for key in SETTING_KEYS:
        vectors[key], was_clipped = _invert_counts(record, key)
        if was_clipped:
            clipped.append(key)
    return RefereeEnsemble(vectors), tuple(clipped)


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


def bootstrap_calibration(
    record: CountRecord, trials: int = 200, seed: int = 0
) -> BootstrapResult:
    """Poisson-resample the counts and recalibrate, trial by trial.

    Every trial draws from its own substream of ``seed``; trials whose
    resampled counts cannot be calibrated are excluded and counted.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    values = []
    failures = 0
    cells = sorted(record.counts)
    base = np.array([record.counts[c] for c in cells], dtype=np.int64)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        resampled = rng.poisson(base)
        counts = {cell: int(n) for cell, n in zip(cells, resampled)}
        try:
            ensemble, _ = ensemble_from_counts(CountRecord(counts))
            values.append(rstar_oracle(ensemble))
        except (ValueError, CalibrationError):
            failures += 1
    if not values:
        raise CalibrationError("every bootstrap trial failed to calibrate")
    spread = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return BootstrapResult(float(np.mean(values)), spread, failures)


def chsh_werner(w: float) -> float:
    """CHSH value 2 sqrt(2) w of werner_state(w) at the optimal angles.

    Alice measures along 0 and pi/2 in the z-x plane, Bob along +/- pi/4;
    the tests recompute the four correlators from the density matrix as
    the oracle for this closed form.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner weight must lie in [0, 1], got {w}")
    return 2.0 * math.sqrt(2.0) * w


def regime_classify(w: float, r: float) -> str:
    """Place a Werner weight on the steering/Bell map for a game at rate r."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner weight must lie in [0, 1], got {w}")
    r = check_rate(r)
    if w <= r / SQRT3:
        return REGIME_UNSTEERABLE
    if w > W_KNOWN_BELL:
        return REGIME_BELL
    if w > W_NO_BELL:
        return REGIME_OPEN_WINDOW
    return REGIME_STEERABLE_NO_BELL


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
    if isinstance(strategy, (LhsDeterministic, CustomLocal)):
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
    trials: int = 200,
    seed: int = 0,
) -> CalibrationReport:
    """Full calibration from either a known ensemble or tomography counts.

    With counts, the ensemble is reconstructed by direct inversion and the
    boundary's spread is bootstrapped; with a known ensemble only the
    deterministic readouts are produced. The printed closed form is set to
    NaN when its domain condition fails, never silently substituted.
    """
    if (ensemble is None) == (counts is None):
        raise ValueError("provide exactly one of ensemble or counts")
    clipped: tuple[tuple[int, int], ...] = ()
    boot = None
    if counts is not None:
        ensemble, clipped = ensemble_from_counts(counts)
        boot = bootstrap_calibration(counts, trials=trials, seed=seed)
    assert ensemble is not None
    oracle = rstar_oracle(ensemble)
    try:
        printed = rstar_printed(ensemble)
    except ValueError:
        printed = float("nan")
    bound_at = {r: lhs_bound(ensemble, r) for r in _BOUND_GRID}
    bound_at[oracle] = lhs_bound(ensemble, oracle)
    return CalibrationReport(
        r_star_oracle=oracle,
        r_star_printed=printed,
        r_star_legal=max(oracle, 1.0),
        worst_assignment=worst_assignment(ensemble, oracle),
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
