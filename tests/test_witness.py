"""Witness operators, calibration oracle, tomography ingestion, channels."""

import copy
import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qrsgame import game, qmath, states, witness
from qrsgame.game import (
    SQRT3,
    BinaryPovm,
    HonestQuantum,
    TallyTable,
    canonical_game,
    exact_payoff,
    partial_bsm_povm,
)
from qrsgame.qmath import identity, pauli, real_trace_product, tensor
from qrsgame.states import (
    SETTING_KEYS,
    RefereeEnsemble,
    referee_ideal,
    referee_state,
    werner_state,
)
from qrsgame.witness import (
    SIGN_TRIPLES,
    TWO_SQRT3,
    BootstrapResult,
    CalibrationError,
    CalibrationReport,
    CountRecord,
    assignment_vectors,
    bootstrap_calibration,
    calibrate,
    chsh_werner,
    ensemble_from_counts,
    lhs_bound,
    regime_at,
    report_to_dict,
    rstar_oracle,
    rstar_printed,
    t_operator,
    werner_threshold,
    worst_assignment,
)

import helpers
from helpers import (
    apply_channel,
    channel_covariance_check,
    channel_ensemble,
    check_kraus,
    depolarize_ensemble,
    dual_channel,
    fidelity_pure,
    perturbed_ensemble,
    random_lhs_strategy,
    random_local_strategy,
    random_rotation,
    regime_classify,
    rotate_ensemble,
    singlet_projector_bc,
)


def aligned_ensemble():
    # All six states point the same way; nothing depends on Alice's input,
    # so no sign assignment ever profits and the game is sound at r = 0.
    return RefereeEnsemble({k: np.array([0.0, 0.0, 1.0]) for k in SETTING_KEYS})


def counts_from_ensemble(ensemble, total):
    counts = {}
    for j, s in SETTING_KEYS:
        n = ensemble.vector(j, s)
        for axis in (1, 2, 3):
            plus = round(total * (1.0 + n[axis - 1]) / 2.0)
            counts[(j, s, axis, 1)] = plus
            counts[(j, s, axis, -1)] = total - plus
    return CountRecord(counts)


def _chsh_from_correlators(w):
    # |S| from the four correlators tr[rho (n_a.sigma x n_b.sigma)] of
    # werner_state(w): Alice along 0 and pi/2 in the z-x plane, Bob along
    # +/- pi/4.
    def spin(theta):
        return math.sin(theta) * pauli(1) + math.cos(theta) * pauli(3)

    rho = werner_state(w)

    def corr(ta, tb):
        return real_trace_product(rho, tensor(spin(ta), spin(tb)))

    a0, a1, b0, b1 = 0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0
    return abs(corr(a0, b0) + corr(a0, b1) + corr(a1, b0) - corr(a1, b1))


class TestWitnessOperator:
    def test_ideal_assignment_vectors(self):
        for a in SIGN_TRIPLES:
            vec_a, vec_b = assignment_vectors(referee_ideal(), a)
            assert np.allclose(vec_a, 2.0 * np.array(a))
            assert np.allclose(vec_b, np.zeros(3))

    def test_assignment_validation(self):
        """A sign must be an integer +/-1: a float or bool equal to 1 is
        rejected by assignment_vectors and so by t_operator; numpy ints
        are integers."""
        ens = referee_ideal()
        with pytest.raises(ValueError, match="assignment"):
            assignment_vectors(ens, (1, 0, 1))
        for bad in ((True, 1, -1), (1.0, 1, -1), (1, np.float64(-1.0), 1), (1, 1, np.True_)):
            with pytest.raises(ValueError, match="assignment must be three integers"):
                assignment_vectors(ens, bad)
            with pytest.raises(ValueError, match="assignment must be three integers"):
                t_operator(ens, bad, 0.5)
        for bad in (5, None):
            with pytest.raises(ValueError) as err:
                assignment_vectors(ens, bad)
            assert str(err.value) == f"assignment must be three integers +/-1, got {bad}"
        signs = (np.int64(1), 1, np.int64(-1))
        assert np.array_equal(t_operator(ens, signs, 0.5), t_operator(ens, (1, 1, -1), 0.5))

    def test_top_eigenvalue_closed_form(self):
        """lambda_max(T) = |A - r B| - 2 sqrt(3) r for every assignment."""
        rng = np.random.default_rng(201)
        for _ in range(10):
            ens = perturbed_ensemble(rng)
            r = float(2.0 * rng.random())
            for a in SIGN_TRIPLES:
                vec_a, vec_b = assignment_vectors(ens, a)
                want = float(np.linalg.norm(vec_a - r * vec_b)) - TWO_SQRT3 * r
                got = float(np.linalg.eigvalsh(t_operator(ens, a, r))[-1])
                assert math.isclose(got, want, abs_tol=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            t_operator(referee_ideal(), (1, 1, 1), -0.1)

    def test_non_finite_rate_rejected(self):
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError, match="penalty rate"):
                t_operator(referee_ideal(), (1, 1, 1), r)
            with pytest.raises(ValueError, match="penalty rate"):
                lhs_bound(referee_ideal(), r)
            with pytest.raises(ValueError, match="penalty rate"):
                regime_classify(0.5, r)

    def test_ideal_bound_formula(self):
        for r in (0.0, 0.5, 0.9, 1.0, 1.5):
            assert math.isclose(
                lhs_bound(referee_ideal(), r), TWO_SQRT3 * (1.0 - r), abs_tol=1e-12
            )

    def test_bound_decreases_with_rate(self):
        rng = np.random.default_rng(202)
        ens = perturbed_ensemble(rng)
        grid = np.linspace(0.0, 2.0, 21)
        values = [lhs_bound(ens, float(r)) for r in grid]
        assert all(values[i + 1] < values[i] for i in range(len(grid) - 1))

    def test_worst_assignment_tie_break(self):
        assert worst_assignment(referee_ideal(), 0.5) == (-1, -1, -1)

    def test_worst_assignment_follows_geometry(self):
        """When the j = 1 and j = 2 difference vectors anti-align, the best
        adversary must answer those two inputs with opposite signs."""
        vectors = {k: v for k, v in referee_ideal().vectors.items()}
        vectors[(2, 1)] = np.array([-0.6, 0.8, 0.0])
        vectors[(2, -1)] = np.array([0.6, -0.8, 0.0])
        ens = RefereeEnsemble(vectors)
        assert worst_assignment(ens, 0.1) == (-1, 1, -1)

    def test_bound_agrees_with_sphere_mesh(self):
        """Coarse direction mesh can only undershoot the eigenvalue, and
        not by much."""
        i = np.arange(2000)
        z = 1.0 - (2.0 * i + 1.0) / 2000
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(1.0 - z * z)
        mesh = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        rng = np.random.default_rng(203)
        for _ in range(4):
            ens = perturbed_ensemble(rng)
            for r in (0.3, 1.0):
                brute = max(
                    float(np.max(mesh @ (assignment_vectors(ens, a)[0]
                                         - r * assignment_vectors(ens, a)[1])))
                    for a in SIGN_TRIPLES
                ) - TWO_SQRT3 * r
                gap = lhs_bound(ens, r) - brute
                assert -1e-12 <= gap < 5e-3

    def test_bound_slope_matches_derivative(self):
        # d(bound)/dr = -(2 sqrt(3) + t_hat . B) along the active assignment.
        rng = np.random.default_rng(204)
        ens = perturbed_ensemble(rng)
        r0 = 0.5 * rstar_oracle(ens)
        a = worst_assignment(ens, r0)
        vec_a, vec_b = assignment_vectors(ens, a)
        t = vec_a - r0 * vec_b
        want = -(TWO_SQRT3 + float(t @ vec_b) / float(np.linalg.norm(t)))
        h = 1e-5
        got = (lhs_bound(ens, r0 + h) - lhs_bound(ens, r0 - h)) / (2.0 * h)
        assert abs(got - want) < 0.1 * abs(want)


class TestCalibrationOracle:
    def test_ideal_rate_is_one(self):
        assert abs(rstar_oracle(referee_ideal()) - 1.0) < 1e-9

    def test_depolarized_rate_tracks_strength(self):
        # With symmetric states B = 0 and the boundary sits exactly at eta.
        for eta in (0.2, 0.5, 0.8, 1.0):
            got = rstar_oracle(depolarize_ensemble(referee_ideal(), eta))
            assert abs(got - eta) < 1e-9

    def test_rotation_invariant(self):
        rng = np.random.default_rng(205)
        ens = perturbed_ensemble(rng)
        base = rstar_oracle(ens)
        for _ in range(5):
            moved = rotate_ensemble(ens, random_rotation(rng))
            assert abs(rstar_oracle(moved) - base) < 1e-9

    def test_returned_rate_is_sound(self):
        rng = np.random.default_rng(206)
        for _ in range(5):
            ens = perturbed_ensemble(rng)
            rstar = rstar_oracle(ens)
            assert lhs_bound(ens, rstar) <= 0.0
            if rstar > 1e-3:
                assert lhs_bound(ens, rstar - 1e-3) > 0.0

    def test_degenerate_ensembles_need_no_penalty(self):
        zero = RefereeEnsemble({k: np.zeros(3) for k in SETTING_KEYS})
        assert rstar_oracle(zero) == 0.0
        assert rstar_oracle(aligned_ensemble()) == 0.0


GRID = 2.0 ** -34


def _eigen_bound(ensemble, r):
    # lhs_bound through numpy's eigensolver on the eight witness operators.
    return max(float(np.linalg.eigvalsh(t_operator(ensemble, a, r))[-1]) for a in SIGN_TRIPLES)


def _bisect_rstar(ensemble):
    """Least sound rate by bisection on [0, 4] to 1e-10: the oracle for
    rstar_oracle's closed-form root and grid stepping."""
    if lhs_bound(ensemble, 0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 4.0
    if lhs_bound(ensemble, hi) > 0.0:
        raise CalibrationError("no sound penalty rate below 4; ensemble is unphysical")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if lhs_bound(ensemble, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _eigen_worst(ensemble, r):
    # First assignment whose eigensolver value is within 1e-12 of the top:
    # the tie rule of worst_assignment, robust to eigensolver rounding.
    values = [float(np.linalg.eigvalsh(t_operator(ensemble, a, r))[-1]) for a in SIGN_TRIPLES]
    top = max(values)
    return next(a for a, v in zip(SIGN_TRIPLES, values) if v >= top - 1e-12)


@pytest.fixture(scope="module")
def oracle_cases():
    """(ensemble, rstar_oracle) over 300 perturbed, the ideal, 21 depolarized
    and the aligned ensembles."""
    rng = np.random.default_rng(210)
    ensembles = [perturbed_ensemble(rng) for _ in range(300)]
    ensembles.append(referee_ideal())
    ensembles += [depolarize_ensemble(referee_ideal(), float(eta))
                  for eta in np.linspace(0.0, 1.0, 21)]
    ensembles.append(aligned_ensemble())
    return [(ens, rstar_oracle(ens)) for ens in ensembles]


class TestClosedFormOracles:
    def test_matches_bisection(self, oracle_cases):
        for ens, rstar in oracle_cases:
            assert abs(rstar - _bisect_rstar(ens)) <= GRID

    def test_least_sound_grid_point(self, oracle_cases):
        for ens, rstar in oracle_cases:
            assert rstar / GRID == math.floor(rstar / GRID)
            assert lhs_bound(ens, rstar) <= 0.0
            if rstar > 0.0:
                assert lhs_bound(ens, rstar - GRID) > 0.0

    def test_bound_matches_eigensolver(self, oracle_cases):
        for ens, rstar in oracle_cases:
            for r in (0.0, 0.5 * rstar, rstar, 1.0, 2.5):
                assert abs(lhs_bound(ens, r) - _eigen_bound(ens, r)) <= 1e-12

    def test_worst_assignment_matches_eigen_scan(self, oracle_cases):
        for ens, rstar in oracle_cases:
            for r in (0.0, 0.5 * rstar, rstar):
                assert worst_assignment(ens, r) == _eigen_worst(ens, r)
        for r in (0.0, 0.5, 1.0, 1.5):
            assert worst_assignment(referee_ideal(), r) == (-1, -1, -1)
            assert _eigen_worst(referee_ideal(), r) == (-1, -1, -1)

    def test_rate_never_exceeds_sqrt3(self):
        """At r = sqrt(3), A - r B = -2 sum_j n_(j, -a_j), so the bound is
        <= 0 for any vectors in the unit ball; r* = sqrt(3) is reached when
        every + state is one unit vector and every - state its opposite."""
        rng = np.random.default_rng(211)
        n = 20000
        vecs = rng.normal(size=(n, 6, 3))
        # A third start near the extremal ensemble: + states along z,
        # - states opposite.
        vecs[2::3] = 0.3 * vecs[2::3] + np.array([[0.0, 0.0, s] for _, s in SETTING_KEYS])
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        # A third are shrunk into the ball, uniformly by volume.
        vecs[1::3] *= rng.random(size=(len(vecs[1::3]), 6, 1)) ** (1.0 / 3.0)
        highest = max(
            rstar_oracle(RefereeEnsemble(dict(zip(SETTING_KEYS, v)))) for v in vecs
        )
        assert 1.6 < highest <= SQRT3
        extremal = RefereeEnsemble({(j, s): np.array([0.0, 0.0, float(s)])
                                    for j, s in SETTING_KEYS})
        assert abs(rstar_oracle(extremal) - SQRT3) <= GRID

    def test_non_finite_root_is_a_calibration_error(self):
        """An ensemble cannot hold a NaN vector, so the NaN enters through
        the sign table: one NaN A row, and the table of a stack whose
        (2, +1) vector is NaN, both have no sound rate below 4."""
        rows, vec_b = witness._sign_tables(referee_ideal().stack)
        rows = rows.copy()
        rows[5] = math.nan
        stack = referee_ideal().stack.copy()
        stack[SETTING_KEYS.index((2, 1))] = [math.nan, 0.0, 0.0]
        for rows, vec_b in ((rows, vec_b), witness._sign_tables(stack)):
            with pytest.raises(CalibrationError, match="no sound penalty rate below 4"):
                witness._first_rstar(witness._rstar_tables(rows, vec_b))


class TestPrintedReadout:
    def test_ideal_value_is_two(self):
        # The conventional closed form lands at twice the operational
        # boundary on the ideal ensemble; pinned, not hidden.
        assert rstar_printed(referee_ideal()) == 2.0

    def test_half_depolarized_value_is_one(self):
        assert math.isclose(rstar_printed(depolarize_ensemble(referee_ideal(), 0.5)), 1.0)

    def test_zero_ensemble(self):
        zero = RefereeEnsemble({k: np.zeros(3) for k in SETTING_KEYS})
        assert rstar_printed(zero) == 0.0

    def test_domain_error_when_sum_vector_too_long(self):
        with pytest.raises(ValueError, match="B.B"):
            rstar_printed(aligned_ensemble())


class TestTomography:
    def test_exact_counts_invert_exactly(self):
        ens = depolarize_ensemble(referee_ideal(), 0.8)
        record = counts_from_ensemble(ens, 10000)
        got, clipped = ensemble_from_counts(record)
        assert clipped == ()
        for key in SETTING_KEYS:
            assert np.allclose(got.vector(*key), ens.vector(*key))

    def test_single_key_reads_the_full_inversion(self):
        """Inversion needs a complete record: the counts of one key alone,
        all of its axes present, raise at the first key without counts."""
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.8), 1000)
        partial = CountRecord({c: n for c, n in record.counts.items() if c[:2] == (1, 1)})
        with pytest.raises(ValueError, match=r"no counts for key \(j=1, s=-1\) on axis 1"):
            ensemble_from_counts(partial)

    def test_noisy_vector_is_clipped(self):
        counts = {(1, 1, axis, 1): 10 for axis in (1, 2, 3)}
        counts.update({(1, 1, axis, -1): 0 for axis in (1, 2, 3)})
        counts.update({(j, s, axis, o): 5 for j, s in SETTING_KEYS[1:]
                       for axis in (1, 2, 3) for o in (1, -1)})
        ens, clipped = ensemble_from_counts(CountRecord(counts))
        assert clipped == ((1, 1),)
        assert math.isclose(float(np.linalg.norm(ens.vector(1, 1))), 1.0, abs_tol=1e-12)

    def test_missing_axis_is_an_error(self):
        record = counts_from_ensemble(referee_ideal(), 100)
        counts = {c: n for c, n in record.counts.items() if c[:3] != (2, -1, 3)}
        with pytest.raises(ValueError, match=r"\(j=2, s=-1\) on axis 3"):
            ensemble_from_counts(CountRecord(counts))

    def test_record_validation(self):
        with pytest.raises(ValueError, match="malformed count cell"):
            CountRecord({(1, 1, 4, 1): 5})
        for n in (-2, 2.7, True, 2**52 + 1, 2**63, np.uint64(2**64 - 1)):
            with pytest.raises(ValueError) as err:
                CountRecord({(1, 1, 1, 1): n})
            assert str(err.value) == ("count for cell (1, 1, 1, 1) must be an integer from 0 to"
                                      f" 2^52, got {n!r}")
        assert CountRecord({(1, 1, 1, 1): 2**52}).cell(1, 1, 1, 1) == 2**52

    def test_average_fidelity(self):
        assert calibrate(ensemble=referee_ideal()).avg_fidelity == 1.0
        got = calibrate(ensemble=depolarize_ensemble(referee_ideal(), 0.974)).avg_fidelity
        assert math.isclose(got, 0.987, abs_tol=1e-12)

    def test_average_fidelity_matches_density_matrices(self):
        # Oracle: fidelity_pure on each referee density matrix against the
        # ideal direction s e_j, averaged over the six keys.
        rng = np.random.default_rng(29)
        ideal = referee_ideal()
        for _ in range(50):
            ens = perturbed_ensemble(rng)
            want = np.mean(
                [fidelity_pure(referee_state(ens, j, s), ideal.vector(j, s))
                 for j, s in SETTING_KEYS]
            )
            assert math.isclose(calibrate(ensemble=ens).avg_fidelity, want, abs_tol=1e-12)


class TestBootstrap:
    def test_deterministic_per_seed(self):
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.9), 2000)
        a = bootstrap_calibration(record, trials=30, seed=3)
        b = bootstrap_calibration(record, trials=30, seed=3)
        assert (a.mean, a.std, a.failures) == (b.mean, b.std, b.failures)
        c = bootstrap_calibration(record, trials=30, seed=4)
        assert a.mean != c.mean

    def test_large_counts_concentrate_near_truth(self):
        record = counts_from_ensemble(referee_ideal(), 1000000)
        result = bootstrap_calibration(record, trials=50, seed=0)
        assert abs(result.mean - 1.0) < 0.005
        assert result.std < 0.01
        assert result.failures == 0

    def test_balanced_counts_need_no_penalty(self):
        # Flat counts reconstruct near-zero vectors, so the calibrated rate
        # hovers at zero with only Poisson jitter.
        counts = {(j, s, axis, o): 1000000 for j, s in SETTING_KEYS
                  for axis in (1, 2, 3) for o in (1, -1)}
        result = bootstrap_calibration(CountRecord(counts), trials=50, seed=0)
        assert result.mean < 0.01
        assert result.std < 0.01

    def test_spread_scales_with_counts(self):
        ens = depolarize_ensemble(referee_ideal(), 0.85)
        small = bootstrap_calibration(counts_from_ensemble(ens, 1000), trials=60, seed=1)
        large = bootstrap_calibration(counts_from_ensemble(ens, 100000), trials=60, seed=1)
        ratio = small.std / large.std
        assert 5.0 < ratio < 20.0

    def test_fragile_counts_report_failures(self):
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.9), 2000)
        counts = dict(record.counts)
        counts[(1, 1, 2, 1)] = 1
        counts[(1, 1, 2, -1)] = 0
        result = bootstrap_calibration(CountRecord(counts), trials=40, seed=0)
        # Poisson(1) hits zero in roughly a third of the trials; those must
        # be dropped and counted rather than poisoning the spread.
        assert 0 < result.failures < 40
        assert math.isfinite(result.mean)

    def test_all_failures_is_an_error(self):
        """A record with an empty axis raises before any trial runs; a record
        whose axes all have counts but whose trials all fail raises
        CalibrationError."""
        counts = {c: n for c, n in counts_from_ensemble(referee_ideal(), 100).counts.items()}
        counts[(3, -1, 1, 1)] = 0
        counts[(3, -1, 1, -1)] = 0
        with pytest.raises(ValueError, match=r"no counts for key \(j=3, s=-1\) on axis 1"):
            bootstrap_calibration(CountRecord(counts), trials=10, seed=0)
        # One count per axis: a trial's Poisson(1) redraw empties some axis
        # unless all eighteen draws are nonzero, about 1 time in 3900.
        single = {(j, s, axis, 1): 1 for j, s in SETTING_KEYS for axis in (1, 2, 3)}
        with pytest.raises(CalibrationError, match="every bootstrap trial"):
            bootstrap_calibration(CountRecord(single), trials=10, seed=0)

    def test_non_integer_arguments_rejected(self):
        record = counts_from_ensemble(referee_ideal(), 100)
        for trials in (True, 2.5):
            with pytest.raises(ValueError, match="trials"):
                bootstrap_calibration(record, trials=trials)
        with pytest.raises(ValueError, match="seed"):
            bootstrap_calibration(record, trials=2, seed=1.5)

    def test_argument_validation(self):
        record = counts_from_ensemble(referee_ideal(), 100)
        with pytest.raises(ValueError, match="trials"):
            bootstrap_calibration(record, trials=0)
        with pytest.raises(ValueError, match="seed"):
            bootstrap_calibration(record, seed=-1)


class TestRealArguments:
    # Each function taking a real argument, with a value in its range.
    CASES = (
        ("Werner weight", werner_state, 0.5),
        ("Werner weight", chsh_werner, 0.5),
        ("Werner weight", lambda w: regime_at(w, 0.5), 0.75),
        ("Werner weight", lambda w: regime_classify(w, 1.0), 0.75),
        ("visibility", lambda v: partial_bsm_povm(v).b1, 0.5),
    )

    def test_one_real_number_rule(self):
        """Every real argument takes check_real's rule: a bool or a string
        is a ValueError naming it, not 1 or a TypeError, and a numpy float
        or an int gives what its float gives."""
        for name, fn, value in self.CASES:
            for bad in (True, np.bool_(False), "0.5", None):
                with pytest.raises(ValueError, match=f"{name} must be a real number"):
                    fn(bad)
            want = fn(value)
            for same in (np.float64(value), np.float32(value)):
                got = fn(same)
                if isinstance(want, np.ndarray):
                    assert got.tobytes() == want.tobytes(), (name, same)
                else:
                    assert got == want and type(got) is type(want), (name, same)
            assert np.array_equal(fn(1), fn(1.0)), name

    def test_range_messages(self):
        """The range message shows the value as given."""
        for name, fn, _ in self.CASES:
            for bad, shown in ((2.0, "2.0"), (-1, "-1"), (np.float64(1.5), "1.5"),
                               (math.nan, "nan")):
                with pytest.raises(ValueError) as info:
                    fn(bad)
                assert str(info.value) == f"{name} must lie in [0, 1], got {shown}"


class TestRegimes:
    def test_chsh_matches_closed_form(self):
        for w in np.linspace(0.0, 1.0, 21):
            assert math.isclose(chsh_werner(float(w)), 2.0 * math.sqrt(2.0) * w, abs_tol=1e-12)
            assert math.isclose(chsh_werner(float(w)), _chsh_from_correlators(float(w)),
                                abs_tol=1e-12)

    def test_chsh_weight_range(self):
        for w in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="Werner weight"):
                chsh_werner(w)

    def test_chsh_golden_point(self):
        value = chsh_werner(0.698)
        assert math.isclose(value, 1.9742421330728401, abs_tol=1e-12)
        assert value < 2.0

    def test_chsh_boundary(self):
        assert math.isclose(chsh_werner(1.0 / math.sqrt(2.0)), 2.0, abs_tol=1e-12)

    def test_classification(self):
        assert regime_classify(0.5, 1.0) == "unsteerable-by-this-game"
        assert regime_classify(0.698, 1.081) == "steerable-open-Bell-window"
        assert regime_classify(0.62, 1.0) == "steerable-no-known-Bell"
        assert regime_classify(0.9, 1.0) == "Bell-violating"

    def test_classification_boundary_is_inclusive(self):
        r = 1.0
        assert regime_classify(r / SQRT3, r) == "unsteerable-by-this-game"
        assert regime_classify(r / SQRT3 + 1e-9, r) != "unsteerable-by-this-game"

    def test_classification_validation(self):
        with pytest.raises(ValueError, match="Werner weight"):
            regime_classify(1.2, 1.0)
        with pytest.raises(ValueError, match="penalty rate"):
            regime_classify(0.5, -1.0)
        with pytest.raises(ValueError, match="Werner weight"):
            regime_classify(1.2, -1.0)
        with pytest.raises(ValueError, match="Werner weight"):
            regime_at(-0.1, 0.5)


def _bisect_weight(spec, analyzer, ensemble):
    """Bisection oracle for the game's threshold: the largest Werner weight
    in [0, 1] whose honest payoff is not positive, or inf when even W = 1
    does not win."""
    def payoff(w):
        return exact_payoff(spec, HonestQuantum(werner_state(w), analyzer), ensemble)

    if payoff(1.0) <= 0.0:
        return math.inf
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if payoff(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


class TestGameThreshold:
    def test_ideal_ensemble_closed_form(self):
        """On the ideal ensemble the honest payoff is 3vW - sqrt(3) r (2 - v),
        so W_game = sqrt(3) r (2 - v) / (3 v), and r / sqrt(3) at v = 1."""
        ens = referee_ideal()
        for v in (1.0, 0.95, 0.9336, 0.9, 0.5):
            for r in (0.0, 0.5, 1.0, 1.081, 1.5):
                got = werner_threshold(canonical_game(r), partial_bsm_povm(v), ens)
                want = SQRT3 * r * (2.0 - v) / (3.0 * v)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
        got = werner_threshold(canonical_game(1.0), singlet_projector_bc(), ens)
        assert math.isclose(got, 1.0 / SQRT3, rel_tol=1e-14)

    def test_matches_bisection(self):
        """On depolarized and perturbed ensembles, with partial and random
        analyzers, the threshold is where the exact honest payoff turns
        positive."""
        rng = np.random.default_rng(121)
        crossings = 0
        for k in range(40):
            if k % 4:
                analyzer = partial_bsm_povm(float(rng.uniform(0.8, 1.0)))
            else:
                g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                h = g.conj().T @ g
                b1 = rng.random() * h / np.linalg.eigvalsh(h)[-1]
                analyzer = BinaryPovm(identity(4) - b1, b1)
            if k % 3:
                ens = depolarize_ensemble(referee_ideal(), float(rng.uniform(0.7, 1.0)))
            else:
                ens = perturbed_ensemble(rng)
            spec = canonical_game(float(rng.uniform(0.1, 0.6)))
            got = werner_threshold(spec, analyzer, ens)
            want = _bisect_weight(spec, analyzer, ens)
            if want == math.inf:
                assert got >= 1.0 - 1e-12
            else:
                crossings += 1
                assert abs(got - want) <= 1e-9
        assert crossings >= 10

    def test_no_weight_wins_when_payoff_falls_with_weight(self):
        """Referee states opposite to the ideal ones make the singlet lose more
        than the mixed state: P(1) <= P(0), so every weight is unsteerable."""
        flipped = RefereeEnsemble({(j, s): -v for (j, s), v in referee_ideal().vectors.items()})
        threshold = werner_threshold(canonical_game(1.0), singlet_projector_bc(), flipped)
        assert threshold == math.inf
        for w in np.linspace(0.0, 1.0, 11):
            assert regime_at(float(w), threshold) == "unsteerable-by-this-game"

    def test_flat_payoff_wins_no_weight(self):
        """At visibility 0 every analyzer input clicks with probability 1/2,
        so P(1) - P(0) is 0 up to rounding noise of either sign; the
        threshold is inf on every ensemble and rate, never -P(0) / noise."""
        rng = np.random.default_rng(122)
        analyzer = partial_bsm_povm(0.0)
        for k in range(60):
            ens = referee_ideal() if k % 3 == 0 else perturbed_ensemble(rng)
            spec = canonical_game(0.0 if k % 5 == 0 else float(rng.uniform(0.0, 2.0)))
            assert werner_threshold(spec, analyzer, ens) == math.inf

    def test_regime_at_boundary_and_landmarks(self):
        assert regime_at(0.7, 0.7) == "unsteerable-by-this-game"
        assert regime_at(0.7 + 1e-9, 0.7) == "steerable-open-Bell-window"
        assert regime_at(0.62, 0.5) == "steerable-no-known-Bell"
        assert regime_at(0.9, 0.5) == "Bell-violating"
        for w in np.linspace(0.0, 1.0, 101):
            for r in (0.0, 0.5, 1.0, 1.081):
                assert regime_at(float(w), r / SQRT3) == regime_classify(float(w), r)

    def test_regime_at_checks_the_threshold(self):
        """w_game takes check_real's rule, after the weight: a bool, a
        string or None is a ValueError naming it, and so is NaN, which
        compares false with every weight. An infinite threshold is valid:
        werner_threshold returns inf when no weight wins."""
        for bad in (True, np.bool_(False), "0.5", None, 1j):
            with pytest.raises(ValueError, match="w_game must be a real number"):
                regime_at(0.1, bad)
        for nan in (math.nan, np.float64("nan"), np.float32("nan")):
            with pytest.raises(ValueError, match="w_game must not be NaN"):
                regime_at(0.1, nan)
        with pytest.raises(ValueError, match="Werner weight"):
            regime_at(2.0, math.nan)
        assert regime_at(1.0, math.inf) == "unsteerable-by-this-game"
        assert regime_at(0.0, -math.inf) == "steerable-no-known-Bell"
        for same in (np.float64(0.5), np.float32(0.5), 0.5, Fraction(1, 2)):
            assert regime_at(0.5, same) == "unsteerable-by-this-game"
            assert regime_at(0.75, same) == "Bell-violating"
        assert regime_at(0.6, 1) == "unsteerable-by-this-game"


DEPOLARIZING_03 = tuple(
    np.sqrt(c) * m
    for c, m in (
        (1.0 - 0.75 * 0.3, identity(2)),
        (0.25 * 0.3, pauli(1)),
        (0.25 * 0.3, pauli(2)),
        (0.25 * 0.3, pauli(3)),
    )
)

AMPLITUDE_DAMPING_04 = (
    np.array([[1.0, 0.0], [0.0, math.sqrt(0.6)]], dtype=complex),
    np.array([[0.0, math.sqrt(0.4)], [0.0, 0.0]], dtype=complex),
)


def random_cp_map(rng, n_kraus=4):
    g = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    q, _ = np.linalg.qr(g)
    return tuple(q[2 * i: 2 * i + 2, :] for i in range(n_kraus))


class TestChannels:
    def test_apply_and_dual_are_adjoint(self):
        rng = np.random.default_rng(207)
        for _ in range(10):
            kraus = random_cp_map(rng)
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            effect = h + h.conj().T
            ops = check_kraus(kraus)
            lhs = np.trace(effect @ apply_channel(ops, rho))
            rhs = np.trace(dual_channel(ops, effect) @ rho)
            assert math.isclose(lhs.real, rhs.real, abs_tol=1e-12)

    def test_depolarizing_shrinks_bloch_vectors(self):
        moved = channel_ensemble(check_kraus(DEPOLARIZING_03), referee_ideal())
        for key in SETTING_KEYS:
            assert np.allclose(moved.vector(*key), 0.7 * referee_ideal().vector(*key))

    def test_incomplete_kraus_rejected(self):
        strat = HonestQuantum(werner_state(0.7), singlet_projector_bc())
        with pytest.raises(ValueError, match="completeness"):
            channel_covariance_check(referee_ideal(), (0.5 * identity(2),), strat)
        for kraus in ((identity(4),), ()):
            with pytest.raises(ValueError, match="2x2"):
                channel_covariance_check(referee_ideal(), kraus, strat)

    def test_non_finite_kraus_rejected(self):
        strat = HonestQuantum(werner_state(0.7), singlet_projector_bc())
        for bad in (np.nan, np.inf):
            k = identity(2)
            k[0, 1] = bad
            with pytest.raises(ValueError, match="finite 2x2 Kraus"):
                channel_covariance_check(referee_ideal(), (k,), strat)

    def test_covariance_identity_channel(self):
        strat = HonestQuantum(werner_state(0.7), singlet_projector_bc())
        assert channel_covariance_check(referee_ideal(), (identity(2),), strat)

    def test_covariance_all_strategy_shapes(self):
        rng = np.random.default_rng(208)
        ens = perturbed_ensemble(rng)
        strategies = (
            HonestQuantum(werner_state(0.698), singlet_projector_bc()),
            random_lhs_strategy(rng),
            random_local_strategy(rng),
        )
        for kraus in (DEPOLARIZING_03, AMPLITUDE_DAMPING_04, random_cp_map(rng)):
            for strat in strategies:
                assert channel_covariance_check(ens, kraus, strat)

    def test_covariance_random_unitaries(self):
        rng = np.random.default_rng(209)
        strat = HonestQuantum(werner_state(0.9), partial_bsm_povm(0.89))
        for _ in range(5):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(g)
            q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
            assert channel_covariance_check(referee_ideal(), (q,), strat)

    def test_covariance_checks_kraus_once(self, monkeypatch):
        """One covariance check runs check_kraus once, however many states
        and components the channel is applied to."""
        calls = []
        check = helpers.check_kraus

        def counted(kraus):
            calls.append(kraus)
            return check(kraus)

        monkeypatch.setattr(helpers, "check_kraus", counted)
        rng = np.random.default_rng(210)
        strat = random_local_strategy(rng, n_components=3)
        assert channel_covariance_check(perturbed_ensemble(rng), DEPOLARIZING_03, strat)
        assert len(calls) == 1

    def test_covariance_builds_each_joint_table_once(self, monkeypatch):
        """One covariance check builds one six-setting joint table per
        route, for every strategy shape, and never goes through
        joint_probabilities or bloch_to_density."""
        rng = np.random.default_rng(211)
        ens = perturbed_ensemble(rng)
        strategies = (
            HonestQuantum(werner_state(0.7), partial_bsm_povm(0.9)),
            random_lhs_strategy(rng),
            random_local_strategy(rng),
        )
        calls = []
        build = helpers._cell_rows
        monkeypatch.setattr(helpers, "_cell_rows", lambda s, e: calls.append(s) or build(s, e))

        def forbidden(*args):
            raise AssertionError("the covariance check left its two tables")

        for module in (game, qmath, states, witness, helpers):
            for name in ("joint_probabilities", "bloch_to_density"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        for kraus in (DEPOLARIZING_03, AMPLITUDE_DAMPING_04):
            for strat in strategies:
                calls.clear()
                assert channel_covariance_check(ens, kraus, strat)
                assert len(calls) == 2
                assert calls[0] is strat


class TestCalibrationReport:
    def test_reports_are_frozen(self):
        """A report's self-check holds for its life: no field of a
        calibration report or of its bootstrap result can be reassigned,
        so report_to_dict writes the checked values."""
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.8), 400)
        report = calibrate(counts=record, trials=5, seed=0)
        before = report_to_dict(report)
        for obj, name, value in ((report, "r_star_oracle", -1.0), (report, "bound_at_r", {}),
                                 (report.bootstrap, "mean", -1.0),
                                 (report.bootstrap, "failures", 7)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        assert report_to_dict(report) == before

    def test_bound_curve_is_read_only(self):
        """bound_at_r is a read-only copy of the curve the report checked, so
        no write can put a positive bound at r*; pickling or copying
        rebuilds the report through that check."""
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.8), 400)
        report = calibrate(counts=record, trials=5, seed=0)
        with pytest.raises(TypeError):
            report.bound_at_r[report.r_star_oracle] = 5.0
        curve = dict(report.bound_at_r)
        mine = dataclasses.replace(report, bound_at_r=curve)
        curve[report.r_star_oracle] = 5.0
        assert mine.bound_at_r[report.r_star_oracle] <= 0.0
        for clone in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert clone == report and report_to_dict(clone) == report_to_dict(report)
            with pytest.raises(TypeError):
                clone.bound_at_r[0.0] = 5.0

    def test_from_ensemble(self):
        report = calibrate(ensemble=referee_ideal())
        assert abs(report.r_star_oracle - 1.0) < 1e-9
        assert report.r_star_printed == 2.0
        assert math.isclose(report.r_star_legal, 1.0, abs_tol=1e-9)
        assert report.worst_assignment == (-1, -1, -1)
        assert math.isclose(report.avg_fidelity, 1.0)
        assert report.clipped_keys == ()
        assert report.bootstrap is None
        assert report.bound_at_r[report.r_star_oracle] <= 0.0

    def test_legal_rate_never_below_one(self):
        report = calibrate(ensemble=depolarize_ensemble(referee_ideal(), 0.8))
        assert abs(report.r_star_oracle - 0.8) < 1e-9
        assert report.r_star_legal == 1.0

    def test_from_counts_includes_bootstrap(self):
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.9), 20000)
        report = calibrate(counts=record, trials=25, seed=1)
        assert isinstance(report.bootstrap, BootstrapResult)
        assert abs(report.r_star_oracle - 0.9) < 0.05
        assert report.bootstrap.std < 0.05

    def test_printed_readout_may_be_nan(self):
        report = calibrate(ensemble=aligned_ensemble())
        assert report.r_star_oracle == 0.0
        assert math.isnan(report.r_star_printed)
        assert report.r_star_legal == 1.0

    def test_exactly_one_input(self):
        with pytest.raises(ValueError, match="exactly one"):
            calibrate()
        with pytest.raises(ValueError, match="exactly one"):
            calibrate(
                ensemble=referee_ideal(),
                counts=counts_from_ensemble(referee_ideal(), 10),
            )

    def test_bootstrap_arguments_rejected_with_ensemble(self):
        """trials and seed only drive the counts path; with an ensemble they
        are refused by name, not silently ignored."""
        for kwargs, named in (
            ({"trials": 2.5}, "trials"),
            ({"seed": -1}, "seed"),
            ({"trials": 200, "seed": 0}, "trials or seed"),
        ):
            with pytest.raises(ValueError, match=f"does not use {named}$"):
                calibrate(ensemble=referee_ideal(), **kwargs)

    def test_unused_arguments_are_named_in_the_error(self):
        """The names calibrate refuses are carried by the error, in
        parameter order, so the CLI can print them as its flags."""
        with pytest.raises(witness.UnusedArgumentsError) as err:
            calibrate(ensemble=referee_ideal(), seed=0, trials=3)
        assert isinstance(err.value, ValueError)
        assert err.value.args == ("trials", "seed")

    def test_bootstrap_defaults_on_counts(self):
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.9), 2000)
        default = calibrate(counts=record).bootstrap
        assert default == calibrate(counts=record, trials=200, seed=0).bootstrap
        assert default == bootstrap_calibration(record, trials=200, seed=0)

    def test_report_self_checks(self):
        with pytest.raises(ValueError, match="negative"):
            CalibrationReport(-1.0, 2.0, 1.0, (1, 1, 1), 1.0, {-1.0: 0.0}, (), None)
        with pytest.raises(ValueError, match="inconsistent"):
            CalibrationReport(1.0, 2.0, 1.0, (1, 1, 1), 1.0, {1.0: 0.5}, (), None)

    def test_dict_layout(self):
        data = report_to_dict(calibrate(ensemble=referee_ideal()))
        assert set(data) == {
            "r_star_oracle", "r_star_printed", "r_star_legal",
            "worst_assignment", "avg_fidelity", "clipped_keys", "bootstrap",
        }
        assert data["worst_assignment"] == [-1, -1, -1]
        assert data["bootstrap"] is None


class TestCountsCsv:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "counts.csv")
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.9), 500)
        record.save(path)
        assert CountRecord.load(path).counts == record.counts

    def test_cell_keys_must_be_integers(self, tmp_path):
        """Every part of a tally or count cell key passes is_integer, as
        its count does: a float or bool part is rejected even where it
        equals a valid integer, and numpy-int parts are stored as Python
        ints, so saving and loading gives the same table."""
        for table, name, cell in (
            (TallyTable, "tally", (2, -1, -1, 0)),
            (CountRecord, "count", (1, 1, 3, -1)),
        ):
            for i, part in enumerate(cell):
                bads = [float(part), np.float64(part)] + [bool(part)] * (part in (0, 1))
                for bad in bads:
                    key = cell[:i] + (bad,) + cell[i + 1:]
                    with pytest.raises(ValueError, match=f"malformed {name} cell"):
                        table({(1, 1, 1, 1): 3, key: 5})
            built = table({(1, 1, 1, 1): 3, tuple(np.int64(v) for v in cell): np.int64(5)})
            assert built.counts == {(1, 1, 1, 1): 3, cell: 5}
            assert all(type(v) is int for key in built.counts for v in key)
            path = str(tmp_path / f"{name}.csv")
            built.save(path)
            loaded = table.load(path)
            assert loaded.counts == built.counts
            assert all(type(v) is int for key in loaded.counts for v in key)
            assert loaded.format() == built.format()

    def test_counts_cannot_change_after_their_checks(self):
        """A table's counts are checked once, when it is built, so the
        table is frozen and its counts are a read-only mapping: a write of
        a negative, over-cap or fractional count raises TypeError, and
        calibrate and format still see the counts that were checked."""
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.9), 500)
        tally = TallyTable({(1, 1, 1, 1): 3, (2, -1, -1, 0): 4})
        want = report_to_dict(calibrate(counts=record, trials=3, seed=0))
        text = tally.format()
        for table in (record, tally):
            for n in (-40, 2**60, 2.5):
                with pytest.raises(TypeError):
                    table.counts[(1, 1, 1, 1)] = n
            with pytest.raises(TypeError):
                del table.counts[(1, 1, 1, 1)]
            with pytest.raises(dataclasses.FrozenInstanceError):
                table.counts = {(1, 1, 1, 1): -40}
        assert report_to_dict(calibrate(counts=record, trials=3, seed=0)) == want
        assert tally.format() == text

    def test_frozen_tables_round_trip(self, tmp_path):
        """Pickle, copy and deepcopy rebuild a table through its checking
        constructor, and load(save(t)) == t: each copy equals the original,
        keeps its cell order and is read-only too."""
        record = counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.9), 500)
        tally = TallyTable({(2, -1, -1, 0): 4, (1, 1, 1, 1): 3})
        for table in (record, tally):
            path = str(tmp_path / f"{table.NAME}.csv")
            table.save(path)
            copies = (pickle.loads(pickle.dumps(table)), copy.copy(table), copy.deepcopy(table))
            for other in (*copies, type(table).load(path)):
                assert type(other) is type(table)
                assert other == table
                with pytest.raises(TypeError):
                    other.counts[(1, 1, 1, 1)] = 1
            assert all(list(c.counts.items()) == list(table.counts.items()) for c in copies)
        assert tally != TallyTable({(1, 1, 1, 1): 3})
        assert CountRecord({(1, 1, 1, 1): 3}) != TallyTable({(1, 1, 1, 1): 3})

    def test_cell_keys_must_have_four_parts(self):
        """A key that is not four parts, or not a tuple, is a malformed
        cell: the constructor raises its ValueError, not an unpacking
        error or a TypeError."""
        for table, name in ((TallyTable, "tally"), (CountRecord, "count")):
            for key in ((1, 1, 1), (1, 1, 1, 1, 1), 5, "1111", "abc"):
                with pytest.raises(ValueError) as err:
                    table({(1, 1, 1, 1): 3, key: 5})
                assert str(err.value) == f"malformed {name} cell {key}"

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("j,s,a,b,count\n")
        with pytest.raises(ValueError, match="header"):
            CountRecord.load(str(path))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row in ("1,+1,1,oops,3", "1,+1,4,+1,3", "1,+1,1,0,3", "1,+1,1,-1,-3"):
            path.write_text(f"j,s,axis,outcome,count\n1,+1,1,+1,10\n{row}\n")
            with pytest.raises(ValueError, match="line 3"):
                CountRecord.load(str(path))

    def test_format_layout(self, tmp_path):
        # Rows follow SETTING_KEYS x (axis, outcome +1 then -1), zero cells
        # are dropped and lines end in LF.
        record = CountRecord({(2, -1, 3, -1): 4, (1, 1, 2, 1): 0, (1, 1, 1, -1): 2,
                              (1, 1, 1, 1): 5})
        assert record.counts == {(2, -1, 3, -1): 4, (1, 1, 1, -1): 2, (1, 1, 1, 1): 5}
        path = tmp_path / "counts.csv"
        record.save(str(path))
        assert path.read_bytes() == (
            b"j,s,axis,outcome,count\n1,+1,1,+1,5\n1,+1,1,-1,2\n2,-1,3,-1,4\n"
        )

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("j,s,axis,outcome,count\n1,+1,1,+1,10\n1,+1,1,+1,3\n")
        with pytest.raises(ValueError, match="duplicate"):
            CountRecord.load(str(path))


# The calibration path as it ran before it was batched: one Python loop per
# record and one grid walk per ensemble. The array-native code must give
# the same numbers, bit for bit.


def _loop_sign_table(ensemble):
    signs = np.array(SIGN_TRIPLES, dtype=float)
    vectors = ensemble.vectors
    diffs = [vectors[(j, 1)] - vectors[(j, -1)] for j in (1, 2, 3)]
    rows = signs[:, 0:1] * diffs[0] + signs[:, 1:2] * diffs[1] + signs[:, 2:3] * diffs[2]
    vec_b = np.zeros(3)
    for j in (1, 2, 3):
        vec_b += (vectors[(j, 1)] + vectors[(j, -1)]) / SQRT3
    return rows, vec_b


def _loop_root(rows, vec_b, c):
    aa = np.einsum("ij,ij->i", rows, rows)
    ab = rows @ vec_b
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = aa / (ab + np.sqrt(ab * ab + (c - float(vec_b @ vec_b)) * aa))
    return float(np.max(np.where(aa == 0.0, 0.0, roots)))


def _loop_printed(ensemble):
    rows, vec_b = _loop_sign_table(ensemble)
    if 3.0 - float(vec_b @ vec_b) <= 0.0:
        return "undefined"
    return _loop_root(rows, vec_b, 3.0)


def _loop_rstar(ensemble):
    rows, vec_b = _loop_sign_table(ensemble)
    root = _loop_root(rows, vec_b, 12.0)
    if not root <= 4.0:
        raise CalibrationError("no sound penalty rate below 4; ensemble is unphysical")

    def sound(k):
        r = k * GRID
        return np.max(np.linalg.norm(rows - r * vec_b, axis=1) - TWO_SQRT3 * r) <= 0.0

    k = math.ceil(root / GRID)
    while not sound(k):
        k += 1
        if k * GRID > 4.0:
            raise CalibrationError("no sound penalty rate below 4; ensemble is unphysical")
    while k > 0 and sound(k - 1):
        k -= 1
    return k * GRID


def _loop_invert(record):
    vectors = {}
    clipped = []
    for j, s in SETTING_KEYS:
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
            clipped.append((j, s))
        vectors[(j, s)] = vec
    return RefereeEnsemble(vectors), tuple(clipped)


def _loop_bootstrap(record, trials, seed):
    values = []
    failures = 0
    cells = sorted(record.counts)
    base = np.array([record.counts[c] for c in cells], dtype=np.int64)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        resampled = rng.poisson(base)
        counts = {cell: int(n) for cell, n in zip(cells, resampled)}
        try:
            values.append(_loop_rstar(_loop_invert(CountRecord(counts))[0]))
        except (ValueError, CalibrationError):
            failures += 1
    if not values:
        raise CalibrationError("every bootstrap trial failed to calibrate")
    spread = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return BootstrapResult(float(np.mean(values)), spread, failures)


def _bootstrap_outcome(run, record, trials, seed):
    try:
        result = run(record, trials=trials, seed=seed)
    except CalibrationError as exc:
        return str(exc)
    return result.mean, result.std, result.failures


def _composed_report(record, trials, seed):
    # calibrate(counts=...) from the public readouts, one call at a time.
    ens, clipped = ensemble_from_counts(record)
    boot = bootstrap_calibration(record, trials, seed)
    rstar = rstar_oracle(ens)
    try:
        printed = rstar_printed(ens)
    except ValueError:
        printed = math.nan
    bound = {r: lhs_bound(ens, r) for r in (0.0, 0.5, 1.0, 1.5, 2.0, rstar)}
    return CalibrationReport(
        rstar, printed, max(rstar, 1.0), worst_assignment(ens, rstar),
        calibrate(ensemble=ens).avg_fidelity, bound, clipped, boot,
    )


def _calibrate_counts(record, **kwargs):
    return calibrate(counts=record, **kwargs)


def _report_outcome(run, record, trials, seed):
    try:
        return run(record, trials=trials, seed=seed)
    except CalibrationError as exc:
        return str(exc)


def _bootstrap_records():
    rng = np.random.default_rng(230)
    fragile = dict(counts_from_ensemble(depolarize_ensemble(referee_ideal(), 0.9), 2000).counts)
    fragile[(1, 1, 2, 1)] = 1
    fragile[(1, 1, 2, -1)] = 0
    balanced = {(j, s, axis, o): 1000 for j, s in SETTING_KEYS
                for axis in (1, 2, 3) for o in (1, -1)}
    return {
        "ideal": counts_from_ensemble(referee_ideal(), 2000),
        "dense": counts_from_ensemble(perturbed_ensemble(rng), 2000),
        "sparse": counts_from_ensemble(perturbed_ensemble(rng), 5),
        "fragile": CountRecord(fragile),
        "balanced": CountRecord(balanced),
    }


class TestBatchedCalibration:
    def test_bootstrap_matches_trial_loop(self):
        """Mean, std and failures equal the per-trial loop's exactly, within
        one block, at a block boundary and past it."""
        for name, record in _bootstrap_records().items():
            for trials in (1, 2, 5, witness._BOOTSTRAP_BLOCK + 3):
                for seed in (0, 17, 2**40):
                    got = _bootstrap_outcome(bootstrap_calibration, record, trials, seed)
                    want = _bootstrap_outcome(_loop_bootstrap, record, trials, seed)
                    assert got == want, (name, trials, seed)

    def test_small_blocks_match_trial_loop(self, monkeypatch):
        """Block edges at every few trials: each block starts its trials at
        the right substream."""
        monkeypatch.setattr(witness, "_BOOTSTRAP_BLOCK", 4)
        for name, record in _bootstrap_records().items():
            for trials in (3, 4, 7, 9):
                for seed in (1, 2, 3):
                    got = _bootstrap_outcome(bootstrap_calibration, record, trials, seed)
                    want = _bootstrap_outcome(_loop_bootstrap, record, trials, seed)
                    assert got == want, (name, trials, seed)

    def test_inversion_matches_loop(self):
        rng = np.random.default_rng(231)
        records = list(_bootstrap_records().values())
        for total in (1, 3, 10, 2000, 2**52):
            records += [counts_from_ensemble(perturbed_ensemble(rng), total) for _ in range(20)]
        for record in records:
            ens, clipped = ensemble_from_counts(record)
            want, want_clipped = _loop_invert(record)
            assert clipped == want_clipped
            for key in SETTING_KEYS:
                assert ens.vector(*key).tobytes() == want.vector(*key).tobytes()

    def test_rstar_matches_grid_walk(self, monkeypatch):
        """Over random, depolarized, ideal and zero-vector ensembles, one
        at a time and stacked, r* equals the scalar walk's exactly, and the
        printed root the one-table root's; some depolarized ensembles need
        the walk to step past its first check of the rounded root."""
        checks = []
        sound = witness._sound

        def spy(rows, vec_b, k):
            checks.append(k)
            return sound(rows, vec_b, k)

        def checks_made(ens):
            checks.clear()
            rstar_oracle(ens)
            return len(checks)

        monkeypatch.setattr(witness, "_sound", spy)
        rng = np.random.default_rng(232)
        ensembles = [perturbed_ensemble(rng) for _ in range(400)]
        for _ in range(400):
            v = rng.normal(size=(6, 3))
            v *= rng.random(size=(6, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
            ensembles.append(RefereeEnsemble(dict(zip(SETTING_KEYS, v))))
        depolarized = [depolarize_ensemble(referee_ideal(), m / 4096) for m in range(0, 4097, 16)]
        depolarized += [depolarize_ensemble(referee_ideal(), m / 4096) for m in (5, 9, 10, 15)]
        ensembles += depolarized + [referee_ideal(), aligned_ensemble()]
        balanced, _ = ensemble_from_counts(_bootstrap_records()["balanced"])
        ensembles.append(balanced)
        want = [_loop_rstar(ens) for ens in ensembles]
        assert len(ensembles) >= 1000
        assert [rstar_oracle(ens) for ens in ensembles] == want
        # Checking k and k - 1 is the whole walk when the rounded root is
        # already the answer; a third check is a step.
        assert any(checks_made(ens) > 2 for ens in depolarized)
        stacked = np.array([[ens.vectors[k] for k in SETTING_KEYS] for ens in ensembles])
        assert witness._rstar_tables(*witness._sign_tables(stacked)).tolist() == want
        assert rstar_oracle(balanced) == 0.0

        def printed(ens):
            try:
                return rstar_printed(ens)
            except ValueError:
                return "undefined"

        assert [printed(ens) for ens in ensembles] == [_loop_printed(ens) for ens in ensembles]

    def test_walk_corrects_a_displaced_root(self, monkeypatch):
        """A root a few grid steps off either way still ends on the least
        sound grid point."""
        rng = np.random.default_rng(233)
        ensembles = [perturbed_ensemble(rng) for _ in range(20)] + [referee_ideal()]
        want = [rstar_oracle(ens) for ens in ensembles]
        largest_root = witness._largest_root
        for shift in (-3, 3):
            monkeypatch.setattr(
                witness, "_largest_root",
                lambda rows, vec_b, c, shift=shift: largest_root(rows, vec_b, c) + shift * GRID,
            )
            assert [rstar_oracle(ens) for ens in ensembles] == want

    def test_report_derives_from_one_table(self):
        rng = np.random.default_rng(234)
        for ens in [perturbed_ensemble(rng) for _ in range(30)] + [aligned_ensemble()]:
            report = calibrate(ensemble=ens)
            rstar = rstar_oracle(ens)
            assert report.r_star_oracle == rstar
            try:
                printed = rstar_printed(ens)
            except ValueError:
                assert math.isnan(report.r_star_printed)
            else:
                assert report.r_star_printed == printed
            grid = (0.0, 0.5, 1.0, 1.5, 2.0, rstar)
            assert report.bound_at_r == {r: lhs_bound(ens, r) for r in grid}
            assert report.worst_assignment == worst_assignment(ens, rstar)

    def test_empty_axes_raise_no_warnings(self):
        """Trials with an empty axis fail by mask, silently; a record with
        no counts on one axis raises the same ValueError on every path."""
        records = _bootstrap_records()
        dead = dict(records["ideal"].counts)
        dead[(3, -1, 1, 1)] = dead[(3, -1, 1, -1)] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("sparse", "fragile"):
                assert bootstrap_calibration(records[name], trials=300, seed=0).failures > 0
            with pytest.raises(ValueError, match=r"\(j=3, s=-1\) on axis 1"):
                bootstrap_calibration(CountRecord(dead), trials=20, seed=0)
            with pytest.raises(ValueError, match=r"\(j=3, s=-1\) on axis 1"):
                ensemble_from_counts(CountRecord(dead))

    def test_calibrate_is_the_composed_readouts(self):
        """calibrate(counts=...) calibrates the record as row 0 of the
        bootstrap's count stack; every field equals, bit for bit, the
        public readouts run one at a time on the reconstructed ensemble and
        bootstrap_calibration on the record, in one block and across two."""
        records = _bootstrap_records()
        clipped = dict(records["dense"].counts)
        clipped[(1, 1, 1, 1)], clipped[(1, 1, 1, -1)] = 1900, 100
        clipped[(1, 1, 2, 1)], clipped[(1, 1, 2, -1)] = 1900, 100
        records["clipped"] = CountRecord(clipped)
        failures = 0
        for name in ("dense", "sparse", "clipped", "ideal"):
            record = records[name]
            for trials in (1, 5, witness._BOOTSTRAP_BLOCK + 3):
                for seed in (0, 29):
                    got = _report_outcome(_calibrate_counts, record, trials, seed)
                    want = _report_outcome(_composed_report, record, trials, seed)
                    assert repr(got) == repr(want), (name, trials, seed)
                    if isinstance(want, str):
                        continue
                    for field in dataclasses.fields(CalibrationReport):
                        a, b = getattr(got, field.name), getattr(want, field.name)
                        assert a == b or (math.isnan(a) and math.isnan(b)), field.name
                    if name == "sparse":
                        failures += got.bootstrap.failures
        assert failures > 0
        assert calibrate(counts=records["clipped"], trials=1).clipped_keys == ((1, 1),)
        assert calibrate(counts=records["ideal"], trials=1).r_star_oracle == 1.0

    def test_calibrate_counts_error_order(self, monkeypatch):
        """An empty axis is found in the integer counts before trials and
        seed are checked, and those before any draw; then a bootstrap with
        no calibrable trial, then a record with no sound rate."""
        records = _bootstrap_records()
        dead = dict(records["ideal"].counts)
        dead[(3, -1, 1, 1)] = dead[(3, -1, 1, -1)] = 0
        draws = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: draws.append(args) or default_rng(*args))
        for kwargs in ({"trials": 0}, {"seed": -1}, {"trials": 2.5, "seed": "x"}, {}):
            with pytest.raises(ValueError, match=r"no counts for key \(j=3, s=-1\) on axis 1"):
                calibrate(counts=CountRecord(dead), **kwargs)
        with pytest.raises(ValueError, match="trials must be an integer"):
            calibrate(counts=records["dense"], trials=0, seed=-1)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            calibrate(counts=records["dense"], seed=-1)
        assert draws == []
        # One count per axis: a redraw keeps every axis with probability
        # (1 - 1/e)^18, so these trials all fail, while the record calibrates.
        thin = CountRecord({(j, s, axis, 1): 1 for j, s in SETTING_KEYS for axis in (1, 2, 3)})
        assert rstar_oracle(ensemble_from_counts(thin)[0]) >= 0.0
        for run in (bootstrap_calibration, _calibrate_counts):
            with pytest.raises(CalibrationError, match="every bootstrap trial"):
                run(thin, trials=5, seed=0)
        tables = witness._rstar_tables

        def record_fails(rows, vec_b):
            rates = tables(rows, vec_b)
            rates[0] = math.nan
            return rates

        monkeypatch.setattr(witness, "_rstar_tables", record_fails)
        with pytest.raises(CalibrationError, match="no sound penalty rate below 4"):
            calibrate(counts=records["dense"], trials=5, seed=0)
        monkeypatch.setattr(witness, "_rstar_tables",
                            lambda rows, vec_b: tables(rows, vec_b) * math.nan)
        with pytest.raises(CalibrationError, match="every bootstrap trial"):
            calibrate(counts=records["dense"], trials=5, seed=0)


# The witness pairing of a local strategy as it ran before the ensemble kept
# a witness form: D_j and S_j recomputed from the stack on every call.


def _stack_pairing(r, strategy, stack):
    t = r / SQRT3
    value = 0.0
    n = stack.tolist()
    for rows, (px, py, pz), (mx, my, mz) in zip(strategy.effect_table, n[0::2], n[1::2]):
        dx, dy, dz = px - mx, py - my, pz - mz
        sx, sy, sz = px + mx, py + my, pz + mz
        for a, (_, f0, fx, fy, fz) in zip((1, -1), rows):
            value += (
                (a * dx - t * sx) * fx
                + (a * dy - t * sy) * fy
                + (a * dz - t * sz) * fz
                - 2.0 * t * f0
            )
    return 2.0 * value


def _stack_readouts(ensemble, strategies, rates):
    """Every witness readout with each sign table built by _sign_tables from
    the ensemble's stack, as the readers did before the witness form."""
    rows, vec_b = states._sign_tables(ensemble.stack)
    out = [witness._first_rstar(witness._rstar_tables(rows, vec_b))]
    try:
        out.append(witness._printed(rows, vec_b))
    except ValueError as exc:
        out.append(str(exc))
    for a in SIGN_TRIPLES:
        out.append((rows[SIGN_TRIPLES.index(a)].tobytes(), vec_b.tobytes()))
    for r in rates:
        top = witness._top_eigenvalues(rows, vec_b, r)
        signs = witness._first_max(top)
        best = SIGN_TRIPLES.index(signs)
        t = rows[best] - r * vec_b
        norm = float(np.sqrt(np.add.reduce(t * t)))
        direction = t / norm if norm > 1e-15 else np.zeros(3)
        out += [float(np.max(top)), signs, (signs, direction.tobytes(), float(top[best]))]
        operator = -TWO_SQRT3 * r * identity(2)
        for i in (1, 2, 3):
            operator += (rows[2] - r * vec_b)[i - 1] * pauli(i)
        out.append(operator.tobytes())
        out += [_stack_pairing(r, s, ensemble.stack) for s in strategies]
    return out


def _readouts(ensemble, strategies, rates):
    """The same readouts through the public readers of the ensemble."""
    out = [rstar_oracle(ensemble)]
    try:
        out.append(rstar_printed(ensemble))
    except ValueError as exc:
        out.append(str(exc))
    for a in SIGN_TRIPLES:
        vec_a, vec_b = assignment_vectors(ensemble, a)
        out.append((vec_a.tobytes(), vec_b.tobytes()))
    for r in rates:
        signs, direction, payoff = game.lhs_best_deterministic(canonical_game(r), ensemble)
        out += [lhs_bound(ensemble, r), worst_assignment(ensemble, r),
                (signs, direction.tobytes(), payoff)]
        out.append(t_operator(ensemble, SIGN_TRIPLES[2], r).tobytes())
        out += [exact_payoff(canonical_game(r), s, ensemble) for s in strategies]
    return out


def _same(got, want):
    # Bit for bit: floats by repr, which tells -0.0 from 0.0.
    return repr(got) == repr(want)


class TestWitnessForm:
    def _cases(self):
        rng = np.random.default_rng(2001)
        ensembles = [referee_ideal(), aligned_ensemble(),
                     depolarize_ensemble(referee_ideal(), 0.5)]
        ensembles += [perturbed_ensemble(rng) for _ in range(10)]
        strategies = [random_lhs_strategy(rng) for _ in range(3)]
        strategies += [random_local_strategy(rng) for _ in range(3)]
        return rng, ensembles, strategies

    def test_every_reader_matches_a_fresh_ensemble_and_the_stack(self):
        """Each witness reader gives, bit for bit, on an ensemble whose form
        was read before, on a fresh twin built from its vectors, and from
        sign tables built from its stack the values the readers gave before
        the form existed: r*, the printed readout, (A, B) per assignment,
        the bound, the worst assignment, the best deterministic adversary,
        T_a(r) and local payoffs, and calibrate's report."""
        rng, ensembles, strategies = self._cases()
        for ens in ensembles:
            rstar = rstar_oracle(RefereeEnsemble(ens.vectors))
            rates = [0.0, 0.5, float(rng.uniform(0.0, 2.0)), rstar]
            ens.witness_form  # warm
            twin = RefereeEnsemble(ens.vectors)
            warm, cold = _readouts(ens, strategies, rates), _readouts(twin, strategies, rates)
            want = _stack_readouts(ens, strategies, rates)
            assert _same(warm, want) and _same(cold, want)
            reports = [calibrate(ensemble=e) for e in (ens, RefereeEnsemble(ens.vectors))]
            for report in reports:
                assert report.r_star_oracle == want[0]
                printed = want[1] if isinstance(want[1], float) else math.nan
                assert _same(report.r_star_printed, printed)
                rows, vec_b = states._sign_tables(ens.stack)
                grid = (0.0, 0.5, 1.0, 1.5, 2.0, want[0])
                values = witness._top_eigenvalues(rows, vec_b, np.array(grid))
                curve = dict(zip(grid, np.max(values, axis=-1).tolist()))
                assert _same(dict(report.bound_at_r), curve)
                assert report.worst_assignment == witness._first_max(values[-1])

    def test_form_is_built_once_on_first_read(self, monkeypatch):
        """Construction builds no sign table; the first read of any witness
        reader builds the one table, and every later reader, payoff and
        calibration of that ensemble reads it without building another."""
        _, ensembles, strategies = self._cases()
        builds = []
        real = states._sign_tables
        monkeypatch.setattr(states, "_sign_tables", lambda v: builds.append(v.shape) or real(v))
        monkeypatch.setattr(witness, "_sign_tables", lambda v: builds.append(v.shape) or real(v))
        for ens in ensembles:
            twin = RefereeEnsemble(ens.vectors)
            assert builds == [] and "witness_form" not in twin.__dict__
            _readouts(twin, strategies, [0.0, 0.7])
            calibrate(ensemble=twin)
            assert builds == [(6, 3)]
            builds.clear()

    def test_form_arrays_are_read_only(self):
        _, ensembles, _ = self._cases()
        for ens in ensembles:
            form = ens.witness_form
            assert form is ens.witness_form
            assert form.rows.shape == (8, 3) and form.vec_b.shape == (3,)
            vec_a, vec_b = assignment_vectors(ens, (1, -1, 1))
            for arr in (form.rows, form.vec_b, vec_a, vec_b):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[..., 0] = 1.0
            assert len(form.pairs) == 3
            for row, plus, minus in zip(form.pairs, ens.stack[0::2], ens.stack[1::2]):
                assert type(row) is tuple and all(type(x) is float for x in row)
                assert row == (*(plus - minus).tolist(), *(plus + minus).tolist())

    def test_copies_drop_the_form_and_repr_and_equality_ignore_it(self):
        import copy
        import pickle

        _, ensembles, _ = self._cases()
        for ens in ensembles:
            before, key = repr(ens), hash(ens)
            form = ens.witness_form
            assert repr(ens) == before == repr(RefereeEnsemble(ens.vectors))
            assert hash(ens) == key and ens == ens
            for clone in (pickle.loads(pickle.dumps(ens)), copy.deepcopy(ens), copy.copy(ens)):
                assert "witness_form" not in clone.__dict__ and clone != ens
                assert np.array_equal(clone.stack, ens.stack)
                assert clone.witness_form is not form
                assert _same(clone.witness_form.pairs, form.pairs)
                assert clone.witness_form.rows.tobytes() == form.rows.tobytes()
