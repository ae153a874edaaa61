"""Acceptance gate: ten checks covering the exact-theory targets.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line
per criterion. Checks with a runtime budget measure and assert it.
"""

import math
import time

import numpy as np

from qrsgame.game import (
    SQRT3,
    HonestQuantum,
    canonical_game,
    estimate_payoff,
    exact_payoff,
    realize_lhs_best,
    simulate_runs,
)
from qrsgame.states import referee_ideal, werner_state
from qrsgame.witness import (
    SIGN_TRIPLES,
    TWO_SQRT3,
    assignment_vectors,
    calibrate,
    chsh_werner,
    lhs_bound,
    report_to_dict,
    rstar_oracle,
    rstar_printed,
)

from helpers import (
    channel_covariance_check,
    perturbed_ensemble,
    random_lhs_strategy,
    random_local_strategy,
    regime_classify,
    singlet_projector_bc,
)

IDEAL = referee_ideal()
POVM = singlet_projector_bc()


def honest_payoff(w, r):
    return exact_payoff(canonical_game(r), HonestQuantum(werner_state(w), POVM), IDEAL)


def test_criterion_01_linear_payoff_grid():
    start = time.perf_counter()
    worst = 0.0
    for r in (1.0, 1.081, 1.5):
        spec = canonical_game(r)
        for w in np.linspace(0.0, 1.0, 101):
            strat = HonestQuantum(werner_state(float(w)), POVM)
            got = exact_payoff(spec, strat, IDEAL)
            worst = max(worst, abs(got - (3.0 * w - SQRT3 * r)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 01 PASS: payoff matches 3W - sqrt(3) r within 1e-10 "
          f"over 303 grid points (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_golden_payoff_value():
    value = honest_payoff(0.698, 1.081)
    assert round(value, 2) == 0.22
    print(f"\nACCEPTANCE 02 PASS: payoff at W=0.698, r=1.081 is {value:.10f}, "
          f"0.22 at two decimals")


def test_criterion_03_ideal_calibration_is_one():
    rstar = rstar_oracle(IDEAL)
    assert abs(rstar - 1.0) <= 1e-9
    print(f"\nACCEPTANCE 03 PASS: ideal-ensemble calibration gives "
          f"r* = {rstar:.12f}, within 1e-9 of 1")


def test_criterion_04_soundness_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    pool = [random_lhs_strategy(rng) for _ in range(1000)]
    ensembles = [IDEAL] + [perturbed_ensemble(rng) for _ in range(50)]
    worst = -math.inf
    for ens in ensembles:
        rstar = rstar_oracle(ens)
        spec = canonical_game(rstar)
        payoffs = [exact_payoff(spec, strat, ens) for strat in pool]
        payoffs.append(exact_payoff(spec, realize_lhs_best(spec, ens), ens))
        worst = max(worst, max(payoffs))
        assert max(payoffs) <= 1e-9
        if rstar > 1e-3:
            assert lhs_bound(ens, rstar - 1e-3) > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 04 PASS: 51 ensembles x 1000 random no-steering "
          f"strategies (plus each ensemble's optimum) never exceed 0 at r* "
          f"(worst payoff {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_05_threshold_sharpness():
    lo, hi = 0.0, 1.0
    assert honest_payoff(lo, 1.0) < 0.0 < honest_payoff(hi, 1.0)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if honest_payoff(mid, 1.0) <= 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 1.0 / SQRT3) <= 1e-9
    print(f"\nACCEPTANCE 05 PASS: payoff changes sign at W = {root:.5f} "
          f"(= 1/sqrt(3) within 1e-9) for r = 1")


def test_criterion_06_eigenvalue_vs_sphere_mesh():
    start = time.perf_counter()
    i = np.arange(10000)
    z = 1.0 - (2.0 * i + 1.0) / 10000
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(1.0 - z * z)
    mesh = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        ens = perturbed_ensemble(rng)
        for r in (0.3, 1.0, rstar_oracle(ens)):
            brute = max(
                float(np.max(mesh @ (assignment_vectors(ens, a)[0]
                                     - r * assignment_vectors(ens, a)[1])))
                for a in SIGN_TRIPLES
            ) - TWO_SQRT3 * r
            gap = lhs_bound(ens, r) - brute
            # The mesh can only undershoot the true maximum.
            assert -1e-12 <= gap <= 2e-3
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 06 PASS: eigenvalue bound matches a 10^4-point "
          f"sphere mesh within 2e-3 on 20 ensembles (worst gap {worst:.1e}, "
          f"{elapsed:.1f}s)")


def test_criterion_07_bell_window():
    value = chsh_werner(0.698)
    regime = regime_classify(0.698, 1.081)
    assert round(value, 4) == 1.9742
    assert value < 2.0
    assert regime == "steerable-open-Bell-window"
    print(f"\nACCEPTANCE 07 PASS: chsh(0.698) = {value:.4f} < 2 while the "
          f"point is classified {regime}")


def test_criterion_08_monte_carlo_consistency():
    start = time.perf_counter()
    counts = {}
    for w, r in ((1.0, 1.0), (0.698, 1.081)):
        spec = canonical_game(r)
        strat = HonestQuantum(werner_state(w), POVM)
        exact = exact_payoff(spec, strat, IDEAL)
        hits = 0
        for seed in range(200, 300):
            est = estimate_payoff(spec, simulate_runs(spec, strat, IDEAL, 100000, seed))
            if abs(est.value - exact) < 3.0 * est.stderr:
                hits += 1
        counts[(w, r)] = hits
        assert hits >= 99
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    summary = ", ".join(f"(W={w}, r={r}): {h}/100" for (w, r), h in counts.items())
    print(f"\nACCEPTANCE 08 PASS: estimates within 3 stderr of exact at "
          f"n=10^5 for {summary} seeds ({elapsed:.1f}s)")


def test_criterion_09_channel_covariance():
    rng = np.random.default_rng(9)
    strategies = (
        HonestQuantum(werner_state(0.698), POVM),
        random_lhs_strategy(rng),
        random_local_strategy(rng),
    )
    for i in range(20):
        n_kraus = int(rng.integers(1, 5))
        g = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
        q, _ = np.linalg.qr(g)
        kraus = tuple(q[2 * k: 2 * k + 2, :] for k in range(n_kraus))
        assert channel_covariance_check(IDEAL, kraus, strategies[i % 3])
    print("\nACCEPTANCE 09 PASS: 20 random CP maps on the referee states "
          "are equivalent to dual POVM relabelings within 1e-9")


def test_criterion_10_both_calibration_readouts_reported():
    printed = rstar_printed(IDEAL)
    assert printed == 2.0
    report = report_to_dict(calibrate(ensemble=IDEAL))
    assert abs(report["r_star_oracle"] - 1.0) <= 1e-9
    assert report["r_star_printed"] == 2.0
    print("\nACCEPTANCE 10 PASS: closed-form readout pinned at 2 on the "
          "ideal ensemble and reported alongside the operational boundary 1")
