"""Game engine: joint probabilities, payoffs, adversaries, sampling, tallies.

The engine never builds the full three-qubit space; the oracle here does,
evaluating p(a, b) = tr[(Pi_a x B_b)(rho_AB x omega_C)] on 8x8 matrices so
the two routes share no code beyond the state constructors.
"""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from qrsgame import game, qmath
from qrsgame.game import (
    SQRT3,
    BinaryPovm,
    CustomLocal,
    GameSpec,
    HonestQuantum,
    LhsDeterministic,
    LocalComponent,
    TallyTable,
    canonical_game,
    estimate_payoff,
    exact_payoff,
    joint_probabilities,
    lhs_best_deterministic,
    partial_bsm_povm,
    realize_lhs_best,
    simulate_runs,
)
from qrsgame.qmath import (
    HERMITIAN_TOL,
    PSD_TOL,
    TRACE_TOL,
    bloch_to_density,
    check_hermitian,
    identity,
    partial_trace,
    pauli,
    psd_within,
    real_trace_product,
)
from qrsgame.states import (
    SETTING_KEYS,
    RefereeEnsemble,
    referee_ideal,
    referee_state,
    werner_state,
)
from qrsgame.witness import SIGN_TRIPLES, CountRecord

from helpers import (
    BELL_PROJECTORS,
    check_kraus,
    density_to_bloch,
    dual_channel,
    dual_strategy,
    perturbed_ensemble,
    random_lhs_strategy,
    random_local_strategy,
    singlet_projector_bc,
)

CELLS = ((1, 1), (1, 0), (-1, 1), (-1, 0))


def brute_force_honest(strategy, ensemble, j, s):
    """Full 8-dimensional evaluation of the honest joint distribution."""
    omega = referee_state(ensemble, j, s)
    state = np.kron(strategy.shared_state, omega)
    povm = {1: strategy.bob_povm.b1, 0: strategy.bob_povm.b0}
    out = {}
    for a in (1, -1):
        proj = 0.5 * (identity(2) + a * pauli(j))
        for b in (1, 0):
            op = np.kron(proj, povm[b])
            out[(a, b)] = float(np.trace(op @ state).real)
    return out


def per_setting_honest(strategy, ensemble, j, s):
    """The honest cell probabilities computed afresh for one setting, with
    np.kron for the tensor products: the evaluation the constructor's
    compiled conditional states must reproduce bit for bit."""
    omega = referee_state(ensemble, j, s)
    out = {}
    for a in (1, -1):
        proj = 0.5 * (identity(2) + a * pauli(j))
        cond = partial_trace(np.kron(proj, identity(2)) @ strategy.shared_state)
        p_a = float(np.trace(cond).real)
        p_click = real_trace_product(np.kron(cond, omega), strategy.bob_povm.b1)
        out[(a, 1)] = p_click
        out[(a, 0)] = p_a - p_click
    return out


def local_cells(strategy, ensemble, j, s):
    """A local strategy's cells from its effect-table row, in the order of
    operations the per-setting table used: p(a, 1) = f0 + x f1 + y f2 + z f3."""
    x, y, z = ensemble.vector(j, s).tolist()
    out = {}
    for a, (p_a, f0, f1, f2, f3) in zip((1, -1), strategy.effect_table[j - 1]):
        out[(a, 1)] = f0 + x * f1 + y * f2 + z * f3
        out[(a, 0)] = p_a - out[(a, 1)]
    return out


def dict_sampler(cells, strategy, ensemble, n, seed):
    """A tally drawn setting by setting from the p(a, b) dict
    ``cells(strategy, ensemble, j, s)``: each probability clamped at 0 by
    Python's max, the four normalized by their sum, then one multinomial
    from SeedSequence([seed, j, 0 if s > 0 else 1])."""
    counts = {}
    for j, s in SETTING_KEYS:
        probs = cells(strategy, ensemble, j, s)
        p = np.array([max(probs[cell], 0.0) for cell in CELLS])
        p /= p.sum()
        stream = np.random.SeedSequence([seed, j, 0 if s > 0 else 1])
        for cell, m in zip(CELLS, np.random.default_rng(stream).multinomial(n, p)):
            if m:
                counts[(j, s) + cell] = int(m)
    return counts


def per_cell_estimate(spec, tally):
    """(value, stderr) of estimate_payoff, with every count read through
    TallyTable.cell, each setting's total summed over its four cells, and the
    weights and frequencies kept in dicts."""
    tax = spec.r / SQRT3
    value = variance = 0.0
    for j, s in SETTING_KEYS:
        n = sum(tally.cell(j, s, a, b) for a, b in CELLS)
        w = {a: s * a - tax for a in (1, -1)}
        f = {a: tally.cell(j, s, a, 1) / n for a in (1, -1)}
        value += w[1] * f[1] + w[-1] * f[-1]
        variance += (
            w[1] ** 2 * f[1] * (1.0 - f[1])
            + w[-1] ** 2 * f[-1] * (1.0 - f[-1])
            - 2.0 * w[1] * w[-1] * f[1] * f[-1]
        ) / n
    return 2.0 * value, 2.0 * math.sqrt(variance)


def random_density_matrix(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_analyzer(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = g.conj().T @ g
    b1 = rng.random() * s / np.linalg.eigvalsh(s)[-1]
    return BinaryPovm(identity(4) - b1, b1)


def brute_force_lhs(strategy, ensemble, j, s):
    """LHS route without the precomputed referee-side effect."""
    omega = referee_state(ensemble, j, s)
    hidden = bloch_to_density(strategy.hidden_state)
    state = np.kron(hidden, omega)
    q = float(np.trace(strategy.bob_povm.b1 @ state).real)
    a = strategy.alice_signs[j - 1]
    return {(a, 1): q, (a, 0): 1.0 - q, (-a, 1): 0.0, (-a, 0): 0.0}


def pairing_local(strategy, ensemble, j, s):
    """Local route pairing each component's effect with the referee
    density matrix: p(a, 1) = sum_c w_c p_c(a|j) tr(omega_(j,s) E_c)."""
    omega = referee_state(ensemble, j, s)
    out = {cell: 0.0 for cell in CELLS}
    for comp in strategy.components:
        q = float(np.trace(omega @ comp.effect).real)
        p_plus = comp.alice_plus[j]
        for a, p_a in ((1, p_plus), (-1, 1.0 - p_plus)):
            out[(a, 1)] += comp.weight * p_a * q
            out[(a, 0)] += comp.weight * p_a * (1.0 - q)
    return out


def per_setting_payoff(spec, strategy, ensemble):
    """The payoff as a sum over the six settings of their joint
    probabilities: how exact_payoff scores an honest player, and the oracle
    for the witness pairing it uses on local strategies."""
    tax = spec.r / SQRT3
    value = 0.0
    for j, s in SETTING_KEYS:
        probs = joint_probabilities(strategy, ensemble, j, s)
        value += s * (probs[(1, 1)] - probs[(-1, 1)])
        value -= tax * (probs[(1, 1)] + probs[(-1, 1)])
    return 2.0 * value


def random_kraus(rng):
    """Two Kraus operators of a random qubit channel, from a 4x2 isometry."""
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    q, _ = np.linalg.qr(g)
    return (q[:2], q[2:])


class TestGameSpec:
    def test_canonical_structure(self):
        assert canonical_game(1.081).r == 1.081

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            canonical_game(-0.5)

    def test_non_finite_rate_rejected(self):
        for r in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="penalty rate"):
                canonical_game(r)

    def test_rate_must_be_a_real_number(self):
        """bools and strings are not converted into rates, and a value that
        float() refuses is a ValueError that names the rate."""
        from qrsgame.witness import lhs_bound

        for bad in ("0.5", True, False, np.True_, b"1", None, [0.5], 1 + 0j):
            with pytest.raises(ValueError, match="penalty rate r must be a real number"):
                canonical_game(bad)
            with pytest.raises(ValueError, match="penalty rate r must be a real number"):
                GameSpec(bad)
            with pytest.raises(ValueError, match="penalty rate r must be a real number"):
                lhs_bound(referee_ideal(), bad)
        for good in (1, np.int64(1), np.float32(0.5), np.float64(0.5), 0.5):
            assert type(canonical_game(good).r) is float
            assert canonical_game(good).r == float(good)


class TestPovms:
    def test_singlet_projector(self):
        povm = singlet_projector_bc()
        assert povm.b1.tobytes() == BELL_PROJECTORS["PsiMinus"].tobytes()
        assert np.allclose(povm.b0 + povm.b1, identity(4))

    def test_visibility_limits(self):
        assert np.allclose(partial_bsm_povm(1.0).b1, singlet_projector_bc().b1)
        assert np.allclose(partial_bsm_povm(0.0).b1, identity(4) / 2.0)

    def test_unit_visibility_is_the_ideal_analyzer_up_to_signed_zeros(self):
        """The package's ideal analyzer is partial_bsm_povm(1.0). Its b0 has
        the bits of the singlet projector's complement. Its b1 has the
        singlet's value, and differs in bits only in three imaginary parts,
        +0.0 here and -0.0 in the singlet, at entries (0, 2), (1, 2) and (3, 2)."""
        ideal, unit = singlet_projector_bc(), partial_bsm_povm(1.0)

        def bits(m):
            return np.ascontiguousarray(m).view(np.uint64)

        assert ideal.b0.tobytes() == unit.b0.tobytes()
        assert np.array_equal(ideal.b1, unit.b1)
        assert bits(ideal.b1.real).tobytes() == bits(unit.b1.real).tobytes()
        moved = np.argwhere(bits(ideal.b1.imag) != bits(unit.b1.imag)).tolist()
        assert moved == [[0, 2], [1, 2], [3, 2]]
        assert not ideal.b1.imag.any() and not np.signbit(unit.b1.imag).any()

    def test_unit_visibility_plays_the_ideal_analyzer_bit_for_bit(self):
        """The signed zeros never reach a result: honest exact payoffs,
        seeded tallies and their estimates are the same bits with either
        analyzer, over Werner weights, rates and perturbed ensembles."""
        ideal, unit = singlet_projector_bc(), partial_bsm_povm(1.0)
        rng = np.random.default_rng(121)
        cases = [(canonical_game(r), referee_ideal()) for r in (0.0, 1.0, 1.081, SQRT3)]
        cases += [(canonical_game(float(rng.uniform(0.0, 2.0))), perturbed_ensemble(rng))
                  for _ in range(4)]
        for w in np.linspace(0.0, 1.0, 21):
            state = werner_state(float(w))
            for spec, ens in cases:
                want = exact_payoff(spec, HonestQuantum(state, ideal), ens)
                got = exact_payoff(spec, HonestQuantum(state, unit), ens)
                assert got.hex() == want.hex(), (w, spec.r)
        spec, ens = cases[2]
        for w in np.linspace(0.0, 1.0, 20):
            state = werner_state(float(w))
            for seed in range(10):
                want = simulate_runs(spec, HonestQuantum(state, ideal), ens, 40, seed)
                got = simulate_runs(spec, HonestQuantum(state, unit), ens, 40, seed)
                assert got.counts == want.counts, (w, seed)
                estimates = (estimate_payoff(spec, got), estimate_payoff(spec, want))
                assert len({(e.value.hex(), e.stderr.hex()) for e in estimates}) == 1

    def test_visibility_click_rate_on_singlet(self):
        povm = partial_bsm_povm(0.89)
        singlet = BELL_PROJECTORS["PsiMinus"]
        assert np.isclose(np.trace(povm.b1 @ singlet).real, 0.945)

    def test_visibility_range(self):
        with pytest.raises(ValueError, match="visibility"):
            partial_bsm_povm(1.01)

    def test_povm_validation(self):
        with pytest.raises(ValueError, match="4x4"):
            BinaryPovm(identity(2), identity(2))
        with pytest.raises(ValueError, match="not Hermitian"):
            b1 = np.zeros((4, 4), dtype=complex)
            b1[0, 1] = 1.0
            BinaryPovm(identity(4) - b1, b1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            b1 = np.diag([-0.1, 0.5, 0.5, 0.5]).astype(complex)
            BinaryPovm(identity(4) - b1, b1)
        with pytest.raises(ValueError, match="sum to the identity"):
            BinaryPovm(identity(4) / 2.0, identity(4) / 4.0)

    def test_non_finite_element_rejected(self):
        valid = partial_bsm_povm(0.5).b1
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
            for i, j in ((0, 0), (0, 1), (3, 2)):
                broken = valid.copy()
                broken[i, j] = bad
                with pytest.raises(ValueError, match="POVM element b1 is not finite"):
                    BinaryPovm(identity(4) - valid, broken)
                with pytest.raises(ValueError, match="POVM element b0 is not finite"):
                    BinaryPovm(broken, identity(4) - valid)

    def test_psd_boundary_matches_eigvalsh(self):
        """Elements whose lowest eigenvalue sits 1e-8 either side of zero,
        or 1e-11 either side of -PSD_TOL, are accepted exactly when numpy's
        eigvalsh finds both elements PSD within PSD_TOL."""
        rng = np.random.default_rng(106)
        decisions = set()
        for _ in range(40):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = g + g.conj().T
            eigs = np.linalg.eigvalsh(h)
            # Spectrum [0, 1/2], so only the shifted end can reach the boundary.
            half = 0.5 * (h - eigs[0] * identity(4)) / (eigs[-1] - eigs[0])
            for shift in (-1e-8, 1e-8, -PSD_TOL - 1e-11, -PSD_TOL + 1e-11):
                low = half + shift * identity(4)
                for b0, b1 in ((identity(4) - low, low), (low, identity(4) - low)):
                    want = all(np.linalg.eigvalsh(el)[0] >= -PSD_TOL for el in (b0, b1))
                    try:
                        BinaryPovm(b0, b1)
                        got = True
                    except ValueError as exc:
                        assert "positive semidefinite" in str(exc)
                        got = False
                    assert got == want
                    decisions.add(got)
        assert decisions == {True, False}

    def test_error_order_and_messages(self):
        """With several faults at once the first in the order b0 Hermitian,
        b1 Hermitian, b0 positive, b1 positive, sum is reported, with the
        same message bytes as when it is the only fault."""
        good = partial_bsm_povm(0.7)
        skew = good.b1.copy()
        skew[0, 1] += 1.0
        negative = good.b1 - 0.2 * identity(4)
        cases = (
            ((skew, skew), "POVM element b0 is not Hermitian within tolerance"),
            ((good.b0, skew), "POVM element b1 is not Hermitian within tolerance"),
            ((negative, negative), "POVM element b0 is not positive semidefinite"),
            ((negative, skew), "POVM element b1 is not Hermitian within tolerance"),
            ((good.b0, negative), "POVM element b1 is not positive semidefinite"),
            ((good.b1, negative), "POVM element b1 is not positive semidefinite"),
            ((negative, good.b1), "POVM element b0 is not positive semidefinite"),
            ((good.b1, good.b1), "POVM elements must sum to the identity"),
        )
        for (b0, b1), message in cases:
            with pytest.raises(ValueError) as err:
                BinaryPovm(b0, b1)
            assert str(err.value) == message

    def test_b0_fault_is_named_before_a_non_finite_b1(self):
        """The stacked check fails on b1's NaN first, but the element named
        is still the first at fault in the per-element order."""
        skew = partial_bsm_povm(0.7).b1.copy()
        skew[0, 1] += 1.0
        nan = np.full((4, 4), math.nan, dtype=complex)
        for b0, message in (
            (skew, "POVM element b0 is not Hermitian within tolerance"),
            (identity(2), "POVM element b0 must be 4x4, got (2, 2)"),
            ([[1.0, 0.0, 0.0]] * 4, "POVM element b0 must be 4x4, got (4, 3)"),
        ):
            with pytest.raises(ValueError) as err:
                BinaryPovm(b0, nan)
            assert str(err.value) == message


def test_povm_validation_never_reaches_jacobi(monkeypatch):
    """Building a valid analyzer decides positivity without eigenvalues:
    with numpy's eigvalsh made to fail, every constructor still succeeds."""
    rng = np.random.default_rng(109)
    # The test helper random_lhs_strategy may scale its analyzer with
    # eig_hermitian, so the strategies are drawn before the solver is disabled.
    adversaries = [random_lhs_strategy(rng) for _ in range(20)]

    def no_eigenvalues(m):
        raise AssertionError("eigvalsh reached during POVM validation")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    with pytest.raises(AssertionError, match="eigvalsh reached"):
        qmath.eig_hermitian(identity(4))
    singlet_projector_bc()
    for v in np.linspace(0.0, 1.0, 11):
        partial_bsm_povm(float(v))
    for r in (0.5, 1.0, 2.0):
        for ens in (referee_ideal(), perturbed_ensemble(rng)):
            realize_lhs_best(canonical_game(r), ens)
    for adv in adversaries:
        povm = BinaryPovm(adv.bob_povm.b0, adv.bob_povm.b1)
        LhsDeterministic(adv.alice_signs, adv.hidden_state, povm)


def test_honest_evaluation_never_reaches_partial_trace(monkeypatch):
    """Alice's side is compiled when the strategy is built: with
    partial_trace made to fail afterwards, every evaluation still succeeds."""
    strat = HonestQuantum(werner_state(0.7), partial_bsm_povm(0.9))
    ens = referee_ideal()

    def no_partial_trace(m):
        raise AssertionError("partial_trace reached in a per-setting evaluation")

    monkeypatch.setattr(game, "partial_trace", no_partial_trace)
    with pytest.raises(AssertionError, match="partial_trace reached"):
        HonestQuantum(werner_state(0.7), partial_bsm_povm(0.9))
    for key in SETTING_KEYS:
        joint_probabilities(strat, ens, *key)
    exact_payoff(canonical_game(1.0), strat, ens)
    simulate_runs(canonical_game(1.0), strat, ens, 100, 0)


class TestStrategyValidation:
    def test_component_numbers_must_be_real(self):
        """A bool or string weight or p(+|j) is a ValueError naming it, as is
        a response table that is not a mapping."""
        effect = 0.5 * identity(2)
        table = {1: 0.5, 2: 0.5, 3: 0.5}
        for bad in (True, "0.5", None):
            with pytest.raises(ValueError, match="component weight must be a real number"):
                LocalComponent(bad, table, effect)
            with pytest.raises(ValueError, match=r"alice_plus\[2\] must be a real number"):
                LocalComponent(1.0, {**table, 2: bad}, effect)
        for bad in ([1, 2, 3], (1, 2, 3), "123", None):
            with pytest.raises(ValueError, match="alice_plus must map each input"):
                LocalComponent(1.0, bad, effect)
        c = LocalComponent(np.float64(1.0), {1: 1, 2: np.float32(0.5), 3: 0.0}, effect)
        assert CustomLocal((c,)).effect_table[0][0][0] == 1.0

    def test_component_stores_what_it_checked(self):
        """The weight and each p(+|j) are kept as the Python floats that
        were checked and the keys j as Python ints, so a float16, float32
        or Decimal input scores bit for bit as its float does; a key that
        only compares equal to an input, such as 1.0 or True, is rejected."""
        import decimal

        effect = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
        ens = perturbed_ensemble(np.random.default_rng(61))
        plain = LocalComponent(1.0, {1: 0.25, 2: 0.5, 3: 0.875}, effect)
        want = exact_payoff(canonical_game(1.081), CustomLocal((plain,)), ens)
        for num in (np.float16, np.float32, decimal.Decimal):
            table = {np.int64(1): num("0.25"), 2: num("0.5"), np.int8(3): num("0.875")}
            c = LocalComponent(num("1.0"), table, effect)
            assert type(c.weight) is float
            assert [type(j) for j in c.alice_plus] == [int] * 3
            assert all(type(p) is float for p in c.alice_plus.values())
            assert exact_payoff(canonical_game(1.081), CustomLocal((c,)), ens) == want, num
        for key in (1.0, True, np.float64(1.0)):
            with pytest.raises(ValueError, match="is not an integer"):
                LocalComponent(1.0, {key: 0.5, 2: 0.5, 3: 0.5}, effect)

    def test_honest_analyzer_must_be_binary_povm(self):
        """A missing or raw-matrix analyzer is refused at construction."""
        b1 = singlet_projector_bc().b1
        for bad in (None, b1, (identity(4) - b1, b1)):
            with pytest.raises(ValueError, match="bob_povm must be a BinaryPovm"):
                HonestQuantum(werner_state(0.5), bad)

    def test_lhs_analyzer_must_be_binary_povm(self):
        b1 = singlet_projector_bc().b1
        for bad in (None, b1, (identity(4) - b1, b1)):
            with pytest.raises(ValueError, match="bob_povm must be a BinaryPovm"):
                LhsDeterministic((1, 1, 1), np.zeros(3), bad)

    def test_honest_needs_density_matrix(self):
        with pytest.raises(ValueError, match="shared_state"):
            HonestQuantum(identity(4), singlet_projector_bc())
        for bad in (math.nan, math.inf):
            state = identity(4) / 4.0
            state[1, 2] = bad
            with pytest.raises(ValueError, match="shared_state"):
                HonestQuantum(state, singlet_projector_bc())

    def test_honest_state_failure_message_bytes(self):
        """A 4x4 state that fails positivity names its lowest eigenvalue, on
        a diagonal state and on one with off-diagonal entries."""
        singlet = werner_state(1.0)
        for rho, defects in (
            (np.diag([0.7, 0.4, -0.05, -0.05]),
             "hermiticity 0.00e+00, trace error 0.00e+00, min eigenvalue -5.00e-02"),
            (1.2 * singlet - 0.2 * identity(4) / 4,
             "hermiticity 0.00e+00, trace error 3.33e-16, min eigenvalue -5.00e-02"),
        ):
            with pytest.raises(ValueError) as err:
                HonestQuantum(rho, singlet_projector_bc())
            assert str(err.value) == f"shared_state is not a density matrix ({defects})"

    def test_honest_state_must_be_4x4(self):
        """A qubit state is refused where it enters, not later inside numpy."""
        with pytest.raises(ValueError, match=r"shared_state must be 4x4, got \(2, 2\)"):
            HonestQuantum(identity(2) / 2.0, singlet_projector_bc())

    def test_lhs_signs_must_be_integers(self):
        """Signs are not truncated or parsed: 1.7, "1" and True are refused."""
        for signs in ((1.7, -1, 1), ("1", -1, 1), (True, -1, 1), (1.0, -1, 1)):
            with pytest.raises(ValueError, match="alice_signs"):
                LhsDeterministic(signs, np.zeros(3), singlet_projector_bc())
        for signs in (5, None):
            with pytest.raises(ValueError) as err:
                LhsDeterministic(signs, np.zeros(3), singlet_projector_bc())
            assert str(err.value) == f"alice_signs must be three integers +/-1, got {signs}"
        strat = LhsDeterministic((np.int64(1), -1, 1), np.zeros(3), singlet_projector_bc())
        assert strat.alice_signs == (1, -1, 1)
        assert all(type(a) is int for a in strat.alice_signs)

    def test_lhs_sign_validation(self):
        with pytest.raises(ValueError, match="alice_signs"):
            LhsDeterministic((1, 0, 1), np.zeros(3), singlet_projector_bc())

    def test_lhs_sign_fast_path_keeps_the_integer_rule(self):
        """Three Python-int signs pass by one membership test; whatever
        equals such a triple without being three Python ints (a float, a
        bool, a numpy bool), and wrong lengths and values, still fail with
        the per-element rule's message. numpy-int signs pass and are stored
        as Python ints, with the table that Python-int signs give."""
        povm = singlet_projector_bc()
        for signs in ((1.0, 1, 1), (True, 1, 1), (np.True_, 1, 1), (1, 1), (1, 1, 0),
                      (1, 1, 1, 1), (1, [1], 1), (1, np.array([1, 1]), 1)):
            with pytest.raises(ValueError) as err:
                LhsDeterministic(signs, np.zeros(3), povm)
            assert str(err.value) == f"alice_signs must be three integers +/-1, got {signs}"
        hidden = np.array([0.1, -0.2, 0.3])
        for signs in SIGN_TRIPLES:
            for given in (signs, [np.int64(a) for a in signs], tuple(np.int8(a) for a in signs)):
                strat = LhsDeterministic(given, hidden, povm)
                assert strat.alice_signs == signs
                assert all(type(a) is int for a in strat.alice_signs)
                assert strat.effect_table == LhsDeterministic(signs, hidden, povm).effect_table
                assert dict(strat.components[0].alice_plus) == {
                    j: 1.0 if a == 1 else 0.0 for j, a in zip((1, 2, 3), signs)}

    def test_lhs_hidden_state_checked_once(self, monkeypatch):
        """The hidden vector passes one check_bloch; the strategy keeps a
        read-only copy of the checked array and builds no density matrix
        through bloch_to_density."""
        calls = []
        real = game.check_bloch
        monkeypatch.setattr(game, "check_bloch", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(game, "bloch_to_density", None)
        hidden = [0.25, 0.0, -0.5]
        strat = LhsDeterministic((1, -1, 1), hidden, singlet_projector_bc())
        assert len(calls) == 1
        assert strat.hidden_state.tolist() == hidden and not strat.hidden_state.flags.writeable
        rho = (identity(2) + 0.25 * pauli(1) - 0.5 * pauli(3)) / 2.0
        assert np.abs(strat.effect - np.einsum(
            "im,mjil->jl", rho, singlet_projector_bc().b1.reshape(2, 2, 2, 2))).max() <= 1e-15

    def test_lhs_effect_for_ideal_analyzer(self):
        """Against the singlet projector a pure hidden qubit at m induces
        the flipped effect (1 - m.sigma)/4 on the referee side."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(size=3)
            m /= np.linalg.norm(m)
            strat = LhsDeterministic((1, 1, 1), m, singlet_projector_bc())
            want = (identity(2) - sum(m[i - 1] * pauli(i) for i in (1, 2, 3))) / 4.0
            assert np.allclose(strat.effect, want, atol=1e-12)

    def test_lhs_effect_matches_einsum_contraction(self):
        """The induced effect E = tr_hidden[(rho x 1) b1], taken as one
        vector-matrix product, agrees with the index contraction."""
        rng = np.random.default_rng(118)
        for _ in range(200):
            strat = random_lhs_strategy(rng)
            rho = bloch_to_density(strat.hidden_state)
            b1 = strat.bob_povm.b1.reshape(2, 2, 2, 2)
            want = np.einsum("im,mjil->jl", rho, b1)
            assert np.abs(strat.effect - want).max() <= 1e-15

    def test_component_validation(self):
        alice = {1: 0.5, 2: 0.5, 3: 0.5}
        with pytest.raises(ValueError, match="weight"):
            LocalComponent(-0.1, alice, identity(2) / 2.0)
        with pytest.raises(ValueError, match="alice_plus"):
            LocalComponent(1.0, {1: 0.5, 2: 0.5}, identity(2) / 2.0)
        with pytest.raises(ValueError, match=re.escape("alice_plus[2] must lie in [0, 1], got 1.5")):
            LocalComponent(1.0, {1: 0.5, 2: 1.5, 3: 0.5}, identity(2) / 2.0)
        with pytest.raises(ValueError, match="0 <= E <= 1"):
            LocalComponent(1.0, alice, 2.0 * identity(2))

    def test_non_finite_component_rejected(self):
        alice = {1: 0.5, 2: 0.5, 3: 0.5}
        for w in (math.nan, math.inf):
            with pytest.raises(ValueError, match="weight"):
                LocalComponent(w, alice, identity(2) / 2.0)
        effect = identity(2) / 2.0
        effect[0, 0] = math.nan
        with pytest.raises(ValueError, match="not finite"):
            LocalComponent(1.0, alice, effect)

    def test_component_names_non_finite_before_non_hermitian(self):
        alice = {1: 0.5, 2: 0.5, 3: 0.5}
        for i, j in ((0, 0), (1, 0), (1, 1)):
            effect = identity(2) / 2.0
            effect[0, 1] = 0.3j  # not Hermitian: effect[1, 0] is 0
            effect[i, j] = math.nan
            with pytest.raises(ValueError) as err:
                LocalComponent(1.0, alice, effect)
            assert str(err.value) == "component effect is not finite"

    def test_non_finite_hidden_state_rejected(self):
        for i in range(3):
            hidden = np.zeros(3)
            hidden[i] = math.nan
            with pytest.raises(ValueError, match="Bloch vector is not finite"):
                LhsDeterministic((1, 1, 1), hidden, singlet_projector_bc())

    def test_component_stores_bloch_form(self):
        rng = np.random.default_rng(112)
        for _ in range(100):
            mix, lhs = random_local_strategy(rng), random_lhs_strategy(rng)
            for c in mix.components + lhs.components:
                want = (np.trace(c.effect).real / 2.0, *(density_to_bloch(c.effect) / 2.0))
                assert len(c.bloch) == 4
                assert np.allclose(c.bloch, want, rtol=0.0, atol=1e-12)

    def test_effect_bounds_match_closed_form_rule(self):
        # Eigenvalues e0 -/+ |e| placed 1e-11 inside or outside -PSD_TOL and
        # 1 + PSD_TOL: the component decides as the closed-form rule
        # reject iff c - |v| < -PSD_TOL or c + |v| > 1 + PSD_TOL does.
        def closed_form_accepts(e):
            center = 0.5 * (e[0, 0] + e[1, 1]).real
            radius = math.hypot(0.5 * (e[0, 0] - e[1, 1]).real, abs(e[0, 1]))
            return not (center - radius < -PSD_TOL or center + radius > 1.0 + PSD_TOL)

        alice = {1: 0.5, 2: 0.5, 3: 0.5}
        rng = np.random.default_rng(113)
        for _ in range(500):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            radius = rng.uniform(0.01, 0.49)
            vec = sum(radius * u[i] * pauli(i + 1) for i in range(3))
            for offset in (-1e-11, 1e-11):
                for center, inside in (
                    (-PSD_TOL + radius + offset, offset > 0.0),
                    (1.0 + PSD_TOL - radius + offset, offset < 0.0),
                ):
                    effect = center * identity(2) + vec
                    assert closed_form_accepts(effect) == inside
                    if inside:
                        LocalComponent(1.0, alice, effect)
                    else:
                        with pytest.raises(ValueError, match="0 <= E <= 1"):
                            LocalComponent(1.0, alice, effect)

    def test_mixture_weights_must_sum_to_one(self):
        comp = LocalComponent(0.4, {1: 0.5, 2: 0.5, 3: 0.5}, identity(2) / 2.0)
        with pytest.raises(ValueError, match="sum to 1"):
            CustomLocal((comp,))
        with pytest.raises(ValueError, match="at least one"):
            CustomLocal(())

    def test_mixture_components_must_be_local_components(self):
        """A component that is not a LocalComponent is rejected with a
        ValueError, as a bob_povm that is not a BinaryPovm is, before any
        of its fields is read."""
        comp = LocalComponent(1.0, {1: 0.5, 2: 0.5, 3: 0.5}, identity(2) / 2.0)
        for bad in ((1.0, {1: 0.5, 2: 0.5, 3: 0.5}, identity(2) / 2.0), None,
                    CustomLocal((comp,))):
            for components in ((bad,), (comp, bad)):
                with pytest.raises(ValueError, match="must be LocalComponents"):
                    CustomLocal(components)

    def test_built_strategies_are_frozen(self):
        """Reassigning a field would leave the compiled form scoring the old
        strategy, so every field of a built strategy, component or POVM
        refuses assignment and the payoff stays the one it was built with.
        The game spec is frozen too, so its rate cannot skip qmath.check_nonnegative."""
        spec, ens = canonical_game(1.0), referee_ideal()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.r = -3.0
        assert spec.r == 1.0
        honest = HonestQuantum(werner_state(1.0), singlet_projector_bc())
        with pytest.raises(dataclasses.FrozenInstanceError):
            honest.shared_state = werner_state(0.0)
        assert math.isclose(exact_payoff(spec, honest, ens), 3.0 - SQRT3, abs_tol=1e-12)
        lhs = LhsDeterministic((1, 1, 1), [0, 0, 1], singlet_projector_bc())
        before = exact_payoff(spec, lhs, ens)
        with pytest.raises(dataclasses.FrozenInstanceError):
            lhs.alice_signs = (-1, -1, -1)
        assert exact_payoff(spec, lhs, ens) == before
        mix = random_local_strategy(np.random.default_rng(7))
        for obj in (honest, honest.bob_povm, lhs, mix, mix.components[0]):
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, None)

    def test_built_strategies_survive_pickle_and_deepcopy(self):
        """Unpickled and deep-copied strategies, components and POVMs are
        rebuilt through their constructors: every stored array is read-only
        again, the compiled forms equal the original's, and every payoff
        and tally is bitwise the original's."""
        rng = np.random.default_rng(123)
        spec, ens = canonical_game(0.9), perturbed_ensemble(rng)

        def stored_arrays(obj):
            if isinstance(obj, BinaryPovm):
                return [obj.b0, obj.b1]
            if isinstance(obj, LocalComponent):
                return [obj.effect]
            if isinstance(obj, HonestQuantum):
                return [obj.shared_state, obj.cond_stack, *stored_arrays(obj.bob_povm)]
            arrays = [a for c in obj.components for a in stored_arrays(c)]
            if isinstance(obj, LhsDeterministic):
                arrays += [obj.hidden_state, obj.effect, *stored_arrays(obj.bob_povm)]
            return arrays

        honest = HonestQuantum(werner_state(0.8), partial_bsm_povm(0.9))
        lhs, mix = random_lhs_strategy(rng), random_local_strategy(rng)
        for obj in (honest, lhs, mix, honest.bob_povm, mix.components[0]):
            for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert type(copied) is type(obj) and copied is not obj
                arrays = stored_arrays(copied)
                assert len(arrays) == len(stored_arrays(obj))
                for got, want in zip(arrays, stored_arrays(obj)):
                    assert not got.flags.writeable
                    assert got.tobytes() == want.tobytes()
                if isinstance(obj, (HonestQuantum, CustomLocal)):
                    assert exact_payoff(spec, copied, ens) == exact_payoff(spec, obj, ens)
                    tally = simulate_runs(spec, copied, ens, 1000, seed=5)
                    assert tally.counts == simulate_runs(spec, obj, ens, 1000, seed=5).counts
                if isinstance(obj, HonestQuantum):
                    assert copied.marginals == obj.marginals
                if isinstance(obj, CustomLocal):
                    assert copied.effect_table == obj.effect_table
                if isinstance(obj, LhsDeterministic):
                    assert copied.alice_signs == obj.alice_signs

    def test_component_response_table_is_read_only(self):
        """A write to a component's response table would change the
        component but not the effect table compiled from it, so the table
        is a read-only mapping; pickling and deep-copying still rebuild the
        component with the same table, payoffs and read-only arrays."""
        spec, ens = canonical_game(0.9), referee_ideal()
        comp = LocalComponent(1.0, {1: 0.25, 2: 0.5, 3: 1.0}, identity(2) / 3.0)
        mix = CustomLocal((comp,))
        for obj in (comp, mix):
            for copied in (obj, pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                if isinstance(copied, CustomLocal):
                    assert exact_payoff(spec, copied, ens) == exact_payoff(spec, mix, ens)
                    copied = copied.components[0]
                with pytest.raises(TypeError):
                    copied.alice_plus[1] = 0.0
                assert copied.alice_plus == {1: 0.25, 2: 0.5, 3: 1.0}
                assert not copied.effect.flags.writeable

    def test_built_strategies_own_read_only_arrays(self):
        """A strategy copies every array and response table the caller still
        holds, stores the arrays read-only and its compiled forms as tuples:
        writes to the caller's objects, which stay writable, leave every
        payoff as built, and writes through a stored array fail."""
        spec, ens = canonical_game(1.0), referee_ideal()
        rho = werner_state(0.8)
        b1 = partial_bsm_povm(0.9).b1.copy()
        b0 = identity(4) - b1
        povm = BinaryPovm(b0, b1)
        honest = HonestQuantum(rho, povm)
        hidden = np.array([0.0, 0.6, 0.8])
        lhs = LhsDeterministic((1, -1, 1), hidden, povm)
        alice = {1: 0.25, 2: 0.5, 3: 1.0}
        effect = identity(2) / 3.0
        mix = CustomLocal((LocalComponent(1.0, alice, effect),))
        before = [exact_payoff(spec, s, ens) for s in (honest, lhs, mix)]
        assert honest.shared_state is not rho and povm.b1 is not b1
        for arr in (rho, b0, b1, hidden, effect):
            assert arr.flags.writeable
            arr[0] = 0.5
        alice[1] = 0.0
        assert [exact_payoff(spec, s, ens) for s in (honest, lhs, mix)] == before
        stored = [honest.shared_state, povm.b0, povm.b1, lhs.hidden_state, lhs.effect,
                  mix.components[0].effect, partial_bsm_povm(1.0).b1]
        stored.append(honest.cond_stack)
        for arr in stored:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 5.0
        assert mix.components[0].alice_plus == {1: 0.25, 2: 0.5, 3: 1.0}
        for table in (honest.marginals, lhs.effect_table, mix.effect_table):
            assert type(table) is tuple and all(type(rows) is tuple for rows in table)
        assert all(type(row) is tuple for rows in mix.effect_table for row in rows)


class TestJointProbabilities:
    def test_honest_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for _ in range(12):
            strat = HonestQuantum(
                werner_state(float(rng.random())), partial_bsm_povm(float(rng.random()))
            )
            ens = perturbed_ensemble(rng)
            for key in SETTING_KEYS:
                got = joint_probabilities(strat, ens, *key)
                want = brute_force_honest(strat, ens, *key)
                for cell in CELLS:
                    assert math.isclose(got[cell], want[cell], abs_tol=1e-12)

    def test_honest_compile_is_bitwise_per_setting_evaluation(self):
        """The compiled conditional states give exactly the probabilities of
        a fresh per-setting evaluation: on the bench's 21 x 11 grid of
        Werner weight and visibility, on random states, analyzers and
        ensembles, and on the channel duals of those strategies."""
        def assert_bitwise(strat, ens):
            for key in SETTING_KEYS:
                assert joint_probabilities(strat, ens, *key) == per_setting_honest(
                    strat, ens, *key
                )

        ideal = referee_ideal()
        for w in np.linspace(0.0, 1.0, 21):
            for v in np.linspace(0.5, 1.0, 11):
                strat = HonestQuantum(werner_state(float(w)), partial_bsm_povm(float(v)))
                assert_bitwise(strat, ideal)
        rng = np.random.default_rng(117)
        for k in range(40):
            povm = partial_bsm_povm(float(rng.random())) if k % 2 else random_analyzer(rng)
            strat = HonestQuantum(random_density_matrix(rng), povm)
            ens = perturbed_ensemble(rng)
            assert_bitwise(strat, ens)
            g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            q, _ = np.linalg.qr(g)
            assert_bitwise(dual_strategy((q[:2], q[2:]), strat), ens)

    def test_lhs_matches_brute_force(self):
        rng = np.random.default_rng(102)
        for _ in range(12):
            strat = random_lhs_strategy(rng)
            ens = perturbed_ensemble(rng)
            for key in SETTING_KEYS:
                got = joint_probabilities(strat, ens, *key)
                want = brute_force_lhs(strat, ens, *key)
                for cell in CELLS:
                    assert math.isclose(got[cell], want[cell], abs_tol=1e-12)

    def test_single_component_mixture_equals_lhs(self):
        # A one-component mixture with deterministic responses is the same
        # adversary as LhsDeterministic with the matching induced effect.
        rng = np.random.default_rng(103)
        ens = perturbed_ensemble(rng)
        lhs = random_lhs_strategy(rng)
        alice = {j: 1.0 if lhs.alice_signs[j - 1] == 1 else 0.0 for j in (1, 2, 3)}
        mix = CustomLocal((LocalComponent(1.0, alice, lhs.effect),))
        assert isinstance(lhs, CustomLocal)
        assert lhs.effect_table == mix.effect_table
        for key in SETTING_KEYS:
            got = joint_probabilities(mix, ens, *key)
            want = joint_probabilities(lhs, ens, *key)
            for cell in CELLS:
                assert math.isclose(got[cell], want[cell], abs_tol=1e-12)

    def test_effect_table_matches_component_pairing(self):
        """The compiled Bloch-form table agrees with pairing every
        component's effect against the referee density matrix, for random
        mixtures, their channel duals and random LHS adversaries."""
        rng = np.random.default_rng(105)
        kraus = check_kraus((
            np.sqrt(0.8) * identity(2),
            np.sqrt(0.2) * pauli(1),
        ))
        strategies = []
        for _ in range(10):
            mix = random_local_strategy(rng, n_components=int(rng.integers(1, 5)))
            strategies.append(mix)
            strategies.append(CustomLocal(tuple(
                LocalComponent(c.weight, dict(c.alice_plus), dual_channel(kraus, c.effect))
                for c in mix.components
            )))
            strategies.append(random_lhs_strategy(rng))
        for strat in strategies:
            ens = perturbed_ensemble(rng)
            for key in SETTING_KEYS:
                got = joint_probabilities(strat, ens, *key)
                want = pairing_local(strat, ens, *key)
                assert list(got) == list(CELLS)
                for cell in CELLS:
                    assert abs(got[cell] - want[cell]) <= 1e-12

    def test_singlet_anticorrelates_with_referee(self):
        """At W = 1 a click forces Alice's sign to match the referee's s."""
        strat = HonestQuantum(werner_state(1.0), singlet_projector_bc())
        ens = referee_ideal()
        probs = joint_probabilities(strat, ens, 3, 1)
        assert math.isclose(probs[(1, 1)], 0.25, abs_tol=1e-12)
        assert math.isclose(probs[(-1, 1)], 0.0, abs_tol=1e-12)
        assert math.isclose(probs[(1, 0)], 0.25, abs_tol=1e-12)
        assert math.isclose(probs[(-1, 0)], 0.5, abs_tol=1e-12)
        probs = joint_probabilities(strat, ens, 3, -1)
        assert math.isclose(probs[(-1, 1)], 0.25, abs_tol=1e-12)
        assert math.isclose(probs[(1, 1)], 0.0, abs_tol=1e-12)

    def test_fully_mixed_click_rate(self):
        strat = HonestQuantum(werner_state(0.0), singlet_projector_bc())
        ens = referee_ideal()
        for key in SETTING_KEYS:
            probs = joint_probabilities(strat, ens, *key)
            assert math.isclose(probs[(1, 1)] + probs[(-1, 1)], 0.25, abs_tol=1e-12)

    def test_normalization_all_strategies(self):
        rng = np.random.default_rng(104)
        ens = perturbed_ensemble(rng)
        strategies = [
            HonestQuantum(werner_state(0.7), partial_bsm_povm(0.9)),
            random_lhs_strategy(rng),
            random_local_strategy(rng),
        ]
        for strat in strategies:
            for key in SETTING_KEYS:
                probs = joint_probabilities(strat, ens, *key)
                assert math.isclose(sum(probs.values()), 1.0, abs_tol=1e-12)
                assert all(p >= -1e-12 for p in probs.values())

    def test_unknown_strategy_type(self):
        with pytest.raises(ValueError) as err:
            joint_probabilities(object(), referee_ideal(), 1, 1)
        assert str(err.value) == "strategy must be a HonestQuantum or CustomLocal, got object"


class TestExactPayoff:
    def test_local_payoff_is_witness_pairing(self):
        """Local strategies are scored by the witness pairing; it agrees
        with the per-setting sum over joint probabilities within 1e-12 on
        random LHS adversaries, random mixtures, their channel duals and
        perturbed ensembles, at rates from 0 to 2."""
        rng = np.random.default_rng(119)
        for k in range(300):
            strat = (
                random_lhs_strategy(rng)
                if k % 2
                else random_local_strategy(rng, n_components=int(rng.integers(1, 5)))
            )
            ens = referee_ideal() if k % 50 == 0 else perturbed_ensemble(rng)
            spec = canonical_game(float(2.0 * rng.random()))
            dual = dual_strategy(random_kraus(rng), strat)
            for s in (strat, dual):
                got = exact_payoff(spec, s, ens)
                assert abs(got - per_setting_payoff(spec, s, ens)) <= 1e-12

    def test_local_payoff_reads_no_joint_probabilities(self, monkeypatch):
        """Scoring a local strategy builds no joint-probability table; the
        honest player is scored from one stacked click table, and its payoff
        is bitwise the per-setting sum."""
        rng = np.random.default_rng(120)
        spec, ens = canonical_game(1.0), perturbed_ensemble(rng)
        honest = HonestQuantum(werner_state(0.7), partial_bsm_povm(0.9))
        want = per_setting_payoff(spec, honest, ens)
        locals_ = [random_lhs_strategy(rng), random_local_strategy(rng)]
        scores = [per_setting_payoff(spec, s, ens) for s in locals_]

        def no_joint(*args):
            raise AssertionError("joint-probability table reached")

        stacked = []
        honest_clicks = game._honest_clicks

        def spy(*args):
            stacked.append(args)
            return honest_clicks(*args)

        monkeypatch.setattr(game, "joint_probabilities", no_joint)
        monkeypatch.setattr(game, "_cell_rows", no_joint)
        monkeypatch.setattr(game, "_honest_clicks", spy)
        for strat, score in zip(locals_, scores):
            assert abs(exact_payoff(spec, strat, ens) - score) <= 1e-12
        assert stacked == []
        assert exact_payoff(spec, honest, ens) == want
        assert stacked == [(honest, ens)]
        monkeypatch.undo()
        assert exact_payoff(spec, honest, ens) == want

    def test_linear_in_werner_weight(self):
        """Ideal setup reproduces 3W - sqrt(3) r over the whole grid."""
        ens = referee_ideal()
        povm = singlet_projector_bc()
        for r in (0.0, 1.0, 1.081, 1.5):
            spec = canonical_game(r)
            for w in np.linspace(0.0, 1.0, 21):
                strat = HonestQuantum(werner_state(float(w)), povm)
                got = exact_payoff(spec, strat, ens)
                assert math.isclose(got, 3.0 * w - SQRT3 * r, abs_tol=1e-12)

    def test_golden_point(self):
        spec = canonical_game(1.081)
        strat = HonestQuantum(werner_state(0.698), singlet_projector_bc())
        got = exact_payoff(spec, strat, referee_ideal())
        assert math.isclose(got, 3.0 * 0.698 - SQRT3 * 1.081, abs_tol=1e-12)
        assert round(got, 2) == 0.22

    def test_visibility_degrades_linearly(self):
        """Analyzer visibility v rescales the payoff to 3vW - sqrt(3) r (2 - v):
        the correlator shrinks by v while the click tax picks up the extra
        (1 - v)/2 background clicks."""
        ens = referee_ideal()
        rng = np.random.default_rng(105)
        for _ in range(10):
            w = float(rng.random())
            v = float(rng.random())
            r = float(2.0 * rng.random())
            strat = HonestQuantum(werner_state(w), partial_bsm_povm(v))
            got = exact_payoff(canonical_game(r), strat, ens)
            assert math.isclose(got, 3.0 * v * w - SQRT3 * r * (2.0 - v), abs_tol=1e-12)

    def test_affine_in_shared_state(self):
        ens = referee_ideal()
        spec = canonical_game(1.0)
        povm = partial_bsm_povm(0.9)
        p25 = exact_payoff(spec, HonestQuantum(werner_state(0.25), povm), ens)
        p75 = exact_payoff(spec, HonestQuantum(werner_state(0.75), povm), ens)
        p50 = exact_payoff(spec, HonestQuantum(werner_state(0.50), povm), ens)
        assert math.isclose(p50, 0.5 * (p25 + p75), abs_tol=1e-12)

    def test_slope_in_rate_is_click_tax(self):
        # d(payoff)/dr = -2 sqrt(3) * mean click rate; -sqrt(3) for Werner
        # against the ideal analyzer, where every setting clicks at 1/4.
        ens = referee_ideal()
        strat = HonestQuantum(werner_state(0.698), singlet_projector_bc())
        p1 = exact_payoff(canonical_game(1.0), strat, ens)
        p2 = exact_payoff(canonical_game(1.5), strat, ens)
        assert math.isclose(p2 - p1, -SQRT3 * 0.5, abs_tol=1e-12)


class TestHonestClickMemo:
    def test_one_click_table_per_strategy_and_ensemble(self, monkeypatch):
        """The exact payoff, a sample and the joint probabilities of one
        honest strategy on one ensemble share one stacked click pass; a
        second ensemble takes a pass of its own."""
        calls = []
        product = game.real_trace_product
        monkeypatch.setattr(game, "real_trace_product",
                            lambda a, b: calls.append(b) or product(a, b))
        strat = HonestQuantum(werner_state(0.7), partial_bsm_povm(0.9))
        spec, ens = canonical_game(1.0), perturbed_ensemble(np.random.default_rng(141))
        exact_payoff(spec, strat, ens)
        simulate_runs(spec, strat, ens, 1000, seed=1)
        for key in SETTING_KEYS:
            joint_probabilities(strat, ens, *key)
        assert len(calls) == 1
        exact_payoff(spec, strat, referee_ideal())
        assert len(calls) == 2

    def test_alternating_ensembles_are_never_served_a_stale_table(self):
        """Switching one strategy between two ensembles, and to a rebuilt
        twin of one of them, gives the brute-force probabilities and the
        fresh strategy's payoff every time."""
        rng = np.random.default_rng(142)
        strat = HonestQuantum(random_density_matrix(rng), random_analyzer(rng))
        first, second = perturbed_ensemble(rng), perturbed_ensemble(rng)
        spec = canonical_game(0.9)
        for ens in (first, second, first, second, RefereeEnsemble(first.vectors), first):
            for key in SETTING_KEYS:
                got = joint_probabilities(strat, ens, *key)
                assert got == per_setting_honest(strat, ens, *key)
                want = brute_force_honest(strat, ens, *key)
                assert all(math.isclose(got[c], want[c], abs_tol=1e-12) for c in CELLS)
            fresh = HonestQuantum(strat.shared_state, strat.bob_povm)
            assert exact_payoff(spec, strat, ens) == exact_payoff(spec, fresh, ens)

    def test_the_table_is_invisible(self):
        """An evaluated strategy keeps its repr and its identity equality,
        and pickling or deep-copying it drops the table and rebuilds a
        strategy with bitwise the same payoff, tally and probabilities."""
        strat = HonestQuantum(werner_state(0.8), partial_bsm_povm(0.9))
        spec, ens = canonical_game(1.1), referee_ideal()
        before, twin = repr(strat), HonestQuantum(strat.shared_state, strat.bob_povm)
        payoff = exact_payoff(spec, strat, ens)
        tally = simulate_runs(spec, strat, ens, 5000, seed=4)
        assert repr(strat) == before and "_clicks" not in before
        assert strat == strat and strat != twin and {strat: 1, twin: 2}[strat] == 1
        for copied in (pickle.loads(pickle.dumps(strat)), copy.deepcopy(strat)):
            assert copied._clicks == (None, None) and copied != strat
            assert exact_payoff(spec, copied, ens) == payoff
            assert simulate_runs(spec, copied, ens, 5000, seed=4).counts == tally.counts
            for key in SETTING_KEYS:
                want = joint_probabilities(strat, ens, *key)
                assert joint_probabilities(copied, ens, *key) == want


class TestLhsOptimum:
    def test_ideal_boundary_values(self):
        """Against the ideal ensemble the best no-steering payoff is
        2 sqrt(3) (1 - r), hitting zero exactly at r = 1."""
        ens = referee_ideal()
        for r in (0.0, 0.5, 1.0, 2.0):
            _, _, payoff = lhs_best_deterministic(canonical_game(r), ens)
            assert math.isclose(payoff, 2.0 * SQRT3 * (1.0 - r), abs_tol=1e-12)

    def test_ideal_tie_break(self):
        # All eight assignments tie on the ideal ensemble; the search must
        # settle on the lexicographically smallest one.
        signs, direction, _ = lhs_best_deterministic(canonical_game(0.5), referee_ideal())
        assert signs == (-1, -1, -1)
        assert np.allclose(direction, -np.ones(3) / SQRT3)

    def test_one_sign_table_same_optimum(self, monkeypatch):
        """The best deterministic adversary is read from the ensemble's one
        witness form, with the signs of worst_assignment and the direction
        and payoff of its assignment_vectors: one sign table is built per
        ensemble for all three readers, and none through witness."""
        from qrsgame import states, witness

        rng = np.random.default_rng(122)
        cases = [(referee_ideal(), r) for r in (0.0, 0.5, 1.0)]
        cases += [(perturbed_ensemble(rng), float(rng.uniform(0.0, 2.0))) for _ in range(30)]
        tables = []
        real_tables = states._sign_tables
        monkeypatch.setattr(states, "_sign_tables", lambda v: tables.append(v) or real_tables(v))
        monkeypatch.setattr(witness, "_sign_tables", lambda v: tables.append(v) or real_tables(v))
        for ens, r in cases:
            tables.clear()
            signs, direction, payoff = lhs_best_deterministic(canonical_game(r), ens)
            want_signs = witness.worst_assignment(ens, r)
            vec_a, vec_b = witness.assignment_vectors(ens, want_signs)
            assert len(tables) == 1
            t = vec_a - r * vec_b
            norm = float(np.sqrt(np.add.reduce(t * t)))
            assert signs == want_signs
            assert payoff == norm - 2.0 * SQRT3 * r
            assert np.array_equal(direction, t / norm if norm > 1e-15 else np.zeros(3))

    def test_payoff_is_lhs_bound(self):
        """The best deterministic payoff is lhs_bound at the game's rate, bit
        for bit, wherever the top sign row leads the others by more than
        the 1e-15 tie window. A second norm of the winning row, by another
        route, once missed it in the last bits."""
        from qrsgame import states, witness

        rng = np.random.default_rng(124)
        checked = 0
        for _ in range(2000):
            vecs = rng.normal(size=(6, 3))
            vecs *= rng.random(size=(6, 1)) ** (1.0 / 3.0) / np.linalg.norm(vecs, axis=1)[:, None]
            ens = RefereeEnsemble(dict(zip(SETTING_KEYS, vecs)))
            r = float(rng.uniform(0.0, 2.0))
            top = sorted(witness._top_eigenvalues(*states._sign_tables(ens.stack), r).tolist())
            if top[-1] - top[-2] > 1e-15:
                checked += 1
                assert lhs_best_deterministic(canonical_game(r), ens)[2] == witness.lhs_bound(ens, r)
        assert checked > 1900

    def test_realized_strategy_attains_bound(self):
        rng = np.random.default_rng(106)
        for r in (0.5, 1.0, 2.0):
            spec = canonical_game(r)
            for ens in (referee_ideal(), perturbed_ensemble(rng)):
                _, _, predicted = lhs_best_deterministic(spec, ens)
                strat = realize_lhs_best(spec, ens)
                assert math.isclose(exact_payoff(spec, strat, ens), predicted, abs_tol=1e-9)

    def test_realized_beats_random_adversaries(self):
        rng = np.random.default_rng(107)
        ens = perturbed_ensemble(rng)
        spec = canonical_game(0.4)
        _, _, best = lhs_best_deterministic(spec, ens)
        for _ in range(50):
            assert exact_payoff(spec, random_lhs_strategy(rng), ens) <= best + 1e-9
        for _ in range(50):
            assert exact_payoff(spec, random_local_strategy(rng), ens) <= best + 1e-9


class TestSimulation:
    def test_deterministic_per_seed(self):
        spec = canonical_game(1.081)
        strat = HonestQuantum(werner_state(0.698), singlet_projector_bc())
        ens = referee_ideal()
        t1 = simulate_runs(spec, strat, ens, 500, seed=9)
        t2 = simulate_runs(spec, strat, ens, 500, seed=9)
        assert t1.counts == t2.counts
        t3 = simulate_runs(spec, strat, ens, 500, seed=10)
        assert t1.counts != t3.counts

    def test_totals(self):
        spec = canonical_game(1.0)
        strat = HonestQuantum(werner_state(0.5), singlet_projector_bc())
        tally = simulate_runs(spec, strat, referee_ideal(), 320, seed=0)
        for j, s in SETTING_KEYS:
            assert sum(tally.cell(j, s, a, b) for a, b in CELLS) == 320

    def test_argument_validation(self):
        spec = canonical_game(1.0)
        strat = HonestQuantum(werner_state(0.5), singlet_projector_bc())
        with pytest.raises(ValueError, match="n_per_setting"):
            simulate_runs(spec, strat, referee_ideal(), 0, seed=0)
        with pytest.raises(ValueError, match="seed"):
            simulate_runs(spec, strat, referee_ideal(), 10, seed=-1)

    def test_non_integer_arguments_rejected(self):
        """2.5 rounds are not truncated to 2, True is not one round, and a
        fractional seed fails as a ValueError naming it."""
        spec = canonical_game(1.0)
        strat = HonestQuantum(werner_state(0.5), singlet_projector_bc())
        for n in (2.5, True, 2.0):
            with pytest.raises(ValueError, match="n_per_setting"):
                simulate_runs(spec, strat, referee_ideal(), n, seed=0)
        for seed in (1.5, True):
            with pytest.raises(ValueError, match="seed"):
                simulate_runs(spec, strat, referee_ideal(), 10, seed=seed)
        tally = simulate_runs(spec, strat, referee_ideal(), np.int64(10), seed=np.int64(3))
        assert tally.counts == simulate_runs(spec, strat, referee_ideal(), 10, seed=3).counts

    def test_honest_tally_is_a_draw_of_per_setting_probabilities(self):
        """An honest tally is exactly the multinomial draw, from the same
        SeedSequence([seed, j, 0 if s > 0 else 1]), of the clamped and
        normalized probabilities a fresh per-setting evaluation gives, on
        the ideal ensemble and on perturbed ones."""
        rng = np.random.default_rng(131)
        spec = canonical_game(1.0)
        cases = [(HonestQuantum(werner_state(0.698), singlet_projector_bc()), referee_ideal())]
        for k in range(12):
            povm = partial_bsm_povm(float(rng.random())) if k % 2 else random_analyzer(rng)
            cases.append((HonestQuantum(random_density_matrix(rng), povm), perturbed_ensemble(rng)))
        for k, (strat, ens) in enumerate(cases):
            n, seed = 1000 + 37 * k, 11 * k
            want = dict_sampler(per_setting_honest, strat, ens, n, seed)
            assert simulate_runs(spec, strat, ens, n, seed).counts == want

    def test_tally_and_estimate_match_the_per_setting_oracles(self):
        """simulate_runs clamps and normalizes all six cell rows as one array
        and estimate_payoff reads each setting's counts once; both are
        bitwise the per-setting dict sampler and the per-cell estimator on a
        Werner weight x visibility x seed grid, on random mixtures and
        deterministic adversaries, and on an adversary whose no-click cell
        rounds to a tiny negative probability that the clamp draws as 0."""
        rng = np.random.default_rng(139)
        cases = []
        for w in (0.0, 0.35, 0.7, 1.0):
            for v in (0.5, 0.8, 1.0):
                honest = HonestQuantum(werner_state(w), partial_bsm_povm(v))
                cases += [(honest, referee_ideal(), seed) for seed in (0, 7, 2**40)]
        for k in range(8):
            strat = random_local_strategy(rng) if k % 2 else random_lhs_strategy(rng)
            cases.append((strat, perturbed_ensemble(rng), k))
        # A pure hidden qubit and a full-strength projector both aimed at the
        # (1, +1) referee vector: n.n rounds above 1, so p(+, 0) = 1 - click < 0.
        d = np.array([-0.8784069177470692, -0.08266045905288898, -0.4707106705432322])
        b1 = qmath.tensor(bloch_to_density(d), bloch_to_density(d))
        sharp = LhsDeterministic((1, 1, 1), d, BinaryPovm(identity(4) - b1, b1))
        vectors = {key: np.zeros(3) for key in SETTING_KEYS}
        vectors[(1, 1)] = d
        tilted = RefereeEnsemble(vectors)
        assert -1e-15 < local_cells(sharp, tilted, 1, 1)[(1, 0)] < 0.0
        cases.append((sharp, tilted, 3))
        for strat, ens, seed in cases:
            cells = per_setting_honest if isinstance(strat, HonestQuantum) else local_cells
            spec = canonical_game(float(2.0 * rng.random()))
            n = int(rng.integers(1, 10**7))
            tally = simulate_runs(spec, strat, ens, n, seed)
            assert tally.counts == dict_sampler(cells, strat, ens, n, seed)
            est = estimate_payoff(spec, tally)
            assert (est.value, est.stderr) == per_cell_estimate(spec, tally)
        assert tally.cell(1, 1, 1, 0) == 0  # the sharp adversary's clamped cell

    def test_rounds_beyond_the_count_cap_rejected(self):
        """More rounds per setting than a tally count may hold (2^52) are
        refused before any draw, so no tally the checked constructor or
        TallyTable.load would reject is made; 2^52 itself is drawn."""
        spec = canonical_game(1.0)
        strat = HonestQuantum(werner_state(0.5), singlet_projector_bc())
        tally = simulate_runs(spec, strat, referee_ideal(), 2**52, seed=1)
        assert TallyTable(tally.counts).counts == tally.counts

        def no_draw(*args):
            raise AssertionError("a draw was made")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "default_rng", no_draw)
            for n in (2**52 + 1, 2**60, 2**64):
                with pytest.raises(ValueError, match=r"n_per_setting .* 1 to 2\^52, a tally"):
                    simulate_runs(spec, strat, referee_ideal(), n, seed=1)

    def test_substream_is_the_listed_seed_sequence(self):
        """_substream(seed, *key) draws what default_rng(SeedSequence([seed,
        *key])) draws, on both sides of 2^32 and for numpy seeds, including
        one that a cast to uint32 would wrap to a small word."""
        seeds = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, np.int64(2**40), np.uint64(7))
        for seed in seeds:
            for key in ((), (0,), (3, 1), (2, 0), (2**40, 1)):
                rng = game._substream(seed, *key)
                want = np.random.default_rng(np.random.SeedSequence([seed, *key]))
                assert rng.bit_generator.state == want.bit_generator.state
                draws = rng.integers(0, 2**62, size=4).tolist()
                assert draws == want.integers(0, 2**62, size=4).tolist()
        assert (game._substream(np.int64(2**40), 1, 0).random()
                != game._substream(0, 1, 0).random())

    def test_samplers_draw_from_substreams(self, monkeypatch):
        """simulate_runs and the bootstrap take every draw from _substream,
        with the keys (seed, j, 0 or 1) and (seed, trial)."""
        keys = []
        real = game._substream
        monkeypatch.setattr(game, "_substream", lambda *k: keys.append(k) or real(*k))
        from qrsgame import witness

        monkeypatch.setattr(witness, "_substream", lambda *k: keys.append(k) or real(*k))
        strat = HonestQuantum(werner_state(0.5), singlet_projector_bc())
        simulate_runs(canonical_game(1.0), strat, referee_ideal(), 10, seed=2**33)
        assert keys == [(2**33, j, 0 if s > 0 else 1) for j, s in SETTING_KEYS]
        keys.clear()
        cells = [(j, s, axis, o) for j, s in SETTING_KEYS for axis in (1, 2, 3) for o in (1, -1)]
        counts = dict.fromkeys(cells, 5)
        witness.bootstrap_calibration(witness.CountRecord(counts), trials=3, seed=9)
        assert keys == [(9, 0), (9, 1), (9, 2)]

    def test_tally_validation(self):
        with pytest.raises(ValueError, match="malformed tally cell"):
            TallyTable({(1, 1, 2, 1): 5})
        with pytest.raises(ValueError) as err:
            TallyTable({(1, 1, 1, 1): -5})
        assert str(err.value) == "count for cell (1, 1, 1, 1) must be an integer from 0 to 2^52, got -5"
        # Zero cells are dropped on construction.
        assert TallyTable({(1, 1, 1, 1): 0}).counts == {}

    def test_non_integral_counts_rejected(self):
        for n in (2.7, 2.0, True, np.float64(3.0), np.True_):
            with pytest.raises(ValueError) as err:
                TallyTable({(1, 1, 1, 1): n})
            assert str(err.value) == ("count for cell (1, 1, 1, 1) must be an integer from 0 to"
                                      f" 2^52, got {n!r}")
        table = TallyTable({(1, 1, 1, 1): 3, (1, 1, 1, 0): np.int64(4)})
        assert table.counts == {(1, 1, 1, 1): 3, (1, 1, 1, 0): 4}
        assert all(type(n) is int for n in table.counts.values())

    def test_drawn_tally_is_what_the_checked_constructor_builds(self):
        """simulate_runs keeps the multinomial's draws without checking
        them again: they are positive Python ints, in the order and with
        the values that the public, checking constructor gives."""
        rng = np.random.default_rng(137)
        spec = canonical_game(1.0)
        for strat in (HonestQuantum(werner_state(0.3), singlet_projector_bc()),
                      random_lhs_strategy(rng), random_local_strategy(rng)):
            tally = simulate_runs(spec, strat, referee_ideal(), 40, seed=2)
            assert all(type(n) is int and n > 0 for n in tally.counts.values())
            assert list(TallyTable(tally.counts).counts.items()) == list(tally.counts.items())


class TestEstimator:
    def test_plug_in_at_true_frequencies(self):
        """A tally holding the exact W = 1 distribution recovers the exact
        payoff: counts (1, 1, 0, 2)/4 per setting."""
        for r in (1.0, 1.081):
            spec = canonical_game(r)
            counts = {}
            for j, s in SETTING_KEYS:
                counts[(j, s, s, 1)] = 1
                counts[(j, s, s, 0)] = 1
                counts[(j, s, -s, 0)] = 2
            est = estimate_payoff(spec, TallyTable(counts))
            assert math.isclose(est.value, 3.0 - SQRT3 * r, abs_tol=1e-12)
            assert est.stderr > 0.0

    def test_counts_per_setting_are_read_only(self):
        """n_per_setting is a read-only copy: neither an item assignment nor a
        write to the caller's dict reaches to_dict, and pickling or copying
        rebuilds the estimate with a read-only mapping."""
        strat = HonestQuantum(werner_state(0.8), singlet_projector_bc())
        est = estimate_payoff(canonical_game(1.0),
                              simulate_runs(canonical_game(1.0), strat, referee_ideal(), 50, 0))
        before = est.to_dict()
        with pytest.raises(TypeError):
            est.n_per_setting[(1, 1)] = -3
        given = dict(est.n_per_setting)
        mine = game.PayoffEstimate(est.value, est.stderr, given)
        given[(1, 1)] = -3
        assert mine.to_dict() == est.to_dict() == before
        for clone in (pickle.loads(pickle.dumps(est)), copy.deepcopy(est), copy.copy(est)):
            assert clone == est and clone.to_dict() == before
            with pytest.raises(TypeError):
                clone.n_per_setting[(1, 1)] = -3

    def test_no_clicks_means_zero(self):
        spec = canonical_game(1.0)
        counts = {(j, s, 1, 0): 7 for j, s in SETTING_KEYS}
        est = estimate_payoff(spec, TallyTable(counts))
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_doubling_counts_shrinks_stderr(self):
        spec = canonical_game(1.081)
        strat = HonestQuantum(werner_state(0.698), singlet_projector_bc())
        tally = simulate_runs(spec, strat, referee_ideal(), 2000, seed=4)
        doubled = TallyTable({c: 2 * n for c, n in tally.counts.items()})
        e1 = estimate_payoff(spec, tally)
        e2 = estimate_payoff(spec, doubled)
        assert math.isclose(e1.value, e2.value, abs_tol=1e-12)
        assert math.isclose(e1.stderr / e2.stderr, math.sqrt(2.0), rel_tol=1e-12)

    def test_stderr_tracks_empirical_spread(self):
        """Across seeds the reported standard error matches the empirical
        standard deviation of the estimates to within 20 percent."""
        spec = canonical_game(1.081)
        strat = HonestQuantum(werner_state(0.698), singlet_projector_bc())
        ens = referee_ideal()
        values = []
        errors = []
        for seed in range(200):
            est = estimate_payoff(spec, simulate_runs(spec, strat, ens, 400, seed))
            values.append(est.value)
            errors.append(est.stderr)
        empirical = float(np.std(values, ddof=1))
        reported = float(np.mean(errors))
        assert abs(empirical / reported - 1.0) < 0.2

    def test_unbiased_against_exact(self):
        spec = canonical_game(1.081)
        strat = HonestQuantum(werner_state(0.698), singlet_projector_bc())
        ens = referee_ideal()
        exact = exact_payoff(spec, strat, ens)
        values = [
            estimate_payoff(spec, simulate_runs(spec, strat, ens, 400, seed)).value
            for seed in range(200)
        ]
        # Mean of 200 estimates should sit within ~4 standard errors of truth.
        spread = float(np.std(values, ddof=1)) / math.sqrt(200.0)
        assert abs(float(np.mean(values)) - exact) < 4.0 * spread

    def test_missing_setting_is_an_error(self):
        spec = canonical_game(1.0)
        counts = {(j, s, 1, 1): 5 for j, s in SETTING_KEYS if (j, s) != (2, -1)}
        with pytest.raises(ValueError, match=r"\(j=2, s=-1\)"):
            estimate_payoff(spec, TallyTable(counts))

    def test_only_a_tally_is_estimated(self):
        """A count record's cells are axes and outcomes, not signs and
        clicks, so estimating one, or anything else that is not a
        TallyTable, raises instead of returning a number."""
        spec = canonical_game(1.0)
        cells = [(j, s, x, y) for j, s in SETTING_KEYS for x, y in CountRecord.CELLS]
        tally_cells = [(j, s, a, b) for j, s in SETTING_KEYS for a, b in TallyTable.CELLS]
        for table in (CountRecord(dict.fromkeys(cells, 5)), dict.fromkeys(tally_cells, 5)):
            with pytest.raises(ValueError) as err:
                estimate_payoff(spec, table)
            assert str(err.value) == f"tally must be a TallyTable, got {type(table).__name__}"
        uniform = estimate_payoff(spec, TallyTable(dict.fromkeys(tally_cells, 5)))
        assert math.isclose(uniform.value, -2.0 * SQRT3, abs_tol=1e-12)  # half click, all taxed

    def test_to_dict_layout(self):
        spec = canonical_game(1.0)
        strat = HonestQuantum(werner_state(0.5), singlet_projector_bc())
        est = estimate_payoff(spec, simulate_runs(spec, strat, referee_ideal(), 50, seed=0))
        data = est.to_dict()
        assert set(data) == {"value", "stderr", "n_per_setting"}
        assert data["n_per_setting"] == [
            {"j": j, "s": s, "n": 50} for j, s in SETTING_KEYS
        ]


class TestTallyCsv:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "tally.csv")
        spec = canonical_game(1.0)
        strat = HonestQuantum(werner_state(0.698), singlet_projector_bc())
        tally = simulate_runs(spec, strat, referee_ideal(), 300, seed=5)
        tally.save(path)
        assert TallyTable.load(path).counts == tally.counts

    def test_format_omits_zero_cells(self):
        text = TallyTable({(1, 1, 1, 1): 3, (2, -1, -1, 0): 4}).format()
        assert text.splitlines() == ["j,s,a,b,count", "1,+1,+1,1,3", "2,-1,-1,0,4"]

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            TallyTable.load(str(path))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row in ("1,x,+1,1,2", "1,+1,+1,2,2", "1,+1,0,1,2", "1,+1,+1,1,-2"):
            path.write_text(f"j,s,a,b,count\n1,+1,+1,1,3\n{row}\n")
            with pytest.raises(ValueError, match="line 3"):
                TallyTable.load(str(path))

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("j,s,a,b,count\n1,+1,+1,1,3\n1,+1,+1,1,2\n")
        with pytest.raises(ValueError, match="duplicate"):
            TallyTable.load(str(path))
        path.write_text("j,s,a,b,count\n1,+1,+1,1,0\n1,+1,+1,1,2\n")
        with pytest.raises(ValueError, match="duplicate .* at line 3"):
            TallyTable.load(str(path))

    def test_loaded_table_drops_zero_rows(self, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("j,s,a,b,count\n2,-1,-1,0,4\n1,+1,+1,1,0\n")
        table = TallyTable.load(str(path))
        assert table.counts == {(2, -1, -1, 0): 4}
        assert list(table.counts.items()) == list(TallyTable({(2, -1, -1, 0): 4}).counts.items())


def test_no_steering_payoff_never_positive_at_calibrated_rate():
    """Sampled soundness: random local adversaries stay nonpositive at the
    calibrated rate of each perturbed ensemble."""
    from qrsgame.witness import rstar_oracle

    rng = np.random.default_rng(108)
    for _ in range(8):
        ens = perturbed_ensemble(rng)
        spec = canonical_game(rstar_oracle(ens))
        for _ in range(30):
            assert exact_payoff(spec, random_lhs_strategy(rng), ens) <= 1e-9
            assert exact_payoff(spec, random_local_strategy(rng), ens) <= 1e-9


def _outcome(build, *args):
    # None when the constructor accepts, else its ValueError message.
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _povm_oracle(b0, b1):
    # The per-element sequence that the stacked check stands for.
    try:
        e0 = check_hermitian(b0, 4, "POVM element b0")
        e1 = check_hermitian(b1, 4, "POVM element b1")
    except ValueError as exc:
        return str(exc)
    for name, el in (("b0", e0), ("b1", e1)):
        if not psd_within(el):
            return f"POVM element {name} is not positive semidefinite"
    if np.abs(e0 + e1 - identity(4)).max() > HERMITIAN_TOL:
        return "POVM elements must sum to the identity"
    return None


def _component_oracle(effect):
    # check_hermitian, then the closed-form 0 <= E <= 1 rule.
    try:
        e = check_hermitian(effect, 2, "component effect")
    except ValueError as exc:
        return str(exc)
    center = 0.5 * (e[0, 0] + e[1, 1]).real
    radius = math.hypot(0.5 * (e[0, 0] - e[1, 1]).real, abs(e[0, 1]))
    if center - radius < -PSD_TOL or center + radius > 1.0 + PSD_TOL:
        return "component effect must satisfy 0 <= E <= 1"
    return None


_NON_FINITE = (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0))


def _near_tolerance(rng):
    # A factor that puts a defect or a shift just either side of its tolerance,
    # or of half of it, or well inside or outside.
    edge = rng.choice((0.5, 1.0, 1.0))
    return edge * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -1.0))


def _spoil(rng, m):
    # With some probability, a non-finite entry at a random place of a copy of m.
    m = np.array(m, dtype=complex)
    if rng.random() < 0.2:
        m[tuple(rng.integers(0, m.shape[0], size=2))] = _NON_FINITE[rng.integers(len(_NON_FINITE))]
    return m


def test_stacked_povm_check_matches_per_element_oracle():
    """2400 seeded pairs with Hermiticity defects near HERMITIAN_TOL, lowest
    eigenvalues near -PSD_TOL, NaN and inf entries and wrong shapes, alone
    and together: BinaryPovm accepts exactly what check_hermitian on b0,
    then on b1, then psd_within on each and the sum rule accept, and
    otherwise raises the message of the first of them that fails."""
    rng = np.random.default_rng(1601)
    seen = {}
    for _ in range(2400):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        eigs = np.linalg.eigvalsh(h)
        low = (h - eigs[0] * identity(4)) / (eigs[-1] - eigs[0])  # spectrum [0, 1]
        if rng.random() < 0.5:
            low = low - PSD_TOL * _near_tolerance(rng) * identity(4)
        pair = [identity(4) - low, low]
        if rng.random() < 0.5:
            pair.reverse()
        if rng.random() < 0.15:  # b0 + b1 off the identity by about HERMITIAN_TOL
            pair[0] = pair[0] + HERMITIAN_TOL * _near_tolerance(rng) * identity(4)
        for k in range(2):
            if rng.random() < 0.35:
                i, j = rng.choice(4, size=2, replace=False)
                skew = HERMITIAN_TOL * _near_tolerance(rng) * np.exp(2j * np.pi * rng.random())
                pair[k] = pair[k].copy()
                pair[k][i, j] += skew
            pair[k] = _spoil(rng, pair[k])
            if rng.random() < 0.03:
                pair[k] = (identity(2), np.ones((4, 3)), np.zeros(4))[rng.integers(3)]
        want = _povm_oracle(*pair)
        assert _outcome(BinaryPovm, *pair) == want
        seen[want] = seen.get(want, 0) + 1
    for element in ("b0", "b1"):
        for fault in ("is not Hermitian within tolerance", "is not finite",
                      "is not positive semidefinite"):
            assert seen.get(f"POVM element {element} {fault}", 0) > 20
    assert seen[None] > 200 and seen["POVM elements must sum to the identity"] > 20
    assert any(message.endswith("must be 4x4, got (4, 3)") for message in seen if message)


def test_scalar_component_check_matches_check_hermitian_oracle():
    """2400 seeded effects with Hermiticity defects near HERMITIAN_TOL and
    half of it, eigenvalues near -PSD_TOL and 1 + PSD_TOL, NaN and inf
    entries and wrong shapes: LocalComponent accepts exactly what
    check_hermitian and the closed-form 0 <= E <= 1 rule accept, with the
    same message otherwise, also where the scalar test leaves the decision
    to check_hermitian."""
    rng = np.random.default_rng(1602)
    alice = {1: 0.5, 2: 0.5, 3: 0.5}
    seen, band = {}, 0
    for _ in range(2400):
        u = rng.normal(size=3)
        radius = rng.uniform(0.05, 0.45)
        center = rng.choice((0.5, -PSD_TOL + radius, 1.0 + PSD_TOL - radius))
        center += rng.choice((-1.0, 1.0)) * PSD_TOL * 10.0 ** rng.uniform(-6.0, 0.0)
        effect = center * identity(2) + sum(radius * u[i] / np.linalg.norm(u) * pauli(i + 1)
                                            for i in range(3))
        if rng.random() < 0.5:
            skew = HERMITIAN_TOL * _near_tolerance(rng) * np.exp(2j * np.pi * rng.random())
            effect[0, 1] += skew
        if rng.random() < 0.3:
            effect[rng.integers(2), rng.integers(2)] += 1j * HERMITIAN_TOL * _near_tolerance(rng)
        effect = _spoil(rng, effect)
        if rng.random() < 0.03:
            effect = (identity(4), np.zeros(2), np.ones((2, 3)))[rng.integers(3)]
        want = _component_oracle(effect)
        assert _outcome(LocalComponent, 1.0, alice, effect) == want
        seen[want] = seen.get(want, 0) + 1
        if want is None and qmath.hermiticity_defect(effect) > 0.5 * HERMITIAN_TOL:
            band += 1
    for message in ("component effect is not Hermitian within tolerance",
                    "component effect is not finite",
                    "component effect must satisfy 0 <= E <= 1"):
        assert seen[message] > 20
    assert seen[None] > 200 and band > 20
    assert "component effect must be 2x2, got (2, 3)" in seen


def test_values_holding_arrays_compare_by_identity():
    """Equality on a POVM, strategy, component or ensemble is identity, so
    == answers instead of raising on its arrays, a rebuilt copy is another
    value, and each can be hashed. GameSpec, which holds one float, keeps
    value equality."""
    rng = np.random.default_rng(1603)
    mix = random_local_strategy(rng)
    values = (singlet_projector_bc(), HonestQuantum(werner_state(0.7), partial_bsm_povm(0.9)),
              mix.components[0], mix, random_lhs_strategy(rng), referee_ideal())
    for x in values:
        twin = copy.deepcopy(x)
        assert x == x and not x != x
        assert x != twin and not x == twin
        assert hash(x) == hash(x) and {x: 1, twin: 2}[x] == 1
    assert canonical_game(1.0) == canonical_game(1.0)
    assert hash(canonical_game(1.0)) == hash(canonical_game(1.0))


def _generic_lhs(strat):
    # The generic path LhsDeterministic stands for: one LocalComponent of
    # weight 1 with Alice's 0/1 table and the induced effect, in a CustomLocal.
    plus = {j: 1.0 if a == 1 else 0.0 for j, a in zip((1, 2, 3), strat.alice_signs)}
    return CustomLocal((LocalComponent(1.0, plus, strat.effect),))


def _same_component(got, want):
    return (type(got.weight) is float and got.weight == want.weight
            and dict(got.alice_plus) == dict(want.alice_plus)
            and all(type(j) is int and type(p) is float for j, p in got.alice_plus.items())
            and got.effect.tobytes() == want.effect.tobytes()
            and got.effect.dtype == want.effect.dtype and got.effect.shape == want.effect.shape
            and not got.effect.flags.writeable and got.bloch == want.bloch
            and (got.effect.base is None or not got.effect.base.flags.writeable))


def test_lhs_compiles_what_the_generic_path_builds():
    """2000 seeded random_lhs_strategy draws, plus numpy-int and list signs:
    LhsDeterministic's directly compiled component and effect table equal,
    bit for bit, those of CustomLocal((LocalComponent(1.0, plus, effect),)),
    the generic path kept as oracle."""
    rng = np.random.default_rng(2801)
    strategies = [random_lhs_strategy(rng) for _ in range(2000)]
    hidden, povm = np.array([0.3, -0.1, 0.5]), partial_bsm_povm(0.8)
    for signs in SIGN_TRIPLES:
        strategies += [LhsDeterministic([np.int64(a) for a in signs], hidden, povm),
                       LhsDeterministic(list(signs), hidden, povm)]
    for strat in strategies:
        want = _generic_lhs(strat)
        assert len(strat.components) == 1
        assert _same_component(strat.components[0], want.components[0])
        assert strat.effect is strat.components[0].effect
        assert strat.effect_table == want.effect_table


def _edge_povm(rng, lowest):
    # A POVM (1 - b1, b1) whose b1 has lowest eigenvalue `lowest` and top 1/2.
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(g)
    spectrum = np.concatenate(([lowest], rng.uniform(0.0, 0.5, size=2), [0.5]))
    b1 = (u * spectrum) @ u.conj().T
    return [identity(4) - b1, b1]


def _skewed(rng, defect, diagonal=False):
    # A clear POVM with one entry of b0 or b1 moved so that its Hermiticity
    # defect is `defect`: an imaginary part of defect/2 on the diagonal, or
    # the whole defect on one entry off it.
    pair = _edge_povm(rng, 0.0)
    k = rng.integers(2)
    i, j = (rng.integers(4),) * 2 if diagonal else rng.choice(4, size=2, replace=False)
    pair[k] = pair[k].copy()
    pair[k][i, j] += 0.5j * defect if diagonal else defect * np.exp(2j * np.pi * rng.random())
    return pair


def _off_identity(rng, defect):
    # A clear POVM whose sum misses the identity by `defect` on one diagonal entry.
    pair = _edge_povm(rng, 0.0)
    i = rng.integers(4)
    pair[0] = pair[0].copy()
    pair[0][i, i] += defect
    return pair


def test_clear_pass_edges_match_per_element_oracle(monkeypatch):
    """The clear pass on its edges: lowest eigenvalues within 1e-11 either
    side of -PSD_TOL/2, where m + m^dag + PSD_TOL*1 stops being positive
    definite, and Hermiticity and sum defects either side of
    HERMITIAN_TOL/2. BinaryPovm gives the per-element oracle's outcome on
    every pair, and each family reaches both the clear pass and the
    per-element checks."""
    calls = []
    real = game.check_hermitian
    monkeypatch.setattr(game, "check_hermitian", lambda *a: calls.append(a[2]) or real(*a))
    rng = np.random.default_rng(2802)
    half = 0.5 * HERMITIAN_TOL
    families = {
        "lowest eigenvalue": lambda: _edge_povm(rng, -0.5 * PSD_TOL + rng.uniform(-1e-11, 1e-11)),
        "Hermiticity": lambda: _skewed(rng, half * (1.0 + rng.uniform(-1e-3, 1e-3))),
        "diagonal": lambda: _skewed(rng, half * (1.0 + rng.uniform(-1e-3, 1e-3)), diagonal=True),
        "sum": lambda: _off_identity(rng, half * (1.0 + rng.uniform(-1e-3, 1e-3))),
    }
    for family, build in families.items():
        paths = set()
        for _ in range(300):
            pair = build()
            del calls[:]
            assert _outcome(BinaryPovm, *pair) == _povm_oracle(*pair), family
            paths.add(bool(calls))
        assert paths == {False, True}, family


def test_common_povms_take_the_clear_pass(monkeypatch):
    """1000 random_lhs_strategy analyzers and partial_bsm_povm on a 0..1
    grid are passed on scalars: BinaryPovm calls check_hermitian on no
    element, so the common case cannot fall to the per-element checks
    unnoticed."""
    calls = []
    real = game.check_hermitian
    monkeypatch.setattr(game, "check_hermitian", lambda *a: calls.append(a[2]) or real(*a))
    rng = np.random.default_rng(2803)
    for _ in range(1000):
        random_lhs_strategy(rng)
    for v in np.linspace(0.0, 1.0, 101):
        partial_bsm_povm(float(v))
    assert [name for name in calls if name.startswith("POVM element")] == []


def _state_oracle(rho):
    # The shared-state checks the clear pass stands for, in their order:
    # check_hermitian, then the trace test and psd_within, whose failure
    # message carries is_density_matrix's defects.
    try:
        m = check_hermitian(rho, 4, "shared_state")
    except ValueError as exc:
        return str(exc)
    if abs(np.trace(m) - 1.0) > TRACE_TOL or not psd_within(m):
        return f"shared_state is not a density matrix ({qmath.is_density_matrix(m).describe()})"
    return None


def _rotated_state(rng, lowest):
    # A state of unit trace whose lowest eigenvalue is `lowest`, in a random basis.
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return (u * np.array([lowest, 0.2, 0.3, 0.5 - lowest])) @ u.conj().T


def _moved(rho, i, j, by):
    # A complex copy of rho with entry (i, j) moved by `by`.
    rho = np.array(rho, dtype=complex)
    rho[i, j] += by
    return rho


def _spy_state_checks(monkeypatch):
    # The names check_hermitian is called with, from now on.
    calls = []
    real = game.check_hermitian
    monkeypatch.setattr(game, "check_hermitian", lambda *a: calls.append(a[2]) or real(*a))
    return calls


def test_shared_state_boundaries_keep_the_verdicts_and_messages(monkeypatch):
    """Shared states either side of each tolerance, and the malformed ones:
    HonestQuantum gives the verdict and the message of check_hermitian, the
    trace test and psd_within, and passes on scalars only the states inside
    half of each tolerance."""
    calls = _spy_state_checks(monkeypatch)
    rng = np.random.default_rng(3401)
    werner = werner_state(0.7)
    herm = HERMITIAN_TOL
    table = [  # (id, state, message or None, an accepted state passed on scalars)
        ("trace+0.4e-9", _moved(werner, 0, 0, 0.4e-9), None, True),
        ("trace+0.6e-9", _moved(werner, 0, 0, 0.6e-9), None, False),
        ("trace+1.1e-9", _moved(werner, 0, 0, 1.1e-9), "shared_state is not a density matrix "
         "(hermiticity 0.00e+00, trace error 1.10e-09, min eigenvalue 7.50e-02)", False),
        ("lowest-0.4e-9", _rotated_state(rng, -0.4e-9), None, True),
        ("lowest-1.1e-9", _rotated_state(rng, -1.1e-9), "shared_state is not a density matrix", False),
        ("hermitian-under", _moved(werner, 0, 1, herm * (1.0 - 1e-3)), None, False),
        ("hermitian-over", _moved(werner, 0, 1, herm * (1.0 + 1e-3)),
         "shared_state is not Hermitian within tolerance", False),
        ("nan", _moved(werner, 1, 2, math.nan), "shared_state is not finite", False),
        ("inf", _moved(werner, 1, 2, math.inf), "shared_state is not finite", False),
        ("-inf", _moved(werner, 1, 2, -math.inf), "shared_state is not finite", False),
        ("bool", np.eye(4, dtype=bool), "shared_state must be an array of numbers, got dtype bool",
         False),
        ("shape", identity(2) / 2.0, "shared_state must be 4x4, got (2, 2)", False),
    ]
    for name, rho, message, scalar in table:
        del calls[:]
        got = _outcome(HonestQuantum, rho, singlet_projector_bc())
        assert got == _state_oracle(rho), name
        assert (got or "").startswith(message or ""), name
        assert (got is None) == (message is None), name
        assert got is not None or (not calls) == scalar, name
    lowest = _outcome(HonestQuantum, table[4][1], singlet_projector_bc())
    assert re.search(r"min eigenvalue -1\.10e-09\)$", lowest)


def test_clear_state_edges_match_the_checks(monkeypatch):
    """Trace errors, lowest eigenvalues and Hermiticity defects within a
    relative 1e-3 of half their tolerance, off and on the diagonal:
    HonestQuantum gives the checks' outcome on every state, each family
    reaches both the clear pass and the checks, and every state the clear
    pass takes passes the checks."""
    calls = _spy_state_checks(monkeypatch)
    rng = np.random.default_rng(3402)
    werner = werner_state(0.7)

    def near_half(tol):
        return 0.5 * tol * (1.0 + rng.uniform(-1e-3, 1e-3))

    families = {
        "trace": lambda: _moved(werner, *(rng.integers(4),) * 2, near_half(TRACE_TOL)),
        "lowest eigenvalue": lambda: _rotated_state(rng, -near_half(PSD_TOL)),
        "Hermiticity": lambda: _moved(werner, *rng.choice(4, size=2, replace=False),
                                      near_half(HERMITIAN_TOL)
                                      * np.exp(2j * np.pi * rng.random())),
        "diagonal": lambda: _moved(werner, *(rng.integers(4),) * 2,
                                   0.5j * near_half(HERMITIAN_TOL)),
    }
    for family, build in families.items():
        paths = set()
        for _ in range(300):
            rho = build()
            del calls[:]
            want = _state_oracle(rho)
            assert _outcome(HonestQuantum, rho, singlet_projector_bc()) == want, family
            if not calls:
                assert want is None, family
            paths.add(bool(calls))
        assert paths == {False, True}, family


def test_common_states_take_the_clear_pass(monkeypatch):
    """Werner states on the honest-sample grid with partial_bsm_povm(0.9),
    and the singlet with the ideal analyzer, are built with psd_within,
    check_hermitian and numpy's Cholesky made to fail: the common shared
    state cannot fall to the numpy checks unnoticed."""
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy check reached")

    for owner, name in ((game, "psd_within"), (game, "check_hermitian"), (np.linalg, "cholesky")):
        monkeypatch.setattr(owner, name, refuse)
    with pytest.raises(AssertionError, match="a numpy check reached"):
        HonestQuantum(werner_state(1.0) + 1e-3 * identity(4), singlet_projector_bc())
    for w in np.linspace(0.0, 1.0, 21):
        strategy = HonestQuantum(werner_state(float(w)), partial_bsm_povm(0.9))
        assert strategy.shared_state.tobytes() == werner_state(float(w)).tobytes()
    HonestQuantum(werner_state(1.0), singlet_projector_bc())
