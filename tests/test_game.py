"""Game engine: joint probabilities, payoffs, adversaries, sampling, tallies.

The engine never builds the full three-qubit space; the oracle here does,
evaluating p(a, b) = tr[(Pi_a x B_b)(rho_AB x omega_C)] on 8x8 matrices so
the two routes share no code beyond the state constructors.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from qrsgame import game, qmath
from qrsgame.game import (
    SQRT3,
    BinaryPovm,
    CustomLocal,
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
    random_lhs_strategy,
    random_local_strategy,
    realize_lhs_best,
    simulate_runs,
    singlet_projector_bc,
)
from qrsgame.qmath import (
    PSD_TOL,
    bloch_to_density,
    density_to_bloch,
    identity,
    partial_trace,
    pauli,
    real_trace_product,
)
from qrsgame.states import (
    SETTING_KEYS,
    BellIndex,
    RefereeEnsemble,
    bell_state,
    referee_ideal,
    referee_state,
    rotate_ensemble,
    werner_state,
)
from qrsgame.witness import _dual_strategy, channel_dual

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
        cond = partial_trace(np.kron(proj, identity(2)) @ strategy.shared_state, "first")
        p_a = float(np.trace(cond).real)
        p_click = real_trace_product(np.kron(cond, omega), strategy.bob_povm.b1)
        out[(a, 1)] = p_click
        out[(a, 0)] = p_a - p_click
    return out


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


def random_rotation(rng):
    g = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def perturbed_ensemble(rng):
    base = rotate_ensemble(referee_ideal(), random_rotation(rng))
    vectors = {}
    for key in SETTING_KEYS:
        v = rng.uniform(0.3, 1.0) * base.vector(*key) + 0.05 * rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1.0:
            v = v / norm
        vectors[key] = v
    return RefereeEnsemble(vectors)


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


class TestPovms:
    def test_singlet_projector(self):
        povm = singlet_projector_bc()
        assert np.allclose(povm.b1, bell_state(BellIndex.PSI_MINUS))
        assert np.allclose(povm.b0 + povm.b1, identity(4))

    def test_visibility_limits(self):
        assert np.allclose(partial_bsm_povm(1.0).b1, singlet_projector_bc().b1)
        assert np.allclose(partial_bsm_povm(0.0).b1, identity(4) / 2.0)

    def test_visibility_click_rate_on_singlet(self):
        povm = partial_bsm_povm(0.89)
        singlet = bell_state(BellIndex.PSI_MINUS)
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


def test_povm_validation_never_reaches_jacobi(monkeypatch):
    """Building a valid analyzer decides positivity without eigenvalues:
    with the 4x4 Jacobi made to fail, every constructor still succeeds."""
    rng = np.random.default_rng(109)
    # random_lhs_strategy may scale its analyzer with eig_hermitian, so the
    # strategies are drawn before the solver is disabled.
    adversaries = [random_lhs_strategy(rng) for _ in range(20)]

    def no_jacobi(m):
        raise AssertionError("4x4 Jacobi reached during POVM validation")

    monkeypatch.setattr(qmath, "_jacobi_eigenvalues", no_jacobi)
    with pytest.raises(AssertionError, match="Jacobi reached"):
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

    def no_partial_trace(m, subsystem):
        raise AssertionError("partial_trace reached in a per-setting evaluation")

    monkeypatch.setattr(game, "partial_trace", no_partial_trace)
    with pytest.raises(AssertionError, match="partial_trace reached"):
        HonestQuantum(werner_state(0.7), partial_bsm_povm(0.9))
    for key in SETTING_KEYS:
        joint_probabilities(strat, ens, *key)
    exact_payoff(canonical_game(1.0), strat, ens)
    simulate_runs(canonical_game(1.0), strat, ens, 100, 0)


class TestStrategyValidation:
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

    def test_honest_state_must_be_4x4(self):
        """A qubit state is refused where it enters, not later inside numpy."""
        with pytest.raises(ValueError, match=r"shared_state must be 4x4, got \(2, 2\)"):
            HonestQuantum(identity(2) / 2.0, singlet_projector_bc())

    def test_lhs_signs_must_be_integers(self):
        """Signs are not truncated or parsed: 1.7, "1" and True are refused."""
        for signs in ((1.7, -1, 1), ("1", -1, 1), (True, -1, 1), (1.0, -1, 1)):
            with pytest.raises(ValueError, match="alice_signs"):
                LhsDeterministic(signs, np.zeros(3), singlet_projector_bc())
        strat = LhsDeterministic((np.int64(1), -1, 1), np.zeros(3), singlet_projector_bc())
        assert strat.alice_signs == (1, -1, 1)
        assert all(type(a) is int for a in strat.alice_signs)

    def test_lhs_sign_validation(self):
        with pytest.raises(ValueError, match="alice_signs"):
            LhsDeterministic((1, 0, 1), np.zeros(3), singlet_projector_bc())

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
        with pytest.raises(ValueError, match="probability"):
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

    def test_built_strategies_are_frozen(self):
        """Reassigning a field would leave the compiled form scoring the old
        strategy, so every field of a built strategy, component or POVM
        refuses assignment and the payoff stays the one it was built with.
        The game spec is frozen too, so its rate cannot skip check_rate."""
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
            assert_bitwise(_dual_strategy((q[:2], q[2:]), strat), ens)

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
        kraus = (
            np.sqrt(0.8) * identity(2),
            np.sqrt(0.2) * pauli(1),
        )
        strategies = []
        for _ in range(10):
            mix = random_local_strategy(rng, n_components=int(rng.integers(1, 5)))
            strategies.append(mix)
            strategies.append(CustomLocal(tuple(
                LocalComponent(c.weight, dict(c.alice_plus), channel_dual(kraus, c.effect))
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
        with pytest.raises(ValueError, match="unknown strategy"):
            joint_probabilities(object(), referee_ideal(), 1, 1)


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
            dual = _dual_strategy(random_kraus(rng), strat)
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
        monkeypatch.setattr(game, "_joint_table", no_joint)
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
        """The best deterministic adversary is read from one sign table, with
        the signs, direction and payoff of worst_assignment and
        assignment_vectors."""
        from qrsgame import witness

        rng = np.random.default_rng(122)
        cases = [(referee_ideal(), r) for r in (0.0, 0.5, 1.0)]
        cases += [(perturbed_ensemble(rng), float(rng.uniform(0.0, 2.0))) for _ in range(30)]
        tables = []
        real_table = witness._sign_table
        monkeypatch.setattr(witness, "_sign_table", lambda e: tables.append(e) or real_table(e))
        for ens, r in cases:
            tables.clear()
            signs, direction, payoff = lhs_best_deterministic(canonical_game(r), ens)
            assert len(tables) == 1
            want_signs = witness.worst_assignment(ens, r)
            vec_a, vec_b = witness.assignment_vectors(ens, want_signs)
            t = vec_a - r * vec_b
            norm = float(np.linalg.norm(t))
            assert signs == want_signs
            assert payoff == norm - 2.0 * SQRT3 * r
            assert np.array_equal(direction, t / norm if norm > 1e-15 else np.zeros(3))

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
            assert tally.total(j, s) == 320

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
            want = {}
            for j, s in SETTING_KEYS:
                probs = per_setting_honest(strat, ens, j, s)
                p = np.array([max(probs[cell], 0.0) for cell in CELLS])
                p /= p.sum()
                stream = np.random.SeedSequence([seed, j, 0 if s > 0 else 1])
                for cell, m in zip(CELLS, np.random.default_rng(stream).multinomial(n, p)):
                    if m:
                        want[(j, s) + cell] = int(m)
            assert simulate_runs(spec, strat, ens, n, seed).counts == want

    def test_tally_validation(self):
        with pytest.raises(ValueError, match="malformed tally cell"):
            TallyTable({(1, 1, 2, 1): 5})
        with pytest.raises(ValueError, match="negative count"):
            TallyTable({(1, 1, 1, 1): -5})
        # Zero cells are dropped on construction.
        assert TallyTable({(1, 1, 1, 1): 0}).counts == {}

    def test_non_integral_counts_rejected(self):
        for n in (2.7, 2.0, True, np.float64(3.0), np.True_):
            with pytest.raises(ValueError, match=r"cell \(1, 1, 1, 1\) is not an integer"):
                TallyTable({(1, 1, 1, 1): n})
        table = TallyTable({(1, 1, 1, 1): 3, (1, 1, 1, 0): np.int64(4)})
        assert table.counts == {(1, 1, 1, 1): 3, (1, 1, 1, 0): 4}
        assert all(type(n) is int for n in table.counts.values())


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
