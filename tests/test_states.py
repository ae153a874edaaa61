"""Bell states, Werner family, referee ensembles and their JSON form."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from qrsgame.qmath import identity, is_density_matrix, partial_trace, real_trace_product
from qrsgame.states import (
    SETTING_KEYS,
    BellIndex,
    RefereeEnsemble,
    bell_state,
    depolarize_ensemble,
    ensemble_from_dict,
    ensemble_to_dict,
    fidelity_pure,
    load_ensemble,
    referee_ideal,
    referee_state,
    referee_states,
    rotate_ensemble,
    save_ensemble,
    werner_from_bell_weights,
    werner_state,
)

ALL_BELL = (BellIndex.PSI_MINUS, BellIndex.PSI_PLUS, BellIndex.PHI_MINUS, BellIndex.PHI_PLUS)


def random_rotation(rng):
    g = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


class TestBellStates:
    def test_projectors(self):
        for idx in ALL_BELL:
            p = bell_state(idx)
            assert np.allclose(p @ p, p)
            assert np.isclose(np.trace(p), 1.0)
            assert is_density_matrix(p)

    def test_mutually_orthogonal(self):
        for i, a in enumerate(ALL_BELL):
            for b in ALL_BELL[i + 1:]:
                assert abs(real_trace_product(bell_state(a), bell_state(b))) < 1e-15

    def test_marginals_maximally_mixed(self):
        for idx in ALL_BELL:
            p = bell_state(idx)
            assert np.allclose(partial_trace(p, "first"), identity(2) / 2.0)
            assert np.allclose(partial_trace(p, "second"), identity(2) / 2.0)

    def test_psi_minus_matrix(self):
        # (|01> - |10>)/sqrt(2) as a projector, in the computational basis.
        want = np.zeros((4, 4), dtype=complex)
        want[1, 1] = want[2, 2] = 0.5
        want[1, 2] = want[2, 1] = -0.5
        assert np.allclose(bell_state(BellIndex.PSI_MINUS), want)

    def test_rejects_bare_string(self):
        with pytest.raises(ValueError, match="BellIndex"):
            bell_state("PsiMinus")


class TestWernerFamily:
    def test_endpoints(self):
        assert np.allclose(werner_state(0.0), identity(4) / 4.0)
        assert np.allclose(werner_state(1.0), bell_state(BellIndex.PSI_MINUS))

    def test_always_a_state(self):
        for w in np.linspace(0.0, 1.0, 11):
            assert is_density_matrix(werner_state(float(w)))

    def test_range_errors(self):
        with pytest.raises(ValueError, match="Werner weight"):
            werner_state(-0.01)
        with pytest.raises(ValueError):
            werner_state(1.01)

    def test_bell_weight_form_matches(self):
        """Mixing the other three Bell states at (1-p)/3 gives W = (4p-1)/3."""
        for p in np.linspace(0.25, 1.0, 16):
            state, w = werner_from_bell_weights(float(p))
            assert np.isclose(w, (4.0 * p - 1.0) / 3.0)
            assert np.allclose(state, werner_state(w), atol=1e-12)

    def test_bell_weight_for_golden_w(self):
        _, w = werner_from_bell_weights(0.7735)
        assert np.isclose(w, 0.698)

    def test_bell_weight_range(self):
        with pytest.raises(ValueError, match="singlet weight"):
            werner_from_bell_weights(0.2)
        with pytest.raises(ValueError):
            werner_from_bell_weights(1.1)


class TestRefereeEnsemble:
    def test_ideal_vectors(self):
        ens = referee_ideal()
        for j, s in SETTING_KEYS:
            want = np.zeros(3)
            want[j - 1] = s
            assert np.allclose(ens.vector(j, s), want)

    def test_ideal_states_are_pure(self):
        ens = referee_ideal()
        assert np.allclose(referee_state(ens, 3, 1), np.diag([1.0, 0.0]))
        assert np.allclose(referee_state(ens, 3, -1), np.diag([0.0, 1.0]))
        for j, s in SETTING_KEYS:
            rho = referee_state(ens, j, s)
            assert np.isclose(real_trace_product(rho, rho), 1.0)

    def test_missing_key_rejected(self):
        vectors = {k: np.zeros(3) for k in SETTING_KEYS[:-1]}
        with pytest.raises(ValueError, match="exactly the keys"):
            RefereeEnsemble(vectors)

    def test_extra_key_rejected(self):
        vectors = {k: np.zeros(3) for k in SETTING_KEYS}
        vectors[(4, 1)] = np.zeros(3)
        with pytest.raises(ValueError):
            RefereeEnsemble(vectors)

    def test_long_vector_rejected(self):
        vectors = {k: np.zeros(3) for k in SETTING_KEYS}
        vectors[(2, -1)] = np.array([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="norm"):
            RefereeEnsemble(vectors)

    def test_non_finite_vector_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            vectors = {k: np.zeros(3) for k in SETTING_KEYS}
            vectors[(3, 1)] = np.array([0.0, 0.0, bad])
            with pytest.raises(ValueError, match=r"\(3, 1\) is not finite"):
                RefereeEnsemble(vectors)

    def test_unknown_lookup(self):
        with pytest.raises(ValueError, match=r"j=2, s=0"):
            referee_ideal().vector(2, 0)

    def test_ensemble_keeps_read_only_copies(self):
        """A write to the caller's array after construction does not reach
        the ensemble, so nothing downstream reads an unchecked vector; a
        write through a stored vector, an item assignment on ``vectors`` and
        reassigning a field all fail. Each vector is its row of the one
        read-only stack, and pickled or deep-copied ensembles are rebuilt
        read-only with the same bytes."""
        v = np.array([1.0, 0.0, 0.0])
        ens = RefereeEnsemble({**referee_ideal().vectors, (1, 1): v})
        v[0] = 5.0
        assert ens.vector(1, 1).tolist() == [1.0, 0.0, 0.0]
        for j, s in SETTING_KEYS:
            with pytest.raises(ValueError, match="read-only"):
                ens.vector(j, s)[0] = 0.5
        with pytest.raises(TypeError):
            ens.vectors[(1, 1)] = np.array([2.0, 0.0, 0.0])
        for name in ("vectors", "stack"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ens, name, None)
        ens = rotate_ensemble(depolarize_ensemble(referee_ideal(), 0.7),
                              random_rotation(np.random.default_rng(5)))
        assert ens.stack.shape == (6, 3) and not ens.stack.flags.writeable
        for key in SETTING_KEYS:
            row = ens.stack[SETTING_KEYS.index(key)]
            assert ens.vector(*key).tobytes() == row.tobytes()
        for copy_ in (copy.deepcopy(ens), pickle.loads(pickle.dumps(ens))):
            assert copy_.stack.tobytes() == ens.stack.tobytes()
            assert not copy_.stack.flags.writeable
            for key in SETTING_KEYS:
                assert copy_.vector(*key).tobytes() == ens.vector(*key).tobytes()
                assert not copy_.vector(*key).flags.writeable

    def test_stacked_states_are_the_per_key_states(self):
        """referee_states holds, byte for byte, referee_state of each key at
        [j - 1, 0 if s > 0 else 1]: on the ideal ensemble (whose zero
        components give signed zeros in complex(x, -y)), on vectors with
        negative zeros and on random rotated, shrunk ensembles."""
        rng = np.random.default_rng(31)
        ensembles = [referee_ideal()]
        ensembles.append(RefereeEnsemble({k: np.array([-0.0, -0.0, 0.5]) for k in SETTING_KEYS}))
        for _ in range(50):
            rot = random_rotation(rng)
            vectors = {k: rng.uniform(0.0, 1.0) * (rot @ rng.normal(size=3)) for k in SETTING_KEYS}
            vectors = {k: v / max(1.0, np.linalg.norm(v)) for k, v in vectors.items()}
            ensembles.append(RefereeEnsemble(vectors))
        for ens in ensembles:
            stack = referee_states(ens)
            assert stack.shape == (3, 2, 2, 2) and stack.dtype == complex
            for j, s in SETTING_KEYS:
                want = referee_state(ens, j, s)
                assert stack[j - 1, 0 if s > 0 else 1].tobytes() == want.tobytes()


class TestEnsembleTransforms:
    def test_depolarize_scales(self):
        ens = depolarize_ensemble(referee_ideal(), 0.75)
        for j, s in SETTING_KEYS:
            assert np.isclose(np.linalg.norm(ens.vector(j, s)), 0.75)

    def test_depolarize_range(self):
        with pytest.raises(ValueError, match="depolarizing strength"):
            depolarize_ensemble(referee_ideal(), 1.2)

    def test_rotation_preserves_norms_and_angles(self):
        rng = np.random.default_rng(7)
        ens = depolarize_ensemble(referee_ideal(), 0.9)
        for _ in range(10):
            rot = random_rotation(rng)
            moved = rotate_ensemble(ens, rot)
            for j, s in SETTING_KEYS:
                assert np.isclose(
                    np.linalg.norm(moved.vector(j, s)), np.linalg.norm(ens.vector(j, s))
                )
            # Pairwise inner products are rotation invariants.
            a = moved.vector(1, 1) @ moved.vector(2, 1)
            b = ens.vector(1, 1) @ ens.vector(2, 1)
            assert np.isclose(a, b)

    def test_rotation_must_be_special_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            rotate_ensemble(referee_ideal(), 2.0 * np.eye(3))
        with pytest.raises(ValueError):
            rotate_ensemble(referee_ideal(), np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError, match="3x3"):
            rotate_ensemble(referee_ideal(), np.eye(2))

    def test_rotation_must_be_finite(self):
        # The rotation is blamed, not the first Bloch vector it would spoil.
        for bad in (np.nan, np.inf):
            rot = np.eye(3)
            rot[1, 2] = bad
            with pytest.raises(ValueError, match="rotation is not finite"):
                rotate_ensemble(referee_ideal(), rot)


class TestFidelity:
    def test_pure_targets(self):
        e3 = np.array([0.0, 0.0, 1.0])
        assert np.isclose(fidelity_pure(np.diag([1.0, 0.0]), e3), 1.0)
        assert np.isclose(fidelity_pure(np.diag([0.0, 1.0]), e3), 0.0)
        assert np.isclose(fidelity_pure(identity(2) / 2.0, e3), 0.5)

    def test_depolarized_overlap(self):
        ens = depolarize_ensemble(referee_ideal(), 0.974)
        f = fidelity_pure(referee_state(ens, 1, 1), np.array([1.0, 0.0, 0.0]))
        assert np.isclose(f, 0.987)

    def test_target_must_be_unit(self):
        with pytest.raises(ValueError, match="unit vector"):
            fidelity_pure(identity(2) / 2.0, np.array([0.5, 0.0, 0.0]))

    def test_target_must_be_finite(self):
        for i in range(3):
            m = np.zeros(3)
            m[i] = np.nan
            with pytest.raises(ValueError, match="target Bloch vector is not finite"):
                fidelity_pure(identity(2) / 2.0, m)

    def test_state_must_be_density(self):
        with pytest.raises(ValueError, match="density matrix"):
            fidelity_pure(identity(2), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="density matrix"):
            fidelity_pure(np.diag([np.nan, 1.0]), np.array([0.0, 0.0, 1.0]))


    def test_state_must_be_a_qubit(self):
        """A two-qubit state fails at the check, not inside numpy's matmul."""
        with pytest.raises(ValueError, match="density matrix must be 2x2"):
            fidelity_pure(werner_state(0.5), np.array([0.0, 0.0, 1.0]))


class TestJsonRoundTrip:
    def test_dict_round_trip(self):
        rng = np.random.default_rng(17)
        ens = rotate_ensemble(depolarize_ensemble(referee_ideal(), 0.9), random_rotation(rng))
        back = ensemble_from_dict(ensemble_to_dict(ens))
        for j, s in SETTING_KEYS:
            assert np.allclose(back.vector(j, s), ens.vector(j, s))

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "ens.json")
        ens = depolarize_ensemble(referee_ideal(), 0.8)
        save_ensemble(ens, path)
        back = load_ensemble(path)
        for j, s in SETTING_KEYS:
            assert np.allclose(back.vector(j, s), ens.vector(j, s))

    def test_duplicate_key_rejected(self):
        data = ensemble_to_dict(referee_ideal())
        data["vectors"].append({"j": 1, "s": 1, "n": [0.0, 0.0, 0.0]})
        with pytest.raises(ValueError, match="duplicate referee key"):
            ensemble_from_dict(data)

    def test_malformed_record_rejected(self):
        with pytest.raises(ValueError, match="malformed ensemble record"):
            ensemble_from_dict({"vectors": [{"j": 1, "s": 1}]})
        with pytest.raises(ValueError, match="'vectors'"):
            ensemble_from_dict([1, 2, 3])

    def test_vectors_must_be_a_list(self):
        for bad in (5, None, "abc", {"j": 1, "s": 1, "n": [0.0, 0.0, 1.0]}):
            with pytest.raises(ValueError, match="'vectors' list"):
                ensemble_from_dict({"vectors": bad})

    def test_keys_must_be_integers(self):
        for field, bad in (("j", 1.7), ("j", 1.0), ("s", True), ("j", "1"), ("s", None)):
            data = ensemble_to_dict(referee_ideal())
            data["vectors"][0][field] = bad
            with pytest.raises(ValueError, match="not an integer"):
                ensemble_from_dict(data)
        data = ensemble_to_dict(referee_ideal())
        for rec in data["vectors"]:
            rec["j"] = np.int64(rec["j"])
        back = ensemble_from_dict(data)
        for j, s in SETTING_KEYS:
            assert np.array_equal(back.vector(j, s), referee_ideal().vector(j, s))

    def test_bloch_components_must_be_numbers(self):
        """Strings and bools are not converted: "1" and true are not 1.0."""
        for bad in (["1", "0", "0"], [True, False, False], [1.0, 0.0, False], "100"):
            data = ensemble_to_dict(referee_ideal())
            data["vectors"][0]["n"] = bad
            with pytest.raises(ValueError, match="Bloch component that is not a number") as err:
                ensemble_from_dict(data)
            assert "'j': 1, 's': 1" in str(err.value)

    def test_unparsable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="could not parse"):
            load_ensemble(str(path))
