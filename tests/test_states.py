"""The singlet, the Werner family, referee ensembles and their JSON form."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from qrsgame import states
from qrsgame.qmath import identity, is_density_matrix, partial_trace, real_trace_product
from qrsgame.states import (
    SETTING_KEYS,
    RefereeEnsemble,
    ensemble_from_dict,
    ensemble_to_dict,
    load_ensemble,
    referee_ideal,
    referee_state,
    save_ensemble,
    werner_state,
)

from helpers import (
    BELL_PROJECTORS,
    depolarize_ensemble,
    fidelity_pure,
    random_rotation,
    rotate_ensemble,
    singlet_projector_bc,
    werner_from_bell_weights,
)

ALL_BELL = tuple(BELL_PROJECTORS.values())


class TestBellStates:
    """The Bell projectors the tests use as oracles, and the singlet the package keeps."""

    def test_projectors(self):
        for p in ALL_BELL:
            assert np.allclose(p @ p, p)
            assert np.isclose(np.trace(p), 1.0)
            assert is_density_matrix(p)

    def test_mutually_orthogonal(self):
        for i, a in enumerate(ALL_BELL):
            for b in ALL_BELL[i + 1:]:
                assert abs(real_trace_product(a, b)) < 1e-15

    def test_marginals_maximally_mixed(self):
        for p in ALL_BELL:
            assert np.allclose(partial_trace(p), identity(2) / 2.0)
            second = np.einsum("ijkj->ik", p.reshape(2, 2, 2, 2))  # traces out the second qubit
            assert np.allclose(second, identity(2) / 2.0)

    def test_psi_minus_matrix(self):
        # (|01> - |10>)/sqrt(2) as a projector, in the computational basis.
        want = np.zeros((4, 4), dtype=complex)
        want[1, 1] = want[2, 2] = 0.5
        want[1, 2] = want[2, 1] = -0.5
        assert np.allclose(states._SINGLET, want)

    def test_singlet_bits(self):
        """The singlet is the outer product of the |Psi-> ket with entries
        1/sqrt(2), bit for bit: 0.4999999999999999, not 0.5, and three
        imaginary parts -0.0. Every honest payoff reads these bits, and the
        singlet analyzer's click element is the same read-only array."""
        want = BELL_PROJECTORS["PsiMinus"]
        assert states._SINGLET.tobytes() == want.tobytes()
        assert states._SINGLET[1, 1].real == 0.4999999999999999
        assert np.signbit(states._SINGLET.imag).sum() == 3
        assert not states._SINGLET.flags.writeable
        assert singlet_projector_bc().b1.tobytes() == want.tobytes()


class TestWernerFamily:
    def test_endpoints(self):
        assert np.allclose(werner_state(0.0), identity(4) / 4.0)
        assert np.allclose(werner_state(1.0), BELL_PROJECTORS["PsiMinus"])

    def test_always_a_state(self):
        for w in np.linspace(0.0, 1.0, 11):
            assert is_density_matrix(werner_state(float(w)))

    def test_range_errors(self):
        with pytest.raises(ValueError, match="Werner weight"):
            werner_state(-0.01)
        with pytest.raises(ValueError):
            werner_state(1.01)

    def test_bell_weight_form_matches(self):
        """Oracle: mixing the other three Bell states at (1-p)/3 gives W = (4p-1)/3."""
        for p in np.linspace(0.25, 1.0, 16):
            state, w = werner_from_bell_weights(float(p))
            assert np.isclose(w, (4.0 * p - 1.0) / 3.0)
            assert np.allclose(state, werner_state(w), atol=1e-12)

    def test_bell_weight_for_golden_w(self):
        _, w = werner_from_bell_weights(0.7735)
        assert np.isclose(w, 0.698)


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

    def test_keys_follow_the_integer_rule(self):
        """A key that only compares equal to a setting key, such as (1.0, 1)
        or (2, True), is rejected by the constructor, by vector and by the
        readers that look a key up; numpy integers are integers."""
        from qrsgame.game import HonestQuantum, joint_probabilities

        ideal = referee_ideal()
        for bad in ((1.0, 1), (2, True), (np.float64(3.0), -1)):
            vectors = {k: v for k, v in ideal.vectors.items() if k != bad}
            vectors[bad] = ideal.vector(*map(int, bad))
            with pytest.raises(ValueError, match="not a pair of integers"):
                RefereeEnsemble(vectors)
            with pytest.raises(ValueError, match="no referee state"):
                ideal.vector(*bad)
            with pytest.raises(ValueError, match="no referee state"):
                referee_state(ideal, *bad)
            honest = HonestQuantum(werner_state(0.8), singlet_projector_bc())
            with pytest.raises(ValueError, match="no referee state"):
                joint_probabilities(honest, ideal, *bad)
        numpy_keys = {(np.int64(j), np.int8(s)): v for (j, s), v in ideal.vectors.items()}
        ens = RefereeEnsemble(numpy_keys)
        assert ens.stack.tobytes() == ideal.stack.tobytes()
        assert list(ens.vectors) == list(SETTING_KEYS)
        assert ens.vector(np.int32(2), np.int64(-1)).tobytes() == ideal.vector(2, -1).tobytes()

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
        """An ensemble's density_stack holds, byte for byte, referee_state of
        each key at [j - 1, 0 if s > 0 else 1]: on the ideal ensemble (whose
        zero components give signed zeros in complex(x, -y)), on vectors with
        negative zeros and on random rotated, shrunk ensembles. The stack is
        read-only, built once per ensemble and dropped by pickling."""
        rng = np.random.default_rng(31)
        ensembles = [referee_ideal()]
        ensembles.append(RefereeEnsemble({k: np.array([-0.0, -0.0, 0.5]) for k in SETTING_KEYS}))
        for _ in range(50):
            rot = random_rotation(rng)
            vectors = {k: rng.uniform(0.0, 1.0) * (rot @ rng.normal(size=3)) for k in SETTING_KEYS}
            vectors = {k: v / max(1.0, np.linalg.norm(v)) for k, v in vectors.items()}
            ensembles.append(RefereeEnsemble(vectors))
        for ens in ensembles:
            assert "density_stack" not in vars(ens)
            stack = ens.density_stack
            assert stack.shape == (3, 2, 2, 2) and stack.dtype == complex
            assert not stack.flags.writeable and ens.density_stack is stack
            assert "density_stack" not in vars(pickle.loads(pickle.dumps(ens)))
            for j, s in SETTING_KEYS:
                want = referee_state(ens, j, s)
                assert stack[j - 1, 0 if s > 0 else 1].tobytes() == want.tobytes()


class TestEnsembleTransforms:
    """The transforms the tests build ensembles with."""

    def test_depolarize_scales(self):
        ens = depolarize_ensemble(referee_ideal(), 0.75)
        for j, s in SETTING_KEYS:
            assert np.isclose(np.linalg.norm(ens.vector(j, s)), 0.75)

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


class TestFidelity:
    """The fidelity oracle that avg_fidelity is checked against."""

    def test_pure_targets(self):
        e3 = np.array([0.0, 0.0, 1.0])
        assert np.isclose(fidelity_pure(np.diag([1.0, 0.0]), e3), 1.0)
        assert np.isclose(fidelity_pure(np.diag([0.0, 1.0]), e3), 0.0)
        assert np.isclose(fidelity_pure(identity(2) / 2.0, e3), 0.5)

    def test_depolarized_overlap(self):
        ens = depolarize_ensemble(referee_ideal(), 0.974)
        f = fidelity_pure(referee_state(ens, 1, 1), np.array([1.0, 0.0, 0.0]))
        assert np.isclose(f, 0.987)


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
