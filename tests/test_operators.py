import json

import numpy as np
import pytest

from kbound.ensembles import goe_sample
from kbound.errors import ValidationError
from kbound.lanczos import run_lanczos
from kbound.operators import (
    HermitianMatrix,
    InnerProductSpec,
    OperatorVector,
    as_hermitian,
    load_hamiltonian,
    load_matrix,
    save_matrix,
)
from oracles import random_hermitian


class TestHermitianMatrix:
    def test_accepts_hermitian(self, rng):
        m = random_hermitian(rng, 5)
        h = HermitianMatrix(m)
        assert h.dim == 5
        np.testing.assert_array_equal(h.entries, m)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.diag([1.0, np.inf]))

    def test_tolerates_rounding_level_asymmetry(self, rng):
        m = random_hermitian(rng, 4)
        m[0, 1] += 1e-14
        HermitianMatrix(m)

    def test_tolerance_is_relative_to_the_entries(self):
        # A deviation as large as the matrix is not rounding, however small
        # both are; a tiny Hermitian matrix is still Hermitian.
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianMatrix([[0.0, 1e-13], [0.0, 0.0]])
        HermitianMatrix(1e-12 * goe_sample(8, seed=1))

    def test_as_hermitian_passthrough(self, rng):
        h = HermitianMatrix(random_hermitian(rng, 3))
        assert as_hermitian(h) is h


class TestInnerProductSpec:
    def test_defaults(self):
        spec = InnerProductSpec()
        assert spec.beta == 0.0
        assert spec.normalization is None
        assert spec.norm_factor(4) == 0.25

    def test_explicit_normalization(self):
        assert InnerProductSpec(normalization=2.0).norm_factor(7) == 2.0

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError):
            InnerProductSpec(beta=-1.0)

    def test_thermal_spec_without_hamiltonian_is_bound_by_run_lanczos(self, rng):
        spec = InnerProductSpec(beta=1.0)
        assert spec.hamiltonian is None
        H = random_hermitian(rng, 3)
        O = OperatorVector.from_matrix(random_hermitian(rng, 3), spec)
        res = run_lanczos(H, O)
        np.testing.assert_array_equal(res.spec.hamiltonian.entries, H)
        bound = run_lanczos(H, O, spec=InnerProductSpec(1.0, hamiltonian=H))
        np.testing.assert_array_equal(res.b, bound.b)
        np.testing.assert_array_equal(res.basis, bound.basis)

    def test_bad_normalization(self):
        with pytest.raises(ValidationError):
            InnerProductSpec(normalization=0.0)


class TestOperatorVector:
    def test_component_layout_is_column_major(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        op = OperatorVector.from_matrix(m)
        np.testing.assert_array_equal(op.components.real, [1.0, 3.0, 2.0, 4.0])
        np.testing.assert_array_equal(op.to_matrix(), m)

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            OperatorVector(np.ones(5), 2)

    def test_non_finite_components(self):
        with pytest.raises(ValidationError):
            OperatorVector(np.array([1.0, np.nan, 0.0, 1.0]), 2)


class TestMatrixFiles:
    def test_round_trip_complex(self, rng, tmp_path):
        m = random_hermitian(rng, 4)
        path = tmp_path / "m.json"
        save_matrix(path, m)
        np.testing.assert_array_equal(load_matrix(path), m)

    def test_real_matrix_omits_imaginary_block(self, rng, tmp_path):
        m = np.array([[0.0, 2.0], [2.0, 1.0]])
        path = tmp_path / "m.json"
        save_matrix(path, m)
        payload = json.loads(path.read_text())
        assert "im" not in payload
        np.testing.assert_array_equal(load_matrix(path), m)

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2}))
        with pytest.raises(ValidationError, match="re"):
            load_matrix(path)

    @pytest.mark.parametrize("dim", [True, 2.5, 0, "2"])
    def test_dim_must_be_a_positive_integer(self, tmp_path, dim):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": dim, "re": [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(ValidationError, match="field 'dim' must be an integer >= 1"):
            load_matrix(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 3, "re": [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_load_hamiltonian_checks_hermiticity(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]}))
        with pytest.raises(ValidationError):
            load_hamiltonian(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json at all")
        with pytest.raises(ValidationError):
            load_matrix(path)
