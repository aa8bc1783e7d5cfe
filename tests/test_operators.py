import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbound.errors import NumericalError, ValidationError
from kbound.operators import (
    HermitianMatrix,
    InnerProductSpec,
    OperatorVector,
    as_hermitian,
    inner_product,
    load_hamiltonian,
    load_matrix,
    save_matrix,
)
from oracles import random_hermitian, thermal_trace_product, trace_product


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

    def test_thermal_requires_hamiltonian(self):
        with pytest.raises(ValidationError):
            InnerProductSpec(beta=1.0)

    def test_bad_normalization(self):
        with pytest.raises(ValidationError):
            InnerProductSpec(normalization=0.0)


class TestInnerProduct:
    def test_identity_has_unit_norm_under_default(self, rng):
        for d in (2, 3, 7):
            op = OperatorVector.from_matrix(np.eye(d))
            assert op.norm() == pytest.approx(1.0, abs=1e-14)

    def test_matches_trace_formula(self, rng):
        d = 4
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = inner_product(
            OperatorVector.from_matrix(A), OperatorVector.from_matrix(B)
        )
        assert got == pytest.approx(trace_product(A, B, 1.0 / d), abs=1e-12)

    def test_conjugate_linear_in_first_argument(self, rng):
        d = 3
        A = random_hermitian(rng, d)
        B = random_hermitian(rng, d)
        c = 2.0 - 1.5j
        lhs = inner_product(
            OperatorVector.from_matrix(c * A), OperatorVector.from_matrix(B)
        )
        rhs = np.conj(c) * inner_product(
            OperatorVector.from_matrix(A), OperatorVector.from_matrix(B)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_hermitian_symmetry(self, rng):
        d = 3
        A = OperatorVector.from_matrix(rng.normal(size=(d, d)) * (1 + 1j))
        B = OperatorVector.from_matrix(rng.normal(size=(d, d)) * (1 - 0.5j))
        assert inner_product(A, B) == pytest.approx(
            np.conj(inner_product(B, A)), abs=1e-12
        )

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            inner_product(
                OperatorVector.from_matrix(np.eye(2)),
                OperatorVector.from_matrix(np.eye(3)),
            )

    def test_thermal_matches_dense_formula(self, rng):
        d = 4
        beta = 0.7
        H = random_hermitian(rng, d)
        spec = InnerProductSpec(beta=beta, hamiltonian=H)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = inner_product(
            OperatorVector.from_matrix(A, spec), OperatorVector.from_matrix(B, spec)
        )
        want = thermal_trace_product(H, beta, A, B)
        assert got == pytest.approx(want, abs=1e-11)

    def test_thermal_identity_norm_is_one(self, rng):
        # Tr(rho) = 1 regardless of beta.
        H = random_hermitian(rng, 5)
        spec = InnerProductSpec(beta=2.3, hamiltonian=H)
        op = OperatorVector.from_matrix(np.eye(5), spec)
        assert op.norm() == pytest.approx(1.0, abs=1e-12)


def _commutator(H, A: OperatorVector) -> OperatorVector:
    """[H, A] in the representation of A."""
    M = A.to_matrix()
    return OperatorVector.from_matrix(H @ M - M @ H, A.spec)


class TestLiouvillian:
    def test_self_adjoint_flat(self, rng):
        d = 4
        H = random_hermitian(rng, d)
        A = OperatorVector.from_matrix(random_hermitian(rng, d))
        B = OperatorVector.from_matrix(random_hermitian(rng, d))
        lhs = inner_product(A, _commutator(H, B))
        rhs = inner_product(_commutator(H, A), B)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_self_adjoint_thermal(self, rng):
        d = 4
        H = random_hermitian(rng, d)
        spec = InnerProductSpec(beta=1.1, hamiltonian=H)
        A = OperatorVector.from_matrix(random_hermitian(rng, d), spec)
        B = OperatorVector.from_matrix(random_hermitian(rng, d), spec)
        lhs = inner_product(A, _commutator(H, B))
        rhs = inner_product(_commutator(H, A), B)
        assert lhs == pytest.approx(rhs, abs=1e-12)


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


@settings(max_examples=30, deadline=None)
@given(
    beta=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_norms_are_nonnegative(beta, seed):
    rng = np.random.default_rng(seed)
    d = 3
    H = random_hermitian(rng, d)
    spec = (
        InnerProductSpec(beta=beta, hamiltonian=H) if beta > 0 else InnerProductSpec()
    )
    A = OperatorVector.from_matrix(
        rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), spec
    )
    val = inner_product(A, A)
    assert val.real >= 0.0
    assert abs(val.imag) < 1e-12 * max(1.0, val.real)


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
