"""Vectorized operators and the inner-product family.

Operators on a d-dimensional Hilbert space are treated as vectors in the
d^2-dimensional Liouville space.  This module fixes the conventions the rest
of the package relies on:

* matrices are vectorized column-major (Fortran order): component
  ``j + d*i`` is the (j, i) entry;
* the inner product is ``<A|B> = nu0 * Tr(A^dag B)`` at beta = 0, with the
  normalization nu0 defaulting to 1/d (identity has unit norm), and the
  symmetrically weighted thermal form
  ``<A|B> = Tr(e^{-beta H/2} A^dag e^{-beta H/2} B) / Z`` at beta > 0.

Both members of the family make the Liouvillian L = [H, .] self-adjoint,
which is what keeps the Lanczos recursion two-term with real coefficients.
``lanczos`` applies L in the eigenbasis of H, where it is the elementwise
multiply by E_i - E_j; no dense d^2 x d^2 superoperator is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from ._util import (complex_array, integer, json_field, load_json_object, nonnegative,
                    positive, write_json)

HERMITICITY_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

__all__ = [
    "HERMITICITY_TOL",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "HermitianMatrix",
    "InnerProductSpec",
    "OperatorVector",
    "as_hermitian",
    "load_matrix",
    "save_matrix",
    "load_hamiltonian",
]


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A square complex matrix validated to be Hermitian.

    The deviation ``max |M - M^dag|`` must stay below ``HERMITICITY_TOL``
    relative to max(1, max|M|); the matrix is stored as given (complex128
    copy), not resymmetrized.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(
                f"entries must be a square matrix, got shape {m.shape}"
            )
        if m.shape[0] == 0:
            raise ValidationError("entries must be at least 1 x 1")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValidationError("entries contain non-finite values")
        scale = max(1.0, float(np.max(np.abs(m))))
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > HERMITICITY_TOL * scale:
            raise ValidationError(
                f"entries are not Hermitian: max deviation {dev:.3e} "
                f"exceeds {HERMITICITY_TOL:g} * {scale:g}"
            )
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def as_hermitian(matrix) -> HermitianMatrix:
    """Coerce an array or HermitianMatrix to HermitianMatrix."""
    if isinstance(matrix, HermitianMatrix):
        return matrix
    return HermitianMatrix(np.asarray(matrix))


class InnerProductSpec:
    """One member of the inner-product family: (beta, normalization).

    beta = 0 is the flat Hilbert-Schmidt product scaled by ``normalization``
    (default 1/d, fixed at evaluation time from the operand dimension).
    beta > 0 needs the Hamiltonian it is weighted by; its eigendecomposition
    is taken once here and reused by every product.

    The thermal normalization 1/Z is built in; ``normalization`` only scales
    the beta = 0 member.
    """

    def __init__(
        self,
        beta: float = 0.0,
        normalization: float | None = None,
        hamiltonian: HermitianMatrix | np.ndarray | None = None,
    ):
        beta = nonnegative(beta, "beta")
        if normalization is not None:
            normalization = positive(normalization, "normalization")
        self.beta = beta
        self.normalization = normalization
        self.hamiltonian = None
        self._energies = None
        self._vectors = None
        self._weights = None
        self._partition = None
        if beta > 0.0:
            if hamiltonian is None:
                raise ValidationError(
                    "beta > 0 requires the hamiltonian the product is weighted by"
                )
            H = as_hermitian(hamiltonian)
            self.hamiltonian = H
            energies, vectors = np.linalg.eigh(H.entries)
            # Shift before exponentiating; Z and the weights rescale together.
            shifted = energies - energies.min()
            self._energies = energies
            self._vectors = vectors
            self._weights = np.exp(-beta * shifted / 2.0)
            self._partition = float(np.sum(np.exp(-beta * shifted)))
        elif hamiltonian is not None:
            self.hamiltonian = as_hermitian(hamiltonian)

    @classmethod
    def unbound(cls, beta: float, normalization: float | None = None) -> "InnerProductSpec":
        """A spec without its Hamiltonian, as results reloaded from JSON carry
        it: at beta > 0 bookkeeping only, inner products raise ValidationError."""
        spec = cls(0.0, normalization)
        spec.beta = nonnegative(beta, "beta")
        return spec

    def require_hamiltonian(self) -> None:
        """Raise ValidationError if a beta > 0 spec lacks its Hamiltonian."""
        if self.beta > 0.0 and self.hamiltonian is None:
            raise ValidationError(
                f"the beta = {self.beta:g} inner product is missing its weighting "
                "Hamiltonian (a result reloaded from JSON does not carry it); "
                "rebuild the spec with InnerProductSpec(beta, normalization, H)"
            )

    def norm_factor(self, dim: int) -> float:
        """Scale applied to Tr(A^dag B) when beta = 0."""
        if self.normalization is not None:
            return self.normalization
        return 1.0 / dim

    def __repr__(self):
        return (
            f"InnerProductSpec(beta={self.beta!r}, "
            f"normalization={self.normalization!r})"
        )


@dataclass(eq=False)
class OperatorVector:
    """An operator as a d^2 column-major component vector plus its product.

    components[j + d*i] is the (j, i) matrix entry.
    """

    components: np.ndarray
    dim: int
    spec: InnerProductSpec = field(default_factory=InnerProductSpec)

    def __post_init__(self):
        v = np.array(self.components, dtype=np.complex128)
        d = integer(self.dim, "dim")
        if v.shape != (d * d,):
            # A matrix raveled row by row would be read as its transpose.
            raise ValidationError(
                f"components must be a flat vector of length dim^2 = {d * d}, got "
                f"shape {v.shape}; a matrix goes through OperatorVector.from_matrix"
            )
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValidationError("components contain non-finite values")
        self.components = v
        self.dim = d

    @classmethod
    def from_matrix(cls, matrix, spec: InnerProductSpec | None = None) -> "OperatorVector":
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"matrix must be square, got shape {m.shape}")
        return cls(m.ravel(order="F"), m.shape[0], spec or InnerProductSpec())

    def to_matrix(self) -> np.ndarray:
        return self.components.reshape((self.dim, self.dim), order="F")


def save_matrix(path, matrix) -> None:
    """Write a matrix as JSON: {"dim": d, "re": [[..]], "im": [[..]]}."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix has non-finite entries, which JSON cannot hold")
    payload = {"dim": int(m.shape[0]), "re": m.real.tolist()}
    if np.any(m.imag != 0.0):
        payload["im"] = m.imag.tolist()
    write_json(path, payload)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`; "im" may be omitted."""
    payload = load_json_object(path)
    d = json_field(payload, "dim", integer, path)
    return complex_array(payload, path, (d, d))


def load_hamiltonian(path) -> HermitianMatrix:
    """Load a matrix file and validate Hermiticity."""
    return as_hermitian(load_matrix(path))
