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
That eigenbasis, with the product's weights folded in, is built here and
nowhere else (``_Frame``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from ._util import (_numbers, complex_array, integer, json_field, load_json_object,
                    nonnegative, positive, square_matrix, write_json)

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
    """A square complex matrix of finite entries validated to be Hermitian.

    The deviation ``max |M - M^dag|`` must stay below ``HERMITICITY_TOL``
    relative to max|M|; the matrix is stored as given (complex128
    copy), not resymmetrized.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = square_matrix(self.entries, "entries")
        scale = float(np.max(np.abs(m)))
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

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """The energies and eigenvectors of np.linalg.eigh, computed once per
        matrix and read-only, so every frame of it shares them."""
        energies, vectors = np.linalg.eigh(self.entries)
        energies.flags.writeable = vectors.flags.writeable = False
        return energies, vectors


def as_hermitian(matrix) -> HermitianMatrix:
    """Coerce an array or HermitianMatrix to HermitianMatrix."""
    if isinstance(matrix, HermitianMatrix):
        return matrix
    return HermitianMatrix(matrix)


@dataclass(frozen=True, eq=False)
class InnerProductSpec:
    """One member of the inner-product family: (beta, normalization).

    beta = 0 is the flat Hilbert-Schmidt product scaled by ``normalization``
    (default 1/d, fixed at evaluation time from the operand dimension).
    beta > 0 is weighted by ``hamiltonian``, or without it by the one that
    ``run_lanczos`` binds.  The spec holds these three values only.

    The thermal normalization 1/Z is built in; ``normalization`` only scales
    the beta = 0 member.
    """

    beta: float = 0.0
    normalization: float | None = None
    hamiltonian: HermitianMatrix | np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", nonnegative(self.beta, "beta"))
        if self.normalization is not None:
            object.__setattr__(self, "normalization",
                               positive(self.normalization, "normalization"))
        if self.hamiltonian is not None:
            object.__setattr__(self, "hamiltonian", as_hermitian(self.hamiltonian))

    def norm_factor(self, dim: int) -> float:
        """Scale applied to Tr(A^dag B) when beta = 0."""
        if self.normalization is not None:
            return self.normalization
        return 1.0 / dim


class _Frame:
    """The eigenbasis of H with the inner-product weights folded in.

    Frame vectors satisfy <A|B>_spec = vdot(x_A, x_B), and the Liouvillian
    is the elementwise multiply by omega[i, j] = E_i - E_j.  The maps take
    one column-major vector or a stack of them as rows.  A beta > 0 frame is
    that of the spec's Hamiltonian, a beta = 0 one that of ``H``; without H
    it is the identity basis, which serves the product only.
    """

    def __init__(self, spec: InnerProductSpec, dim: int,
                 H: HermitianMatrix | None = None):
        if spec.beta > 0.0:
            H = spec.hamiltonian
            if H is None:
                raise ValidationError(
                    f"the beta = {spec.beta:g} inner product is missing its weighting "
                    "Hamiltonian (a result reloaded from JSON does not carry it); "
                    "rebuild the spec with InnerProductSpec(beta, normalization, H)"
                )
        if H is None:
            energies, vectors = np.zeros(dim), np.eye(dim)
        else:
            energies, vectors = H.eigensystem
        if spec.beta == 0.0:
            weights = np.full((dim, dim), spec.norm_factor(dim))
        else:
            # Shift before exponentiating; Z and the weights rescale together.
            shifted = energies - energies.min()
            w = np.exp(-spec.beta * shifted / 2.0)
            partition = float(np.sum(np.exp(-spec.beta * shifted)))
            # Each w is in [0, 1] and Z >= 1 (the ground state's term is 1), so
            # the weights are finite; those that underflow to 0 carry no mass:
            # the fold drops them.
            weights = np.outer(w, w) / partition
        self.dim = dim
        self.vectors = vectors
        self.sqrt_weights = np.sqrt(weights)
        self.omega = energies[:, None] - energies[None, :]

    # A column-major vector read row-major is the transpose A^T, and the
    # frame change V^dag A V transposes to V^T A^T conj(V).

    def to_frame(self, components: np.ndarray) -> np.ndarray:
        At = components.reshape(-1, self.dim, self.dim)
        x = (self.vectors.T @ At @ self.vectors.conj()) * self.sqrt_weights
        return x.reshape(components.shape)

    def from_frame(self, x: np.ndarray) -> np.ndarray:
        At = x.reshape(-1, self.dim, self.dim) / self.sqrt_weights
        return (self.vectors.conj() @ At @ self.vectors.T).reshape(x.shape)


@dataclass(eq=False)
class OperatorVector:
    """An operator as a d^2 column-major component vector plus its product.

    components[j + d*i] is the (j, i) matrix entry.
    """

    components: np.ndarray
    dim: int
    spec: InnerProductSpec = field(default_factory=InnerProductSpec)

    def __post_init__(self):
        d = integer(self.dim, "dim")
        # A matrix raveled row by row would be read as its transpose.
        self.components = _numbers(
            self.components,
            f"components must be a flat vector of dim^2 = {d * d} finite numbers "
            "(a matrix goes through OperatorVector.from_matrix)",
            (d * d,), dtype=np.complex128,
        ).copy()
        self.dim = d

    @classmethod
    def from_matrix(cls, matrix, spec: InnerProductSpec | None = None) -> "OperatorVector":
        m = square_matrix(matrix, "matrix")
        return cls(m.ravel(order="F"), m.shape[0], spec or InnerProductSpec())

    def to_matrix(self) -> np.ndarray:
        return self.components.reshape((self.dim, self.dim), order="F")


def save_matrix(path, matrix) -> None:
    """Write a matrix as JSON: {"dim": d, "re": [[..]], "im": [[..]]}."""
    m = square_matrix(matrix, "matrix")
    payload = {"dim": int(m.shape[0]), "re": m.real}
    if np.any(m.imag != 0.0):
        payload["im"] = m.imag
    write_json(path, payload)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`; "im" may be omitted."""
    payload = load_json_object(path)
    d = json_field(payload, "dim", integer, path)
    return complex_array(payload, path, (d, d))


def load_hamiltonian(path) -> HermitianMatrix:
    """Load a matrix file and validate Hermiticity."""
    return as_hermitian(load_matrix(path))
