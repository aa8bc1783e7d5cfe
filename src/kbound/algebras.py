"""Closed coefficient families and the saturation test.

A coefficient chain b_n saturates the dispersion bound exactly when its
squares obey

    b_n^2 = (1/4) alpha n (n - 1) + (1/2) gamma n,

i.e. when b_n^2 is a quadratic in n through the origin.  The second
difference of b_n^2 is then the constant alpha / 2, which is what
:func:`closure_test` measures.  As b_n^2 = nu^2 n (w + kappa (n - 1)),
with alpha = 4 kappa nu^2 and gamma = 2 nu^2 w, it has three families:

    kappa = -1, w = 2j    finite chain of D = w + 1 sites, S(x) = sin x   (su2)
    kappa =  0, w = 1     S(x) = x                                       (hw)
    kappa = +1, w = eta   S(x) = sinh x                                  (sl2r)

and each has K = w S(nu t)^2, Delta K = sqrt(w / 4) |S(2 nu t)|, dK/dt =
w nu S(2 nu t) and b_1 = nu sqrt(w).  ``_LAWS`` holds kappa, w and S of each
family, and every formula below reads them from there.

:class:`AlgebraModel` is the one closed-form layer: ``from_rates`` maps a
rate pair (alpha, gamma) to its family member, ``b`` gives its chain,
:func:`model_observables` its closed-form profile and
:func:`model_amplitudes` its amplitudes.  Their distribution over sites
(binomial, Poisson, negative binomial) is evaluated in log space, so chains
with thousands of sites neither overflow nor underflow; the infinite
families are cut where it leaves less than TAIL_TOL past the last site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from ._util import (coefficients, finite, integer, output_array, positive, row_blocks,
                    validate_times)
from .dynamics import (AmplitudeTrajectory, ComplexityProfile, TAIL_TOL, UNDEFINED_CUTOFF,
                       _profile)

CLOSURE_TOL = 1e-8
MAX_MODEL_SITES = 1 << 22
_HALF_INTEGER_TOL = 1e-6

__all__ = [
    "CLOSURE_TOL",
    "AlgebraModel",
    "parse_model_spec",
    "ClosureReport",
    "closure_test",
    "classify_algebra",
    "model_amplitudes",
    "model_observables",
]


def _power_rows(ns, logw, base, log_envelope):
    """Rows envelope(x) sqrt(weight_n) base(x)^n on the (x, n) grid, from the
    logs logw of sqrt(weight_n) and log_envelope of envelope(x) > 0: one
    outer product, exponentiated in place.  base^n is exact at 0^0 = 1, and
    its sign is (-1)^n where base < 0."""
    size = np.abs(base)
    zero = size == 0.0
    phi = np.outer(np.log(np.where(zero, 1.0, size)), ns)
    phi[zero, 1:] = -np.inf
    phi += logw
    phi += log_envelope[:, None]
    np.exp(phi, out=phi)
    phi[base < 0.0, 1::2] *= -1.0
    return phi


# rows(ns, w) of a family: the function from a block of x = nu t to its
# amplitude rows over the sites ns.  scipy.special, imported where it is
# used, is most of a cold `import kbound`.

def _su2_rows(ns, w):
    """sqrt(C(w, n)) cos^w x tan^n x, each row divided by its norm (one
    einsum per row), which takes out the rounding of the gammaln sums."""
    from scipy.special import gammaln
    logw = 0.5 * (gammaln(w + 1.0) - gammaln(ns + 1.0) - gammaln(w - ns + 1.0))

    def rows(xs):
        c = np.cos(xs)
        phi = _power_rows(ns, logw, np.tan(xs), w * np.log(np.abs(c)))
        phi *= (np.sign(c) ** w / np.sqrt(np.einsum("kn,kn->k", phi, phi)))[:, None]
        return phi
    return rows


def _hw_rows(ns, w):
    """x^n e^(-x^2/2) / sqrt(n!)."""
    from scipy.special import gammaln
    logw = -0.5 * gammaln(ns + 1.0)
    return lambda xs: _power_rows(ns, logw, xs, -0.5 * xs * xs)


def _sl2r_rows(ns, w):
    """sqrt(Gamma(n + w) / (n! Gamma(w))) tanh^n x sech^w x."""
    from scipy.special import gammaln
    logw = 0.5 * (gammaln(ns + w) - gammaln(ns + 1.0) - gammaln(w))
    return lambda xs: _power_rows(ns, logw, np.tanh(xs), -w * np.log(np.cosh(xs)))


# cut(x, w) of an infinite family: the quantile at 1 - TAIL_TOL of its site
# distribution phi_n^2 at |x|, and the probability past a number of sites.

def _hw_cut(x, w):
    """Poisson(x^2)."""
    from scipy.special import pdtrc, pdtrik
    return pdtrik(1.0 - TAIL_TOL, x * x), lambda sites: pdtrc(sites - 1, x * x)


def _sl2r_cut(x, w):
    """Negative binomial (w, sech^2 x).  Where cosh overflows the quantile
    is infinite; nbdtrik would return its search bound instead."""
    from scipy.special import betainc, nbdtrik
    with np.errstate(over="ignore"):
        p = 1.0 / np.cosh(x) ** 2
    k = nbdtrik(1.0 - TAIL_TOL, w, p) if p > 0.0 else math.inf
    return k, lambda sites: betainc(sites, w, math.tanh(x) ** 2)


class _Law(NamedTuple):
    """A family of b_n^2 = nu^2 n (w + kappa (n - 1)): kappa, the map from a
    model to its w, S, and its rows and cut (the finite family has none)."""

    kappa: float
    w: Callable
    S: Callable
    rows: Callable
    cut: Callable | None = None


_LAWS = {
    "su2": _Law(-1.0, lambda m: 2.0 * m.j, np.sin, _su2_rows),
    "hw": _Law(0.0, lambda m: 1.0, np.positive, _hw_rows, _hw_cut),
    "sl2r": _Law(1.0, lambda m: m.eta, np.sinh, _sl2r_rows, _sl2r_cut),
}


@dataclass(frozen=True)
class AlgebraModel:
    """One member of the three closed families.

    kind is "su2", "hw", or "sl2r"; nu the overall frequency; j the spin
    (su2 only) and eta the weight (sl2r only).
    """

    kind: str
    nu: float
    j: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.kind not in _LAWS:
            raise ValidationError(
                f"kind must be 'su2', 'hw' or 'sl2r', got {self.kind!r}"
            )
        object.__setattr__(self, "nu", positive(self.nu, "nu"))
        j = eta = None
        if self.kind == "su2":
            twoj = 2.0 * positive(self.j, "j")
            if round(twoj) < 1 or abs(twoj - round(twoj)) > _HALF_INTEGER_TOL:
                raise ValidationError(f"j must be a positive half-integer, got {self.j}")
            j = round(twoj) / 2.0
        elif self.kind == "sl2r":
            eta = positive(self.eta, "eta")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "eta", eta)

    @classmethod
    def su2(cls, j: float, nu: float = 1.0) -> "AlgebraModel":
        return cls("su2", nu, j=j)

    @classmethod
    def hw(cls, nu: float = 1.0) -> "AlgebraModel":
        return cls("hw", nu)

    @classmethod
    def sl2r(cls, eta: float, nu: float = 1.0) -> "AlgebraModel":
        return cls("sl2r", nu, eta=eta)

    @classmethod
    def from_rates(cls, alpha: float, gamma: float, D: int | None = None) -> "AlgebraModel":
        """The family member with growth rates (alpha, gamma).

        alpha < 0 implies the finite chain D = 2j + 1 with j = gamma/|alpha|;
        D may be omitted but must agree when given.  alpha >= 0 families are
        infinite, so finite D is rejected there.  An alpha > 0 below
        gamma * 2^-104 gives hw, whose chain it equals to double precision.
        """
        alpha = finite(alpha, "alpha")
        gamma = positive(gamma, "gamma")
        if alpha < 0.0:
            j = gamma / (-alpha)
            twoj = 2.0 * j
            if abs(twoj - round(twoj)) > _HALF_INTEGER_TOL * max(1.0, twoj):
                raise ValidationError(
                    f"alpha < 0 requires gamma/|alpha| to be a half-integer spin, "
                    f"got j = {j}"
                )
            model = cls.su2(round(twoj) / 2.0, math.sqrt(-alpha) / 2.0)
            if D is not None and integer(D, "D") != model.D:
                raise ValidationError(
                    f"D = {D} inconsistent with alpha, gamma (expected {model.D})"
                )
            return model
        if D is not None:
            raise ValidationError("finite D requires alpha < 0")
        # Below this alpha the term alpha n (n - 1) / 4 rounds away beside
        # gamma n / 2 at every index n < 2^52, and eta = 2 gamma / alpha
        # could overflow b_n^2: the chain is the hw one to double precision.
        if alpha <= gamma * 2.0**-104:
            return cls.hw(math.sqrt(gamma / 2.0))
        return cls.sl2r(2.0 * gamma / alpha, math.sqrt(alpha) / 2.0)

    def _law(self) -> tuple[_Law, float]:
        """This family's entry of _LAWS and its w."""
        law = _LAWS[self.kind]
        return law, law.w(self)

    @property
    def alpha(self) -> float:
        return 4.0 * self._law()[0].kappa * self.nu**2

    @property
    def gamma(self) -> float:
        return 2.0 * self.nu**2 * self._law()[1]

    @property
    def D(self) -> int | None:
        """Chain length: w + 1 = 2j + 1 for su2, None (infinite) otherwise."""
        law, w = self._law()
        return int(w) + 1 if law.kappa < 0.0 else None

    def b(self, n):
        """Coefficients b_n; n is a 1-based integer scalar or array."""
        ns = np.asarray(n, dtype=np.float64)
        if np.any(ns < 1) or np.any(ns != np.round(ns)):
            raise ValidationError("n must be integer >= 1")
        law, w = self._law()
        if law.kappa < 0.0 and np.any(ns > w):
            raise ValidationError(
                f"n = {ns[ns > w].min():g} is past the end of this su2 chain "
                f"(n must be <= D - 1 = {w:g})"
            )
        vals = self.nu * np.sqrt(ns * (w + law.kappa * (ns - 1.0)))
        if isinstance(n, np.ndarray):
            return vals
        return float(vals) if np.isscalar(n) else vals

    def label(self) -> str:
        if self.kind == "su2":
            return f"su2:j={self.j:g},nu={self.nu:g}"
        if self.kind == "hw":
            return f"hw:nu={self.nu:g}"
        return f"syk:eta={self.eta:g},nu={self.nu:g}"


def parse_model_spec(text: str) -> AlgebraModel:
    """Parse a model string like "su2:j=3.5,nu=1" or "sat:alpha=4,gamma=202".

    Kinds: su2 (keys j, nu), hw (nu), syk or sl2r (eta, nu), sat (alpha,
    gamma, D).  nu defaults to 1; the other keys are required where listed.
    """
    if not isinstance(text, str) or ":" not in text:
        raise ValidationError(
            f"model spec must look like 'kind:key=value,...', got {text!r}"
        )
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    keys: dict[str, float] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, val = item.partition("=")
        if not eq:
            raise ValidationError(f"model spec entry {item!r} is not key=value")
        key = key.strip().lower()
        if key in keys:
            raise ValidationError(f"model spec repeats key {key!r}")
        try:
            keys[key] = float(val)
        except ValueError:
            raise ValidationError(
                f"model spec value for {key!r} is not a number: {val.strip()!r}"
            )

    def take(name, default=None):
        if name in keys:
            return keys.pop(name)
        if default is not None:
            return default
        raise ValidationError(f"model spec {kind!r} is missing key {name!r}")

    if kind == "su2":
        model = AlgebraModel.su2(take("j"), take("nu", 1.0))
    elif kind == "hw":
        model = AlgebraModel.hw(take("nu", 1.0))
    elif kind in ("syk", "sl2r"):
        model = AlgebraModel.sl2r(take("eta"), take("nu", 1.0))
    elif kind == "sat":
        alpha = take("alpha")
        gamma = take("gamma")
        D = keys.pop("d", None)
        model = AlgebraModel.from_rates(alpha, gamma, D)
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    if keys:
        raise ValidationError(f"model spec has unknown keys {sorted(keys)!r}")
    return model


@dataclass(eq=False)
class ClosureReport:
    """Outcome of :func:`closure_test`.

    f_values are the negated second differences of b_n^2 with the chain
    ends padded by zero; the chain is closed when they are constant within
    tolerance.  alpha = -2 <f> and gamma = 2 b_1^2 are the rates the chain
    has if closed.  trivial flags chains too short for constancy to mean
    anything (fewer than two f values).
    """

    closed: bool
    alpha: float
    gamma: float
    max_residual: float
    f_values: np.ndarray
    trivial: bool
    tol: float


def closure_test(b, D: int | None = None, tol: float = CLOSURE_TOL) -> ClosureReport:
    """Decide whether a coefficient chain satisfies the saturating law.

    Parameters
    ----------
    b : array-like
        The chain b_1 .. b_M, all positive.  For a finite-D problem this
        must be the complete chain (M = D - 1).
    D : int, optional
        Krylov dimension for finite chains; None means the chain continues
        (b is the head of an infinite family).  A finite D appends the exact
        boundary zero b_D = 0 to the squared sequence, so one constancy test
        covers both cases.
    tol : float
        Constancy tolerance, applied relative to max(1, b_1^2): the f values
        carry the squared scale of b.
    """
    arr = coefficients(b)
    if arr.size < 1:
        raise ValidationError("b must contain at least one coefficient")
    tol = positive(tol, "tol")
    if D is not None:
        if integer(D, "D") != arr.size + 1:
            raise ValidationError(
                f"finite D must equal len(b) + 1 = {arr.size + 1}, got {D}"
            )
        squares = np.concatenate(([0.0], arr * arr, [0.0]))
    else:
        squares = np.concatenate(([0.0], arr * arr))
    f_values = -(squares[2:] - 2.0 * squares[1:-1] + squares[:-2])
    if f_values.size == 0:
        raise ValidationError(
            "chain too short: an open-ended chain needs at least 2 coefficients"
        )
    mean_f = float(np.mean(f_values))
    max_residual = float(np.max(np.abs(f_values - mean_f)))
    scale = max(1.0, float(arr[0] ** 2))
    return ClosureReport(
        closed=bool(max_residual <= tol * scale),
        alpha=-2.0 * mean_f,
        gamma=2.0 * float(arr[0] ** 2),
        max_residual=max_residual,
        f_values=f_values,
        trivial=bool(f_values.size < 2),
        tol=tol,
    )


def classify_algebra(alpha: float, tol: float = CLOSURE_TOL) -> str:
    """Map a growth rate alpha to its family: "su2", "hw" or "sl2r".

    |alpha| <= tol counts as zero.
    """
    alpha = finite(alpha, "alpha")
    if abs(alpha) <= positive(tol, "tol"):
        return "hw"
    return "su2" if alpha < 0.0 else "sl2r"


def model_amplitudes(model: AlgebraModel, times) -> AmplitudeTrajectory:
    """Closed-form amplitudes phi_n(t) for one of the three families.

    su2 uses its full finite chain and is exact, each row divided by its
    norm.  hw and sl2r are cut at the largest |x| = nu |t| of the grid,
    where their site distribution (Poisson(x^2), negative binomial
    (eta, sech^2 x)) has its widest tail: its quantile k at 1 - TAIL_TOL
    covers sites 0 .. ceil(k), and one more site absorbs the root finder's
    tolerance on k.  The probability past the last site is the trajectory's
    tail_mass.  The output is allocated first (an output the machine cannot
    hold raises NumericalError naming its size) and filled a few rows at a
    time, so the intermediate arrays stay small.  Each row is computed on
    its own, so the rows come out the same however the grid is split.
    """
    if not isinstance(model, AlgebraModel):
        raise ValidationError("model must be an AlgebraModel")
    t = validate_times(times)
    law, w = model._law()
    x = model.nu * t
    n_sites, tail = model.D, 0.0
    if n_sites is None:
        x_max = float(np.max(np.abs(x)))
        k, tail_past = law.cut(x_max, w)
        if not k + 2.0 <= MAX_MODEL_SITES:
            needed = f"{k + 2.0:.4g}" if math.isfinite(k) else "a non-finite number of"
            raise NumericalError(
                f"the {model.label()} chain needs {needed} sites to hold all but "
                f"{TAIL_TOL:g} of its probability at nu t = {x_max:g}, past "
                f"MAX_MODEL_SITES = {MAX_MODEL_SITES}; the grid reaches times too "
                "large to materialize"
            )
        n_sites = math.ceil(k) + 2
        tail = float(tail_past(n_sites))
    rows = law.rows(np.arange(n_sites, dtype=np.float64), w)
    phi = output_array(t.size, n_sites)
    # One row block at a time: the ~8 temporaries of rows() hold one block
    # each (512 KB), not the grid.
    for block in row_blocks(t.size, n_sites):
        phi[block] = rows(x[block])
    bchain = model.b(np.arange(1, n_sites))
    return AmplitudeTrajectory(t, phi, bchain, model.D is None, tail, "closed-form")


def model_observables(model: AlgebraModel, times) -> ComplexityProfile:
    """Closed-form complexity profile of a family (no chain evolution).

    K = w S(x)^2, Delta K = sqrt(w / 4) |S(2x)| and dK/dt = w nu S(2x) at
    x = nu t, with b_1 = nu sqrt(w) (see the module notes).  The ratio is
    identically 1 wherever it is defined (floor UNDEFINED_CUTOFF / 2, see
    ComplexityProfile), which is the saturation statement in closed form.
    """
    if not isinstance(model, AlgebraModel):
        raise ValidationError("model must be an AlgebraModel")
    t = validate_times(times)
    law, w = model._law()
    x = model.nu * t
    s2 = law.S(2.0 * x)
    return _profile(t, w * law.S(x) ** 2, w * model.nu * s2,
                    math.sqrt(w / 4.0) * np.abs(s2), model.nu * math.sqrt(w),
                    UNDEFINED_CUTOFF / 2.0)
