"""Closed coefficient families and the saturation test.

A coefficient chain b_n saturates the dispersion bound exactly when its
squares obey

    b_n^2 = (1/4) alpha n (n - 1) + (1/2) gamma n,

i.e. when b_n^2 is a quadratic in n through the origin.  The second
difference of b_n^2 is then the constant alpha / 2, which is what
:func:`closure_test` measures.  Three one-parameter families realize the
law, distinguished by the sign of alpha:

    alpha < 0   finite chain of D = 2j + 1 sites, b_n = nu sqrt(n (2j+1-n)),
                K = 2 j sin^2(nu t)                  (su2)
    alpha = 0   b_n = nu sqrt(n),
                K = nu^2 t^2                          (hw)
    alpha > 0   b_n = nu sqrt(n (n - 1 + eta)),
                K = eta sinh^2(nu t)                  (sl2r)

:class:`AlgebraModel` is the one closed-form layer: ``from_rates`` maps a
rate pair (alpha, gamma) to its family member, ``b`` gives its chain,
:func:`model_observables` its closed-form K(t) and Delta K(t), and
:func:`model_amplitudes` its amplitudes.  For all three the amplitude
distribution over sites is known in closed form (binomial, Poisson,
negative binomial), which is evaluated in log space so chains with
thousands of sites neither overflow nor underflow; the infinite families
are cut where that distribution leaves less than TAIL_TOL past the last
site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from ._util import (coefficients, finite, integer, output_array, positive, row_blocks,
                    validate_times)
from .dynamics import (
    AmplitudeTrajectory,
    ComplexityProfile,
    TAIL_TOL,
    UNDEFINED_CUTOFF,
)

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
        if self.kind not in ("su2", "hw", "sl2r"):
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

    @property
    def alpha(self) -> float:
        if self.kind == "su2":
            return -4.0 * self.nu**2
        if self.kind == "hw":
            return 0.0
        return 4.0 * self.nu**2

    @property
    def gamma(self) -> float:
        if self.kind == "su2":
            return 4.0 * self.nu**2 * self.j
        if self.kind == "hw":
            return 2.0 * self.nu**2
        return 2.0 * self.nu**2 * self.eta

    @property
    def D(self) -> int | None:
        """Chain length: 2j + 1 for su2, None (infinite) otherwise."""
        if self.kind == "su2":
            return int(round(2.0 * self.j)) + 1
        return None

    def b(self, n):
        """Coefficients b_n; n is a 1-based integer scalar or array."""
        ns = np.asarray(n, dtype=np.float64)
        if np.any(ns < 1) or np.any(ns != np.round(ns)):
            raise ValidationError("n must be integer >= 1")
        if self.kind == "su2":
            past = ns > self.D - 1
            if np.any(past):
                raise ValidationError(
                    f"n = {ns[past].min():g} is past the end of this su2 chain "
                    f"(n must be <= D - 1 = {self.D - 1})"
                )
            vals = self.nu * np.sqrt(ns * (2.0 * self.j + 1.0 - ns))
        elif self.kind == "hw":
            vals = self.nu * np.sqrt(ns)
        else:
            vals = self.nu * np.sqrt(ns * (ns - 1.0 + self.eta))
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


def _signed_log_power(base: np.ndarray, exponents: np.ndarray):
    """(log |base^e|, sign(base^e)) on the outer (t, n) grid, exact at 0^0 = 1.

    base entries equal to zero contribute log-magnitude 0 for exponent 0 and
    -inf (i.e. a hard zero) for positive exponents.
    """
    absb = np.abs(base)
    safe = np.where(absb > 0.0, absb, 1.0)
    logmag = np.outer(np.log(safe), exponents)
    zero_rows = absb == 0.0
    if np.any(zero_rows):
        logmag[np.ix_(zero_rows, exponents > 0)] = -np.inf
    neg = base < 0.0
    odd = (np.round(exponents).astype(np.int64) % 2) == 1
    sign = np.ones((base.size, exponents.size))
    sign[np.ix_(neg, odd)] = -1.0
    return logmag, sign


def _infinite_family_length(model: AlgebraModel, x: float) -> tuple[int, float]:
    """(sites, tail) for hw or sl2r at |x| = nu |t|: the sites that hold all
    but tail < TAIL_TOL of the probability, and that tail exactly.

    phi_n^2 is Poisson(x^2) for hw and negative binomial (eta, sech^2 x)
    for sl2r, so the tail past a site only grows with |x|.  The quantile k
    at 1 - TAIL_TOL covers sites 0 .. ceil(k); one more site absorbs the
    root finder's tolerance on k.
    """
    # Imported here: scipy.special is most of a cold `import kbound`.
    from scipy.special import betainc, nbdtrik, pdtrc, pdtrik

    if model.kind == "hw":
        k = pdtrik(1.0 - TAIL_TOL, x * x)
    else:
        with np.errstate(over="ignore"):
            p = 1.0 / np.cosh(x) ** 2
        # Where cosh overflows the quantile is infinite; nbdtrik would
        # return its search bound instead.
        k = nbdtrik(1.0 - TAIL_TOL, model.eta, p) if p > 0.0 else math.inf
    if not k + 2.0 <= MAX_MODEL_SITES:
        needed = f"{k + 2.0:.4g}" if math.isfinite(k) else "a non-finite number of"
        raise NumericalError(
            f"the {model.label()} chain needs {needed} sites to hold all but "
            f"{TAIL_TOL:g} of its probability at nu t = {x:g}, past "
            f"MAX_MODEL_SITES = {MAX_MODEL_SITES}; the grid reaches times too "
            "large to materialize"
        )
    sites = math.ceil(k) + 2
    if model.kind == "hw":
        tail = pdtrc(sites - 1, x * x)
    else:
        tail = betainc(sites, model.eta, math.tanh(x) ** 2)
    return sites, float(tail)


def model_amplitudes(model: AlgebraModel, times) -> AmplitudeTrajectory:
    """Closed-form amplitudes phi_n(t) for one of the three families.

    su2 uses its full finite chain and is exact.  hw and sl2r are cut where
    their site distribution at the largest |t| of the grid leaves less than
    TAIL_TOL past the last site; that probability is the trajectory's
    tail_mass.  The output is allocated first (an output the machine cannot
    hold raises NumericalError naming its size) and filled a few rows at a
    time, so the intermediate arrays stay small.  Each row is computed on
    its own, so the rows come out the same however the grid is split.
    """
    if not isinstance(model, AlgebraModel):
        raise ValidationError("model must be an AlgebraModel")
    from scipy.special import gammaln

    t = validate_times(times)

    x = model.nu * t
    if model.kind == "su2":
        n_sites, truncated, tail = model.D, False, 0.0
    else:
        n_sites, tail = _infinite_family_length(model, float(np.max(np.abs(x))))
        truncated = True
    ns = np.arange(n_sites, dtype=np.float64)
    if model.kind == "su2":
        twoj = 2.0 * model.j
        logbin = 0.5 * (gammaln(twoj + 1.0) - gammaln(ns + 1.0) - gammaln(twoj - ns + 1.0))

        def rows(xs):
            lc, sc = _signed_log_power(np.cos(xs), twoj - ns)
            ls, ss = _signed_log_power(np.sin(xs), ns)
            return sc * ss * np.exp(logbin[None, :] + lc + ls)
    elif model.kind == "hw":
        logw = -0.5 * gammaln(ns + 1.0)

        def rows(xs):
            lx, sx = _signed_log_power(xs, ns)
            envelope = -0.5 * xs * xs
            return sx * np.exp(logw[None, :] + lx + envelope[:, None])
    else:
        eta = model.eta
        logw = 0.5 * (gammaln(ns + eta) - gammaln(ns + 1.0) - gammaln(eta))

        def rows(xs):
            lth, sth = _signed_log_power(np.tanh(xs), ns)
            envelope = -eta * np.log(np.cosh(xs))
            return sth * np.exp(logw[None, :] + lth + envelope[:, None])

    phi = output_array(t.size, n_sites)
    # One row block at a time: the ~8 temporaries of rows() hold one block
    # each (512 KB), not the grid.
    for block in row_blocks(t.size, n_sites):
        phi[block] = rows(x[block])
    bchain = model.b(np.arange(1, n_sites))
    return AmplitudeTrajectory(t, phi, bchain, truncated, tail, "closed-form")


def model_observables(model: AlgebraModel, times) -> ComplexityProfile:
    """Closed-form complexity profile of a family (no chain evolution).

    All columns come from the analytic K(t) and Delta K(t); the ratio is
    identically 1 wherever the bound is nonzero, which is the saturation
    statement in closed form.
    """
    if not isinstance(model, AlgebraModel):
        raise ValidationError("model must be an AlgebraModel")
    t = validate_times(times)
    x = model.nu * t
    if model.kind == "su2":
        j = model.j
        complexity = 2.0 * j * np.sin(x) ** 2
        dispersion = math.sqrt(j / 2.0) * np.abs(np.sin(2.0 * x))
        rate = 2.0 * j * model.nu * np.sin(2.0 * x)
        b1 = model.nu * math.sqrt(2.0 * j)
    elif model.kind == "hw":
        complexity = x * x
        dispersion = np.abs(x)
        rate = 2.0 * model.nu * x
        b1 = model.nu
    else:
        eta = model.eta
        complexity = eta * np.sinh(x) ** 2
        dispersion = 0.5 * math.sqrt(eta) * np.abs(np.sinh(2.0 * x))
        rate = eta * model.nu * np.sinh(2.0 * x)
        b1 = model.nu * math.sqrt(eta)
    bound = 2.0 * b1 * dispersion
    cutoff = UNDEFINED_CUTOFF * b1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > cutoff, np.abs(rate) / bound, np.nan)
        tau_k = np.where(np.abs(rate) > cutoff, dispersion / np.abs(rate), np.nan)
    return ComplexityProfile(
        times=t,
        complexity=complexity,
        rate=rate,
        dispersion=dispersion,
        bound=bound,
        ratio=ratio,
        tau_k=tau_k,
        b1=b1,
    )
