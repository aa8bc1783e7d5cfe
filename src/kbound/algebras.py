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
(binomial, Poisson, negative binomial) is evaluated in log space, with
log-weights from math.lgamma, so chains with thousands of sites neither
overflow nor underflow.  The infinite families are cut where the tail of
that distribution leaves at most TAIL_TOL past the last site but one, and
the mass past the window the cut is taken from is summed exactly, by the
continued fraction of the incomplete beta function (see _cut).  So the
tail_mass of a family is the probability its kept sites leave out.  The
module needs numpy alone.
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
    "model_amplitudes",
    "model_observables",
]


def _lgamma(z):
    """math.lgamma of each element of z.  Against 40-digit mpmath it is
    within 3.6e-12 absolute at arguments up to 4200 (scipy's gammaln:
    7.3e-12).  It goes 65536 elements at a time, so the Python floats of a
    window of millions of sites never exist at once."""
    out = np.empty(len(z))
    for i in range(0, len(z), 1 << 16):
        out[i:i + (1 << 16)] = np.fromiter(map(math.lgamma, z[i:i + (1 << 16)].tolist()),
                                           np.float64)
    return out


def _power_rows(logw, log_size, negative, log_envelope):
    """Rows envelope(x) sqrt(weight_n) base(x)^n on the (x, n) grid, from the
    logs logw of sqrt(weight_n) over the sites n = 0, 1, ..., log_size of
    |base(x)| (-inf where base is 0), the mask negative of base(x) < 0 and
    log_envelope of envelope(x) > 0: one outer product, exponentiated in
    place.  base^n is exact at 0^0 = 1, and its sign is (-1)^n where
    base < 0.  exp is exactly 0 below -746, and numpy's exp takes 13 ns for
    each such entry against 0.7 ns for a normal result, so those entries
    are set to 0 instead; a NaN log is not below it and stays NaN."""
    zero = log_size == -np.inf
    phi = np.outer(np.where(zero, 0.0, log_size), np.arange(logw.size, dtype=np.float64))
    phi[zero, 1:] = -np.inf
    phi += logw
    phi += log_envelope[:, None]
    dead = phi <= -746.0
    np.exp(phi, out=phi, where=~dead)
    phi[dead] = 0.0
    phi[negative, 1::2] *= -1.0
    return phi


def _log_abs(v):
    """log |v|, -inf where v is 0."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(v))


def _log_tanh(a):
    """log tanh a for a >= 0, to rounding relative to its value.  Where tanh a
    is near 1, log(tanh a) would carry the rounding of tanh a, about 1e-16,
    and the n-th site multiplies it by n; -2 atanh(e^(-2a)) does not."""
    with np.errstate(divide="ignore"):
        return np.where(a < 0.5, np.log(np.tanh(a)), -2.0 * np.arctanh(np.exp(-2.0 * a)))


# Each family has logw(ns, w), the log of sqrt(weight_n) at the sites ns,
# and rows(xs, logw, w), its amplitude rows at a block of x = nu t over the
# sites of logw.

def _su2_logw(ns, w):
    """log sqrt(C(w, n))."""
    return 0.5 * (math.lgamma(w + 1.0) - _lgamma(ns + 1.0) - _lgamma(w - ns + 1.0))


def _su2_rows(xs, logw, w):
    """sqrt(C(w, n)) cos^w x tan^n x, each row divided by its norm (one
    einsum per row), which takes out the rounding of the lgamma sums."""
    c, tan = np.cos(xs), np.tan(xs)
    phi = _power_rows(logw, _log_abs(tan), tan < 0.0, w * np.log(np.abs(c)))
    phi *= (np.sign(c) ** w / np.sqrt(np.einsum("kn,kn->k", phi, phi)))[:, None]
    return phi


def _hw_logw(ns, w):
    """log sqrt(1 / n!)."""
    return -0.5 * _lgamma(ns + 1.0)


def _hw_rows(xs, logw, w):
    """x^n e^(-x^2/2) / sqrt(n!)."""
    return _power_rows(logw, _log_abs(xs), xs < 0.0, -0.5 * xs * xs)


def _sl2r_logw(ns, w):
    """log sqrt(Gamma(n + w) / (n! Gamma(w)))."""
    return 0.5 * (_lgamma(ns + w) - _lgamma(ns + 1.0) - math.lgamma(w))


def _sl2r_rows(xs, logw, w):
    """sqrt(Gamma(n + w) / (n! Gamma(w))) tanh^n x sech^w x."""
    return _power_rows(logw, _log_tanh(np.abs(xs)), xs < 0.0, -w * np.log(np.cosh(xs)))


class _Law(NamedTuple):
    """A family of b_n^2 = nu^2 n (w + kappa (n - 1)): kappa, the map from a
    model to its w, S, and its logw and rows."""

    kappa: float
    w: Callable
    S: Callable
    logw: Callable
    rows: Callable


_LAWS = {
    "su2": _Law(-1.0, lambda m: 2.0 * m.j, np.sin, _su2_logw, _su2_rows),
    "hw": _Law(0.0, lambda m: 1.0, np.positive, _hw_logw, _hw_rows),
    "sl2r": _Law(1.0, lambda m: m.eta, np.sinh, _sl2r_logw, _sl2r_rows),
}


def _tail_ratio(kappa, w, t2, n):
    """(p_n + p_(n+1) + ...) / p_n for the site distribution whose terms have
    the ratio p_(m+1) / p_m = t2 (w + kappa m) / (m + 1), or None where the
    limit kappa t2 of that ratio rounds to 1 or the fraction does not settle
    within MAX_MODEL_SITES terms.

    For kappa = 1 it is the continued fraction of the incomplete beta
    function I_t2(n, w) over its leading term (Numerical Recipes' betacf),
    and kappa = 0 is its Poisson limit.  It is summed by the modified Lentz
    method (Thompson & Barnett, J. Comput. Phys. 64, 490, 1986), which puts
    a tiny number in place of a zero denominator.  Its terms 1 + a d cancel
    to about 1 - kappa t2 of their size, so its rounding grows as
    1 / (1 - kappa t2): 2e-10 at sl2r's x = 8, where that is 2.2e6."""
    if kappa * t2 >= 1.0:
        return None
    # The fraction is 1 / (1 + a_1 / (1 + a_2 / ...)) with a_j = q (w - kappa q)
    # t2 / ((n + j - 1)(n + j)), q = j / 2 for even j, -(n + (j - 1) / 2) for
    # odd j.  Lentz's C, D and value start as they stand after its leading 1.
    tiny = 1e-300
    c, d, ratio = 1.0 / tiny, 1.0, 1.0
    for j in range(1, MAX_MODEL_SITES + 1):
        q = j / 2.0 if j % 2 == 0 else -(n + (j - 1) / 2.0)
        a = q * t2 * (w - kappa * q) / ((n + j - 1.0) * (n + j))
        d = 1.0 / ((1.0 + a * d) or tiny)
        c = (1.0 + a / c) or tiny
        ratio *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            return ratio
    return None


def _cut(model, x):
    """The sites an infinite family keeps at |x| = x, the probability past
    them, and their logw.

    The site distribution p_n = phi_n(x)^2 (Poisson(x^2) for hw, negative
    binomial (w, sech^2 x) for sl2r) has mean K = w S(x)^2 and spread
    Delta K = sqrt(w / 4) |S(2x)|, and p_(n+1) / p_n = T^2 (w + kappa n) / (n + 1)
    with T^2 = K / (w + kappa K) (x^2, tanh^2 x).  A window holds the sites
    0 .. N of the family's rows, with p_N times _tail_ratio in place of p_N:
    the whole mass from N on.  The tail past each site count is the
    reversed cumulative sum of the window, which adds the small terms
    first.  The family keeps one site more than the first site count whose
    tail is at most TAIL_TOL, and the tail there is returned: the mass the
    kept sites leave out, to the rounding of the rows and of the fraction.

    N starts at K + 8 Delta K + 64 (at most MAX_MODEL_SITES), and its
    distance past K doubles until the window holds the cut.  So the family
    keeps ceil(k) + 2 sites for the quantile k of the distribution at
    1 - TAIL_TOL.  A non-finite K, a K past MAX_MODEL_SITES or a cut past
    it raises NumericalError, and so does a tail too slow to sum: one whose
    term ratio rounds to 1 (sl2r at w << 1 and x near 20, where
    p_n ~ w tanh^(2n) x / n), or whose fraction does not settle.
    """
    law, w = model._law()
    with np.errstate(over="ignore"):
        K = w * float(law.S(x)) ** 2
        spread = math.sqrt(w / 4.0) * abs(float(law.S(2.0 * x)))

    def past_the_cap(needed):
        return NumericalError(
            f"the {model.label()} chain needs {needed} sites to hold all but "
            f"{TAIL_TOL:g} of its probability at nu t = {x:g}, past "
            f"MAX_MODEL_SITES = {MAX_MODEL_SITES}; the grid reaches times too "
            "large to materialize"
        )

    if not math.isfinite(K):
        raise past_the_cap("a non-finite number of")
    if K > MAX_MODEL_SITES:
        raise past_the_cap(f"more than {K:.4g}")
    t2 = K / (w + law.kappa * K)
    n = math.ceil(min(K + 8.0 * spread + 64.0, MAX_MODEL_SITES))
    logw = np.empty(0)
    while True:
        ratio = _tail_ratio(law.kappa, w, t2, n)
        if ratio is None:
            raise NumericalError(f"the tail of the {model.label()} chain at nu t = {x:g} "
                                 f"decays too slowly to sum past {n} sites: the ratio of "
                                 f"its terms tends to {law.kappa * t2!r}")
        logw = np.concatenate([logw] + [law.logw(np.arange(i, min(i + (1 << 16), n + 1),
                                                          dtype=np.float64), w)
                                        for i in range(logw.size, n + 1, 1 << 16)])
        # p_0 .. p_(N-1) and the mass from N on, summed in place from the end.
        tail = law.rows(np.array([x]), logw, w)[0]
        np.square(tail, out=tail)
        tail[-1] *= ratio
        np.cumsum(tail[::-1], out=tail[::-1])
        sites = int(np.argmax(tail <= TAIL_TOL)) + 1 if tail[-1] <= TAIL_TOL else n + 2
        if sites <= n:
            return sites, float(tail[sites]), logw[:sites].copy()
        if n == MAX_MODEL_SITES:
            raise past_the_cap(f"at least {sites}")
        n = min(2 * n - math.floor(K), MAX_MODEL_SITES)


def _chain_sites(model) -> int:
    """The D sites of a su2 chain, refused with NumericalError past
    MAX_MODEL_SITES before anything is allocated for them."""
    if model.D > MAX_MODEL_SITES:
        raise NumericalError(
            f"the {model.label()} chain has D = {model.D} sites, past "
            f"MAX_MODEL_SITES = {MAX_MODEL_SITES}; it is too long to materialize"
        )
    return model.D


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

    def _rate(self, name: str, coefficient: float) -> float:
        """coefficient * nu^2, with nu squared in floats; a rate that
        overflows a double is refused."""
        value = coefficient * (self.nu * self.nu)
        if not math.isfinite(value):
            raise ValidationError(
                f"the {name} of {self.label()} overflows a double: nu = {self.nu:g} "
                "is too large for it"
            )
        return value

    @property
    def alpha(self) -> float:
        return self._rate("alpha", 4.0 * self._law()[0].kappa)

    @property
    def gamma(self) -> float:
        return self._rate("gamma", 2.0 * self._law()[1])

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
    tol * max b_n^2, the scale of their rounding.  alpha = -2 <f> and
    gamma = 2 b_1^2 are the rates the chain has if closed, and family its
    family ("su2", "hw" or "sl2r"; None if not closed): hw when the
    quadratic term -<f> n (n - 1) / 2 of b_n^2 stays within that limit up
    to the last padded site n, else su2 for alpha < 0 and sl2r for
    alpha > 0.  trivial flags chains too short for constancy to mean
    anything (fewer than two f values).
    """

    closed: bool
    family: str | None
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
        Constancy tolerance, applied relative to max b_n^2: the f values
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
    limit = tol * float(np.max(squares))
    n = squares.size - 1
    family = None
    if max_residual <= limit:
        if abs(mean_f) * (n * (n - 1) / 2.0) <= limit:
            family = "hw"
        else:
            family = "su2" if mean_f > 0.0 else "sl2r"
    return ClosureReport(
        closed=family is not None,
        family=family,
        alpha=-2.0 * mean_f,
        gamma=2.0 * float(arr[0] ** 2),
        max_residual=max_residual,
        f_values=f_values,
        trivial=bool(f_values.size < 2),
        tol=tol,
    )


def model_amplitudes(model: AlgebraModel, times) -> AmplitudeTrajectory:
    """Closed-form amplitudes phi_n(t) for one of the three families.

    su2 uses its full finite chain and is exact, each row divided by its
    norm.  hw and sl2r are cut at the largest |x| = nu |t| of the grid,
    where their site distribution (Poisson(x^2), negative binomial
    (eta, sech^2 x)) has its widest tail: they keep one site more than the
    first site count past which at most TAIL_TOL of it lies (see _cut), and
    the trajectory's tail_mass is the probability past the last site.  A
    grid whose cut passes MAX_MODEL_SITES, and a su2 chain longer than
    that, raise NumericalError before they allocate their sites.  The output
    is allocated first (an output the machine cannot hold raises
    NumericalError naming its size) and filled a few rows at a time, so the
    intermediate arrays stay small.  Each row is computed on its own, so
    the rows come out the same however the grid is split.
    """
    if not isinstance(model, AlgebraModel):
        raise ValidationError("model must be an AlgebraModel")
    t = validate_times(times)
    law, w = model._law()
    x = model.nu * t
    if model.D is None:
        n_sites, tail, logw = _cut(model, float(np.max(np.abs(x))))
    else:
        n_sites, tail = _chain_sites(model), 0.0
        logw = law.logw(np.arange(n_sites, dtype=np.float64), w)
    phi = output_array(t.size, n_sites)
    # One row block at a time: the ~8 temporaries of rows() hold one block
    # each (512 KB), not the grid.
    for block in row_blocks(t.size, n_sites):
        phi[block] = law.rows(x[block], logw, w)
    bchain = model.b(np.arange(1, n_sites))
    return AmplitudeTrajectory(t, phi, bchain, model.D is None, tail, "closed-form")


def model_observables(model: AlgebraModel, times) -> ComplexityProfile:
    """Closed-form complexity profile of a family (no chain evolution).

    K = w S(x)^2, Delta K = sqrt(w / 4) |S(2x)| and dK/dt = w nu S(2x) at
    x = nu t, with b_1 = nu sqrt(w) (see the module notes).  The ratio is
    identically 1 wherever it is defined (floor UNDEFINED_CUTOFF / 2, see
    ComplexityProfile), which is the saturation statement in closed form.
    A grid that reaches past the largest nu t at which a double holds K,
    dK/dt and the bound (sl2r's sinh(2 nu t) overflows near nu t = 355)
    raises NumericalError naming that nu t.
    """
    if not isinstance(model, AlgebraModel):
        raise ValidationError("model must be an AlgebraModel")
    t = validate_times(times)
    law, w = model._law()
    b1 = model.nu * math.sqrt(w)

    def columns(x):
        """K, dK/dt, Delta K and the bound 2 b_1 Delta K at x = nu t, or
        None where a double does not hold them all."""
        with np.errstate(over="ignore", invalid="ignore"):
            s2 = law.S(2.0 * x)
            dispersion = math.sqrt(w / 4.0) * np.abs(s2)
            cols = (w * law.S(x) ** 2, w * model.nu * s2, dispersion,
                    2.0 * b1 * dispersion)
        return cols if all(np.all(np.isfinite(c)) for c in cols) else None

    with np.errstate(over="ignore"):
        x = model.nu * t
    cols = columns(x)
    if cols is None:
        # Bisect for the largest |x| that holds: every column is even or
        # odd in x and grows with |x| wherever it can overflow.
        x_max = float(np.max(np.abs(x)))
        lo, hi = 0.0, min(x_max, float(np.finfo(np.float64).max))
        while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
            lo, hi = (lo, mid) if columns(np.float64(mid)) is None else (mid, hi)
        raise NumericalError(
            f"the closed-form profile of {model.label()} overflows a double past "
            f"nu t = {lo:.6g}, and the grid reaches nu t = {x_max:.6g}"
        )
    return _profile(t, *cols[:3], b1, UNDEFINED_CUTOFF / 2.0)
