"""Closed-form budget thresholds, rate functions, and detection bounds.

The four rate functions f1..f4 vanish exactly at the no-information
point (p, q) = (1/2, 1/d), where every budget threshold diverges; a
divergent threshold is reported as ``math.inf``.  Question entropies are
standard positive Shannon entropies in base 2 (the identity answer is a
biased coin; the direction answer has d outcomes, mass q on the parent
and (1-q)/(d-1) elsewhere).  log-log factors use natural logarithms.

These bounds come with unspecified leading constants (exposed as
``c_const``, ``u1``, ``u2``); treat necessary-budget output as an order
of magnitude, not a certified number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidParameterError, check_int

#: Rate functions below this value are treated as exactly zero (the
#: no-information point evaluated in floating point).
_F_EPS = 1e-12


@dataclass(frozen=True)
class BudgetInputs:
    """Inputs shared by the threshold calculators.

    ``delta`` is the target error (detection probability 1 - delta), and
    ``d`` an integer of at least 3.
    ``h_t``, when given, is the entropy of the infection-time vector; by
    default the calculators fall back to its proof bound K/r, which makes
    the necessary thresholds self-referential (see ``na_necessary``).
    The boundary values p = 1/2 and q = 1/d are accepted here so the
    divergence behavior can be evaluated at the no-information point.
    """

    delta: float
    d: int
    p: float
    q: float
    h_t: float | None = None
    c_const: float = 1.0
    u1: float = 1.0
    u2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise InvalidParameterError(f"delta must be in (0, 1), got {self.delta}")
        check_int("d", self.d, 3)
        if not 0.5 <= self.p <= 1.0:
            raise InvalidParameterError(f"p must be in [1/2, 1], got {self.p}")
        if not 1.0 / self.d <= self.q <= 1.0:
            raise InvalidParameterError(f"q must be in [1/{self.d}, 1], got {self.q}")
        for name in ("h_t", "c_const", "u1", "u2"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:  # a NaN fails too
                raise InvalidParameterError(f"{name} must be finite and positive, got {value}")


def _check_model(d: int, p: float, q: float) -> None:
    """Raise InvalidParameterError unless d is an integer of at least 3, p
    lies in [1/2, 1] and q in (0, 1]; a NaN fails.  The no-information
    point p = 1/2, q = 1/d is inside, and so is any q at or below 1/d."""
    check_int("d", d, 3)
    if not 0.5 <= p <= 1.0:  # a NaN fails too
        raise InvalidParameterError(f"p must be in [1/2, 1], got {p}")
    if not 0.0 < q <= 1.0:
        raise InvalidParameterError(f"q must be in (0, 1], got {q}")


def _h2(x: float) -> float:
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def entropies(p: float, q: float, d: int) -> tuple[float, float]:
    """Base-2 entropies of the identity and direction answers.

    H(p) is the binary entropy; H(q) spreads the lying mass uniformly
    over the d-1 non-parent neighbors, so it peaks at log2(d) when
    q = 1/d.  The 0*log(0) terms are taken as 0.
    """
    _check_model(d, p, q)
    hp = _h2(p)
    if q == 1.0:
        hq = 0.0
    else:
        hq = -q * math.log2(q) - (1 - q) * math.log2((1 - q) / (d - 1))
    return hp, hq


def f1(d: int, p: float, q: float) -> float:
    hp, hq = entropies(p, q, d)
    return (1 - hp) + p * (1 - p) * (math.log2(d) - hq)


def f2(d: int, p: float, q: float) -> float:
    _check_model(d, p, q)
    return 3 * (p - 0.5) ** 2 + (d - 1) * p * (1 - p) / (3 * d) * (q - 1 / d) ** 2


def f3(d: int, p: float, q: float) -> float:
    hp, hq = entropies(p, q, d)
    return (1 - hp) + p * (math.log2(d) - hq)


def f4(d: int, p: float, q: float) -> float:
    _check_model(d, p, q)
    return 2 * d / (d - 1) * (p - 0.5) ** 2 + (d - 1) / (d - 2) * (q - 1 / d) ** 3


def _alpha(p: float) -> int:
    return 1 if p == 1.0 else 2


def _require_loglog(x: float, label: str) -> float:
    """ln(ln(x)), guarding the domain where the factor is positive."""
    if x <= math.e:
        raise InvalidParameterError(f"{label} too large: needs log(log({x:.4g})) > 0")
    return math.log(math.log(x))


def _na_necessary_slope(d: int, p: float, q: float) -> float:
    """Growth of ``rstar_na_necessary`` per unit of log(K)."""
    hp, hq = entropies(p, q, d)
    return 4 * (1 - p) * (7 * hp + 2 * hq) / (3 * math.e * math.log(d - 1))


def _ad_necessary_slope(d: int, p: float, q: float) -> float:
    """Growth of ``rstar_ad_necessary`` per unit of log(log(K))."""
    hp, hq = entropies(p, q, d)
    return 7 * d * p * (3 * hp + 2 * d * hq) / (2 * (d - 1))


def rstar_na_necessary(K: float, d: int, p: float, q: float) -> float:
    return 1 + _na_necessary_slope(d, p, q) * math.log(K)


def rstar_na_sufficient(K: float, d: int, p: float, q: float) -> float:
    return 1 + 2 * (1 - p) * (1 + (1 - q) ** 2) * math.log(K) / (math.e * math.log(d - 1))


def rstar_ad_necessary(K: float, d: int, p: float, q: float) -> float:
    return 1 + _ad_necessary_slope(d, p, q) * math.log(math.log(K))


def rstar_ad_sufficient(K: float, d: int, p: float, q: float) -> float:
    coeff = 2 * (1 - p) ** 3 + (1 - q) ** 2
    return 1 + 7 * d * d * coeff * math.log(math.log(K)) / (3 * (d - 1))


def na_sufficient(inputs: BudgetInputs) -> float:
    """Budget above which the batch majority-voting estimator hits 1 - delta."""
    x = 2 / inputs.delta
    loglog = _require_loglog(x, "delta")
    f = f2(inputs.d, inputs.p, inputs.q)
    if f < _F_EPS:
        return math.inf
    return (12 * inputs.d / (inputs.d - 2)) * x / (f * loglog)


def ad_sufficient(inputs: BudgetInputs) -> float:
    """Budget above which the adaptive majority-voting estimator hits 1 - delta."""
    y = 7 / inputs.delta
    loglog = _require_loglog(y, "delta")
    f = f4(inputs.d, inputs.p, inputs.q)
    if f < _F_EPS:
        return math.inf
    return (2 * (2 * inputs.d - 3) / inputs.d) * math.log(y) ** _alpha(inputs.p) / (f * loglog)


def _necessary(inputs: BudgetInputs, r: int | None, scheme: str) -> float:
    """Shared body of the two information-theoretic lower thresholds.

    The threshold is ``c_const * H(T) * growth / (f * loglog)``.  With an
    explicit ``h_t`` this is a direct evaluation.  Otherwise H(T) defaults
    to its proof bound K/r, which puts K on both sides; the failure
    condition then degenerates to a condition on r alone:

    * ``r`` given: every budget is below the threshold when r <= base
      (return inf), and none is otherwise (return 0).
    * ``r`` omitted: r follows the scheme's own repetition-count formula,
      which grows with K, so the self-consistent budget solves
      r*(K) = base.
    """
    if scheme == "na":
        x = 2 / inputs.delta
        loglog = _require_loglog(x, "delta")
        f = f1(inputs.d, inputs.p, inputs.q)
        growth = math.sqrt(x)
    else:
        y = 7 / inputs.delta
        loglog = _require_loglog(y, "delta")
        f = f3(inputs.d, inputs.p, inputs.q)
        growth = math.log(y) ** (_alpha(inputs.p) / 2)
    if f < _F_EPS:
        return math.inf
    base = inputs.c_const * growth / (f * loglog)

    if inputs.h_t is not None:
        return base * inputs.h_t

    if r is not None:
        check_int("r", r, 1)
        return math.inf if r <= base else 0.0

    # Self-consistent K: r*(K) = 1 + slope * g(K) = base, solved for K.
    slope = (_na_necessary_slope if scheme == "na" else _ad_necessary_slope)(
        inputs.d, inputs.p, inputs.q
    )
    if slope < _F_EPS:
        return math.inf if base >= 1 else 0.0
    g = (base - 1) / slope
    if scheme == "na":  # g(K) = log(K)
        return math.inf if g > 700 else math.exp(g)
    return math.inf if g > 6.5 else math.exp(math.exp(g))  # g(K) = log(log(K))


def na_necessary(inputs: BudgetInputs, r: int | None = None) -> float:
    """Budget below which no batch-querying scheme can reach 1 - delta."""
    return _necessary(inputs, r, "na")


def ad_necessary(inputs: BudgetInputs, r: int | None = None) -> float:
    """Budget below which no adaptive-querying scheme can reach 1 - delta."""
    return _necessary(inputs, r, "ad")


#: (scheme, kind) -> (budget threshold, repetition-count formula).
_FORMULAS = {
    ("na", "necessary"): (na_necessary, rstar_na_necessary),
    ("na", "sufficient"): (na_sufficient, rstar_na_sufficient),
    ("ad", "necessary"): (ad_necessary, rstar_ad_necessary),
    ("ad", "sufficient"): (ad_sufficient, rstar_ad_sufficient),
}


def _formulas(scheme: str, kind: str) -> tuple:
    try:
        return _FORMULAS[(scheme, kind)]
    except KeyError:
        raise InvalidParameterError(f"unknown scheme/kind {scheme!r}/{kind!r}") from None


def budget_threshold(scheme: str, kind: str, inputs: BudgetInputs, r: int | None = None) -> float:
    """The budget threshold of ``scheme`` ("na" or "ad") and ``kind``.

    ``r`` is passed to the necessary thresholds only (see ``na_necessary``).
    """
    threshold = _formulas(scheme, kind)[0]
    return threshold(inputs, r) if kind == "necessary" else threshold(inputs)


def choose_r_star(scheme: str, kind: str, K: int, d: int, p: float, q: float) -> int:
    """Closed-form repetition count, floored and clamped to [1, K].

    ``scheme`` is "na" or "ad"; ``kind`` picks the necessary- or
    sufficient-budget variant of the formula.  Natural logarithms
    throughout, so K must be an integer of at least 3 for the iterated
    log.  d must be an integer of at least 3, p must lie in [1/2, 1] and
    q in (0, 1]; q at or below 1/d is accepted, as a sweep resolves r
    with a representative d and checks q against each trial's graph.
    """
    check_int("K", K, 3)
    _check_model(d, p, q)
    formula = _formulas(scheme, kind)[1]
    return max(1, min(K, math.floor(formula(K, d, p, q))))


def adaptivity_gap_bounds(inputs: BudgetInputs) -> tuple[float, float]:
    """Lower and upper bounds on K_na(delta) / K_ad(delta)."""
    if inputs.delta >= math.exp(-2):
        raise InvalidParameterError(
            f"delta must be below 1/e^2 ~ {math.exp(-2):.4f}, got {inputs.delta}"
        )
    alpha = _alpha(inputs.p)
    inv = 1 / inputs.delta
    big_l = math.log(inv)
    lower = inputs.u1 * math.sqrt(inv) / big_l**alpha
    upper = inputs.u2 * inv / big_l ** (alpha / 2)
    return lower, upper


def detection_lb_mvna(K: int, r: int, d: int, p: float, q: float) -> float:
    """Analytic lower bound on batch-estimator detection probability.

    Valid for integers K >= r >= 1 with K/r >= d - 1 (the
    distance-coverage term needs a nonnegative exponent).  Clamped to
    [0, 1]; not a certified bound, see the module notes.
    """
    check_int("r", r, 1)
    check_int("K", K, r)
    _check_model(d, p, q)
    if K / r < d - 1:
        raise InvalidParameterError(f"need K/r >= d-1, got K/r={K / r:.4g}")
    c = 7 * (d + 1) / d
    w = 0.5 * (4 * (p - 0.5) ** 2 + (d / (d - 1)) ** 3 * (q - 1 / d) ** 3)
    big_q = math.log(K / r) / math.log(d - 1)
    h = big_q * math.log(big_q)
    val = 1 - c * ((r + p + q) / (r + 2)) ** 3 * math.exp(-h * w / 2)
    return min(1.0, max(0.0, val))


def detection_lb_mvad(K: int, r: int, d: int, p: float, q: float) -> float:
    """Analytic lower bound on adaptive-estimator detection probability.

    Unlike the batch bound this is evaluated for any integers K, r >= 1 (as
    K/r -> 0 the walk covers no distance and the bound tends to
    1 - c * g^3).  Clamped to [0, 1].
    """
    check_int("K", K, 1)
    check_int("r", r, 1)
    _check_model(d, p, q)
    c = (5 * d + 1) / d
    if q >= 1.0:
        g = 0.0
    else:
        g = math.exp(-r * (d - 1) * (q - 1 / d) ** 2 / (3 * d * (1 - q)))
    x = K / r
    val = 1 - c * g**3 * math.exp(-((p - 0.5) ** 2) * x * math.log(x))
    return min(1.0, max(0.0, val))


def h_t_upper_bound(hop_distances: Sequence[int]) -> float:
    """Upper bound on the infection-time entropy from candidate hop counts.

    Sums ln(Gamma(h)) + h over the candidates' distances to the source
    (unit spreading rate).
    """
    total = 0.0
    for h in hop_distances:
        check_int("hop distances", h, 1)
        total += math.lgamma(h) + h
    return total
