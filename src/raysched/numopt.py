"""Bracketed 1-D numerics and the one table of closed forms.

Bisection and golden-section routines back the tuned-base root and the
base optimizations.  The table holds every closed form in the package,
each entry stating its provenance, domain and shape (ClosedForm).
Printed entries, keyed by catalog id, store each published bound
exactly as displayed, even where measurement disagrees; disagreement
is surfaced by the claim catalog, never patched here.  The count
ceilings and the randomized-schedule ratio are written here once and
serve both as printed entries and as public functions.  Derived
entries, keyed by (tag kind, semantics), are the analytic limits of the
tagged plan families, which the evaluators read through family_limits.
A derived entry never shares a formula with a printed one, so that the
catalog can catch a wrong formula on either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .core import CostModel, SchedulePlan, SearchPlan


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.tol <= 0:
            raise ValueError(f"bracket tol must be > 0, got {self.tol}")


def bisect_root(f: Callable[[float], float], br: Bracket) -> float:
    """Root of a continuous sign-changing function by bisection.

    Returns the bracket midpoint once its width drops below br.tol; an
    endpoint with f exactly zero is returned directly.
    """
    lo, hi = br.lo, br.hi
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    while hi - lo > br.tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def lemma_root(p: float) -> float:
    """Root of e^x(1-p) + e^x p^2/(4x) - 1 in (0, p/2].

    The function blows up to +inf as x -> 0+ and is nonpositive at
    x = p/2 for every p in (0, 1], so bisection from a tiny positive
    left endpoint always brackets the smallest root.  This root tunes
    the exploration base when detection is probabilistic.
    """
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")

    def f(x: float) -> float:
        return math.exp(x) * ((1.0 - p) + p * p / (4.0 * x)) - 1.0

    hi = p / 2.0
    if not hi > 1e-9:  # the bracket's left end
        raise ValueError(f"p must be > 2e-09 for the root's bracket, got {p}")
    if f(hi) > 0:
        raise ValueError(f"no root at or below p/2 for p={p}")
    return bisect_root(f, Bracket(1e-9, hi, tol=1e-15))


def golden_min(
    g: Callable[[float], float], br: Bracket
) -> tuple[float, float]:
    """(argmin, min) of a unimodal function by golden-section search.

    Unimodality on the bracket is the caller's responsibility; the
    final bracket width is at most br.tol.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = br.lo, br.hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    g1, g2 = g(x1), g(x2)
    while b - a > br.tol:
        if g1 <= g2:
            b, x2, g2 = x2, x1, g1
            x1 = b - inv_phi * (b - a)
            g1 = g(x1)
        else:
            a, x1, g1 = x1, x2, g2
            x2 = a + inv_phi * (b - a)
            g2 = g(x2)
        if x1 >= x2:
            break
    arg = 0.5 * (a + b)
    return arg, g(arg)


def scan_golden_min(
    g: Callable[[float], float], hi: float, tol: float
) -> tuple[float, float]:
    """(argmin, min) of g over bases in [1+1e-6, hi].

    A 64-point logarithmic scan brackets the minimum before the
    golden-section refinement, guarding against surprises in the
    trusted unimodality.
    """
    lo = 1.0 + 1e-6
    grid = [lo * (hi / lo) ** (i / 63.0) for i in range(64)]
    values = [g(b) for b in grid]
    i_min = values.index(min(values))
    a = grid[max(0, i_min - 1)]
    c = grid[min(len(grid) - 1, i_min + 1)]
    return golden_min(g, Bracket(a, c, tol=tol))


_E = math.e


def _check_bound(b: float, size: int = 1, budget: float = 0.0) -> None:
    """Argument check shared by every closed-form bound below."""
    if not b > 1:
        raise ValueError(f"base must be > 1, got {b}")
    if size < 1:
        raise ValueError(f"ray or problem count must be >= 1, got {size}")
    if not budget >= 0:
        raise ValueError(f"time or distance budget must be >= 0, got {budget}")


def beta_r_closed_form(n: int, b: float) -> float:
    """Exact acceleration ratio n b^(n+1) ln b / ((b^n - 1)(b - 1)) of
    the randomized schedule."""
    _check_bound(b, n)
    try:
        return n * b ** (n + 1) * math.log(b) / ((b**n - 1.0) * (b - 1.0))
    except OverflowError:
        raise ValueError(f"b ** (n + 1) overflows float range at n = {n}, b = {b}") from None


def turn_bound(m: int, b: float, d: float, cost_model: CostModel) -> float:
    """Closed-form ceiling on the number of turns a plan of the given
    family makes within distance d: log_b(d(b-1)+1)+1 under STANDARD
    accounting (one-way distance), m*log_b(d(b-1)/m+1)+m under
    EXPANDING."""
    _check_bound(b, m, d)
    if cost_model is CostModel.EXPANDING:
        return m * math.log(d * (b - 1.0) / m + 1.0, b) + m
    return math.log(d * (b - 1.0) + 1.0, b) + 1.0


def contract_bound(b: float, t: float) -> float:
    """Ceiling log_b(t(b-1)+1)+1 on runs started by time t for the
    single-problem doubling schedule with base b."""
    _check_bound(b, 1, t)
    return math.log(t * (b - 1.0) + 1.0, b) + 1.0


def preemption_bound(n: int, b: float, t: float) -> float:
    """Ceiling n*log_b(t(b-1)/n+1)+n on switches by time t for the
    n-problem round-robin doubling schedule with base b."""
    _check_bound(b, n, t)
    return n * math.log(t * (b - 1.0) / n + 1.0, b) + n


def _search_ratio_base(m: int, b: float) -> float:
    return 1.0 + 2.0 * (b**m - 1.0) / (b - 1.0)


def _sched_ratio_base(n: int, b: float) -> float:
    return b ** (n + 1) / (b - 1.0)


@dataclass(frozen=True)
class ClosedForm:
    """One entry of the table and its three facts.  Provenance: a
    printed entry (derivation None) is verbatim as displayed in its
    source, errors included; a derived one notes how it follows.  Domain:
    the arguments where the formula holds; a printed entry holds wherever
    its catalog rows evaluate it.  Shape: with asymptote None, candidate
    ratios rise toward the value, so the supremum is the asymptote (a
    printed entry is one value); otherwise the supremum sits at the first
    phase and later candidates fall toward the asymptote."""

    formula: Callable[..., float]
    derivation: Optional[str] = None
    domain: Callable[..., bool] = lambda *args: True
    asymptote: Optional[Callable[..., float]] = None


def _exp_search_limit(m: int, b: float, _: int, r: int) -> float:
    k_pairs = (r + 1) // 2
    if r % 2 == 1:
        return 1.0 + 2.0 * b ** (k_pairs * m) / (b - 1.0)
    return 2.0 * b ** (k_pairs * m + 1) / (b - 1.0) - 1.0


def _nm_search_limit(m: int, b: float, big_r: int, r: int) -> float:
    if big_r % 2 == 1:
        steady = ((big_r + 1) * b**m - (big_r - 1)) / (b - 1.0)
    else:
        steady = (big_r * b**m - (big_r - 2)) / (b - 1.0)
    if r % 2 == 1:
        partial = 1.0 + (r - 1) * (b**m - 1.0)
    else:
        partial = 1.0 + r * (b**m - 1.0)
    return steady + partial


def _outward_detection_limit(m: int, b: float, _: int, p: float) -> float:
    q = 1.0 - p
    lam = q * b**m
    return 1.0 + 2.0 * p * b**m / ((b - 1.0) * (1.0 - lam))


def _two_way_detection_limit(m: int, b: float, _: int, p: float) -> float:
    q = 1.0 - p
    return 2.0 * p * b**m * (1.0 + q * b) / (
        (b - 1.0) * (1.0 - q * q * b**m)
    ) + p / (1.0 + q)


def _converges(m: int, b: float, _: int, p: float) -> bool:
    return (1.0 - p) * b**m < 1.0


_TABLE: dict[object, ClosedForm] = {
    # Printed, keyed by catalog id.  Worst-case ratios of the core
    # strategy families; the printed and optimal forms are the base forms
    # at the recorded optimal bases.
    "search-ratio-printed": ClosedForm(lambda m: _search_ratio_base(m, m / (m - 1.0))),
    "search-ratio-base": ClosedForm(_search_ratio_base),
    "sched-ratio-optimal": ClosedForm(lambda n: _sched_ratio_base(n, (n + 1.0) / n)),
    "sched-ratio-base": ClosedForm(_sched_ratio_base),
    # Probabilistic-detection bounds.
    "prob-search-lower": ClosedForm(lambda m, p: m / (2.0 * p)),
    "prob-search-upper": ClosedForm(lambda m, p: 1.0 + 8.0 * m / (p * p)),
    "prob-sched-lower": ClosedForm(lambda n, p: n / p),
    "prob-sched-upper": ClosedForm(lambda n, p: _E * n / p + _E / p),
    # Redundant-answer (fault-tolerant) bounds.
    "fault-search-lower": ClosedForm(lambda m, r: r * m / 2.0),
    "fault-search-upper": ClosedForm(lambda m, r: 2.0 * _E * ((r + 1) // 2 * m - 1.0) + 1.0),
    "nm-search-upper": ClosedForm(lambda m, r: r * (m - 1.0) * (m / (m - 1.0)) ** m + 2.0 - r),
    "pseudo-repeat-ratio": ClosedForm(lambda n, r: r * n * ((n + 1.0) / n) ** (n + 1)),
    "rth-largest-ratio": ClosedForm(lambda n, r: (r * n + 1.0) * (1.0 + 1.0 / (r * n)) ** (r * n)),
    # Randomized schedule.
    "randomized-ratio": ClosedForm(beta_r_closed_form),
    "randomized-ratio-asymptote": ClosedForm(lambda n: (n + 1.0) * _E / (_E - 1.0)),
    # Preemptive and standard accounting (round-robin and doubling).
    "rr-worst": ClosedForm(lambda n, b: n * (b + 1.0)),
    "rr-asymptotic": ClosedForm(lambda n, b: n * b),
    "preemption-ceiling": ClosedForm(preemption_bound),
    "contract-ceiling": ClosedForm(contract_bound),
    "expanding-search-worst": ClosedForm(lambda m, b: (b + 1.0) * m),
    "expanding-search-asymptotic": ClosedForm(lambda m, b: b * m),
    "turn-ceiling": ClosedForm(lambda b, d: turn_bound(2, b, d, CostModel.STANDARD)),
    "expanding-turn-ceiling": ClosedForm(lambda m, b, d: turn_bound(m, b, d, CostModel.EXPANDING)),
    # Derived, keyed by (tag kind, semantics): the limits the evaluators
    # attach to tagged plans.  They never share a function with a printed
    # entry, even where the formulas coincide, so that every catalog row
    # compares two independently written expressions.
    ("exponential", "rth-visit"): ClosedForm(
        _exp_search_limit,
        "r-th pass: on the ray's ceil(r/2)-th later excursion, out if r is odd, back if even"),
    ("nm", "rth-visit"): ClosedForm(
        _nm_search_limit,
        "steady cost up to the target's next excursion, plus r of that one's R sweeps",
        domain=lambda m, b, big_r, r: r <= big_r),
    ("geometric", "rth-visit"): ClosedForm(
        lambda m, b, _, r: (b + 1.0) * m,
        "charged for new ground only; waits for phase p+1's segments, worst at p = 0",
        domain=lambda m, b, _, r: r == 1,
        asymptote=lambda m, b, _, r: b * m),
    ("exponential", "outward-only"): ClosedForm(
        _outward_detection_limit,
        "each outward miss costs one more round of m excursions: a series in (1-p)b^m",
        domain=_converges),
    ("exponential", "both-directions"): ClosedForm(
        _two_way_detection_limit,
        "as outward-only, the inward pass a second chance: a series in (1-p)^2 b^m",
        domain=_converges),
    ("exponential", "longest-completed"): ClosedForm(
        lambda n, b, _, r: b ** (n + 1) / (b - 1.0),
        "query at run k's finish over run k-n's length: (b^(k+1)-1)/((b-1)b^(k-n))"),
    ("exponential", "rth-largest-completed"): ClosedForm(
        lambda n, b, _, r: b ** (r * n + 1) / (b - 1.0),
        "as longest-completed, over the problem's r-th largest run, k-r*n"),
    ("pseudo", "r-times-completed"): ClosedForm(
        lambda n, b, repeats, r: max(b**n * (repeats / (b - 1.0) + r),
                                     b ** (n - 1) * (repeats / (b - 1.0) + repeats)),
        "worst at a phase's r-th repeat (over phase P-n) or last (over P+1-n)",
        domain=lambda n, b, repeats, r: r <= repeats),
    ("geometric-rr", "aggregate-interruptible"): ClosedForm(
        lambda n, b, _, r: n * (b + 1.0),
        "the next problem holds the earlier phases' time; worst at the first phase",
        asymptote=lambda n, b, _, r: n * b),
}


def closed_form_entry(key: object) -> ClosedForm:
    """The entry under a catalog id or a (tag kind, semantics) pair."""
    return _TABLE[key]


def closed_form(claim_id: str, **params: float) -> float:
    """Evaluate a published bound by its catalog id, verbatim as
    displayed in its source.  Raises KeyError for unknown ids."""
    entry = _TABLE.get(claim_id)
    if entry is None or entry.derivation is not None:
        raise KeyError(f"unknown claim id {claim_id!r}; known: {closed_form_ids()}")
    return entry.formula(**params)


def closed_form_ids() -> list[str]:
    """All catalog ids, sorted."""
    return sorted(key for key, entry in _TABLE.items() if entry.derivation is None)


def family_limits(
    plan: Union[SearchPlan, SchedulePlan], semantics: str, size: int, x: float
) -> Optional[tuple[float, float]]:
    """(limit_sup, asymptotic) of a tagged plan's family from the entry
    keyed by (tag kind, semantics), or None where there is none, the tag
    has no base or the point is outside the entry's domain.  A derived
    entry is called as (size, base, redundancy, x): the plan's rays or
    problems, the tag's base and redundancy (sweeps per excursion or
    repeats per length), and the semantics' parameter (required passes,
    rank or repeats, or the detection probability)."""
    tag = plan.tag
    entry = _TABLE.get((tag.kind, semantics))
    if entry is None or tag.base is None:
        return None
    args = (size, tag.base, tag.redundancy, x)
    if not entry.domain(*args):
        return None
    value = entry.formula(*args)
    return value, value if entry.asymptote is None else entry.asymptote(*args)


def beta_r_star(n: int) -> tuple[float, float]:
    """(b_star, value) minimizing the randomized-schedule ratio over
    bases in [1+1e-6, 50]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    return scan_golden_min(lambda b: beta_r_closed_form(n, b), 50.0, 1e-10)


def figure1_curve(n_max: int) -> list[tuple[int, float, float, float, float]]:
    """Rows (n, best deterministic ratio, best randomized ratio, its
    base, randomized/deterministic) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rows: list[tuple[int, float, float, float, float]] = []
    for n in range(1, n_max + 1):
        beta_star = closed_form("sched-ratio-optimal", n=n)
        try:
            b_star, value = beta_r_star(n)
        except ValueError as err:
            raise ValueError(f"n_max = {n_max} is past the curve's range: {err}") from None
        rows.append((n, beta_star, value, b_star, value / beta_star))
    return rows
