"""Outside-in per-layer trace of the raysched package.

The tracer replaces every public function of every ``raysched.*`` module
with a wrapper, in every namespace that bound it by name (``claims``,
``cli``, ``stochastic`` and the package itself import their own copies),
and restores the originals afterwards.  Nothing inside ``src/`` changes.

Most wrappers record a span: calls, total time, self time (total minus
the time covered by wrapped callees) and exceptions.  The three functions
called about a million times per catalog pass (``excursion_cost``,
``SearchPlan.excursion`` and ``SchedulePlan.job_spec``) only count calls,
because a span on each would add seconds to a pass.

Named counts are taken from the arguments at the layer boundary:

- ``core.plan_steps``: ``SearchPlan.excursion`` plus ``SchedulePlan.job_spec``.
- ``search_eval.visit_cost_stream.resume_steps``: sum of its ``start``
  argument, the prefix it re-walks before yielding anything.
- ``search_eval.competitive_ratio.candidates`` and
  ``sched_eval.acceleration_ratio.jobs``: sum of the horizons swept.
- ``core.excursion_prefix.{steps,steps_max}``: materialized prefix sizes.
- ``stochastic.mc_draws``: Monte Carlo trials times grid points.
- ``numopt.objective_evals``: calls of the callable handed to
  ``golden_min`` or ``bisect_root``.
- ``claims.evaluator_calls`` and ``claims.repeat_call_share``: ratio
  evaluator calls made inside ``run_claim_catalog``, and the share of
  them that repeat an earlier call with equal arguments.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

_COUNT_ONLY = {("core", "excursion_cost")}
_COUNT_ONLY_METHODS = (
    ("core", "SearchPlan", "excursion"),
    ("core", "SchedulePlan", "job_spec"),
)
# The ratio evaluators whose repeated calls inside the claim catalog
# are counted; each returns one report for one (plan or parameters,
# semantics, horizon) combination.
_EVALUATORS = {
    "search_eval.competitive_ratio",
    "sched_eval.acceleration_ratio",
    "stochastic.probabilistic_competitive_ratio",
    "stochastic.expected_acc_ratio_mc_contracts",
    "stochastic.mc_randomized_schedule_ratio",
}
# Functions whose arguments feed a named count in Tracer._on_call.
_HOOKED = _EVALUATORS | {
    "search_eval.visit_cost_stream",
    "core.excursion_prefix",
    "stochastic.mc_randomized_schedule_detail",
    "stochastic.mc_search_cost",
    "numopt.golden_min",
    "numopt.bisect_root",
}


def _plan_key(value):
    """Hashable description of an argument for repeat detection.

    Plans built by factories are identified by their tag and shape;
    custom plans carry arbitrary callables and are never considered
    equal to another call's plan."""
    tag = getattr(value, "tag", None)
    if tag is not None and hasattr(value, "generator"):
        if tag.kind == "custom":
            return ("custom", id(value))
        shape = tuple(
            getattr(value, name, None)
            for name in ("ray_count", "problem_count", "cost_model",
                         "traversals", "interruptible")
        )
        return (type(value).__name__, shape, tag)
    try:
        hash(value)
    except TypeError:
        return ("unhashable", repr(value))
    return value


class Tracer:
    """Accumulates spans and counts while installed on the package."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[float] = []
        self._claims_depth = 0
        self._evaluator_keys: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the patches stay)."""
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.errors.clear()
        self.counts.clear()
        self.maxima.clear()
        self._evaluator_keys.clear()

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, key: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        covered = self._stack.pop()
        self.total[key] += elapsed
        self.self_time[key] += elapsed - covered
        if self._stack:
            self._stack[-1] += elapsed

    def _counted(self, key: str, fn: Callable) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _on_call(self, key: str, signature, args, kwargs) -> tuple:
        """Argument-derived counts for one call; returns the (possibly
        wrapped) arguments to pass on."""
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        named = bound.arguments
        counts = self.counts
        if key == "search_eval.visit_cost_stream":
            counts[key + ".resume_steps"] += named["start"]
        elif key == "search_eval.competitive_ratio":
            counts[key + ".candidates"] += named["horizon"]
        elif key == "sched_eval.acceleration_ratio":
            counts[key + ".jobs"] += named["horizon"]
        elif key == "core.excursion_prefix":
            counts[key + ".steps"] += named["count"]
            self.maxima[key + ".steps_max"] = max(
                self.maxima[key + ".steps_max"], named["count"]
            )
        elif key == "stochastic.mc_randomized_schedule_detail":
            counts["stochastic.mc_draws"] += named["trials"] * len(
                named["params"].t_grid
            )
        elif key == "stochastic.mc_search_cost":
            counts["stochastic.mc_draws"] += named["trials"]
        elif key in ("numopt.golden_min", "numopt.bisect_root"):
            objective_name = "g" if key == "numopt.golden_min" else "f"
            objective = named[objective_name]

            def objective_counted(x):
                counts["numopt.objective_evals"] += 1
                return objective(x)

            named[objective_name] = objective_counted
            return bound.args, bound.kwargs
        if key in _EVALUATORS and self._claims_depth:
            self._evaluator_keys.append(
                (key, tuple(_plan_key(v) for v in named.values()))
            )
        return args, kwargs

    def _span(self, key: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        hooked = key in _HOOKED
        is_claims = key == "claims.run_claim_catalog"
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def generator_span(*args, **kwargs):
                if hooked:
                    args, kwargs = tracer._on_call(key, signature, args, kwargs)
                tracer.calls[key] += 1
                inner = fn(*args, **kwargs)
                yields = key + ".yields"
                while True:
                    start = tracer._enter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        tracer._leave(key, start)
                        return
                    except BaseException:
                        tracer._leave(key, start)
                        tracer.errors[key] += 1
                        raise
                    tracer._leave(key, start)
                    tracer.counts[yields] += 1
                    yield value

            generator_span.__wrapped__ = fn
            return generator_span

        def span(*args, **kwargs):
            if hooked:
                args, kwargs = tracer._on_call(key, signature, args, kwargs)
            tracer.calls[key] += 1
            if is_claims:
                tracer._claims_depth += 1
            start = tracer._enter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[key] += 1
                raise
            finally:
                tracer._leave(key, start)
                if is_claims:
                    tracer._claims_depth -= 1

        span.__wrapped__ = fn
        return span

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public raysched function in every raysched
        namespace that holds it."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "raysched" or name.startswith("raysched.")
        }
        wrappers: dict[int, Callable] = {}
        for name, module in modules.items():
            short = name.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == name
                    and not attr.startswith("_")
                ):
                    key = f"{short}.{attr}"
                    if (short, attr) in _COUNT_ONLY:
                        wrappers[id(value)] = self._counted(key + ".calls", value)
                    else:
                        wrappers[id(value)] = self._span(key, value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for module_short, cls_name, method in _COUNT_ONLY_METHODS:
            cls = getattr(modules["raysched." + module_short], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(
                cls, method,
                self._counted(f"{module_short}.{cls_name}.{method}.calls", original),
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Every recorded metric of the current recording, flat."""
        out: dict[str, float] = {}
        for key, calls in self.calls.items():
            if key.endswith(".calls"):
                out[key] = calls
                continue
            out[key + ".calls"] = calls
            out[key + ".total_s"] = self.total[key]
            out[key + ".self_s"] = self.self_time[key]
            out[key + ".errors"] = self.errors[key]
        out.update(self.counts)
        out.update(self.maxima)
        out["core.plan_steps"] = self.calls[
            "core.SearchPlan.excursion.calls"
        ] + self.calls["core.SchedulePlan.job_spec.calls"]
        evaluator_calls = len(self._evaluator_keys)
        out["claims.evaluator_calls"] = evaluator_calls
        repeats = evaluator_calls - len(set(self._evaluator_keys))
        out["claims.repeat_calls"] = repeats
        out["claims.repeat_call_share"] = (
            repeats / evaluator_calls if evaluator_calls else 0.0
        )
        return out
