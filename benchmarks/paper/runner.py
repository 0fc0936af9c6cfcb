"""Timing utilities, method registries and parameter sweeps for the benchmarks.

The experiments of the paper all have the same shape: take a family of
instances (a ws-set plus a world table) indexed by some parameter (scale
factor, ws-set size), run a set of confidence-computation methods on each
instance, and report the running time per method as a function of the
parameter.  This module provides exactly that machinery, independent of any
specific figure; :mod:`paper.figures` instantiates it per figure.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.approx.karp_luby import karp_luby_confidence
from repro.core.elimination import descriptor_elimination_probability
from repro.core.probability import ExactConfig, probability
from repro.core.wsset import WSSet
from repro.errors import BudgetExceededError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import WorldTable

#: A confidence method: ``(ws_set, world_table) -> probability estimate``.
ConfidenceMethod = Callable[[WSSet, "WorldTable"], float]


@dataclass
class MeasuredPoint:
    """One measurement: a method run on one instance of a sweep."""

    method: str
    x: float
    seconds: float
    value: float | None = None
    repeats: int = 1
    timed_out: bool = False
    extra: dict = field(default_factory=dict)


@dataclass
class Series:
    """All measurements of one method across a sweep, ordered by ``x``."""

    method: str
    points: list[MeasuredPoint] = field(default_factory=list)

    def xs(self) -> list[float]:
        return [point.x for point in self.points]

    def seconds(self) -> list[float]:
        return [point.seconds for point in self.points]


@dataclass
class SweepResult:
    """The outcome of one experiment: a set of series over a common x-axis."""

    title: str
    x_label: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def series_by_method(self, method: str) -> Series:
        for series in self.series:
            if series.method == method:
                return series
        raise KeyError(f"no series for method {method!r}")

    def methods(self) -> list[str]:
        return [series.method for series in self.series]


def measure(
    function: Callable[[], float],
    *,
    repeats: int = 1,
) -> tuple[float, float | None]:
    """Run ``function`` ``repeats`` times; return (median seconds, last value)."""
    durations = []
    value: float | None = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        value = function()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations), value


def run_sweep(
    title: str,
    x_label: str,
    instances: Sequence[tuple[float, WSSet, "WorldTable"]],
    methods: dict[str, ConfidenceMethod],
    *,
    repeats: int = 1,
    time_limit: float | None = None,
) -> SweepResult:
    """Run every method on every instance and collect a :class:`SweepResult`.

    ``instances`` is a sequence of ``(x, ws_set, world_table)`` triples.  A
    per-call ``time_limit`` (seconds) can be used the way the paper caps runs
    at 600/9000 seconds; methods built by :func:`method_registry` honour it via
    the engine budget and the corresponding point is flagged ``timed_out``.
    """
    result = SweepResult(title=title, x_label=x_label)
    by_method: dict[str, Series] = {name: Series(name) for name in methods}
    for x, ws_set, world_table in instances:
        for name, method in methods.items():
            timed_out = False

            def call() -> float:
                return method(ws_set, world_table)

            try:
                seconds, value = measure(call, repeats=repeats)
            except BudgetExceededError as exceeded:
                seconds = exceeded.elapsed if exceeded.elapsed is not None else float("nan")
                value = None
                timed_out = True
            by_method[name].points.append(
                MeasuredPoint(
                    method=name,
                    x=x,
                    seconds=seconds,
                    value=value,
                    repeats=repeats,
                    timed_out=timed_out,
                )
            )
    result.series = list(by_method.values())
    if time_limit is not None:
        result.notes.append(f"per-call time limit: {time_limit}s")
    return result


def method_registry(
    *,
    epsilons: Iterable[float] = (),
    delta: float = 0.01,
    include_exact: Iterable[str] = ("indve(minlog)",),
    include_we: bool = False,
    seed: int = 0,
    time_limit: float | None = None,
    max_calls: int | None = None,
    kl_max_iterations: int | None = 100_000,
) -> dict[str, ConfidenceMethod]:
    """Build the named confidence methods used across the figures.

    ``include_exact`` selects among ``indve(minlog)``, ``indve(minmax)``,
    ``ve(minlog)``, ``ve(minmax)``; ``epsilons`` adds one Karp-Luby baseline
    ``kl(e<ε>)`` per value (optimal stopping rule, ``δ`` as given, capped at
    ``kl_max_iterations`` samples); ``include_we`` adds the ws-descriptor
    elimination method.
    """
    methods: dict[str, ConfidenceMethod] = {}

    exact_configurations = {
        "indve(minlog)": ExactConfig.indve("minlog", time_limit=time_limit, max_calls=max_calls),
        "indve(minmax)": ExactConfig.indve("minmax", time_limit=time_limit, max_calls=max_calls),
        "ve(minlog)": ExactConfig.ve("minlog", time_limit=time_limit, max_calls=max_calls),
        "ve(minmax)": ExactConfig.ve("minmax", time_limit=time_limit, max_calls=max_calls),
    }
    for name in include_exact:
        if name not in exact_configurations:
            known = ", ".join(sorted(exact_configurations))
            raise ValueError(f"unknown exact method {name!r}; known: {known}")
        configuration = exact_configurations[name]
        methods[name] = _exact_method(configuration)

    for epsilon in epsilons:
        methods[f"kl(e{epsilon:g})"] = _karp_luby_method(
            epsilon, delta, seed, kl_max_iterations
        )

    if include_we:
        methods["we"] = _we_method(time_limit, max_calls)

    return methods


def _exact_method(configuration: ExactConfig) -> ConfidenceMethod:
    def run(ws_set: WSSet, world_table: "WorldTable") -> float:
        return probability(ws_set, world_table, configuration)

    return run


def _karp_luby_method(
    epsilon: float, delta: float, seed: int, max_iterations: int | None
) -> ConfidenceMethod:
    def run(ws_set: WSSet, world_table: "WorldTable") -> float:
        return karp_luby_confidence(
            ws_set,
            world_table,
            epsilon,
            delta,
            seed=seed,
            max_iterations=max_iterations,
        ).estimate

    return run


def _we_method(time_limit: float | None, max_calls: int | None) -> ConfidenceMethod:
    def run(ws_set: WSSet, world_table: "WorldTable") -> float:
        return descriptor_elimination_probability(
            ws_set, world_table, time_limit=time_limit, max_calls=max_calls
        )

    return run
