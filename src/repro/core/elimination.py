"""Exact probability via ws-descriptor elimination (paper, Section 6, "WE").

The method repeatedly eliminates one descriptor ``d1`` from the ws-set ``S``:

    Pw(∅)   = 0
    Pw({∅}) = 1
    Pw(S)   = Pw(S \\ {d1}) + Σ_{d ∈ ({d1} − (S \\ {d1}))} P(d)

The ws-set difference preserves the mutex property (Lemma 6.2), so the
probabilities of the difference descriptors can simply be summed.  Unrolling
the recursion gives Corollary 6.4: any ws-set ``{d1, ..., dn}`` is equivalent
to the pairwise-mutex ws-set
``⋃_{i<n} ({d_i} − {d_{i+1}, ..., d_n}) ∪ {d_n}``.

As the paper notes, the difference descriptors can be generated and summed
on the fly without materialising the (potentially exponential) mutex ws-set;
:func:`descriptor_elimination_probability` does exactly that.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.decompose import Budget, recursion_guard
from repro.core.descriptors import WSDescriptor
from repro.core.wsset import WSSet, _difference_pair

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import WorldTable

@dataclass
class EliminationResult:
    """Probability plus counters describing a descriptor-elimination run."""

    probability: float
    generated_descriptors: int
    eliminated_descriptors: int


def descriptor_elimination_probability(
    ws_set: WSSet,
    world_table: "WorldTable",
    *,
    max_calls: int | None = None,
    time_limit: float | None = None,
) -> float:
    """Exact probability of ``ws_set`` using the WE method of Section 6.

    Descriptors are eliminated in the order given, as in the paper.
    """
    return descriptor_elimination_with_stats(
        ws_set,
        world_table,
        max_calls=max_calls,
        time_limit=time_limit,
    ).probability


def descriptor_elimination_with_stats(
    ws_set: WSSet,
    world_table: "WorldTable",
    *,
    max_calls: int | None = None,
    time_limit: float | None = None,
) -> EliminationResult:
    """Like :func:`descriptor_elimination_probability` but with run statistics."""
    if ws_set.is_empty:
        return EliminationResult(0.0, 0, 0)
    if ws_set.contains_universal:
        return EliminationResult(1.0, 0, 0)

    descriptors = list(ws_set.descriptors)
    budget = Budget(max_calls, time_limit)
    total = 0.0
    generated = 0
    # Unrolled recursion of Pw: each descriptor contributes the probability of
    # the worlds it covers that no *later* descriptor covers.
    with recursion_guard():
        for index, descriptor in enumerate(descriptors):
            later = descriptors[index + 1:]
            for mutex_descriptor in _stream_difference(
                descriptor, later, world_table, budget
            ):
                generated += 1
                total += mutex_descriptor.probability(world_table)
    return EliminationResult(total, generated, len(descriptors))


def mutex_normal_form(ws_set: WSSet, world_table: "WorldTable") -> WSSet:
    """The equivalent pairwise-mutex ws-set of Corollary 6.4 (materialised).

    Useful for inspection and tests; beware that it can be exponentially
    larger than the input.
    """
    descriptors = list(ws_set.descriptors)
    result: list[WSDescriptor] = []
    budget = Budget()
    with recursion_guard():
        for index, descriptor in enumerate(descriptors):
            later = descriptors[index + 1:]
            result.extend(_stream_difference(descriptor, later, world_table, budget))
    return WSSet(result)


def _stream_difference(
    descriptor: WSDescriptor,
    removed: list[WSDescriptor],
    world_table: "WorldTable",
    budget: Budget,
) -> Iterator[WSDescriptor]:
    """Yield the descriptors of ``{descriptor} − removed`` without storing them all.

    The pairwise difference rule is applied lazily, descriptor by descriptor,
    following the inductive definition ``Diff({d1}, S ∪ {d2}) =
    Diff(Diff({d1}, S), {d2})`` of Section 3.2.
    """
    budget.tick()
    if not removed:
        yield descriptor
        return
    head, tail = removed[0], removed[1:]
    for piece in _difference_pair(descriptor, head, world_table):
        yield from _stream_difference(piece, tail, world_table, budget)
