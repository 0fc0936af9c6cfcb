"""The literal Figure 8 recursion, kept as a test oracle.

Figure 8 of the paper conditions an ⊗-node (independent partitioning) by
passing the whole tuple set to every component and unioning the results
without re-weighting.  That rule reproduces the paper's printed Example 5.2
and Figure 9 output, but it does not preserve the posterior distribution
(Theorem 5.3), so :func:`repro.core.conditioning.condition_wsset` renormalises
through ⊕-nodes only.  :func:`condition_literal` runs the printed recursion
over plain dicts and hands its output to the library's own rule-3 merge and
ΔW assembly, so the two differ only in the recursion (and in naming: the
oracle names each new variable as it creates it).

The dict helpers below (``to_internal`` … ``count_occurrences``) are the
plain-dict ws-set operations of Figure 4 that the recursion runs on; the
library's engines use their packed-int counterparts in
:mod:`repro.core.interned`.
"""

from __future__ import annotations

from repro.core.conditioning import (
    ConditioningResult,
    _conditioning_result,
    _merge_equal_variables,
    _split_unrelated,
)
from repro.core.decompose import (
    Budget,
    DecompositionStats,
    kept_after_subsumption,
    recursion_guard,
)
from repro.core.heuristics import make_heuristic
from repro.core.interned import InternedEngine
from repro.core.probability import ExactConfig


# ----------------------------------------------------------------------
# Plain-dict ws-set helpers
# ----------------------------------------------------------------------
def to_internal(ws_set) -> list[dict]:
    """Convert a :class:`~repro.core.wsset.WSSet` into plain-dict descriptors."""
    return [dict(descriptor.items()) for descriptor in ws_set]


def remove_subsumed(descriptors: list[dict]) -> list[dict]:
    """Drop descriptors that extend (are contained in) another descriptor.

    Among duplicates the first occurrence wins; the output preserves the
    input order.
    """
    if len(descriptors) <= 1:
        return list(descriptors)
    kept = kept_after_subsumption([set(d.items()) for d in descriptors])
    if len(kept) == len(descriptors):
        return list(descriptors)
    return [descriptors[index] for index in kept]


def deduplicate(descriptors: list[dict]) -> list[dict]:
    """Remove exact duplicate descriptors, preserving first-occurrence order."""
    seen: set[frozenset] = set()
    unique: list[dict] = []
    for descriptor in descriptors:
        key = frozenset(descriptor.items())
        if key not in seen:
            seen.add(key)
            unique.append(descriptor)
    return unique


def connected_components(descriptors: list[dict]) -> list[list[dict]]:
    """Partition a ws-set into variable-disjoint (independent) components.

    The connected components of the graph linking variables that co-occur
    in a descriptor, found with union-find (Section 4.2).
    """
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for descriptor in descriptors:
        variables = list(descriptor)
        for variable in variables:
            parent.setdefault(variable, variable)
        first = variables[0]
        for variable in variables[1:]:
            union(first, variable)

    groups: dict = {}
    for descriptor in descriptors:
        groups.setdefault(find(next(iter(descriptor))), []).append(descriptor)
    return list(groups.values())


def split_on_variable(descriptors: list[dict], variable) -> tuple[dict, list[dict]]:
    """``(by_value, unmentioned)``: ``S_{x→i}`` per value ``i`` and ``T`` (Figure 4)."""
    by_value: dict = {}
    unmentioned: list[dict] = []
    for descriptor in descriptors:
        if variable in descriptor:
            reduced = {k: v for k, v in descriptor.items() if k != variable}
            by_value.setdefault(descriptor[variable], []).append(reduced)
        else:
            unmentioned.append(descriptor)
    return by_value, unmentioned


def count_occurrences(descriptors) -> dict:
    """``variable -> value -> count`` statistics in one pass over a ws-set."""
    occurrences: dict = {}
    for descriptor in descriptors:
        for variable, value in descriptor.items():
            by_value = occurrences.setdefault(variable, {})
            by_value[value] = by_value.get(value, 0) + 1
    return occurrences


def condition_literal(
    condition,
    tuples,
    world_table,
    config: ExactConfig | None = None,
    *,
    prune_unrelated: bool = True,
    drop_singleton_new_variables: bool = True,
    merge_equal_new_variables: bool = True,
) -> ConditioningResult:
    """:func:`~repro.core.conditioning.condition_wsset` with Figure 8's ⊗-rule."""
    config = config or ExactConfig()
    every, tagged, unrelated = _split_unrelated(condition, tuples, prune_unrelated)
    engine = Figure8Engine(
        world_table,
        config,
        prune_unrelated=prune_unrelated,
        drop_singleton_new_variables=drop_singleton_new_variables,
    )
    descriptors = deduplicate(to_internal(condition))
    if config.simplify_subsumed:
        descriptors = remove_subsumed(descriptors)
    internal_tuples = [(tag, dict(descriptor.items())) for tag, descriptor in tagged]
    with recursion_guard():
        confidence, rewritten = engine.run(descriptors, internal_tuples)
    delta_rows, variable_sources = engine.new_variable_rows(), engine.variable_sources
    if merge_equal_new_variables:
        delta_rows, variable_sources, rename = _merge_equal_variables(
            delta_rows, variable_sources
        )
        rewritten = [
            (tag, {rename.get(var, var): value for var, value in descriptor.items()})
            for tag, descriptor in rewritten
        ]
    return _conditioning_result(
        confidence,
        delta_rows,
        variable_sources,
        rewritten,
        every,
        unrelated,
        engine.stats,
    )


class Figure8Engine:
    """Figure 8 as printed: ComputeTree ∘ cond over plain dicts, ⊗-rule included.

    At an ⊗-node every independent component is conditioned on its own and
    the rewritten tuples are unioned without re-weighting (see the module
    docstring of :mod:`repro.core.conditioning` for why that rule is not
    sound); confidence-only subproblems are delegated to the probability
    engine.
    """

    def __init__(
        self,
        world_table,
        config: ExactConfig,
        *,
        prune_unrelated: bool,
        drop_singleton_new_variables: bool,
    ) -> None:
        self.world_table = world_table
        self.config = config
        self.heuristic = make_heuristic(config.heuristic)
        self.budget = Budget(config.max_calls, config.time_limit)
        self.stats = DecompositionStats()
        self.prune_unrelated = prune_unrelated
        self.drop_singleton_new_variables = drop_singleton_new_variables
        # One probability engine shared across every delegated confidence-only
        # subproblem of this conditioning run: the budget covers the whole run
        # and the engine's memo cache persists across the delegated calls
        # (many branches leave identical residual condition ws-sets).
        self.confidence_engine = InternedEngine(world_table, config, budget=self.budget)
        # new variable -> {value: unnormalised weight}; normalised at the end.
        self._new_variables: dict = {}
        self.variable_sources: dict = {}
        self._fresh_counter = 0

    # -- public entry point ---------------------------------------------
    def run(self, descriptors, tuples):
        return self._cond(descriptors, list(tuples), depth=0)

    # -- recursion --------------------------------------------------------
    def _cond(self, descriptors, tuples, depth):
        self.budget.tick()
        self.stats.recursive_calls += 1
        self.stats.max_depth = max(self.stats.max_depth, depth)

        if not descriptors:
            self.stats.bottom_nodes += 1
            return 0.0, []
        if any(not descriptor for descriptor in descriptors):
            # The ∅ leaf: the whole (remaining) world-set survives, no
            # re-weighting is necessary and the tuples pass through unchanged.
            self.stats.leaf_nodes += 1
            return 1.0, list(tuples)

        if self.config.subsumption_every_step:
            descriptors = remove_subsumed(descriptors)

        if self.config.use_independent_partitioning:
            components = connected_components(descriptors)
            if len(components) > 1:
                return self._cond_independent(components, tuples, depth)

        if self.prune_unrelated:
            condition_variables: set = set()
            for descriptor in descriptors:
                condition_variables.update(descriptor)
            related = [
                (tag, d) for tag, d in tuples if condition_variables & d.keys()
            ]
            unrelated = [
                (tag, d) for tag, d in tuples if not (condition_variables & d.keys())
            ]
            if not related:
                # Nothing left to rewrite below this point: only the branch
                # confidence matters, so delegate to the shared exact engine.
                confidence = self.confidence_engine.compute(descriptors)
                return confidence, unrelated
            confidence, rewritten = self._cond_eliminate(descriptors, related, depth)
            if confidence == 0.0:
                return 0.0, []
            return confidence, rewritten + unrelated

        return self._cond_eliminate(descriptors, tuples, depth)

    def _cond_independent(self, components, tuples, depth):
        """⊗-node: condition each independent component; no re-weighting."""
        self.stats.independent_nodes += 1
        complement = 1.0
        rewritten = []
        if self.prune_unrelated:
            component_variables = []
            for component in components:
                variables = set()
                for descriptor in component:
                    variables.update(descriptor)
                component_variables.append(variables)
            claimed: set[int] = set()
            for component, variables in zip(components, component_variables):
                child_tuples = []
                for index, (tag, descriptor) in enumerate(tuples):
                    if variables & descriptor.keys():
                        child_tuples.append((tag, descriptor))
                        claimed.add(index)
                child_confidence, child_rewritten = self._cond(
                    component, child_tuples, depth + 1
                )
                complement *= 1.0 - child_confidence
                rewritten.extend(child_rewritten)
            # Tuples touching none of the components pass through unchanged.
            rewritten.extend(
                pair for index, pair in enumerate(tuples) if index not in claimed
            )
        else:
            for component in components:
                child_confidence, child_rewritten = self._cond(
                    component, list(tuples), depth + 1
                )
                complement *= 1.0 - child_confidence
                rewritten.extend(child_rewritten)
        return 1.0 - complement, rewritten

    def _cond_eliminate(self, descriptors, tuples, depth):
        """⊕-node: eliminate a variable, renormalise its surviving branches."""
        occurrences = count_occurrences(descriptors)
        if self.prune_unrelated and tuples:
            # Prefer eliminating variables the remaining tuples depend on, so
            # that the rewriting spine stays short and the rest of the
            # condition can be delegated to the confidence-only engine.
            tuple_variables: set = set()
            for _, descriptor in tuples:
                tuple_variables.update(descriptor)
            shared = {
                variable: counts
                for variable, counts in occurrences.items()
                if variable in tuple_variables
            }
            if shared:
                occurrences = shared
        variable = self.heuristic.select_variable(
            occurrences, len(descriptors), self.world_table
        )
        self.stats.eliminated_variables.append(variable)
        self.stats.variable_nodes += 1
        by_value, unmentioned = split_on_variable(descriptors, variable)

        branch_results = []  # (value, prior weight, branch confidence, rewritten tuples)
        for value in self.world_table.domain(variable):
            weight = self.world_table.probability(variable, value)
            if weight == 0.0:
                continue
            if value in by_value:
                subset = deduplicate(by_value[value] + unmentioned)
            else:
                subset = list(unmentioned)
            if not subset:
                # ⊥ branch: no surviving world assigns this value.
                continue
            branch_tuples = [
                (tag, descriptor)
                for tag, descriptor in tuples
                if descriptor.get(variable, value) == value
            ]
            branch_confidence, branch_rewritten = self._cond(
                subset, branch_tuples, depth + 1
            )
            branch_results.append((value, weight, branch_confidence, branch_rewritten))

        node_confidence = sum(
            weight * branch_confidence
            for _, weight, branch_confidence, _ in branch_results
        )
        if node_confidence == 0.0:
            return 0.0, []

        surviving = [
            (value, weight, branch_confidence, branch_rewritten)
            for value, weight, branch_confidence, branch_rewritten in branch_results
            if branch_confidence > 0.0
        ]

        if self.drop_singleton_new_variables and len(surviving) == 1:
            # Simplification rule 2: a single surviving alternative would get
            # weight one; drop the new variable entirely and just strip the
            # eliminated variable from the rewritten descriptors.
            _, _, _, branch_rewritten = surviving[0]
            rewritten = [
                (tag, {k: v for k, v in descriptor.items() if k != variable})
                for tag, descriptor in branch_rewritten
            ]
            return node_confidence, rewritten

        new_variable = self._fresh_variable(variable)
        distribution = {}
        rewritten = []
        for value, weight, branch_confidence, branch_rewritten in surviving:
            distribution[value] = weight * branch_confidence / node_confidence
            for tag, descriptor in branch_rewritten:
                updated = {k: v for k, v in descriptor.items() if k != variable}
                updated[new_variable] = value
                rewritten.append((tag, updated))
        self._new_variables[new_variable] = distribution
        self.variable_sources[new_variable] = variable
        return node_confidence, rewritten

    # -- new-variable bookkeeping ----------------------------------------
    def _fresh_variable(self, source):
        """A fresh variable name derived from ``source`` (``x`` → ``x'``, ``x''``, ...)."""
        self._fresh_counter += 1
        if isinstance(source, str):
            candidate = source + "'"
            while candidate in self.world_table or candidate in self._new_variables:
                candidate += "'"
            return candidate
        candidate = (source, "prime", self._fresh_counter)
        while candidate in self.world_table or candidate in self._new_variables:
            self._fresh_counter += 1
            candidate = (source, "prime", self._fresh_counter)
        return candidate

    def new_variable_rows(self) -> dict:
        """``new variable -> {value: weight}`` for all created variables."""
        return {variable: dict(dist) for variable, dist in self._new_variables.items()}

