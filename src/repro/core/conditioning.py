"""The conditioning algorithm (paper, Section 5, Figure 8).

Conditioning (``assert[B]``) removes from a probabilistic database all worlds
in which the condition ``B`` does not hold and renormalises the remaining
worlds so that their probabilities again sum to one — *without* enumerating
worlds.  The algorithm runs the same Davis-Putnam-style recursion as the
confidence computation and, while returning from the recursion, re-weights the
branches of each ⊕-node by introducing a **new variable** whose alternative
probabilities are

    P({x' → i}) = P({x → i}) · c_i / c

where ``c_i`` is the confidence of branch ``i`` and ``c`` the confidence of
the ⊕-node.  The ws-descriptors of the database tuples that are passed along
the recursion have the eliminated variable replaced by the new one, extended
with the branch assignment.

This module implements conditioning at the level of ws-sets and tuple
descriptors; :meth:`repro.db.database.ProbabilisticDatabase.assert_condition`
wraps it into the database-level operation and applies simplification rule 1
(dropping variables that no longer occur in any U-relation).  Simplification
rules 2 (dropping singleton-domain new variables) and 3 (merging new variables
with identical weighted alternatives) are applied here.

Reproduction note — the ⊗-case of Figure 8
------------------------------------------
Figure 8 handles an ⊗-node (independent partitioning) by passing the *whole*
tuple set to every child and returning the union of the rewritten tuples,
without any re-weighting.  Checking the resulting representation against
brute-force world enumeration shows that this rule does **not** preserve the
instance distribution required by Theorem 5.3: conditioning on a disjunction
``C_1 ∨ C_2`` of independent conditions correlates the two variable sets
("explaining away"), which the independent per-child renormalisation cannot
express — the paper's own Example 5.2 output assigns tuple ``a1`` posterior
probability ≈ 0.689 where the true conditional probability is ≈ 0.466.

The engine therefore renormalises only through variable elimination
(⊕-nodes), which is provably correct (and verified against brute force in the
test suite), and recovers most of the lost efficiency by (a) passing tuples
only into branches they are consistent with, (b) returning tuples unchanged as
soon as they share no variable with the remaining condition, (c) delegating
confidence-only subproblems (no tuples left to rewrite) to the fast INDVE
probability engine, and (d) memoising solved subproblems for the length of
one run, so that sibling ⊕-branches leaving the same residual problem solve
it once and share its new variables (``ExactConfig.condition_memoize`` is
the ablation knob).  The recursion only allocates new-variable ids; rule 3
and naming run once, after it.  The literal Figure 8 ⊗-rule is kept as a
test oracle (``tests/core/figure8_oracle.py``), which reproduces the
paper's printed Example 5.2 output exactly through this module's rule-3
merge and ΔW assembly.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

from repro.core.decompose import Budget, DecompositionStats
from repro.core.descriptors import WSDescriptor, as_descriptor
from repro.core.interned import (
    InternedEngine,
    PackedDescriptor,
    mixed_sizes,
    remove_subsumed_interned,
    split_on_variable_interned,
)
from repro.core.probability import ExactConfig
from repro.core.wsset import WSSet
from repro.errors import ConditioningError, ZeroProbabilityConditionError
from repro.obs.trace import span as _span

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import Value, Variable, WorldTable
else:
    Variable = object
    Value = object

Tag = Hashable


@dataclass
class ConditioningResult:
    """Output of :func:`condition_wsset`.

    Attributes
    ----------
    confidence:
        The probability of the condition in the *prior* database (``c`` in the
        paper); the probability of the condition in the posterior is one.
    delta_world_table:
        A :class:`~repro.db.world_table.WorldTable` holding only the newly
        created variables with their renormalised alternative probabilities
        (the ``ΔW`` relation of Example 5.2).
    rewritten:
        ``tag -> list of descriptors``: for every input tuple tag, the
        descriptors describing the worlds of the *posterior* database in which
        the tuple is present.  A single input descriptor may be rewritten into
        several descriptors (one per surviving branch), or into none at all if
        the tuple exists in no surviving world.
    variable_sources:
        ``new variable -> original variable`` for every variable created by
        the renormalisation.
    stats:
        Decomposition statistics of the underlying recursion, including the
        run's conditioning-memo ``memo_hits`` / ``memo_misses``.
    """

    confidence: float
    delta_world_table: WorldTable
    rewritten: dict
    variable_sources: dict = field(default_factory=dict)
    stats: DecompositionStats = field(default_factory=DecompositionStats)


def condition_wsset(
    condition: WSSet,
    tuples: Sequence[tuple[Tag, WSDescriptor]] | dict,
    world_table: WorldTable,
    config: ExactConfig | None = None,
    *,
    prune_unrelated: bool = True,
    drop_singleton_new_variables: bool = True,
    merge_equal_new_variables: bool = True,
    memo: None = None,
) -> ConditioningResult:
    """Condition a set of tuple descriptors on a condition ws-set (Figure 8).

    Parameters
    ----------
    condition:
        The ws-set describing the worlds in which the condition holds (e.g.
        obtained from a Boolean query or from the constraint compiler).  It
        must denote a nonempty world-set with nonzero probability, otherwise
        :class:`~repro.errors.ZeroProbabilityConditionError` is raised.
    tuples:
        Either a mapping ``tag -> descriptor`` or a sequence of
        ``(tag, descriptor)`` pairs; tags identify tuples of the U-relations.
    world_table:
        The prior world table (it is not modified).
    config:
        Engine configuration (INDVE/VE, heuristic, ...); defaults to
        ``ExactConfig()``.  ``config.condition_memoize`` (on by default)
        memoises solved subproblems for the length of this run.
    prune_unrelated:
        Return tuple descriptors unchanged as soon as they share no variable
        with the remaining condition (their presence condition is independent
        of it), and delegate confidence-only subproblems to the INDVE engine.
        Disabling it forces every tuple through the full recursion; the result
        is the same, only slower and with redundant rewritten copies.
    drop_singleton_new_variables:
        Simplification rule 2 of Section 5: new variables with a single
        surviving alternative (weight one) are not created at all.
    merge_equal_new_variables:
        Simplification rule 3: new variables derived from the same original
        variable with identical weighted alternatives are merged.
    memo:
        Unused: the memo belongs to the run.  The keyword remains for callers
        that pass :meth:`~repro.core.engine.EngineHandle.conditioning_memo`
        (always ``None``) through.
    """
    config = config or ExactConfig()
    every, tagged, unrelated = _split_unrelated(condition, tuples, prune_unrelated)
    engine = _InternedConditioningEngine(
        world_table,
        config,
        prune_unrelated=prune_unrelated,
        drop_singleton_new_variables=drop_singleton_new_variables,
    )
    interned_condition = engine.space.intern_wsset(condition)
    if config.simplify_subsumed and mixed_sizes(interned_condition):
        interned_condition = remove_subsumed_interned(interned_condition)
    with _span(
        "conditioning",
        tuples=len(tagged),
        condition_descriptors=len(interned_condition),
    ):
        confidence, rewritten_packed = engine.run(
            interned_condition, engine.intern_tuples(tagged)
        )
    # As intern_tuples does for the related ones: a descriptor assigning a
    # value outside its variable's domain denotes no world; drop it.
    variable_ids, value_ids = engine.space.variable_ids, engine.space.value_ids
    alive = []
    for pair in unrelated:
        for variable, value in pair[1].items():
            variable_id = variable_ids.get(variable)
            if variable_id is not None and value not in value_ids[variable_id]:
                break
        else:
            alive.append(pair)
    names, delta_rows, variable_sources = engine.new_variables(
        merge_equal_new_variables, every
    )
    return _conditioning_result(
        confidence,
        delta_rows,
        variable_sources,
        engine.externalize_tuples(rewritten_packed, names),
        every,
        alive,
        engine.stats,
    )


def _split_unrelated(condition: WSSet, tuples, prune_unrelated: bool):
    """The head of a conditioning run: ``(every, related, unrelated)`` pairs.

    Raises :class:`~repro.errors.ZeroProbabilityConditionError` for an empty
    condition.  With ``prune_unrelated`` this is the top-level split of
    cond(), ahead of any interning: a tuple sharing no variable with the
    condition is independent of it and comes back unchanged, so the engine
    never sees (or pays for) it.
    """
    if condition.is_empty:
        raise ZeroProbabilityConditionError(
            "the condition denotes the empty world-set; the posterior is undefined"
        )
    pairs = list(tuples.items()) if isinstance(tuples, dict) else list(tuples)
    every = [(tag, as_descriptor(descriptor)) for tag, descriptor in pairs]
    if not prune_unrelated:
        return every, every, []
    disjoint = condition.variables().isdisjoint
    related: list = []
    unrelated: list = []
    for pair in every:
        (unrelated if disjoint(pair[1]) else related).append(pair)
    return every, related, unrelated


def _conditioning_result(
    confidence: float,
    delta_rows: dict,
    variable_sources: dict,
    rewritten_internal: list,
    every: list,
    unrelated: list,
    stats: DecompositionStats,
) -> ConditioningResult:
    """The tail of a conditioning run: ΔW and the per-tag rewrites.

    ``delta_rows`` / ``variable_sources`` describe the new variables after
    rule 3, ``rewritten_internal`` holds the ``(tag, dict)`` rewrites under
    their names and ``unrelated`` the pairs that pass through unchanged.
    Raises :class:`~repro.errors.ZeroProbabilityConditionError` when the
    condition has probability zero.
    """
    if confidence <= 0.0:
        raise ZeroProbabilityConditionError(
            "the condition has probability zero; the posterior is undefined"
        )
    # Imported here (not at module level) to keep repro.core importable on its
    # own: repro.db.database imports this module in turn.
    from repro.db.world_table import WorldTable

    delta_world_table = WorldTable()
    for variable, distribution in delta_rows.items():
        delta_world_table.add_variable(variable, distribution, normalize=True)

    rewritten: dict = {tag: [] for tag, _ in every}
    for tag, descriptor in rewritten_internal:
        rewritten[tag].append(WSDescriptor(descriptor))
    for tag, descriptor in unrelated:
        rewritten[tag].append(descriptor)

    return ConditioningResult(
        confidence=confidence,
        delta_world_table=delta_world_table,
        rewritten=rewritten,
        variable_sources=variable_sources,
        stats=stats,
    )


class _CondFrame:
    """One suspended ⊕-node of the interned conditioning engine's stack.

    ``branches`` holds the prepared subproblems ``(value_id, weight, subset,
    branch_tuples)``; ``results`` collects the children's ``(confidence,
    rewritten)`` pairs in the same order; ``unrelated`` are the tuples pruned
    at this node, appended unchanged once the node's confidence is known.
    ``memo_key`` is the node's signature in the run's memo (``None`` when
    the node is not memoised), under which ``_finish`` stores its result.
    """

    __slots__ = (
        "variable_id",
        "branches",
        "index",
        "results",
        "unrelated",
        "depth",
        "memo_key",
    )

    def __init__(self, variable_id, branches, unrelated, depth, memo_key):
        self.variable_id = variable_id
        self.branches = branches
        self.index = 0
        self.results = []
        self.unrelated = unrelated
        self.depth = depth
        self.memo_key = memo_key


class _InternedConditioningEngine:
    """The Figure 8 renormalising recursion over packed-int descriptors.

    Renormalises through variable elimination (⊕-nodes) only — independent
    partitioning is exploited solely for the delegated confidence-only
    subproblems (see the module docstring for why the printed ⊗-rule is not
    sound).  Condition descriptors and tuple descriptors are sorted tuples of
    packed assignments in the :meth:`WorldTable.interned` id space, the
    recursion runs on an explicit frame stack (no recursion-limit guard
    needed), per-tuple and per-node variable sets are arbitrary-precision
    bitmasks, and the confidence-only subproblems are delegated to a shared
    :class:`~repro.core.interned.InternedEngine` without leaving the packed
    representation (one memo cache and one budget for the whole run).

    New variables created by the branch re-weighting extend the id space past
    the world table's ids: new variable ``base + k`` re-uses its *source*
    variable's value ids, so the eliminated-variable rewriting is a packed-int
    swap and externalisation recovers the original domain values.  The
    recursion gives them no names: :meth:`new_variables` applies rule 3 and
    names the kept ones once, after :meth:`run`.

    The rewriting itself is **lazy**: instead of materialising every
    rewritten descriptor at every ⊕-node (one copy of each tuple per
    ancestor, a multiplicative fan-out), the recursion
    returns a *rewrite tree* of ``('leaf', records)`` chunks and ``('op',
    var_bit, new_packed | None, children)`` nodes — an ``op`` means "strip
    the eliminated variable and (unless rule 2 dropped the new variable)
    extend with this new assignment, for everything below".  One final walk
    applies the accumulated strip bitmask and the structurally *shared*
    new-assignment chain to each surviving record exactly once, so a chain
    cons happens once per (node, branch) pair instead of once per descriptor
    per level.

    Tuple descriptors assigning a value outside its variable's domain denote
    no possible world; they are dropped at interning time.  Assignments of
    variables unknown to the world table ride along untouched.
    """

    def __init__(
        self,
        world_table: WorldTable,
        config: ExactConfig,
        *,
        prune_unrelated: bool,
        drop_singleton_new_variables: bool,
    ) -> None:
        self.world_table = world_table
        self.config = config
        self.space = world_table.interned()
        self.budget = Budget(config.max_calls, config.time_limit)
        self.stats = DecompositionStats()
        self.prune_unrelated = prune_unrelated
        self.drop_singleton_new_variables = drop_singleton_new_variables
        # One probability engine shared across every delegated confidence-only
        # subproblem: the budget covers the whole run and the memo cache
        # persists across delegated calls (many branches leave identical
        # residual condition ws-sets).
        self.confidence_engine = InternedEngine(world_table, config, budget=self.budget)
        # Condition-descriptor variable masks (shared verbatim between nodes).
        self._condition_masks: dict[PackedDescriptor, int] = {}
        # New variables: id ``base + k`` with source variable id and
        # (normalised) value_id -> weight distribution at index ``k``.
        self._base = len(self.space.variables)
        self._extended_sources: list[int] = []
        self._extended_distributions: list[dict] = []
        # Conditioning-subproblem memo, owned by this run: hits skip whole
        # subtrees of the recursion (sibling ⊕-branches often leave the same
        # residual problem).  Keys are exact content signatures — the sorted
        # residual condition descriptors plus every remaining tuple record's
        # content key — and values ``(confidence, rewrite-tree chunks)``.  A
        # hit shares the chunks, new-variable ids included: the same residual
        # problem yields the same sources and weights, and the two uses sit
        # in different branches of an ancestor ⊕-node, so no world holds
        # both.  ``id(record) -> key`` gives each
        # interned tuple record its content key (``None`` marks a record
        # whose tag or alien values are unhashable, which opts the nodes
        # containing it out of memoisation).
        self._record_keys: dict[int, tuple | None] = {}
        self._memo: dict | None = {} if config.condition_memoize else None

    # -- interning --------------------------------------------------------
    def intern_tuples(self, tagged) -> list[tuple]:
        """Intern ``(tag, WSDescriptor)`` pairs into the engine's record form.

        Returns ``(tag, original, mask, alien)`` records: ``original`` packs
        the assignments of world-table variables, ``mask`` is their variable
        bitmask, ``alien`` (or ``None``) holds assignments of variables the
        world table does not know — they can never meet an eliminated
        variable and are merged back at externalisation.  Pairs whose
        descriptor assigns an out-of-domain value are dropped (they denote no
        world).  Records are immutable: the recursion passes them through
        unchanged and all rewriting happens in the final
        :meth:`externalize_tuples` walk.
        """
        space = self.space
        variable_ids = space.variable_ids
        value_ids = space.value_ids
        shift = space.shift
        record_keys = self._record_keys
        keyed = self._memo is not None
        interned = []
        for tag, descriptor in tagged:
            packed: list[int] = []
            mask = 0
            alien: dict | None = None
            dead = False
            for variable, value in descriptor.items():
                variable_id = variable_ids.get(variable)
                if variable_id is None:
                    if alien is None:
                        alien = {}
                    alien[variable] = value
                    continue
                value_id = value_ids[variable_id].get(value)
                if value_id is None:
                    dead = True
                    break
                packed.append((variable_id << shift) | value_id)
                mask |= 1 << variable_id
            if dead:
                continue
            packed.sort()
            record = (tag, tuple(packed), mask, alien)
            interned.append(record)
            if keyed:
                key: tuple | None
                try:
                    key = (
                        tag,
                        record[1],
                        None if not alien else tuple(sorted(alien.items(), key=repr)),
                    )
                    hash(key)
                except TypeError:
                    key = None
                record_keys[id(record)] = key
        return interned

    def externalize_tuples(self, chunks, names: list) -> list[tuple]:
        """Walk a rewrite tree once, emitting ``(tag, dict)`` pairs.

        The walk threads the accumulated eliminated-variable bitmask and the
        shared new-assignment chain down the tree; each surviving record is
        touched exactly once.  New variable ``base + k`` is written under
        ``names[k]`` (see :meth:`new_variables`).
        """
        space = self.space
        shift = space.shift
        value_mask = space.mask
        base = self._base
        variables = space.variables
        values = space.values
        extended_sources = self._extended_sources
        out = []
        stack = [(chunk, 0, None) for chunk in reversed(chunks)]
        while stack:
            chunk, strip_mask, chain = stack.pop()
            if chunk[0] == "leaf":
                for tag, original, mask, alien in chunk[1]:
                    descriptor: dict = {}
                    for p in original:
                        variable_id = p >> shift
                        if (strip_mask >> variable_id) & 1:
                            continue
                        descriptor[variables[variable_id]] = values[variable_id][
                            p & value_mask
                        ]
                    link = chain
                    while link is not None:
                        p, link = link
                        index = (p >> shift) - base
                        descriptor[names[index]] = values[
                            extended_sources[index]
                        ][p & value_mask]
                    if alien:
                        descriptor.update(alien)
                    out.append((tag, descriptor))
            else:
                _, var_bit, new_packed, children = chunk
                strip_mask |= var_bit
                if new_packed is not None:
                    chain = (new_packed, chain)
                for child in reversed(children):
                    stack.append((child, strip_mask, chain))
        return out

    # -- public entry point ----------------------------------------------
    def run(self, descriptors, tuples):
        """Condition ``tuples`` on the interned ws-set ``descriptors``."""
        stack: list[_CondFrame] = []
        result = self._step(descriptors, tuples, 0, stack)
        while stack:
            frame = stack[-1]
            if result is not None:
                frame.results.append(result)
            if frame.index < len(frame.branches):
                _, _, subset, branch_tuples = frame.branches[frame.index]
                frame.index += 1
                result = self._step(subset, branch_tuples, frame.depth + 1, stack)
            else:
                stack.pop()
                result = self._finish(frame)
        return result

    # -- the iterative recursion ------------------------------------------
    def _step(self, descriptors, tuples, depth, stack):
        """Resolve a node to ``(confidence, rewritten)`` or push an ⊕-frame."""
        self.budget.tick()
        stats = self.stats
        stats.recursive_calls += 1
        if depth > stats.max_depth:
            stats.max_depth = depth

        if not descriptors:
            stats.bottom_nodes += 1
            return 0.0, []
        if () in descriptors:
            # The ∅ leaf: the whole (remaining) world-set survives, no
            # re-weighting is necessary and the tuples pass through unchanged.
            stats.leaf_nodes += 1
            return 1.0, [("leaf", tuples)]

        if self.config.subsumption_every_step:
            descriptors = remove_subsumed_interned(descriptors)

        memo = self._memo
        memo_key = None
        if memo is not None:
            memo_key = self._memo_key(descriptors, tuples)
            if memo_key is not None:
                entry = memo.get(memo_key)
                if entry is not None:
                    stats.memo_hits += 1
                    return entry
                stats.memo_misses += 1

        if self.prune_unrelated:
            condition_mask = self._condition_mask_of(descriptors)
            related = [t for t in tuples if t[2] & condition_mask]
            if not related:
                # Nothing left to rewrite below this point: only the branch
                # confidence matters, so delegate to the shared exact engine.
                confidence = self.confidence_engine.compute_interned(descriptors)
                chunks = [("leaf", tuples)]
                if memo_key is not None:
                    memo[memo_key] = (confidence, chunks)
                return confidence, chunks
            unrelated = [t for t in tuples if not (t[2] & condition_mask)]
            self._push_eliminate(
                descriptors, related, unrelated, depth, stack, memo_key
            )
            return None

        self._push_eliminate(descriptors, tuples, [], depth, stack, memo_key)
        return None

    def _condition_mask_of(self, descriptors) -> int:
        """Union bitmask of the condition descriptors' variables (cached)."""
        shift = self.space.shift
        masks = self._condition_masks
        condition_mask = 0
        for descriptor in descriptors:
            descriptor_mask = masks.get(descriptor)
            if descriptor_mask is None:
                descriptor_mask = 0
                for p in descriptor:
                    descriptor_mask |= 1 << (p >> shift)
                masks[descriptor] = descriptor_mask
            condition_mask |= descriptor_mask
        return condition_mask

    # -- the conditioning-subproblem memo ---------------------------------
    def _memo_key(self, descriptors, tuples):
        """The node's exact content signature, or ``None`` if unkeyable.

        Covers the residual condition in its order — variable-choice ties
        and float summation below the node follow it, so two orders are two
        problems — and the full remaining tuple set, *including* tuples
        about to be pruned as unrelated: the split is a deterministic
        function of the key, so cached chunks embed the pass-through leaf
        too.
        """
        record_keys = self._record_keys
        tuple_keys = []
        for t in tuples:
            key = record_keys.get(id(t))
            if key is None:
                return None
            tuple_keys.append(key)
        return (tuple(descriptors), tuple(tuple_keys))

    def _push_eliminate(self, descriptors, tuples, unrelated, depth, stack, memo_key):
        """⊕-node: pick a variable, prepare its branches, push the frame."""
        space = self.space
        shift = space.shift
        stats = self.stats
        counts = Counter(chain.from_iterable(descriptors))
        if self.prune_unrelated and tuples:
            # Prefer eliminating variables the remaining tuples depend on, so
            # that the rewriting spine stays short and the rest of the
            # condition can be delegated to the confidence-only engine.
            tuple_mask = 0
            for t in tuples:
                tuple_mask |= t[2]
            shared = {
                packed: count
                for packed, count in counts.items()
                if (tuple_mask >> (packed >> shift)) & 1
            }
            if shared:
                counts = shared
        variable_id = self.confidence_engine.select_variable_id(
            counts, len(descriptors)
        )
        stats.eliminated_variables.append(space.variables[variable_id])
        stats.variable_nodes += 1
        weights = space.weights[variable_id]
        split, unmentioned = split_on_variable_interned(
            descriptors, variable_id, shift, len(weights)
        )

        var_bit = 1 << variable_id
        low = variable_id << shift
        branches = []
        for value_id, weight in enumerate(weights):
            if weight == 0.0:
                continue
            subset = split[value_id]
            if subset is None:
                subset = unmentioned
            if not subset:
                # ⊥ branch: no surviving world assigns this value.
                continue
            target = low | value_id
            branch_tuples = []
            for t in tuples:
                if t[2] & var_bit:
                    for p in t[1]:
                        if p >> shift == variable_id:
                            if p == target:
                                branch_tuples.append(t)
                            break
                else:
                    branch_tuples.append(t)
            branches.append((value_id, weight, subset, branch_tuples))
        stack.append(_CondFrame(variable_id, branches, unrelated, depth, memo_key))

    def _finish(self, frame: _CondFrame):
        """Fold a completed ⊕-frame: renormalise and emit rewrite-tree ops."""
        shift = self.space.shift
        variable_id = frame.variable_id
        var_bit = 1 << variable_id

        node_confidence = 0.0
        surviving = []
        for (value_id, weight, _subset, _tuples), (confidence, rewritten) in zip(
            frame.branches, frame.results
        ):
            node_confidence += weight * confidence
            if confidence > 0.0:
                surviving.append((value_id, weight, confidence, rewritten))
        if node_confidence == 0.0:
            if frame.memo_key is not None:
                self._memo[frame.memo_key] = (0.0, [])
            return 0.0, []

        if self.drop_singleton_new_variables and len(surviving) == 1:
            # Simplification rule 2: a single surviving alternative would get
            # weight one; drop the new variable entirely and just strip the
            # eliminated variable from the rewritten descriptors.
            chunks = [("op", var_bit, None, surviving[0][3])]
        else:
            new_id = self._fresh_variable(variable_id)
            distribution = self._extended_distributions[new_id - self._base]
            chunks = []
            for value_id, weight, confidence, branch_rewritten in surviving:
                distribution[value_id] = weight * confidence / node_confidence
                chunks.append(
                    ("op", var_bit, (new_id << shift) | value_id, branch_rewritten)
                )
        if frame.unrelated:
            chunks.append(("leaf", frame.unrelated))
        if frame.memo_key is not None:
            self._memo[frame.memo_key] = (node_confidence, chunks)
        return node_confidence, chunks

    # -- new-variable bookkeeping ----------------------------------------
    def _fresh_variable(self, source_id: int) -> int:
        """Allocate a new variable id derived from the source variable."""
        new_id = self._base + len(self._extended_sources)
        self._extended_sources.append(source_id)
        self._extended_distributions.append({})
        return new_id

    def new_variables(self, merge_equal: bool, tuples) -> tuple[list, dict, dict]:
        """Rule 3 and naming, once, after :meth:`run`.

        Returns ``(names, delta_rows, variable_sources)``: ``names[k]`` is the
        name new variable ``base + k`` is written under (that of the variable
        rule 3 merged it into), ``delta_rows`` maps each kept name to its
        ``{value: weight}`` distribution and ``variable_sources`` to its
        original variable.  Kept variables are named in allocation order,
        ``x'``, ``x''``, ... for a string source and ``(x, "prime", n)``
        otherwise, skipping names the world table or any of the input
        ``(tag, descriptor)`` pairs ``tuples`` already uses.
        """
        sources = dict(enumerate(self._extended_sources))
        distributions = dict(enumerate(self._extended_distributions))
        rename: dict = {}
        if merge_equal:
            distributions, sources, rename = _merge_equal_variables(
                distributions, sources
            )
        variables, values = self.space.variables, self.space.values
        taken: set = set()
        for _, descriptor in tuples:
            taken.update(descriptor)
        world_table = self.world_table
        named: dict[int, Hashable] = {}
        primes: dict[int, int] = {}
        counter = 0
        for k, source_id in sources.items():
            source = variables[source_id]
            if isinstance(source, str):
                count = primes.get(source_id, 0) + 1
                name = source + "'" * count
                while name in world_table or name in taken:
                    count += 1
                    name += "'"
                primes[source_id] = count
            else:
                counter += 1
                name = (source, "prime", counter)
                while name in world_table or name in taken:
                    counter += 1
                    name = (source, "prime", counter)
            taken.add(name)
            named[k] = name
        names = [named[rename.get(k, k)] for k in range(len(self._extended_sources))]
        delta_rows = {
            named[k]: {
                values[sources[k]][value_id]: weight
                for value_id, weight in distribution.items()
            }
            for k, distribution in distributions.items()
        }
        variable_sources = {
            named[k]: variables[source_id] for k, source_id in sources.items()
        }
        return names, delta_rows, variable_sources


def _merge_equal_variables(delta_rows: dict, variable_sources: dict):
    """Simplification rule 3: merge new variables with identical sources and weights.

    ``delta_rows`` maps each new variable (any hashable key: a name, or an
    engine's new-variable index) to its ``{value: weight}`` distribution and
    ``variable_sources`` to its source.  The first of each class is kept.
    Returns the merged ``delta_rows``, the updated ``variable_sources`` and the
    renaming ``dropped variable -> kept variable`` to apply to descriptors.
    """
    representative: dict = {}
    rename: dict = {}
    merged_rows: dict = {}
    merged_sources: dict = {}
    for variable, distribution in delta_rows.items():
        source = variable_sources.get(variable)
        key = (
            source,
            tuple(
                sorted(
                    (
                        (value, round(weight, 12))
                        for value, weight in distribution.items()
                    ),
                    key=lambda item: repr(item[0]),
                )
            ),
        )
        if key in representative:
            rename[variable] = representative[key]
            continue
        representative[key] = variable
        merged_rows[variable] = distribution
        merged_sources[variable] = source
    return merged_rows, merged_sources, rename


def conditioned_world_table(
    world_table: WorldTable,
    result: ConditioningResult,
    used_variables: Iterable | None = None,
) -> WorldTable:
    """Combine the prior world table with the ΔW of a conditioning result.

    ``used_variables``, when given, restricts the output to variables actually
    occurring in the rewritten descriptors (simplification rule 1 of Section
    5); the database facade passes the variables used across *all* of its
    U-relations.
    """
    keep = None if used_variables is None else set(used_variables)
    combined = world_table.merged_with(result.delta_world_table, keep)
    if keep is not None and len(combined) != len(keep):
        missing = keep.difference(combined.variables)
        raise ConditioningError(
            f"rewritten descriptors use variables missing from the world table: {missing!r}"
        )
    return combined


def posterior_probability(
    event: WSSet,
    condition: WSSet,
    world_table: WorldTable,
    config: ExactConfig | None = None,
) -> float:
    """``P(event | condition)`` computed as ``P(event ∧ condition) / P(condition)``.

    This is the two-confidence-computation formulation of the introduction of
    the paper; it does not materialise the conditioned database.
    """
    from repro.core.probability import probability as exact_probability

    joint = exact_probability(event.intersect(condition), world_table, config)
    condition_mass = exact_probability(condition, world_table, config)
    if condition_mass == 0.0:
        raise ZeroProbabilityConditionError(
            "the condition has probability zero; the posterior is undefined"
        )
    result = joint / condition_mass
    # Guard against floating-point drift pushing the ratio slightly above one.
    return min(1.0, result) if result > 1.0 and math.isclose(result, 1.0) else result
