"""Positive relational algebra on U-relations (paper, Section 2, Remark 2.2).

The translation is purely relational:

* selection ``σ_φ R``   →  ``σ_φ U_R``                   (:func:`select`)
* projection ``π_A R``  →  ``π_{WSD, A} U_R``            (:func:`project`)
* join ``R ⋈_φ S``      →  ``U_R ⋈_{φ ∧ ψ} U_S`` where ``ψ`` requires the two
  ws-descriptors to be consistent; the output descriptor is their union
  (:func:`join`, :func:`product`)
* union                 →  union of U-relations          (:func:`union`)
* difference            →  per-value ws-set difference   (:func:`difference`)

Set semantics are at the level of *worlds*: two rows with equal values but
different descriptors both stay in the U-relation (the value is present in the
union of their world-sets).  :func:`collapse_duplicates` can merge them when a
compact representation is preferred.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.core.wsset import WSSet
from repro.db.predicates import Predicate, TruePredicate
from repro.db.urelation import URelation, UTuple
from repro.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.world_table import WorldTable


def select(
    relation: URelation, predicate: Predicate, name: str | None = None
) -> URelation:
    """``σ_predicate(relation)``: keep the rows whose values satisfy the predicate."""
    test = predicate.bind(relation.attributes)
    rows = [row for row in relation if test(row.values)]
    return URelation(name or f"select({relation.name})", relation.attributes, rows)


def project(
    relation: URelation,
    attributes: Sequence[str],
    name: str | None = None,
) -> URelation:
    """``π_attributes(relation)``: keep only the given columns (plus the WSD).

    Projection never merges rows: rows that become value-equal keep their own
    descriptors, so the result still represents the correct world-set for each
    value (use :func:`collapse_duplicates` for a compact form).
    """
    indexes = [relation.attribute_index(a) for a in attributes]
    result = URelation(name or f"project({relation.name})", tuple(attributes))
    for row in relation:
        result.add_tuple(row.project(indexes))
    return result


def project_to_wsset(relation: URelation) -> WSSet:
    """``π_∅(relation)`` as a ws-set: the Boolean-query answer descriptors.

    This is the operation used throughout the experiments: the ws-set of the
    descriptors of all answer tuples, whose probability is the query
    confidence.
    """
    return relation.descriptors()


def rename(
    relation: URelation, renaming: Mapping[str, str], name: str | None = None
) -> URelation:
    """``ρ_renaming(relation)``: rename attributes."""
    return relation.renamed_attributes(renaming, name=name)


def product(
    left: URelation,
    right: URelation,
    name: str | None = None,
) -> URelation:
    """Cartesian product with ws-descriptor consistency.

    Rows combine only when their descriptors are consistent; the combined
    descriptor is the union of the assignments (the ``ψ`` condition of the
    paper's join translation).
    """
    overlap = set(left.attributes) & set(right.attributes)
    if overlap:
        raise SchemaError(
            f"product of {left.name!r} and {right.name!r} has overlapping attributes "
            f"{sorted(overlap)}; rename or prefix them first"
        )
    result = URelation(
        name or f"product({left.name},{right.name})",
        left.attributes + right.attributes,
    )
    right_rows = list(right)
    for left_row in left:
        for right_row in right_rows:
            combined = left_row.descriptor.intersect(right_row.descriptor)
            if combined is None:
                continue
            result.add_tuple(UTuple(combined, left_row.values + right_row.values))
    return result


def join(
    left: URelation,
    right: URelation,
    condition: Predicate | None = None,
    *,
    left_prefix: str | None = None,
    right_prefix: str | None = None,
    name: str | None = None,
) -> URelation:
    """Theta-join ``left ⋈_condition right`` on U-relations.

    The paper's translation, literally: ``σ_condition`` over the
    descriptor-consistent :func:`product`, so the condition is bound to
    ``left.attributes + right.attributes`` and tests each combined value
    tuple.  Attribute names must be disjoint — ``left_prefix`` /
    ``right_prefix`` disambiguate self-joins — and the output descriptor of
    a pair is the union of the two rows' assignments.  :func:`equijoin` is
    the hashed form for attribute equalities.
    """
    if left_prefix:
        left = left.prefixed(left_prefix)
    if right_prefix:
        right = right.prefixed(right_prefix)
    return select(
        product(left, right),
        condition or TruePredicate(),
        name or f"join({left.name},{right.name})",
    )


def equijoin(
    left: URelation,
    right: URelation,
    pairs: Iterable[tuple[str, str]],
    *,
    name: str | None = None,
) -> URelation:
    """Hash-based equi-join on attribute pairs ``(left_attribute, right_attribute)``.

    Functionally a special case of :func:`join` but with a hash index on the
    right-hand side, which is what keeps the TPC-H Q1 benchmark join tractable.
    """
    pair_list = list(pairs)
    overlap = set(left.attributes) & set(right.attributes)
    if overlap:
        raise SchemaError(
            f"equijoin of {left.name!r} and {right.name!r} has overlapping attributes "
            f"{sorted(overlap)}; rename or prefix them first"
        )
    right_index: dict[tuple, list[UTuple]] = {}
    right_key_positions = [right.attribute_index(r) for _, r in pair_list]
    for row in right:
        key = tuple(row.values[i] for i in right_key_positions)
        right_index.setdefault(key, []).append(row)

    left_key_positions = [left.attribute_index(a) for a, _ in pair_list]
    result = URelation(
        name or f"equijoin({left.name},{right.name})",
        left.attributes + right.attributes,
    )
    for left_row in left:
        key = tuple(left_row.values[i] for i in left_key_positions)
        for right_row in right_index.get(key, ()):
            combined = left_row.descriptor.intersect(right_row.descriptor)
            if combined is None:
                continue
            result.add_tuple(UTuple(combined, left_row.values + right_row.values))
    return result


def union(left: URelation, right: URelation, name: str | None = None) -> URelation:
    """Union of two U-relations over the same schema."""
    if left.attributes != right.attributes:
        raise SchemaError(
            f"union requires identical schemas, got {left.attributes} and {right.attributes}"
        )
    result = URelation(name or f"union({left.name},{right.name})", left.attributes)
    for row in left:
        result.add_tuple(row)
    for row in right:
        result.add_tuple(row)
    return result


def difference(
    left: URelation,
    right: URelation,
    world_table: "WorldTable",
    name: str | None = None,
) -> URelation:
    """Difference of two U-relations over the same schema.

    For each value tuple, the worlds in which it belongs to the result are
    the worlds in which it belongs to ``left`` but not to ``right``; this is
    exactly the ws-set difference of Section 3.2 applied per value.
    """
    if left.attributes != right.attributes:
        raise SchemaError(
            f"difference requires identical schemas, got {left.attributes} "
            f"and {right.attributes}"
        )
    right_by_value: dict[tuple, list] = {}
    for row in right:
        right_by_value.setdefault(row.values, []).append(row.descriptor)

    left_by_value: dict[tuple, list] = {}
    for row in left:
        left_by_value.setdefault(row.values, []).append(row.descriptor)

    result = URelation(name or f"difference({left.name},{right.name})", left.attributes)
    for values, descriptors in left_by_value.items():
        left_set = WSSet(descriptors)
        right_set = WSSet(right_by_value.get(values, ()))
        if right_set.is_empty:
            remaining = left_set
        else:
            remaining = left_set.difference(right_set, world_table)
        for descriptor in remaining:
            result.add_tuple(UTuple(descriptor, values))
    return result


def collapse_duplicates(relation: URelation, name: str | None = None) -> URelation:
    """Merge rows with identical values, keeping one row per distinct descriptor.

    The world-set of each value is unchanged (it is the union of the
    descriptors' world-sets either way); this only removes exact duplicate
    ``(descriptor, values)`` pairs and orders rows deterministically.
    """
    seen: dict[tuple, None] = {}
    result = URelation(name or relation.name, relation.attributes)
    for row in relation:
        key = (row.descriptor, row.values)
        if key in seen:
            continue
        seen[key] = None
        result.add_tuple(row)
    return result
