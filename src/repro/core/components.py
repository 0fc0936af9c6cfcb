"""Descriptor-level mirror of the interned engine's entry simplifications.

The cluster coordinator routes confidence targets by descriptor-variable
connected component, and its merged answer is only bit-identical to a
single-node run if its view of the component structure is *exactly* the
engine's.  The engine works on interned (packed-int) descriptors; the
coordinator has no interned space — it sees :class:`~repro.core.descriptors.
WSDescriptor` objects before any server is involved.  This module therefore
replays the engine's entry pipeline at the descriptor level:

* :func:`simplify_descriptors` — first-occurrence deduplication followed by
  subsumption removal, sharing
  :func:`~repro.core.decompose.kept_after_subsumption` (the same size-sorted
  pass the dict and the interned simplifiers use), so the surviving
  descriptors and their order match ``deduplicate_interned`` +
  ``remove_subsumed_interned`` bit for bit;
* :func:`split_components` — the ordering contract of
  ``connected_components_interned``: components in slot-creation order,
  members in join/fuse order, and a single component *in input order* (member
  order differs from fuse order there, and ⊕-node accumulation is
  order-sensitive).

The only divergence from the interned pipeline is deliberate: interning drops
descriptors that assign a value outside its variable's domain
(``intern_items`` returns ``None``) *before* deduplication.  The mirror is
domain-blind — ``docs/cluster.md`` documents the resulting caveat for ad-hoc
targets carrying out-of-domain values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.decompose import kept_after_subsumption

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Sequence

    from repro.core.descriptors import WSDescriptor


def simplify_descriptors(
    descriptors: "Sequence[WSDescriptor]", *, simplify_subsumed: bool = True
) -> "list[WSDescriptor]":
    """Dedup then (optionally) drop subsumed descriptors, preserving order.

    Mirrors the engine's entry simplification (``deduplicate_interned`` and,
    when ``ExactConfig.simplify_subsumed`` is on — the default —
    ``remove_subsumed_interned``): descriptor equality is assignment
    equality, exactly what packed-int equality is after interning.
    """
    seen: set = set()
    unique: list[WSDescriptor] = []
    for descriptor in descriptors:
        if descriptor not in seen:
            seen.add(descriptor)
            unique.append(descriptor)
    if not simplify_subsumed or len(set(map(len, unique))) <= 1:
        return unique
    kept = kept_after_subsumption([set(d.items()) for d in unique])
    return [unique[index] for index in kept]


def split_components(
    descriptors: "list[WSDescriptor]",
) -> "list[list[WSDescriptor]]":
    """Partition into variable-disjoint components, in the engine's order.

    The contract of ``connected_components_interned`` over variables instead
    of variable ids.  **Slot order:** a descriptor sharing no variable with
    the earlier ones opens the next slot, and the result lists the surviving
    slots in creation order.  **Fuse order:** any other descriptor is
    appended to the lowest-numbered slot holding one of its variables, and
    the other slots it touches are then emptied onto that one in ascending
    slot order.  **Input order:** a single surviving component is returned
    as ``[list(descriptors)]``.  The top-level ⊗ merge and every ⊕-node
    under it accumulate in this member order, so any deviation shows up as a
    last-bit difference between cluster and single-node answers.
    """
    slot_of: dict = {}
    redirect: list[int] = []
    members: "list[list[WSDescriptor] | None]" = []
    for descriptor in descriptors:
        first = -1
        touched = None
        for variable in descriptor:
            slot = slot_of.get(variable)
            if slot is not None:
                while redirect[slot] != slot:
                    redirect[slot] = redirect[redirect[slot]]  # path halving
                    slot = redirect[slot]
                if first < 0:
                    first = slot
                elif slot != first:
                    touched = (touched or {first}) | {slot}
        if first < 0:
            first = len(members)
            redirect.append(first)
            members.append([descriptor])
        else:
            # A descriptor touching several slots fuses them into the lowest.
            first, *rest = sorted(touched) if touched else (first,)
            joined = members[first]
            joined.append(descriptor)
            for slot in rest:
                joined.extend(members[slot])
                members[slot] = None
                redirect[slot] = first
        for variable in descriptor:
            slot_of.setdefault(variable, first)
    components = [component for component in members if component]
    return components if len(components) != 1 else [list(descriptors)]


def merge_component_values(values: "Sequence[float]") -> float:
    """The engine's top-level ⊗ merge: ``1 − Π_i (1 − v_i)``, flat, in order.

    A single value is returned verbatim — the engine never wraps a lone
    component in a ⊗-node, so ``1 − (1 − v)`` (which is not ``v`` in
    floating point) must not be applied.
    """
    if len(values) == 1:
        return values[0]
    complement = 1.0
    for value in values:
        complement *= 1.0 - value
    return 1.0 - complement
