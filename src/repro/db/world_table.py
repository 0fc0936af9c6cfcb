"""World tables: independent finite-domain random variables (paper, Section 2).

A :class:`WorldTable` is the relational representation ``W`` of the paper: the
set of all triples ``(variable, value, probability)`` such that
``probability = P({variable -> value})``.  Variables are independent and range
over finite domains; the probabilities of the alternatives of each variable
sum up to one.

The world table defines the set of possible worlds: a possible world is a
total valuation of the variables, and its probability is the product of the
probabilities of its assignments.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Iterator, Mapping
from typing import Hashable

from repro.errors import (
    InvalidDistributionError,
    UnknownValueError,
    UnknownVariableError,
)

Variable = Hashable
Value = Hashable
Assignment = tuple[Variable, Value]

#: Tolerance used when checking that a variable's alternatives sum to one.
PROBABILITY_TOLERANCE = 1e-9


class WorldTable:
    """The ``W`` relation of the paper: variables, domains and probabilities.

    Parameters
    ----------
    rows:
        Optional iterable of ``(variable, value, probability)`` triples, the
        relational form used in Figure 2 of the paper.  Rows belonging to the
        same variable may appear in any order.
    validate:
        When true (the default), :meth:`validate` is called after loading the
        rows, checking that each variable's probabilities sum to one.

    Examples
    --------
    >>> w = WorldTable()
    >>> w.add_variable("j", {1: 0.2, 7: 0.8})
    >>> w.add_variable("b", {4: 0.3, 7: 0.7})
    >>> w.probability("j", 7)
    0.8
    >>> w.world_count()
    4
    """

    __slots__ = ("_alternatives", "_version", "_interned", "_shared")

    def __init__(
        self,
        rows: Iterable[tuple[Variable, Value, float]] | None = None,
        *,
        validate: bool = True,
    ) -> None:
        self._alternatives: dict[Variable, dict[Value, float]] = {}
        self._version = 0
        self._interned = None
        self._shared = False  # domain dicts may be shared (merged_with())
        if rows is not None:
            for variable, value, probability in rows:
                self.add_alternative(variable, value, probability)
            if validate:
                self.validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(
        self,
        variable: Variable,
        distribution: Mapping[Value, float],
        *,
        normalize: bool = False,
    ) -> None:
        """Add a new variable with the given ``value -> probability`` distribution.

        If ``normalize`` is true the probabilities are rescaled to sum to one;
        otherwise they must already sum to one (within the tolerance).
        """
        if variable in self._alternatives:
            raise InvalidDistributionError(f"variable {variable!r} is already defined")
        if not distribution:
            raise InvalidDistributionError(f"variable {variable!r} has an empty domain")
        items = dict(distribution)
        total = float(sum(items.values()))
        if any(p < 0 for p in items.values()):
            raise InvalidDistributionError(
                f"variable {variable!r} has a negative alternative probability"
            )
        if normalize:
            if total <= 0:
                raise InvalidDistributionError(
                    f"variable {variable!r} has zero total probability; cannot normalize"
                )
            items = {value: p / total for value, p in items.items()}
        elif not math.isclose(
            total, 1.0, abs_tol=PROBABILITY_TOLERANCE * max(1, len(items))
        ):
            raise InvalidDistributionError(
                f"alternatives of variable {variable!r} sum to {total}, expected 1"
            )
        self._alternatives[variable] = {value: float(p) for value, p in items.items()}
        self._version += 1

    def add_boolean(self, variable: Variable, probability: float) -> None:
        """Add a Boolean variable that is true with ``probability``.

        This is the tuple-independent special case: each tuple carries one
        Boolean variable and is present in a world iff its variable is true.
        """
        if not 0.0 <= probability <= 1.0:
            raise InvalidDistributionError(
                f"Boolean probability must be in [0, 1], got {probability}"
            )
        self.add_variable(variable, {True: probability, False: 1.0 - probability})

    def add_alternative(
        self, variable: Variable, value: Value, probability: float
    ) -> None:
        """Add one ``(variable, value, probability)`` row, creating the variable if needed.

        Unlike :meth:`add_variable` this performs no distribution validation;
        call :meth:`validate` once all rows have been loaded.
        """
        if probability < 0:
            raise InvalidDistributionError(
                f"negative probability {probability} for {variable!r} -> {value!r}"
            )
        if self._shared:
            self._alternatives = {v: dict(d) for v, d in self._alternatives.items()}
            self._shared = False
        domain = self._alternatives.setdefault(variable, {})
        if value in domain:
            raise InvalidDistributionError(
                f"duplicate alternative {variable!r} -> {value!r} in world table"
            )
        domain[value] = float(probability)
        self._version += 1

    def set_distribution(
        self,
        variable: Variable,
        distribution: Mapping[Value, float],
        *,
        normalize: bool = False,
    ) -> None:
        """Replace an existing variable's ``value -> probability`` distribution.

        The what-if mutation: re-weight a variable in place (same validation
        as :meth:`add_variable`) and bump the version counter, so engines and
        compiled circuits bound to this table see the change.  The new
        distribution need not cover the old domain — alternatives may be
        added or dropped — but anything referencing dropped values will
        (correctly) stop matching.
        """
        if variable not in self._alternatives:
            raise UnknownVariableError(variable)
        if not distribution:
            raise InvalidDistributionError(f"variable {variable!r} has an empty domain")
        items = dict(distribution)
        total = float(sum(items.values()))
        if any(p < 0 for p in items.values()):
            raise InvalidDistributionError(
                f"variable {variable!r} has a negative alternative probability"
            )
        if normalize:
            if total <= 0:
                raise InvalidDistributionError(
                    f"variable {variable!r} has zero total probability; cannot normalize"
                )
            items = {value: p / total for value, p in items.items()}
        elif not math.isclose(
            total, 1.0, abs_tol=PROBABILITY_TOLERANCE * max(1, len(items))
        ):
            raise InvalidDistributionError(
                f"alternatives of variable {variable!r} sum to {total}, expected 1"
            )
        self._alternatives[variable] = {value: float(p) for value, p in items.items()}
        self._version += 1

    def remove_variable(self, variable: Variable) -> None:
        """Remove a variable and all its alternatives from the world table."""
        if variable not in self._alternatives:
            raise UnknownVariableError(variable)
        del self._alternatives[variable]
        self._version += 1

    def validate(self) -> None:
        """Check every variable's alternatives sum to one (within tolerance)."""
        for variable, domain in self._alternatives.items():
            total = sum(domain.values())
            if not math.isclose(
                total, 1.0, abs_tol=PROBABILITY_TOLERANCE * max(1, len(domain))
            ):
                raise InvalidDistributionError(
                    f"alternatives of variable {variable!r} sum to {total}, expected 1"
                )

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; bumped whenever variables or alternatives change.

        Used to invalidate caches derived from the table, in particular the
        interned integer-id space of :meth:`interned`.
        """
        return self._version

    def interned(self):
        """The dense integer interning of this table's variables and domains.

        Returns a cached :class:`~repro.core.interned.InternedSpace` mapping
        variables and domain values to dense ids, with the alternative
        probabilities stored as dense arrays; the space is rebuilt lazily
        after any mutation.  This is the compiled representation the default
        exact confidence engine runs on.
        """
        # Imported here (not at module level) to keep repro.db importable on
        # its own: repro.core modules import this module in turn.
        from repro.core.interned import InternedSpace

        space = self._interned
        if space is None or space.version != self._version:
            space = InternedSpace(self)
            self._interned = space
        return space

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, variable: Variable) -> bool:
        return variable in self._alternatives

    def __len__(self) -> int:
        return len(self._alternatives)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._alternatives)

    @property
    def variables(self) -> tuple[Variable, ...]:
        """All variables defined by this world table, in insertion order."""
        return tuple(self._alternatives)

    def ordered(self, variables: Iterable[Variable]) -> list[Variable]:
        """Some of this table's ``variables`` in table order: by interned id
        (which follows it) when the space is current, without a table pass."""
        space = self._interned
        if space is not None and space.version == self._version:
            return sorted(variables, key=space.variable_ids.__getitem__)
        chosen = set(variables)
        return [variable for variable in self._alternatives if variable in chosen]

    def domain(self, variable: Variable) -> tuple[Value, ...]:
        """The domain of ``variable``, in insertion order."""
        try:
            return tuple(self._alternatives[variable])
        except KeyError:
            raise UnknownVariableError(variable) from None

    def domain_size(self, variable: Variable) -> int:
        """Number of alternatives of ``variable``."""
        return len(self.distribution(variable))

    def distribution(self, variable: Variable) -> dict[Value, float]:
        """A copy of the ``value -> probability`` mapping of ``variable``."""
        try:
            return dict(self._alternatives[variable])
        except KeyError:
            raise UnknownVariableError(variable) from None

    def probability(self, variable: Variable, value: Value) -> float:
        """``P({variable -> value})``."""
        try:
            domain = self._alternatives[variable]
        except KeyError:
            raise UnknownVariableError(variable) from None
        try:
            return domain[value]
        except KeyError:
            raise UnknownValueError(variable, value) from None

    def assignment_probability(self, assignments: Iterable[Assignment]) -> float:
        """Product of the probabilities of independent assignments.

        This is ``P(d)`` for a world-set descriptor ``d`` given as an iterable
        of ``(variable, value)`` pairs (paper, Section 2).
        """
        probability = 1.0
        for variable, value in assignments:
            probability *= self.probability(variable, value)
        return probability

    def is_singleton(self, variable: Variable) -> bool:
        """True iff ``variable`` has a single alternative (necessarily of weight one)."""
        return self.domain_size(variable) == 1

    def rows(self) -> list[tuple[Variable, Value, float]]:
        """The relational form of the world table: ``(variable, value, probability)`` triples."""
        return [
            (variable, value, probability)
            for variable, domain in self._alternatives.items()
            for value, probability in domain.items()
        ]

    # ------------------------------------------------------------------
    # Worlds
    # ------------------------------------------------------------------
    def world_count(self, variables: Iterable[Variable] | None = None) -> int:
        """Number of total valuations over ``variables`` (default: all variables)."""
        names = self.variables if variables is None else tuple(variables)
        count = 1
        for variable in names:
            count *= self.domain_size(variable)
        return count

    def iter_worlds(
        self, variables: Iterable[Variable] | None = None
    ) -> Iterator[dict[Variable, Value]]:
        """Iterate over all total valuations of ``variables`` (default: all).

        Worlds over many variables are astronomically numerous; this is meant
        for small instances, tests, and the brute-force baseline.
        """
        names = self.variables if variables is None else tuple(variables)
        domains = [self.domain(variable) for variable in names]
        for combination in itertools.product(*domains):
            yield dict(zip(names, combination))

    def world_probability(self, world: Mapping[Variable, Value]) -> float:
        """Probability of a total (or partial) valuation under variable independence."""
        return self.assignment_probability(world.items())

    def sample_world(
        self,
        rng: random.Random,
        variables: Iterable[Variable] | None = None,
    ) -> dict[Variable, Value]:
        """Sample a total valuation of ``variables`` according to the world table."""
        names = self.variables if variables is None else tuple(variables)
        world: dict[Variable, Value] = {}
        for variable in names:
            world[variable] = self.sample_value(rng, variable)
        return world

    def sample_value(self, rng: random.Random, variable: Variable) -> Value:
        """Sample one alternative of ``variable`` according to its distribution."""
        domain = self.distribution(variable)
        values = list(domain)
        weights = list(domain.values())
        return rng.choices(values, weights=weights, k=1)[0]

    # ------------------------------------------------------------------
    # Copying / combination
    # ------------------------------------------------------------------
    def copy(self) -> "WorldTable":
        """An independent deep copy of this world table."""
        clone = WorldTable()
        clone._alternatives = {
            variable: dict(domain) for variable, domain in self._alternatives.items()
        }
        return clone

    def restrict(self, variables: Iterable[Variable]) -> "WorldTable":
        """A new world table containing only the given variables."""
        keep = set(variables)
        clone = WorldTable()
        clone._alternatives = {
            variable: dict(domain)
            for variable, domain in self._alternatives.items()
            if variable in keep
        }
        return clone

    def merged_with(
        self, other: "WorldTable", keep: Iterable[Variable] | None = None
    ) -> "WorldTable":
        """A new world table with the variables of both tables.

        Variables present in both must have identical distributions; ``keep``
        restricts the result to the given variables (``restrict`` in the same
        pass).  This is how conditioning builds the table that replaces this
        one: it shares this table's domain dicts (each side copies them
        before editing one in place), and a current interned space is carried
        over as its :meth:`~repro.core.interned.InternedSpace.successor`:
        every surviving variable keeps its id across the replacement.
        """
        keep = None if keep is None else frozenset(keep)
        added = {}
        for variable, domain in other._alternatives.items():
            if self._alternatives.get(variable, domain) != domain:
                raise InvalidDistributionError(
                    f"variable {variable!r} has conflicting distributions in merged tables"
                )
            if variable not in self._alternatives and (keep is None or variable in keep):
                added[variable] = dict(domain)
        clone = WorldTable()
        clone._alternatives = kept = dict(self._alternatives)
        dropped = set() if keep is None else kept.keys() - keep
        for variable in dropped:
            del kept[variable]
        kept.update(added)
        self._shared = clone._shared = True
        space = self._interned
        if space is not None and space.version == self._version:
            clone._interned = space.successor(clone, dropped, list(added))
        return clone

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldTable):
            return NotImplemented
        return self._alternatives == other._alternatives

    def __repr__(self) -> str:
        return f"WorldTable({len(self._alternatives)} variables, {self.alternative_count()} rows)"

    def alternative_count(self) -> int:
        """Total number of ``(variable, value)`` rows in the world table."""
        return sum(len(domain) for domain in self._alternatives.values())

    def pretty(self) -> str:
        """A human-readable rendering mirroring Figure 2 of the paper."""
        lines = ["Var   Dom   P", "-" * 24]
        for variable, value, probability in self.rows():
            lines.append(f"{variable!s:<6}{value!s:<6}{probability:.6g}")
        return "\n".join(lines)
