"""Subscriptions: conjunctions of range constraints (Section 3.2).

A subscription σ is a conjunction of constraints over numeric
attributes; disjunctions are expressed as separate subscriptions.  Each
constraint is an inclusive range ``[low, high]`` (an equality constraint
has ``low == high``).  A subscription may constrain only a subset of the
attributes — a *partially defined* subscription in the paper's terms;
unconstrained attributes match any value.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.errors import DataModelError
from repro.core.events import Event, EventSpace

_subscription_ids = itertools.count(1)


@dataclasses.dataclass(frozen=True, slots=True)
class Constraint:
    """An inclusive range constraint σ.cᵢ on one attribute.

    Attributes:
        attribute: Index of the constrained attribute in the space.
        low: Smallest matching value.
        high: Largest matching value (``low == high`` is equality).
    """

    attribute: int
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise DataModelError(
                f"constraint range [{self.low}, {self.high}] is empty"
            )
        if self.low < 0:
            raise DataModelError(f"constraint low {self.low} is negative")

    @property
    def span(self) -> int:
        """Number of matching values rᵢ = high - low + 1."""
        return self.high - self.low + 1

    def satisfies(self, value: int) -> bool:
        """True if ``value`` lies within the range."""
        return self.low <= value <= self.high

    def selectivity(self, domain_size: int) -> float:
        """The fraction rᵢ/|Ωᵢ| of the domain this constraint admits.

        Smaller is more selective (Mapping 3 keys off the minimum).
        """
        return self.span / domain_size


def _compiled() -> dataclasses.Field:
    """A derived :class:`Subscription` attribute, set in ``__post_init__``."""
    return dataclasses.field(init=False, repr=False, compare=False)


@dataclasses.dataclass(frozen=True, slots=True)
class Subscription:
    """A conjunction of constraints over an event space.

    Attributes:
        space: The event space the subscription ranges over.
        constraints: One constraint per *constrained* attribute, at most
            one per attribute (a conjunction of two ranges on the same
            attribute collapses to their intersection — callers do that).
        subscription_id: Unique id; rendezvous stores are keyed by it.

    The remaining attributes are the *compiled* predicate: flat bound
    rows derived once from the three fields above, which every matching
    engine and the covering forest loop over in place (they are no part
    of ``==``, ``hash``, ``repr`` or the pickled state).

    Attributes:
        rows: ``(attribute, low, high)`` per constraint, in constraint
            order — the match view: e ∈ σ iff every row admits
            ``e.values[attribute]``.
        proper_rows: The rows narrower than their attribute's domain —
            the cover view.  A full-domain constraint admits every
            value, so for covering it equals no constraint and is
            dropped; the same tuple as ``rows`` when nothing is dropped.
        proper_mask: Bit ``i`` set iff attribute ``i`` has a proper row.
        lows: Effective lower bound of every attribute of the space
            (``0`` where unconstrained).
        highs: Effective upper bound (``size - 1`` where unconstrained).
        anchor: The most selective attribute, ``-1`` without constraints.
    """

    space: EventSpace
    constraints: tuple[Constraint, ...]
    subscription_id: int = dataclasses.field(
        default_factory=lambda: next(_subscription_ids)
    )
    rows: tuple[tuple[int, int, int], ...] = _compiled()
    proper_rows: tuple[tuple[int, int, int], ...] = _compiled()
    proper_mask: int = _compiled()
    lows: tuple[int, ...] = _compiled()
    highs: tuple[int, ...] = _compiled()
    anchor: int = _compiled()

    def __post_init__(self) -> None:
        """Validate the constraints and compile them, in one pass."""
        attributes = self.space.attributes
        dimensions = len(attributes)
        lows = [0] * dimensions
        highs = [attribute.size - 1 for attribute in attributes]
        rows = []
        proper_rows = []
        seen = proper_mask = 0
        # Most selective = minimal rᵢ/|Ωᵢ|; ties break toward the
        # lowest attribute index (see most_selective_attribute).
        anchor = -1
        best_selectivity = 0.0
        for constraint in self.constraints:
            index = constraint.attribute
            if not 0 <= index < dimensions:
                raise DataModelError(
                    f"constraint on attribute {index} outside "
                    f"{dimensions}-dimensional space"
                )
            bit = 1 << index
            if seen & bit:
                raise DataModelError(
                    f"multiple constraints on attribute {index}"
                )
            seen |= bit
            attribute = attributes[index]
            low = attribute.validate_value(constraint.low)
            high = attribute.validate_value(constraint.high)
            row = (index, low, high)
            rows.append(row)
            if low > 0 or high < attribute.size - 1:
                proper_mask |= bit
                proper_rows.append(row)
            lows[index] = low
            highs[index] = high
            selectivity = (high - low + 1) / attribute.size
            if anchor < 0 or selectivity < best_selectivity or (
                selectivity == best_selectivity and index < anchor
            ):
                best_selectivity = selectivity
                anchor = index
        compiled = tuple(rows)
        # Frozen: the derived attributes go in through object.__setattr__.
        put = object.__setattr__
        put(self, "rows", compiled)
        put(
            self,
            "proper_rows",
            compiled if len(proper_rows) == len(rows) else tuple(proper_rows),
        )
        put(self, "proper_mask", proper_mask)
        put(self, "lows", tuple(lows))
        put(self, "highs", tuple(highs))
        put(self, "anchor", anchor)

    def __getstate__(self) -> tuple[EventSpace, tuple[Constraint, ...], int]:
        # Shard workers ship subscriptions over pipes: send the three
        # defining fields, recompile on arrival.
        return self.space, self.constraints, self.subscription_id

    def __setstate__(
        self, state: tuple[EventSpace, tuple[Constraint, ...], int]
    ) -> None:
        put = object.__setattr__
        put(self, "space", state[0])
        put(self, "constraints", state[1])
        put(self, "subscription_id", state[2])
        self.__post_init__()

    @classmethod
    def build(
        cls, space: EventSpace, **ranges: "tuple[int, int] | int | str"
    ) -> "Subscription":
        """Convenience constructor from attribute names.

        Args:
            space: The event space.
            **ranges: ``name=(low, high)`` range constraints,
                ``name=value`` equality constraints, or ``name="text"``
                equality on a string attribute (hashed, footnote 2).
                Range constraints over string attributes are rejected —
                hashing does not preserve order.

        Example:
            >>> space = EventSpace.uniform(("a1", "a2"), 8)
            >>> sigma = Subscription.build(space, a1=(0, 1), a2=(4, 6))
            >>> len(sigma.constraints)
            2
        """
        constraints = []
        for name, bounds in ranges.items():
            index = space.index_of(name)
            attribute = space.attributes[index]
            if isinstance(bounds, str):
                low = high = attribute.coerce(bounds)
            elif isinstance(bounds, int):
                low = high = bounds
            else:
                if attribute.is_string:
                    raise DataModelError(
                        f"range constraint on string attribute {name!r}: "
                        "hashed strings are unordered (use equality)"
                    )
                low, high = bounds
            constraints.append(Constraint(attribute=index, low=low, high=high))
        return cls(space=space, constraints=tuple(constraints))

    @property
    def is_partial(self) -> bool:
        """True if some attribute is unconstrained."""
        return len(self.constraints) < self.space.dimensions

    def constraint_on(self, attribute: int) -> Constraint | None:
        """The constraint on the given attribute index, if any."""
        for constraint in self.constraints:
            if constraint.attribute == attribute:
                return constraint
        return None

    def effective_constraint(self, attribute: int) -> Constraint:
        """The constraint on ``attribute``, defaulting to the full domain.

        The mappings treat an unconstrained attribute as a range over
        the whole domain, which is what makes partially defined
        subscriptions expensive under Mappings 1 and 2 (Section 4.2).
        """
        constraint = self.constraint_on(attribute)
        if constraint is not None:
            return constraint
        domain = self.space.attributes[attribute]
        return Constraint(attribute=attribute, low=0, high=domain.size - 1)

    def most_selective_attribute(self) -> int:
        """Index of the attribute with minimal rᵢ/|Ωᵢ| (Mapping 3).

        Only explicitly constrained attributes are considered; an
        unconstrained attribute has selectivity 1 and can never win
        (unless the subscription is empty, which is rejected upstream).
        Ties break toward the lowest attribute index, deterministically
        across all nodes (the mapping must be computed identically
        system-wide, Section 4.2's "Discussion").
        """
        if self.anchor < 0:
            raise DataModelError("subscription with no constraints")
        return self.anchor

    def matches(self, event: Event) -> bool:
        """True iff the event satisfies every constraint (e ∈ σ).

        The single-call form of the row loop the matching engines run
        over a whole candidate set (:mod:`repro.matching`).
        """
        if event.space is not self.space and event.space != self.space:
            raise DataModelError("event and subscription spaces differ")
        values = event.values
        for attribute, low, high in self.rows:
            if not low <= values[attribute] <= high:
                return False
        return True

    def covers(self, other: "Subscription") -> bool:
        """True iff every event matching ``other`` also matches ``self``.

        The covering relation σ₁ ⊒ σ₂ of the aggregation literature:
        per attribute, σ₁'s effective range (full domain when
        unconstrained) must contain σ₂'s.  It is a partial order up to
        predicate equivalence — reflexive, transitive, and antisymmetric
        modulo full-domain (no-op) constraints.

        Fast path: a single bitmask test rejects the common case where
        ``self`` properly constrains an attribute on which ``other`` is
        effectively unconstrained — ``other`` then admits values outside
        any proper range, so no per-attribute interval check is needed.
        The covering forest runs the same mask-then-rows test in place
        (:meth:`repro.matching.covering.CoveringIndex.add`).
        """
        if other is self:
            return True
        if other.space is not self.space and other.space != self.space:
            raise DataModelError("subscription spaces differ")
        if self.proper_mask & ~other.proper_mask:
            return False
        lows = other.lows
        highs = other.highs
        for attribute, low, high in self.proper_rows:
            if lows[attribute] < low or highs[attribute] > high:
                return False
        return True
