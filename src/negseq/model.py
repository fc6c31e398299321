"""Core domain model for negative sequential patterns.

Items are dense integer ids managed by a :class:`Dictionary`; the dictionary's
insertion order is frozen and defines the global item order used to
canonicalize itemsets. Every value type here is immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from functools import cache
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Iterator

RESERVED_CHARS = frozenset("(){}|!<>,#¬")

# The item-token rule: a run of characters that are neither whitespace nor
# reserved. Python's \s matches exactly the characters that str.isspace accepts.
ITEM_TOKEN = re.compile("[^\\s" + re.escape("".join(sorted(RESERVED_CHARS))) + "]+")


class NegseqError(Exception):
    """Base class for errors raised by this package."""


class InvalidTokenError(NegseqError):
    """A display token is empty or contains whitespace/reserved characters."""


class EmptyPositiveError(NegseqError):
    """A pattern has an empty positive itemset, or no positives at all."""


def check_token(token: str) -> str:
    """Validate a display token and return it unchanged."""
    if ITEM_TOKEN.fullmatch(token):
        return token
    if not token:
        raise InvalidTokenError("empty token")
    # The first character outside the rule words the rejection.
    valid = ITEM_TOKEN.match(token)
    ch = token[valid.end() if valid else 0]
    if ch in RESERVED_CHARS:
        raise InvalidTokenError(f"token {token!r} contains reserved character {ch!r}")
    raise InvalidTokenError(f"token {token!r} contains whitespace")


class Dictionary:
    """Bijection between display tokens and dense item ids.

    Ids are assigned in insertion order, and that order is the global item
    order of every itemset built against this dictionary. Intended use is
    single-writer construction followed by read-only sharing.
    """

    __slots__ = ("_ids", "_tokens")

    def __init__(self, tokens: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        for token in tokens:
            self.add(token)

    def add(self, token: str) -> int:
        """Return the id of ``token``, registering it if unseen."""
        existing = self._ids.get(token)
        if existing is not None:
            return existing
        return self._add_valid(check_token(token))

    def _add_valid(self, token: str) -> int:
        """:meth:`add` without the :func:`check_token` call, for a reader
        that has already checked what it passes (``textio``'s token
        table)."""
        existing = self._ids.get(token)
        if existing is not None:
            return existing
        item = len(self._tokens)
        self._ids[token] = item
        self._tokens.append(token)
        return item

    def id_of(self, token: str) -> int:
        return self._ids[token]

    def token_of(self, item: int) -> str:
        return self._tokens[item]

    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __repr__(self) -> str:
        return f"Dictionary({list(self._tokens)!r})"


@dataclass(frozen=True, slots=True)
class Itemset:
    """Canonical set of items, iterated in increasing item order.

    Stored as a bitmask over item ids, which keeps the subset, union and
    disjointness tests in the matching and mining hot paths cheap.
    """

    mask: int = 0

    @classmethod
    def of(cls, items: Iterable[int]) -> "Itemset":
        mask = 0
        for item in items:
            if item < 0:
                raise ValueError(f"item ids are non-negative, got {item}")
            mask |= 1 << item
        return cls(mask)

    @property
    def items(self) -> tuple[int, ...]:
        return tuple(self)

    def tokens(self, dictionary: Dictionary) -> tuple[str, ...]:
        return tuple(dictionary.token_of(item) for item in self)

    def issubset(self, other: "Itemset") -> bool:
        return self.mask & ~other.mask == 0

    def union(self, other: "Itemset") -> "Itemset":
        return Itemset(self.mask | other.mask)

    __or__ = union

    def __contains__(self, item: int) -> bool:
        return (self.mask >> item) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0


EMPTY_ITEMSET = Itemset(0)


def make_itemset(tokens: Iterable[str], dictionary: Dictionary) -> Itemset:
    """Build a canonical (sorted, deduplicated) itemset from display tokens.

    Unseen tokens are registered in sorted token order, so the result does not
    depend on the order the caller happens to list them in.
    """
    toks = [check_token(token) for token in tokens]
    for token in sorted(set(toks)):
        dictionary.add(token)
    return Itemset.of(dictionary.id_of(token) for token in toks)


class Sequence:
    """Ordered itemsets; positions are 1-based in all external reporting.

    ``masks`` holds the itemsets' bitmasks, and the matcher, the miner and
    the grid read nothing else. A sequence built from itemsets stores both.
    One that a database load built (:meth:`of_masks`) stores only its masks,
    and builds ``itemsets`` the first time it is read, from its load's table.
    Either way ``==``, ``hash`` and ``repr`` go by the itemsets, as for a
    frozen dataclass with the one field ``itemsets``.
    """

    # Not a dataclass: its fields would be slots, and an unset slot can
    # only be filled on read through __getattr__, which slows every read of
    # ``masks`` in the matcher's loops.
    __slots__ = ("_itemsets", "masks", "_table")
    __match_args__ = ("itemsets",)

    def __init__(self, itemsets: Iterable[Itemset] = ()):
        itemsets = tuple(itemsets)
        masks = tuple([it.mask for it in itemsets])
        if 0 in masks:
            position = masks.index(0) + 1
            raise ValueError(f"sequence itemset at position {position} is empty")
        object.__setattr__(self, "_itemsets", itemsets)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def of_masks(
        cls, masks: tuple[int, ...], table: dict[tuple[int, int], Itemset]
    ) -> "Sequence":
        """A sequence of non-zero ``masks`` whose itemsets are built when
        first read. ``table`` is shared by the sequences of one load, so each
        distinct mask reads as one shared Itemset."""
        sequence = object.__new__(cls)
        object.__setattr__(sequence, "_itemsets", None)
        object.__setattr__(sequence, "masks", masks)
        object.__setattr__(sequence, "_table", table)
        return sequence

    @property
    def itemsets(self) -> tuple[Itemset, ...]:
        itemsets = self._itemsets
        if itemsets is None:
            table = self._table
            built = []
            for mask in self.masks:
                # Python hashes an int modulo 2**61 - 1, so the masks of
                # items 61 apart collide; the mask's width as well spreads
                # them.
                key = mask.bit_length(), mask
                itemset = table.get(key)
                if itemset is None:
                    # One step, so a thread reading the same mask meanwhile
                    # gets the same Itemset.
                    itemset = table.setdefault(key, Itemset(mask))
                built.append(itemset)
            itemsets = tuple(built)
            object.__setattr__(self, "_itemsets", itemsets)
        return itemsets

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.itemsets == other.itemsets
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.itemsets,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(itemsets={self.itemsets!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles rebuild from the itemsets, loaded or not.
        return type(self), (self.itemsets,)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self.itemsets)


class NegMode(Enum):
    """Per-slot evaluation mode overriding the pattern-level relation.

    ``SOFT_PARTIAL`` checks partial non-inclusion against each gap itemset,
    ``STRICT_PARTIAL`` checks partial non-inclusion against the gap union, and
    ``TOTAL`` checks total non-inclusion, for which per-itemset and union
    evaluation coincide, so one value covers both.
    """

    SOFT_PARTIAL = "soft-partial"
    STRICT_PARTIAL = "strict-partial"
    TOTAL = "total"


@dataclass(frozen=True, slots=True)
class Negative:
    """One negative slot: a forbidden itemset plus an optional evaluation mode.

    An empty itemset means the slot is unconstrained and its mode is
    canonicalized away; a missing mode means the slot follows the
    pattern-level containment relation.
    """

    itemset: Itemset = EMPTY_ITEMSET
    mode: NegMode | None = None

    def __post_init__(self):
        if not self.itemset and self.mode is not None:
            object.__setattr__(self, "mode", None)


NO_NEGATIVE = Negative()


@dataclass(frozen=True, slots=True)
class NegPattern:
    """Negative sequential pattern: positives p1..pk, negative slots q1..q(k-1).

    Slot i sits between p_i and p_(i+1); an empty slot is the canonical form
    of "no constraint there", so patterns differing only in explicit-empty
    versus absent negatives compare equal. Omitting ``negatives`` fills every
    slot with the empty constraint.
    """

    positives: tuple[Itemset, ...]
    negatives: tuple[Negative, ...] = ()
    # Built once for the matcher: the positives' bitmasks, and the
    # (slot, mask, mode) of every slot with a non-empty negative.
    positive_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    constrained_slots: tuple[tuple[int, int, NegMode | None], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        positives = tuple(self.positives)
        negatives = tuple(self.negatives)
        if not negatives and len(positives) > 1:
            negatives = tuple(NO_NEGATIVE for _ in range(len(positives) - 1))
        object.__setattr__(self, "positives", positives)
        object.__setattr__(self, "negatives", negatives)
        positive_masks = tuple([p.mask for p in positives])
        # The alternating representation makes leading, trailing and adjacent
        # negatives unrepresentable, so only emptiness and arity can go wrong.
        empty = not positive_masks or 0 in positive_masks
        if empty or len(negatives) != len(positives) - 1:
            problems = [
                f"positive itemset p{index} is empty"
                for index, mask in enumerate(positive_masks, start=1)
                if not mask
            ]
            if not positives:
                problems.append("pattern has no positive itemsets")
            elif len(negatives) != len(positives) - 1:
                problems.append(
                    f"expected {len(positives) - 1} negative slots, got {len(negatives)}"
                )
            message = "; ".join(problems)
            raise EmptyPositiveError(message) if empty else ValueError(message)
        object.__setattr__(self, "positive_masks", positive_masks)
        object.__setattr__(
            self,
            "constrained_slots",
            tuple(
                (i, negative.itemset.mask, negative.mode)
                for i, negative in enumerate(negatives)
                if negative.itemset.mask
            ),
        )

    @classmethod
    def of_masks(
        cls, positive_masks: tuple[int, ...], negative_masks: tuple[int, ...],
        itemset: Callable[[int], Itemset], negative: Callable[[int], Negative],
    ) -> "NegPattern":
        """The pattern of non-zero ``positive_masks`` and one negative mask
        per slot, 0 for an empty one, equal to the checked constructor's,
        for a caller whose masks are valid by construction: nothing is
        checked. ``itemset`` and ``negative`` give a mask's shared Itemset
        and Negative; a slot keeps its Negative's mode."""
        pattern = object.__new__(cls)
        negatives = tuple(map(negative, negative_masks))
        put = object.__setattr__
        put(pattern, "positives", tuple(map(itemset, positive_masks)))
        put(pattern, "negatives", negatives)
        put(pattern, "positive_masks", positive_masks)
        constrained = [(i, q, negatives[i].mode) for i, q in enumerate(negative_masks) if q]
        put(pattern, "constrained_slots", tuple(constrained))
        return pattern


def _mask_tables() -> tuple[Callable[[int], Itemset], Callable[[int], Negative]]:
    """Fresh tables of one shared Itemset and one unpinned Negative per
    mask, each made when first asked for, for :meth:`NegPattern.of_masks`."""
    itemset = cache(Itemset)
    return itemset, cache(lambda q: Negative(itemset(q)))


def positive_part(pattern: NegPattern) -> NegPattern:
    """The pattern with every negative slot erased. Idempotent."""
    return NegPattern(pattern.positives)


def pattern_length(pattern: NegPattern) -> int:
    """Number of non-empty itemsets, positive or negative."""
    return len(pattern.positives) + sum(
        1 for negative in pattern.negatives if negative.itemset
    )


def singleton_negatives_only(pattern: NegPattern) -> bool:
    return all(len(negative.itemset) <= 1 for negative in pattern.negatives)


class Occurrence(Enum):
    WEAK = "weak"
    STRONG = "strong"


class EmbeddingKind(Enum):
    SOFT = "soft"
    STRICT = "strict"


class NonInclusion(Enum):
    PARTIAL = "partial"
    TOTAL = "total"


# (embedding, non-inclusion) combos in canonical reporting order.
COMBOS: tuple[tuple[EmbeddingKind, NonInclusion], ...] = (
    (EmbeddingKind.STRICT, NonInclusion.PARTIAL),
    (EmbeddingKind.SOFT, NonInclusion.PARTIAL),
    (EmbeddingKind.STRICT, NonInclusion.TOTAL),
    (EmbeddingKind.SOFT, NonInclusion.TOTAL),
)

_COMBO_INDEX = {combo: index for index, combo in enumerate(COMBOS)}


@dataclass(frozen=True, slots=True)
class Theta:
    """One of the eight containment relations: occurrence x embedding x non-inclusion."""

    occurrence: Occurrence
    embedding: EmbeddingKind
    non_inclusion: NonInclusion
    # Computed once, as each read would hash two enum members: the combo's
    # position in COMBOS, and the relation's in the canonical reporting
    # order of the eight relations.
    combo_index: int = field(init=False, repr=False, compare=False)
    index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        combo = _COMBO_INDEX[(self.embedding, self.non_inclusion)]
        object.__setattr__(self, "combo_index", combo)
        object.__setattr__(self, "index", 2 * combo + (self.occurrence is Occurrence.WEAK))

    def spell(self) -> str:
        """Canonical spelling, e.g. ``weak-strict-total``."""
        return (
            f"{self.occurrence.value}-{self.embedding.value}-{self.non_inclusion.value}"
        )

    @classmethod
    def parse(cls, text: str) -> "Theta":
        parts = text.strip().lower().split("-")
        if len(parts) != 3:
            raise ValueError(
                "theta must be spelled occurrence-embedding-noninclusion, "
                f"e.g. weak-strict-total; got {text!r}"
            )
        try:
            return cls(Occurrence(parts[0]), EmbeddingKind(parts[1]), NonInclusion(parts[2]))
        except ValueError:
            raise ValueError(f"unknown containment relation {text!r}") from None

    def __repr__(self) -> str:
        return f"Theta({self.spell()!r})"


THETAS: tuple[Theta, ...] = tuple(
    Theta(occurrence, embedding, non_inclusion)
    for embedding, non_inclusion in COMBOS
    for occurrence in (Occurrence.STRONG, Occurrence.WEAK)
)


@dataclass(frozen=True, slots=True)
class SequenceDatabase:
    """Ordered collection of sequences sharing one item dictionary.

    Construction checks that every item id of every sequence has a token in
    the dictionary, so no mask reaches ``1 << len(dictionary)``, and raises
    ValueError naming the first sequence that fails.
    """

    sequences: tuple[Sequence, ...]
    dictionary: Dictionary

    def __post_init__(self):
        sequences = tuple(self.sequences)
        object.__setattr__(self, "sequences", sequences)
        bound = 1 << len(self.dictionary)
        # One C-level pass over every mask; the failing sequence is looked
        # for only when the check fails.
        masks = chain.from_iterable(map(attrgetter("masks"), sequences))
        if max(masks, default=0) >= bound:
            index = next(
                index
                for index, sequence in enumerate(sequences, start=1)
                if max(sequence.masks, default=0) >= bound
            )
            raise ValueError(f"sequence {index} uses items missing from the dictionary")

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self.sequences)
