"""Core domain model for negative sequential patterns.

Items are dense integer ids managed by a :class:`Dictionary`; the dictionary's
insertion order is frozen and defines the global item order used to
canonicalize itemsets. Every value type here is immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

RESERVED_CHARS = frozenset("(){}|!<>,#¬")


class NegseqError(Exception):
    """Base class for errors raised by this package."""


class InvalidTokenError(NegseqError):
    """A display token is empty or contains whitespace/reserved characters."""


class EmptyPositiveError(NegseqError):
    """A pattern has an empty positive itemset, or no positives at all."""


def check_token(token: str) -> str:
    """Validate a display token and return it unchanged."""
    if not token:
        raise InvalidTokenError("empty token")
    for ch in token:
        if ch.isspace():
            raise InvalidTokenError(f"token {token!r} contains whitespace")
        if ch in RESERVED_CHARS:
            raise InvalidTokenError(
                f"token {token!r} contains reserved character {ch!r}"
            )
    return token


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
        check_token(token)
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


@dataclass(frozen=True, slots=True)
class Sequence:
    """Ordered itemsets; positions are 1-based in all external reporting."""

    itemsets: tuple[Itemset, ...] = ()
    # The itemsets' bitmasks, built once for the matcher's inner loops.
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "itemsets", tuple(self.itemsets))
        for position, itemset in enumerate(self.itemsets, start=1):
            if not itemset:
                raise ValueError(f"sequence itemset at position {position} is empty")
        object.__setattr__(self, "masks", tuple(it.mask for it in self.itemsets))

    def __len__(self) -> int:
        return len(self.itemsets)

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
        problems = validate_pattern(self)
        if problems:
            if not positives or any(not p for p in positives):
                raise EmptyPositiveError("; ".join(problems))
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "positive_masks", tuple(p.mask for p in positives))
        object.__setattr__(
            self,
            "constrained_slots",
            tuple(
                (i, negative.itemset.mask, negative.mode)
                for i, negative in enumerate(negatives)
                if negative.itemset
            ),
        )


def validate_pattern(pattern: NegPattern) -> list[str]:
    """Validity violations (empty list means valid); construction raises on any.

    The alternating representation makes leading, trailing and adjacent
    negatives unrepresentable, so only emptiness and arity can go wrong.
    """
    positives, negatives = pattern.positives, pattern.negatives
    problems: list[str] = []
    if len(positives) == 0:
        problems.append("pattern has no positive itemsets")
    for index, positive in enumerate(positives, start=1):
        if not positive:
            problems.append(f"positive itemset p{index} is empty")
    if positives and len(negatives) != len(positives) - 1:
        problems.append(
            f"expected {len(positives) - 1} negative slots, got {len(negatives)}"
        )
    return problems


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

    @property
    def combo_index(self) -> int:
        return _COMBO_INDEX[(self.embedding, self.non_inclusion)]

    @property
    def index(self) -> int:
        """Position in the canonical reporting order of the eight relations."""
        return 2 * self.combo_index + (
            1 if self.occurrence is Occurrence.WEAK else 0
        )

    def __repr__(self) -> str:
        return f"Theta({self.spell()!r})"


THETAS: tuple[Theta, ...] = tuple(
    Theta(occurrence, embedding, non_inclusion)
    for embedding, non_inclusion in COMBOS
    for occurrence in (Occurrence.STRONG, Occurrence.WEAK)
)


@dataclass(frozen=True, slots=True)
class SequenceDatabase:
    """Ordered collection of sequences sharing one item dictionary."""

    sequences: tuple[Sequence, ...]
    dictionary: Dictionary

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(self.sequences))
        bound = 1 << len(self.dictionary)
        for index, sequence in enumerate(self.sequences, start=1):
            for itemset in sequence:
                if itemset.mask >= bound:
                    raise ValueError(
                        f"sequence {index} uses items missing from the dictionary"
                    )

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self.sequences)
