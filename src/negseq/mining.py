"""Canonical pattern enumeration and frequent-pattern mining.

The pruned miner returns exactly the bruteforce result, under all eight
relations. It walks prefix extensions depth first (append a positive itemset,
grow the last positive itemset, put an item into a negative itemset), and
each node hands its children the ids of the sequences that contain it under
the relation, so that a child is decided only where its parent leaves the
answer open (the projection of PrefixSpan, as NegPSpan applies it to negative
patterns). Every relation needs the positive part to embed, and every slot
test is monotone in the negative itemset, which gives three rules:

- positive extension: the child's sequences are among the parent's; below
  ``minsup`` the whole subtree is cut, under every relation;
- opening an empty negative slot, or growing a negative under total
  non-inclusion: the child's sequences are among the parent's; under total
  non-inclusion the negative subtree is cut below ``minsup``;
- growing a non-empty negative under partial non-inclusion: the child's
  sequences include the parent's, so only the positive part's other
  sequences are decided, and nothing is cut.

A positive node also hands down the earliest placement of its positives in
each of its sequences, so that a positive child places only its last
positive, and a negative child decides only its slots on placements that
the positive part computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .model import (
    Dictionary,
    Itemset,
    NegPattern,
    Negative,
    NonInclusion,
    SequenceDatabase,
    Theta,
)
from .matching import _decide_placed, _earliest, _latest, support

# Not called here: ``bench/run.py --trace 1`` patches it on this module by name.
from .matching import weak_strong_support


@dataclass(frozen=True, slots=True)
class PatternBounds:
    """Finite pattern space: alphabet plus size caps, all at least 1."""

    max_positives: int
    max_itemset_size: int
    max_neg_size: int
    alphabet: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(sorted(set(self.alphabet))))
        if self.max_positives < 1 or self.max_itemset_size < 1 or self.max_neg_size < 1:
            raise ValueError("pattern bounds must be at least 1")
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        if any(item < 0 for item in self.alphabet):
            raise ValueError("item ids are non-negative")

    @classmethod
    def for_dictionary(
        cls,
        dictionary: Dictionary,
        max_positives: int = 3,
        max_itemset_size: int = 2,
        max_neg_size: int = 2,
    ) -> "PatternBounds":
        return cls(max_positives, max_itemset_size, max_neg_size, tuple(range(len(dictionary))))


def _grow_last_positive(pattern: NegPattern, item: int) -> NegPattern:
    positives = pattern.positives[:-1] + (
        Itemset(pattern.positives[-1].mask | (1 << item)),
    )
    return NegPattern(positives, pattern.negatives)


def _append_positive(pattern: NegPattern, item: int) -> NegPattern:
    return NegPattern(
        pattern.positives + (Itemset(1 << item),),
        pattern.negatives + (Negative(),),
    )


def _grow_negative(pattern: NegPattern, slot: int, item: int) -> NegPattern:
    negatives = list(pattern.negatives)
    negatives[slot] = Negative(Itemset(negatives[slot].itemset.mask | (1 << item)))
    return NegPattern(pattern.positives, tuple(negatives))


def _negative_extensions(
    pattern: NegPattern, bounds: PatternBounds, last_slot: int, last_item: int
) -> Iterator[tuple[NegPattern, int, int]]:
    """Negative growths continuing the canonical (slot, item) order."""
    slots = len(pattern.positives) - 1
    start = last_slot if last_slot >= 0 else 0
    for slot in range(start, slots):
        if slot == last_slot:
            if len(pattern.negatives[slot].itemset) >= bounds.max_neg_size:
                continue
            floor = last_item
        else:
            floor = -1
        for item in bounds.alphabet:
            if item > floor:
                yield _grow_negative(pattern, slot, item), slot, item


def _positive_extensions(
    pattern: NegPattern, bounds: PatternBounds
) -> Iterator[NegPattern]:
    last = pattern.positives[-1]
    if len(last) < bounds.max_itemset_size:
        top = max(last)
        for item in bounds.alphabet:
            if item > top:
                yield _grow_last_positive(pattern, item)
    if len(pattern.positives) < bounds.max_positives:
        for item in bounds.alphabet:
            yield _append_positive(pattern, item)


def enumerate_patterns(bounds: PatternBounds) -> Iterator[NegPattern]:
    """Every valid pattern within ``bounds``, exactly once, in a fixed order.

    A pattern's canonical construction adds items left to right: the positive
    itemsets first (each in increasing item order), then negative items in
    (slot, item) order. Children of a state continue that construction, so the
    depth-first walk is duplicate-free without a seen-set.
    """

    def walk_positive(pattern: NegPattern) -> Iterator[NegPattern]:
        yield pattern
        for child in _positive_extensions(pattern, bounds):
            yield from walk_positive(child)
        yield from walk_negative(pattern, -1, -1)

    def walk_negative(
        pattern: NegPattern, last_slot: int, last_item: int
    ) -> Iterator[NegPattern]:
        for child, slot, item in _negative_extensions(
            pattern, bounds, last_slot, last_item
        ):
            yield child
            yield from walk_negative(child, slot, item)

    for item in bounds.alphabet:
        yield from walk_positive(NegPattern((Itemset(1 << item),)))


@dataclass(frozen=True, slots=True)
class MiningStats:
    """candidates: patterns whose support was evaluated; support_calls:
    support passes, one per candidate, over the whole database for the
    bruteforce engine and over the sequences its parent leaves open for the
    pruned one; pruned_subtrees: nodes whose extensions were cut."""

    candidates: int = 0
    support_calls: int = 0
    pruned_subtrees: int = 0


@dataclass(frozen=True, slots=True)
class MiningResult:
    frequent: tuple[tuple[NegPattern, int], ...]
    theta: Theta
    minsup: int
    stats: MiningStats


def mine_bruteforce(
    db: SequenceDatabase, theta: Theta, minsup: int, bounds: PatternBounds
) -> MiningResult:
    """Exact frequent set by exhaustive enumeration; the oracle engine."""
    if minsup < 1:
        raise ValueError("minsup must be at least 1")
    frequent: list[tuple[NegPattern, int]] = []
    candidates = 0
    for pattern in enumerate_patterns(bounds):
        candidates += 1
        count = support(pattern, db, theta)
        if count >= minsup:
            frequent.append((pattern, count))
    return MiningResult(
        tuple(frequent), theta, minsup, MiningStats(candidates, candidates, 0)
    )


def _has_positive_extension(pattern: NegPattern, bounds: PatternBounds) -> bool:
    if len(pattern.positives) < bounds.max_positives:
        return True
    last = pattern.positives[-1]
    return len(last) < bounds.max_itemset_size and bounds.alphabet[-1] > max(last)


def _has_negative_extension(
    pattern: NegPattern, bounds: PatternBounds, last_slot: int, last_item: int
) -> bool:
    for _ in _negative_extensions(pattern, bounds, last_slot, last_item):
        return True
    return False


def mine_pruned(
    db: SequenceDatabase, theta: Theta, minsup: int, bounds: PatternBounds
) -> MiningResult:
    """Frequent patterns under any relation, by projected depth-first search.

    Returns exactly what :func:`mine_bruteforce` returns on the same inputs,
    in the same order and with the same supports. A positive node below
    ``minsup`` loses its whole subtree; under total non-inclusion so does a
    negative node below ``minsup``. Under partial non-inclusion, growing a
    negative can only add sequences, so the negative subtree is never cut
    (see the module docstring for the three rules).
    """
    if minsup < 1:
        raise ValueError("minsup must be at least 1")
    wanted = 1 << theta.index
    partial = theta.non_inclusion is NonInclusion.PARTIAL
    seqs = [s.masks for s in db.sequences]
    frequent: list[tuple[NegPattern, int]] = []
    candidates = 0
    pruned = 0

    def visit_negative(
        pattern: NegPattern,
        last_slot: int,
        last_item: int,
        parent_ids: list[int],
        grown: bool,
        first: dict[int, list[int]],
        last: dict[int, list[int]],
    ) -> None:
        # first and last: the positive part's placements, keyed by the ids of
        # the sequences it embeds in. grown: the edge from the parent grew a
        # non-empty negative, rather than opening an empty slot.
        nonlocal candidates, pruned
        candidates += 1
        if grown and partial:
            inside = set(parent_ids)
            ids = [
                i
                for i in first
                if i in inside or _decide_placed(pattern, seqs[i], wanted, first[i], last[i])
            ]
        else:
            ids = [
                i
                for i in parent_ids
                if _decide_placed(pattern, seqs[i], wanted, first[i], last[i])
            ]
        if len(ids) >= minsup:
            frequent.append((pattern, len(ids)))
        elif not partial:
            if _has_negative_extension(pattern, bounds, last_slot, last_item):
                pruned += 1
            return
        for child, slot, item in _negative_extensions(
            pattern, bounds, last_slot, last_item
        ):
            visit_negative(child, slot, item, ids, slot == last_slot, first, last)

    def visit_positive(
        pattern: NegPattern, parent_first: dict[int, list[int]], appended: int
    ) -> None:
        # parent_first: the parent's earliest placements. The child places
        # only its last positive, from the parent's last placement on (one
        # index later when it appended a positive).
        nonlocal candidates, pruned
        candidates += 1
        pos_masks = pattern.positive_masks
        kept = len(pos_masks) - 1
        tail = pos_masks[kept:]
        first = {}
        for i, placed in parent_first.items():
            found = _earliest(tail, seqs[i], placed[-1] + appended)
            if found is not None:
                first[i] = placed[:kept] + found
        if len(first) < minsup:
            if _has_positive_extension(pattern, bounds) or _has_negative_extension(
                pattern, bounds, -1, -1
            ):
                pruned += 1
            return
        frequent.append((pattern, len(first)))
        for child in _positive_extensions(pattern, bounds):
            visit_positive(child, first, len(child.positives) - len(pattern.positives))
        last = None
        for child, slot, item in _negative_extensions(pattern, bounds, -1, -1):
            if last is None:
                ids = list(first)
                last = {i: _latest(pos_masks, seqs[i]) for i in ids}
            visit_negative(child, slot, item, ids, False, first, last)

    # Before the first positive, every sequence is open from index 0 on.
    everywhere = {i: [-1] for i in range(len(seqs))}
    for item in bounds.alphabet:
        visit_positive(NegPattern((Itemset(1 << item),)), everywhere, 1)
    return MiningResult(
        tuple(frequent), theta, minsup, MiningStats(candidates, candidates, pruned)
    )
