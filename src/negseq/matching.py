"""The eight containment relations between negative patterns and sequences.

Builds up from itemset non-inclusion through soft/strict embeddings and
weak/strong occurrence to support counting. All functions are pure; support
over a database could be evaluated per sequence in parallel without changing
the count, though this implementation is sequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .model import (
    COMBOS,
    EmbeddingKind,
    Itemset,
    NegMode,
    NegPattern,
    NegseqError,
    NonInclusion,
    Sequence,
    SequenceDatabase,
    Theta,
    THETAS,
)

# An embedding is a strictly increasing tuple of 1-based sequence positions,
# one per positive itemset of the pattern it embeds.
Embedding = tuple[int, ...]

# Only ``bench/run.py --trace 1`` reads this, to count ``matching.cap_hits``.
DEFAULT_EMBEDDING_CAP = 10**6


class NotAPositiveEmbeddingError(NegseqError):
    """The tuple is not an embedding of the pattern's positive part."""


def non_inclusion(p: Itemset, i: Itemset, kind: NonInclusion) -> bool:
    """Partial: some item of ``p`` is missing from ``i``. Total: disjointness.

    The empty itemset is non-included in everything, under both kinds.
    """
    if not p:
        return True
    if kind is NonInclusion.PARTIAL:
        return p.mask & ~i.mask != 0
    return p.mask & i.mask == 0


def _iter_embeddings(pos_masks: list[int], seq_masks: tuple[int, ...]) -> Iterator[Embedding]:
    """All placements of the positives, in lexicographic position order."""
    m = len(pos_masks)
    n = len(seq_masks)
    if m == 0 or n < m:
        return
    last = m - 1
    # pos[i] is the 1-based position of positive i, which is also the 0-based
    # index where the search for its next position resumes.
    pos = [0] * m
    i = j = 0
    while True:
        pmask = pos_masks[i]
        limit = n - last + i  # leave room for the positives after i
        while j < limit and pmask & ~seq_masks[j]:
            j += 1
        if j < limit:
            j += 1
            pos[i] = j
            if i == last:
                yield tuple(pos)
            else:
                i += 1
        elif i:
            i -= 1
            j = pos[i]
        else:
            return


def _count_embeddings(pos_masks: list[int], seq_masks: tuple[int, ...]) -> int:
    """Number of placements of the positives, in O(k*n) mask tests."""
    # ways[j]: placements of the positives so far within the first j itemsets.
    ways = [1] * (len(seq_masks) + 1)
    for pmask in pos_masks:
        placed = [0]
        for j, smask in enumerate(seq_masks):
            placed.append(placed[j] + ways[j] if pmask & ~smask == 0 else placed[j])
        ways = placed
    return ways[-1]


def positive_embeddings(pplus: NegPattern, s: Sequence) -> list[Embedding]:
    """Every embedding of a positive pattern, in lexicographic order.

    ``pplus`` must carry no negative constraints; use
    :func:`negseq.model.positive_part` first if it does.
    """
    if any(negative.itemset for negative in pplus.negatives):
        raise ValueError("positive_embeddings expects a pattern without negatives")
    return list(_iter_embeddings([p.mask for p in pplus.positives], s.masks))


def gap_union(s: Sequence, e: Embedding, slot: int) -> Itemset:
    """Union of the itemsets strictly between positions e[slot] and e[slot+1].

    ``slot`` is 1-based and must satisfy 1 <= slot < len(e). Adjacent
    positions yield the empty itemset.
    """
    if not 1 <= slot < len(e):
        raise ValueError(f"slot must be in [1, {len(e) - 1}], got {slot}")
    lo, hi = e[slot - 1], e[slot]
    if not 1 <= lo < hi <= len(s):
        raise ValueError(f"positions {e!r} are out of order or out of range")
    mask = 0
    for index in range(lo, hi - 1):
        mask |= s.itemsets[index].mask
    return Itemset(mask)


# The combo a pinned slot mode is evaluated under, as a bit of COMBOS order.
# TOTAL evaluates as strict, which equals soft under total non-inclusion.
_MODE_BIT = {NegMode.STRICT_PARTIAL: 1, NegMode.SOFT_PARTIAL: 2, NegMode.TOTAL: 4}


def _slot_pass4(qmask: int, mode: NegMode | None, gaps: tuple[int, ...]) -> int:
    """4-bit outcome of one negative slot, bit c for the combo COMBOS[c].

    Strict embedding tests the gap union, soft each gap itemset. A slot with
    a pinned mode passes for all four combos or for none.
    """
    union = 0
    for g in gaps:
        union |= g
    if qmask & union == 0:
        bits = 0b1111  # disjoint from every gap itemset
    elif qmask & ~union:
        bits = 0b0011  # partial holds on the union, so on each gap itemset
    elif all(qmask & ~g for g in gaps):
        bits = 0b0010  # only soft partial: no single gap itemset covers qmask
    else:
        bits = 0
    if mode is None:
        return bits
    return 0b1111 if bits & _MODE_BIT[mode] else 0


def _pattern_parts(p: NegPattern) -> tuple[list[int], list[tuple[int, int, NegMode | None]]]:
    """The positives' masks, and (slot, mask, mode) of each constrained slot."""
    slots = [
        (i, negative.itemset.mask, negative.mode)
        for i, negative in enumerate(p.negatives)
        if negative.itemset
    ]
    return [positive.mask for positive in p.positives], slots


def _require_positive_embedding(
    e: Embedding, p: NegPattern, seq_masks: tuple[int, ...]
) -> None:
    k = len(p.positives)
    n = len(seq_masks)
    if len(e) != k:
        raise NotAPositiveEmbeddingError(
            f"expected {k} positions, got {len(e)}"
        )
    prev = 0
    for position, positive in zip(e, p.positives):
        if not prev < position <= n:
            raise NotAPositiveEmbeddingError(
                f"positions {e!r} are not strictly increasing within [1, {n}]"
            )
        if positive.mask & ~seq_masks[position - 1]:
            raise NotAPositiveEmbeddingError(
                f"positive itemset is not included at position {position}"
            )
        prev = position


def check_embedding(
    e: Embedding,
    p: NegPattern,
    s: Sequence,
    embedding: EmbeddingKind,
    nonincl: NonInclusion,
) -> bool:
    """Does embedding ``e`` satisfy the negative constraints of ``p`` in ``s``?

    Soft checks each gap itemset individually; strict checks the gap union.
    ``e`` must embed the positive part (raises NotAPositiveEmbeddingError
    otherwise). A slot with an explicit mode is evaluated under that mode
    regardless of the arguments.
    """
    seq_masks = s.masks
    _require_positive_embedding(e, p, seq_masks)
    bit = 1 << COMBOS.index((embedding, nonincl))
    return all(
        _slot_pass4(qmask, mode, seq_masks[e[i] : e[i + 1] - 1]) & bit
        for i, qmask, mode in _pattern_parts(p)[1]
    )


# Relation bit t is THETAS[t]: strong occurrence under COMBOS[c] is bit 2c,
# weak is bit 2c+1. _SPREAD maps a 4-bit combo set to its strong bits.
_SPREAD = tuple(sum(1 << 2 * c for c in range(4) if x >> c & 1) for x in range(16))
_COMBO_SET = {bits: x for x, bits in enumerate(_SPREAD)}
_STRONG_BITS = _SPREAD[0b1111]
_ALL_BITS = (1 << len(THETAS)) - 1


def _scan(
    pos_masks: list[int],
    slots: list[tuple[int, int, NegMode | None]],
    seq_masks: tuple[int, ...],
    wanted: int,
    combo: int | None = None,
) -> tuple[int, Embedding | None, Embedding | None]:
    """Containment under each relation whose bit is set in ``wanted``.

    One walk over the positive embeddings finds the combos each one passes.
    It stops once every wanted relation is settled: a weak one by its first
    passing embedding, a strong one by its first failing one. Returns the
    relation bits (0 outside ``wanted``), then the first embedding seen to
    pass and the first seen to fail under ``COMBOS[combo]``, if given.
    """
    weak = _COMBO_SET[wanted >> 1 & _STRONG_BITS]
    strong = _COMBO_SET[wanted & _STRONG_BITS]
    combos = weak | strong
    track = 0 if combo is None else 1 << combo
    seen = False
    any4 = 0
    all4 = combos
    witness: Embedding | None = None
    violator: Embedding | None = None
    for e in _iter_embeddings(pos_masks, seq_masks):
        seen = True
        passed = combos
        for i, qmask, mode in slots:
            passed &= _slot_pass4(qmask, mode, seq_masks[e[i] : e[i + 1] - 1])
            if not passed:
                break
        any4 |= passed
        all4 &= passed
        if track:
            if passed & track:
                if witness is None:
                    witness = e
            elif violator is None:
                violator = e
        # Without a constrained slot every embedding passes like the first.
        if any4 & weak == weak and not (all4 & strong and slots):
            break
    if not seen:
        return 0, None, None
    return (_SPREAD[all4] | _SPREAD[any4] << 1) & wanted, witness, violator


@dataclass(frozen=True, slots=True)
class MatchReport:
    """Outcome of one containment test.

    ``witness`` is the first embedding (lexicographically) satisfying the
    negatives and is set when the pattern is contained; ``violator`` is the
    first that does not and is set when it is not contained but has a
    positive embedding. The other field may be None. The embedding count is
    exact.
    """

    contained: bool
    witness: Embedding | None
    violator: Embedding | None
    total_positive_embeddings: int


def contains(p: NegPattern, s: Sequence, theta: Theta) -> MatchReport:
    """Containment of ``p`` in ``s`` under ``theta``, with full reporting.

    Weak occurrence holds when some positive embedding satisfies the
    negatives; strong occurrence requires at least one positive embedding and
    that all of them satisfy the negatives. A pattern whose positive part
    does not occur is not contained under either occurrence.
    """
    pos_masks, slots = _pattern_parts(p)
    bits, witness, violator = _scan(
        pos_masks, slots, s.masks, 1 << theta.index, theta.combo_index
    )
    seen = witness is not None or violator is not None
    total = _count_embeddings(pos_masks, s.masks) if seen else 0
    return MatchReport(bits != 0, witness, violator, total)


def is_contained(p: NegPattern, s: Sequence, theta: Theta) -> bool:
    """Boolean form of :func:`contains`, with short-circuit evaluation."""
    pos_masks, slots = _pattern_parts(p)
    return _scan(pos_masks, slots, s.masks, 1 << theta.index)[0] != 0


def support(p: NegPattern, db: SequenceDatabase, theta: Theta) -> int:
    """Number of database sequences that contain ``p`` under ``theta``."""
    pos_masks, slots = _pattern_parts(p)
    wanted = 1 << theta.index
    count = 0
    for s in db.sequences:
        if _scan(pos_masks, slots, s.masks, wanted)[0]:
            count += 1
    return count


def theta_bits(p: NegPattern, s: Sequence) -> int:
    """Containment under all eight relations at once.

    Bit t is set iff ``p`` is contained in ``s`` under ``THETAS[t]``. Used by
    the verification scans and the all-thetas reports, which would otherwise
    re-enumerate embeddings eight times.
    """
    pos_masks, slots = _pattern_parts(p)
    return _scan(pos_masks, slots, s.masks, _ALL_BITS)[0]


def weak_strong_support(
    p: NegPattern,
    db: SequenceDatabase,
    embedding: EmbeddingKind,
    nonincl: NonInclusion,
) -> tuple[int, int]:
    """(weak, strong) supports in one database pass, sharing embeddings."""
    pos_masks, slots = _pattern_parts(p)
    strong_bit = 1 << 2 * COMBOS.index((embedding, nonincl))
    weak_bit = strong_bit << 1
    weak = 0
    strong = 0
    for s in db.sequences:
        bits = _scan(pos_masks, slots, s.masks, weak_bit | strong_bit)[0]
        if bits & weak_bit:
            weak += 1
        if bits & strong_bit:
            strong += 1
    return weak, strong


def all_theta_supports(p: NegPattern, db: SequenceDatabase) -> tuple[int, ...]:
    """Supports under all eight relations, in canonical THETAS order."""
    counts = [0] * len(THETAS)
    for s in db.sequences:
        bits = theta_bits(p, s)
        for t in range(len(THETAS)):
            if (bits >> t) & 1:
                counts[t] += 1
    return tuple(counts)
