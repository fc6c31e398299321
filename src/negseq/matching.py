"""The eight containment relations between negative patterns and sequences.

Builds up from itemset non-inclusion through soft/strict embeddings and
weak/strong occurrence to support counting. All functions are pure.

Two engines decide containment. The per-sequence core decides one pattern
in one sequence; :func:`contains` (with witness, violator and count),
:func:`is_contained`, :func:`support`, :func:`theta_bits`,
:func:`all_theta_supports` and the bruteforce miner use it. The vertical
engine, ``_Layout``, decides patterns against a list of sequences laid out
as one bit string: :func:`theta_masks` builds ``orders.ContainmentGrid``, the
verification grid, with it, ``mining.mine_pruned`` counts every candidate on
one layout of the database, and the tests check it against the core. Its
strong containment is the sequences that contain the positive part minus
those where some placement fails a slot, each found by one forward pass.

Every relation quantifies over all placements of the positives, of which
there can be exponentially many. No decision enumerates them: one containment
decision, and one witness or violator, costs O(k*n) mask operations for k
positives and n itemsets (see the core below). ``_iter_embeddings``, the
enumeration itself, serves only :func:`positive_embeddings`, the oracle that
tests check the core against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterator

from .model import (
    COMBOS,
    EmbeddingKind,
    Itemset,
    NegMode,
    NegPattern,
    NegseqError,
    NonInclusion,
    Occurrence,
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


def _iter_embeddings(
    pos_masks: tuple[int, ...], seq_masks: tuple[int, ...]
) -> Iterator[Embedding]:
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


def _count_embeddings(
    pos_masks: tuple[int, ...],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
) -> int:
    """Number of placements of the positives. Positive i only sits between
    ``first[i]`` and ``last[i]``, so this costs one mask test per index of
    each window."""
    # ways[x]: placements of the positives so far whose latest one sits at an
    # index at most lo + x. Before the first positive there is one (empty)
    # placement, whatever the index.
    lo = first[0] - 1
    ways = [1]
    for pmask, a, b in zip(pos_masks, first, last):
        placed = []
        count = 0
        end = len(ways) - 1
        for j in range(a, b + 1):
            if not pmask & ~seq_masks[j]:
                x = j - 1 - lo
                count += ways[x] if x < end else ways[end]
            placed.append(count)
        lo = a
        ways = placed
    return ways[-1]


def positive_embeddings(pplus: NegPattern, s: Sequence) -> list[Embedding]:
    """Every embedding of a positive pattern, in lexicographic order.

    ``pplus`` must carry no negative constraints; use
    :func:`negseq.model.positive_part` first if it does. An oracle helper: the
    tests and the lemmas suite check the core against it; the core never calls it.
    """
    if any(negative.itemset for negative in pplus.negatives):
        raise ValueError("positive_embeddings expects a pattern without negatives")
    return list(_iter_embeddings(pplus.positive_masks, s.masks))


def gap_union(s: Sequence, e: Embedding, slot: int) -> Itemset:
    """Union of the itemsets strictly between positions e[slot] and e[slot+1].

    ``slot`` is 1-based and must satisfy 1 <= slot < len(e). Adjacent
    positions yield the empty itemset. An oracle helper: only the tests call it.
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


# The slot test a pinned mode applies. TOTAL tests as strict, which equals
# soft under total non-inclusion.
_MODE_TEST = {NegMode.STRICT_PARTIAL: 1, NegMode.SOFT_PARTIAL: 2, NegMode.TOTAL: 4}

# The slot test each (embedding, non-inclusion) combo of COMBOS applies:
# strict-total and soft-total test the same.
_COMBO_TEST = (1, 2, 4, 4)
# The three slot tests: strict-partial, soft-partial and total.
_TESTS = (1, 2, 4)

# The tests, strongest first, each with the combos (as bits of COMBOS order)
# that a gap passing it passes: it passes every test after it as well.
_STRONGEST_FIRST = ((4, 0b1111), (1, 0b0011), (2, 0b0010))


def _ruled_out(qmask: int, test: int, smask: int) -> int:
    """The items of ``qmask`` that gap itemset ``smask`` rules out under
    ``test``. A gap fails its slot once its itemsets rule out all of
    ``qmask``: strict-partial (1) looks at the union, soft-partial (2) needs
    one itemset that includes ``qmask``, total (4) one that meets it."""
    if test == 1:
        return qmask & smask
    if test == 2:
        return 0 if qmask & ~smask else qmask
    return qmask if qmask & smask else 0


def _gap_fails(qmask: int, test: int, gaps: tuple[int, ...]) -> bool:
    """Do the gap itemsets rule out all of ``qmask`` under ``test``? The
    union holds all of it (strict-partial), one itemset does (soft-partial),
    or one itemset meets it (total)."""
    if test == 1:
        return not qmask & ~reduce(or_, gaps, 0)
    if test == 2:
        for g in gaps:
            if not qmask & ~g:
                return True
        return False
    for g in gaps:
        if qmask & g:
            return True
    return False


def _slot_pass4(qmask: int, mode: NegMode | None, gaps: tuple[int, ...]) -> int:
    """4-bit outcome of one negative slot, bit c for the combo COMBOS[c].

    A slot with a pinned mode passes for all four combos or for none.
    """
    if mode is not None:
        return 0 if _gap_fails(qmask, _MODE_TEST[mode], gaps) else 0b1111
    for test, combos in _STRONGEST_FIRST:
        if not _gap_fails(qmask, test, gaps):
            return combos
    return 0


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
    regardless of the arguments. An oracle helper: the tests and the lemmas
    suite check the core against it; the core never calls it.
    """
    seq_masks = s.masks
    _require_positive_embedding(e, p, seq_masks)
    combo = COMBOS.index((embedding, nonincl))
    index = [position - 1 for position in e]
    return _embedding_pass4(p.constrained_slots, seq_masks, index) >> combo & 1 == 1


def _embedding_pass4(
    slots: tuple[tuple[int, int, NegMode | None], ...],
    seq_masks: tuple[int, ...],
    index: list[int],
) -> int:
    """4-bit outcome of every constrained slot for one embedding, given as
    0-based itemset indices."""
    passed = 0b1111
    for i, qmask, mode in slots:
        passed &= _slot_pass4(qmask, mode, seq_masks[index[i] + 1 : index[i + 1]])
        if not passed:
            break
    return passed


# --- the linear-time core ---------------------------------------------------
#
# Every slot test is monotone in the gap: a gap that fails a slot makes every
# gap that contains it fail too. So no decision needs the embeddings one by
# one. With k positives and n itemsets, each pass below is O(k*n) mask
# operations, and positive i only ever sits between first[i] and last[i], the
# 0-based indices of the greedy earliest and latest placements.


def _earliest(
    pos_masks: tuple[int, ...], seq_masks: tuple[int, ...], j: int = 0
) -> list[int] | None:
    """Greedy earliest placement of each positive from index ``j`` on: the
    lexicographically first embedding, as 0-based indices; None when the
    positives do not embed there."""
    n = len(seq_masks)
    index = []
    for pmask in pos_masks:
        while j < n and pmask & ~seq_masks[j]:
            j += 1
        if j == n:
            return None
        index.append(j)
        j += 1
    return index


def _latest(pos_masks: tuple[int, ...], seq_masks: tuple[int, ...]) -> list[int]:
    """Greedy latest placement of each positive, given that they embed."""
    index = [0] * len(pos_masks)
    j = len(seq_masks)
    for i in range(len(pos_masks) - 1, -1, -1):
        pmask = pos_masks[i]
        j -= 1
        while pmask & ~seq_masks[j]:
            j -= 1
        index[i] = j
    return index


def _slot_tests(p: NegPattern, test: int) -> list[tuple[int, int] | None]:
    """Per slot, the negative's mask and the test a pass applies to it,
    or None for an unconstrained slot. A pinned mode keeps its own test."""
    tests: list[tuple[int, int] | None] = [None] * (len(p.positive_masks) - 1)
    for i, qmask, mode in p.constrained_slots:
        tests[i] = (qmask, _MODE_TEST[mode] if mode else test)
    return tests


def _passing_table(
    pos_masks: tuple[int, ...],
    tests: list[tuple[int, int] | None],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
) -> list[list[int]] | None:
    """Per positive, the ascending indices where it can sit and still
    complete to a placement of itself and the positives after it whose slots
    all pass; None when the first positive has none, that is, when no
    embedding passes.

    Built backward, one level per positive. An index needs only the earliest
    entry of the next level after it, because that gives the shortest gap.
    """
    pmask = pos_masks[-1]
    level = [j for j in range(first[-1], last[-1] + 1) if not pmask & ~seq_masks[j]]
    table = [level]
    for i in range(len(pos_masks) - 2, -1, -1):
        pmask = pos_masks[i]
        if tests[i] is None:
            found = [j for j in range(first[i], level[-1]) if not pmask & ~seq_masks[j]]
        else:
            qmask, test = tests[i]
            found = []
            r = len(level) - 1  # level[r] is the earliest entry after j
            covered = 0  # what the gap from j to level[r] rules out of qmask
            for j in range(level[r] - 1, first[i] - 1, -1):
                if covered != qmask and not pmask & ~seq_masks[j]:
                    found.append(j)
                if r and level[r - 1] == j:
                    r -= 1
                    covered = 0
                elif covered != qmask:
                    covered |= _ruled_out(qmask, test, seq_masks[j])
            found.reverse()
        if not found:
            return None
        table.append(found)
        level = found
    table.reverse()
    return table


def _first_passing(
    pos_masks: tuple[int, ...],
    tests: list[tuple[int, int] | None],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
) -> Embedding | None:
    """The lexicographically first embedding whose slots all pass, if any."""
    table = _passing_table(pos_masks, tests, seq_masks, first, last)
    if table is None:
        return None
    # The earliest entry of the next level after a table entry always passes
    # the slot between them: that is how the entry got into the table.
    index = [table[0][0]]
    for level in table[1:]:
        index.append(level[bisect_right(level, index[-1])])
    return tuple(j + 1 for j in index)


def _first_failing(
    pos_masks: tuple[int, ...],
    tests: list[tuple[int, int] | None],
    seq_masks: tuple[int, ...],
    first: list[int],
    last: list[int],
) -> Embedding | None:
    """The lexicographically first embedding that fails a slot, if any,
    given that ``first``, the greedy earliest placement, passes every slot.

    Some placement fails slot i iff its widest gap fails, the one from
    ``first[i]`` to ``last[i + 1]``, since every slot test is monotone in the
    gap. The first placement that fails slot i then keeps ``first[:i + 1]``,
    puts positive i + 1 at the first index j up to ``last[i + 1]`` that holds
    it and whose gap from ``first[i]`` fails, and places the rest greedily
    from j on. As ``first`` passes slot i, j > ``first[i + 1]``: a later slot
    that can fail keeps ``first[i + 1]`` and so gives an earlier placement.
    The violator therefore comes from the last slot that can fail.
    """
    for i in range(len(tests) - 1, -1, -1):
        if tests[i] is None:
            continue
        qmask, test = tests[i]
        pmask = pos_masks[i + 1]
        covered = 0  # what the gap from first[i] to j rules out of qmask
        for j in range(first[i] + 1, last[i + 1] + 1):
            if covered == qmask and not pmask & ~seq_masks[j]:
                # The rest embeds from j on, since j <= last[i + 1].
                rest = _earliest(pos_masks[i + 1 :], seq_masks, j)
                return tuple(x + 1 for x in first[: i + 1] + rest)
            covered |= _ruled_out(qmask, test, seq_masks[j])
    return None


# Relation bit t is THETAS[t]: strong occurrence under COMBOS[c] is bit 2c,
# weak is bit 2c+1. _SPREAD maps a 4-bit combo set to its strong bits.
_SPREAD = tuple(sum(1 << 2 * c for c in range(4) if x >> c & 1) for x in range(16))
_COMBO_SET = {bits: x for x, bits in enumerate(_SPREAD)}
_STRONG_BITS = _SPREAD[0b1111]
_ALL_BITS = (1 << len(THETAS)) - 1

# The weak passes, weakest test first, with the combos each one decides. An
# embedding that passes a test passes every test before it.
_WEAK_PASSES = ((2, 0b0010), (1, 0b0001), (4, 0b1100))


def _decide(p: NegPattern, seq_masks: tuple[int, ...], wanted: int) -> int:
    """Containment under each relation whose bit is set in ``wanted``.

    Strong: every embedding passes a slot iff the widest gap any embedding
    gives it passes, from the earliest placement of the positive before the
    slot to the latest placement of the one after. Weak: the lexicographically
    first embedding settles the combos it passes; each remaining test gets
    one backward feasibility pass. Returns the relation bits, 0 outside
    ``wanted``.
    """
    pos_masks = p.positive_masks
    first = _earliest(pos_masks, seq_masks)
    if first is None:
        return 0
    slots = p.constrained_slots
    if not slots:
        return wanted
    strong = _COMBO_SET[wanted & _STRONG_BITS]
    weak = _COMBO_SET[wanted >> 1 & _STRONG_BITS]
    found = weak and weak & _embedding_pass4(slots, seq_masks, first)
    if not strong and found == weak:
        return _SPREAD[found] << 1
    last = _latest(pos_masks, seq_masks)
    for i, qmask, mode in slots:
        if not strong:
            break
        strong &= _slot_pass4(qmask, mode, seq_masks[first[i] + 1 : last[i + 1]])
    for test, combos in _WEAK_PASSES:
        if weak & combos & ~found:
            tests = _slot_tests(p, test)
            if _passing_table(pos_masks, tests, seq_masks, first, last) is None:
                break  # no embedding passes the stronger tests either
            found |= weak & combos
    return _SPREAD[strong] | _SPREAD[found] << 1


@dataclass(frozen=True, slots=True)
class MatchReport:
    """Outcome of one containment test.

    ``witness`` is the lexicographically first positive embedding that
    satisfies the negatives under the relation's (embedding, non-inclusion)
    combo, and ``violator`` the first that does not; each is None when there
    is no such embedding. So a weak relation holds iff ``witness`` is set,
    and a strong one iff the count is positive and ``violator`` is None. The
    embedding count is exact.
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
    seq_masks = s.masks
    pos_masks = p.positive_masks
    first = _earliest(pos_masks, seq_masks)
    if first is None:
        return MatchReport(False, None, None, 0)
    last = _latest(pos_masks, seq_masks)
    combo = theta.combo_index
    tests = _slot_tests(p, _COMBO_TEST[combo])
    lexfirst = tuple(j + 1 for j in first)
    if _embedding_pass4(p.constrained_slots, seq_masks, first) >> combo & 1:
        witness = lexfirst
        violator = _first_failing(pos_masks, tests, seq_masks, first, last)
    else:
        witness = _first_passing(pos_masks, tests, seq_masks, first, last)
        violator = lexfirst
    if theta.occurrence is Occurrence.WEAK:
        contained = witness is not None
    else:
        contained = violator is None
    count = _count_embeddings(pos_masks, seq_masks, first, last)
    return MatchReport(contained, witness, violator, count)


def is_contained(p: NegPattern, s: Sequence, theta: Theta) -> bool:
    """Boolean form of :func:`contains`, without the reporting."""
    return _decide(p, s.masks, 1 << theta.index) != 0


def support(p: NegPattern, db: SequenceDatabase, theta: Theta) -> int:
    """Number of database sequences that contain ``p`` under ``theta``."""
    wanted = 1 << theta.index
    count = 0
    for s in db.sequences:
        if _decide(p, s.masks, wanted):
            count += 1
    return count


def theta_bits(p: NegPattern, s: Sequence) -> int:
    """Containment under all eight relations at once.

    Bit t is set iff ``p`` is contained in ``s`` under ``THETAS[t]``. Used by
    the verification scans and the all-thetas reports.
    """
    return _decide(p, s.masks, _ALL_BITS)


def weak_strong_support(
    p: NegPattern,
    db: SequenceDatabase,
    embedding: EmbeddingKind,
    nonincl: NonInclusion,
) -> tuple[int, int]:
    """(weak, strong) supports in one database pass. An oracle helper: the
    tests check it against :func:`all_theta_supports`; the package never calls
    it."""
    strong_bit = 1 << 2 * COMBOS.index((embedding, nonincl))
    weak_bit = strong_bit << 1
    weak = 0
    strong = 0
    for s in db.sequences:
        bits = _decide(p, s.masks, weak_bit | strong_bit)
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


# --- the vertical engine ----------------------------------------------------
#
# The sequences form one bit string: a separator cell before each sequence,
# one cell per itemset, and a separator at the end. A big int over the cells
# is a set of cells, as in SPAM's vertical bitmaps (Ayres, Flannick, Gehrke &
# Yiu, KDD 2002), so one integer operation acts on every sequence at once.
# Each slot test becomes a set of blocker cells, and a reach pass carries the
# positives' possible places across a slot with one add-with-carry run fill
# per blocker set (Allison & Dix, IPL 1986). A pass that reaches the
# separator at the end of a sequence has found the pattern in it. Each slot
# of a pass takes any gap, a passing gap or a failing gap. Weak containment
# is the pass in which every constrained slot passes. Strong containment is
# ``embedded``, the pass with any gaps, minus the failing passes, in which
# one constrained slot fails: e-NSP's reduction of negative support to
# positive containment (Cao, Dong & Zheng, Artificial Intelligence 235, 2016).


def _flood(seeds: int, free: int) -> int:
    """From each seed, the seed, the run of free cells after it and the
    first blocked cell after that run."""
    return (((seeds & free) + free) ^ free) | seeds


class _Layout:
    """The cells of a list of sequences, with the cells of each item the
    patterns use."""

    def __init__(self, sequences: list[Sequence], items: int):
        size = sum(len(s) for s in sequences) + len(sequences) + 1
        # Bit c of a row, little-endian, is cell c.
        rows = {x: bytearray((size + 7) // 8) for x in Itemset(items)}
        self.ends = ends = []  # the cell of each sequence's end separator
        cell = 0
        for s in sequences:
            for mask in s.masks:
                cell += 1
                for x in Itemset(mask & items):
                    rows[x][cell >> 3] |= 1 << (cell & 7)
            cell += 1
            ends.append(cell)
        self.sep = sum(1 << cell for cell in ends) | 1
        self.free = ((1 << size) - 1) ^ self.sep
        self.cells = {x: int.from_bytes(row, "little") for x, row in rows.items()}
        self._positives: dict[int, int] = {}
        self._blockers: dict[tuple[int, int], tuple[int, ...]] = {}

    def positive(self, pmask: int) -> int:
        """The cells that hold every item of ``pmask``."""
        found = self._positives.get(pmask)
        if found is None:
            found = -1
            for x in Itemset(pmask):
                found &= self.cells[x]
            self._positives[pmask] = found
        return found

    def blockers(self, qmask: int, test: int) -> tuple[int, ...]:
        """A slot test on negative ``qmask`` as blocker sets, each given by
        the free cells it leaves. A gap fails once it meets every blocker
        set: strict-partial (1) has one per item, soft-partial (2) the cells
        holding all of them, total (4) the cells holding any."""
        key = (qmask, test)
        found = self._blockers.get(key)
        if found is None:
            cells = [self.cells[x] for x in Itemset(qmask)]
            if test == 2:
                cells = [reduce(and_, cells)]
            elif test == 4:
                cells = [reduce(or_, cells)]
            found = tuple(self.free & ~b for b in cells)
            self._blockers[key] = found
        return found

    def reach(
        self,
        pos_masks: tuple[int, ...],
        gaps: list[tuple[int, int, bool] | None],
    ) -> int:
        """End separators of the sequences where the positives embed with
        each slot's gap as ``gaps`` asks: any gap for None, else a gap that
        passes (``passes`` true) or fails ``test`` on negative ``qmask`` for
        ``(qmask, test, passes)``.

        The cells a pass reaches after a slot are the places of the next
        positive that the gap allows. A passing gap misses some blocker set,
        so it lies in the flood of that set. A failing gap lies in none; it
        is taken from the earliest place of the positive before it, whose
        gaps contain those of every later place, since every slot test is
        monotone in the gap.
        """
        free = self.free
        reach = self.positive(pos_masks[0])
        for pmask, gap in zip(pos_masks[1:], gaps):
            seeds = reach << 1
            after = _flood(seeds, free)
            if gap is not None:
                qmask, test, passes = gap
                if not passes:
                    seeds = (reach & ~after) << 1
                span = 0
                for unblocked in self.blockers(qmask, test):
                    span |= _flood(seeds, unblocked)
                after = span if passes else after & ~span
            reach = after & self.positive(pmask)
            if not reach:
                return 0
        return _flood(reach << 1, free) & self.sep


def theta_masks(
    patterns: list[NegPattern], sequences: list[Sequence]
) -> tuple[list[list[int]], dict[int, int]]:
    """For each pattern, the sequences that contain it under each relation,
    in THETAS order, and the index in ``sequences`` of each end-separator
    cell. A mask holds the end separators of the containing sequences; the
    cells run in sequence order, so the lowest cell is the lowest sequence.

    The vertical engine: it decides each pattern against all the sequences
    at once, in a few big-int operations per slot and test, and agrees
    with :func:`theta_bits` pair by pair. Per slot test it runs one weak
    pass and one failing pass per constrained slot. Patterns with the same
    positives share ``embedded``.
    """
    items = 0
    for p in patterns:
        for pmask in p.positive_masks:
            items |= pmask
        for _, qmask, _ in p.constrained_slots:
            items |= qmask
    layout = _Layout(sequences, items)
    embedded_by: dict[tuple[int, ...], int] = {}
    # One object per distinct mask: a large grid repeats few masks many times.
    shared: dict[int, int] = {}
    rows = []
    for p in patterns:
        pos_masks = p.positive_masks
        any_gaps: list[tuple[int, int, bool] | None] = [None] * (len(pos_masks) - 1)
        if pos_masks not in embedded_by:
            embedded_by[pos_masks] = layout.reach(pos_masks, any_gaps)
        embedded = embedded_by[pos_masks]
        if not embedded or not p.constrained_slots:
            rows.append([shared.setdefault(embedded, embedded)] * len(THETAS))
            continue
        # The sequences where some placement fails a slot under each test. A
        # pinned slot fails or passes alike under all three.
        failing = dict.fromkeys(_TESTS, 0)
        for i, qmask, mode in p.constrained_slots:
            gaps = any_gaps.copy()
            for test in (_MODE_TEST[mode],) if mode else _TESTS:
                gaps[i] = (qmask, test, False)
                fails = layout.reach(pos_masks, gaps)
                for t in _TESTS if mode else (test,):
                    failing[t] |= fails
        weak = {
            test: layout.reach(
                pos_masks, [slot and (*slot, True) for slot in _slot_tests(p, test)]
            )
            for test in _TESTS
        }
        rows.append(
            [
                shared.setdefault(marks, marks)
                for test in _COMBO_TEST
                for marks in (embedded & ~failing[test], weak[test])
            ]
        )
    return rows, {cell: j for j, cell in enumerate(layout.ends)}
