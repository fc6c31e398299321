"""A fixed block of pure-Python work, timed just before each operation.

The benchmark host is shared and its speed drifts: for stretches of seconds
to minutes it runs up to a third slower, in this process's CPU time as much as
in its wall time. A fixed block timed just before an operation measures the
host's speed at that moment. The operation's time over the block's is its
cost in blocks, from which most of the drift cancels.

The block mixes what negseq spends its time on: enumerating placements with
frozenset tests in the gaps, and tokenising text into big-int masks. It must
not change, or costs in blocks stop being comparable between commits; it
uses nothing from negseq or the rest of the benchmark for the same reason.
"""

from __future__ import annotations

import statistics
import time
from itertools import combinations

# Share of an operation's warm-up time spent timing blocks before it.
SHARE = 0.1

_SEQUENCE = tuple(frozenset(s.split()) for s in ("a", "a b", "c", "a", "b", "a c", "a", "b d", "a", "c", "a", "a b") * 2)
_NEGATIVE = frozenset("c")
_TEXT = " ".join(f"i{(k * 7919) % 997}" for k in range(400))


def block() -> int:
    at = [i for i, itemset in enumerate(_SEQUENCE) if "a" in itemset]
    placements = 0
    for e in combinations(at, 3):
        if all(not (_NEGATIVE & _SEQUENCE[j]) for a, b in zip(e, e[1:]) for j in range(a + 1, b)):
            placements += 1
    ids: dict[str, int] = {}
    mask = 0
    for token in _TEXT.split():
        mask |= 1 << ids.setdefault(token, len(ids))
    return placements + mask.bit_length()


def block_seconds(reps: int) -> float:
    """Seconds per block over ``reps`` blocks in a row."""
    start = time.perf_counter()
    for _ in range(reps):
        block()
    return (time.perf_counter() - start) / reps


def reps_for(warm_seconds: list[float]) -> list[int]:
    """Blocks to time before each operation: ``SHARE`` of its warm-up time."""
    one = statistics.median(block_seconds(1) for _ in range(21))
    return [max(1, round(SHARE * s / one)) for s in warm_seconds]
