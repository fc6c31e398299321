"""Containment written straight from the definitions, to check negseq's answers.

Nothing here imports negseq. Patterns and sequences are read from their text
form, itemsets are frozensets of tokens, and positive placements are
enumerated with ``itertools.combinations``. It is slow on purpose: it runs
untimed, on a seeded sample of each workload's decisions.

A relation is spelled ``occurrence-embedding-noninclusion``. For a placement
``e`` of the positives, the gap of slot i is the itemsets strictly between
``e[i]`` and ``e[i+1]``. A negative q passes a gap when:

* strict-partial: q is not a subset of the gap union;
* strict-total:   q is disjoint from the gap union;
* soft-partial:   q is not a subset of any gap itemset;
* soft-total:     q is disjoint from every gap itemset.

``!{..}`` pins a slot to strict-partial and ``!|..|`` to total, whatever the
relation. Weak occurrence needs one placement passing every slot; strong
occurrence needs at least one placement and every placement passing.
"""

from __future__ import annotations

from itertools import combinations

COMBOS = (("strict", "partial"), ("soft", "partial"), ("strict", "total"), ("soft", "total"))
# The CLI's column order for --all-thetas and report.
THETAS = tuple(
    f"{occ}-{emb}-{incl}" for emb, incl in COMBOS for occ in ("strong", "weak")
)
PINNED = {"{": ("strict", "partial"), "|": ("strict", "total")}
CLOSING = {"(": ")", "{": "}", "|": "|"}
RESERVED = set("(){}|!<>,#¬")


class ReferenceParseError(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in RESERVED:
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in RESERVED:
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _read_group(toks: list[str], i: int, closing: str) -> tuple[frozenset, int]:
    items = []
    while i < len(toks) and toks[i] != closing:
        if toks[i] in RESERVED:
            raise ReferenceParseError(f"unexpected {toks[i]!r}")
        items.append(toks[i])
        i += 1
    if i == len(toks) or not items:
        raise ReferenceParseError("bad itemset")
    return frozenset(items), i + 1


def parse_pattern(text: str):
    """``(positives, negatives)``: positives a tuple of frozensets, negatives
    one ``(frozenset, mode)`` per slot, mode None, '{' or '|'."""
    toks = _tokens(text)
    if len(toks) < 3 or toks[0] != "<" or toks[-1] != ">":
        raise ReferenceParseError(f"not a pattern: {text!r}")
    toks = toks[1:-1]
    positives: list[frozenset] = []
    negatives: list[tuple[frozenset, str | None]] = []
    pending = None
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok in ("!", "¬"):
            bracket = toks[i + 1]
            if bracket in CLOSING:
                itemset, i = _read_group(toks, i + 2, CLOSING[bracket])
                mode = bracket if bracket in PINNED else None
            else:
                itemset, i, mode = frozenset([bracket]), i + 2, None
            if not positives or pending is not None:
                raise ReferenceParseError("misplaced negative")
            pending = (itemset, mode)
            continue
        if tok == "(":
            itemset, i = _read_group(toks, i + 1, ")")
        else:
            itemset, i = frozenset([tok]), i + 1
        if positives:
            negatives.append(pending or (frozenset(), None))
        positives.append(itemset)
        pending = None
    if pending is not None or not positives:
        raise ReferenceParseError(f"not a pattern: {text!r}")
    return tuple(positives), tuple(negatives)


def parse_sequence(text: str) -> tuple[frozenset, ...]:
    toks = _tokens(text)
    itemsets = []
    i = 0
    while i < len(toks):
        if toks[i] == "(":
            itemset, i = _read_group(toks, i + 1, ")")
        else:
            itemset, i = frozenset([toks[i]]), i + 1
        itemsets.append(itemset)
    return tuple(itemsets)


def placements(positives, seq):
    """Every placement of the positive itemsets, in lexicographic order."""
    # A position holding none of the positive itemsets is in no placement.
    usable = [j for j, itemset in enumerate(seq) if any(p <= itemset for p in positives)]
    for e in combinations(usable, len(positives)):
        if all(p <= seq[j] for p, j in zip(positives, e)):
            yield e


def slot_ok(q: frozenset, gaps, embedding: str, nonincl: str) -> bool:
    if not q:
        return True
    if embedding == "strict":
        union = frozenset().union(*gaps)
        return not q <= union if nonincl == "partial" else not q & union
    if nonincl == "partial":
        return all(not q <= g for g in gaps)
    return all(not q & g for g in gaps)


def passes(pattern, seq, e, embedding: str, nonincl: str) -> bool:
    for i, (q, mode) in enumerate(pattern[1]):
        emb, incl = PINNED[mode] if mode else (embedding, nonincl)
        if not slot_ok(q, seq[e[i] + 1 : e[i + 1]], emb, incl):
            return False
    return True


def decide(pattern, seq, theta: str) -> tuple[bool, str]:
    """Containment under ``theta`` and the CLI's ``--explain`` detail: the
    first passing placement when contained, else the first failing one."""
    occ, emb, incl = theta.split("-")
    first = None
    for e in placements(pattern[0], seq):
        if first is None:
            first = e
        ok = passes(pattern, seq, e, emb, incl)
        if occ == "weak" and ok:
            return True, _witness("witness", e)
        if occ == "strong" and not ok:
            return False, _witness("violator", e)
    if first is None:
        return False, "no-positive-embedding"
    if occ == "weak":
        return False, _witness("violator", first)
    return True, _witness("witness", first)


def _witness(kind: str, e) -> str:
    return f"{kind}=(" + " ".join(str(j + 1) for j in e) + ")"


def contained_all(pattern, seq) -> tuple[bool, ...]:
    """Containment under each relation, in THETAS order."""
    any4 = [False] * 4
    all4 = [True] * 4
    seen = False
    for e in placements(pattern[0], seq):
        seen = True
        for c, (emb, incl) in enumerate(COMBOS):
            ok = passes(pattern, seq, e, emb, incl)
            any4[c] = any4[c] or ok
            all4[c] = all4[c] and ok
    out = []
    for c in range(4):
        out += [seen and all4[c], any4[c]]
    return tuple(out)


def support(pattern, db, theta: str) -> int:
    return sum(decide(pattern, seq, theta)[0] for seq in db)


def supports_all(pattern, db) -> tuple[int, ...]:
    counts = [0] * 8
    for seq in db:
        for t, bit in enumerate(contained_all(pattern, seq)):
            counts[t] += bit
    return tuple(counts)


def pattern_key(pattern):
    """Mined patterns carry no slot modes; compare them by their itemsets."""
    return pattern[0], tuple(q for q, _ in pattern[1])


def extensions(key, alphabet, bounds):
    """Every pattern one item larger than ``key`` within ``(max_positives,
    max_itemset_size, max_neg_size)``, as pattern keys."""
    positives, negatives = key
    max_pos, max_itemset, max_neg = bounds
    for i, p in enumerate(positives):
        if len(p) < max_itemset:
            for x in alphabet - p:
                yield positives[:i] + (p | {x},) + positives[i + 1 :], negatives
    if len(positives) < max_pos:
        for x in alphabet:
            yield positives + (frozenset([x]),), negatives + (frozenset(),)
    for i, q in enumerate(negatives):
        if len(q) < max_neg:
            for x in alphabet - q:
                yield positives, negatives[:i] + (q | {x},) + negatives[i + 1 :]


def within(key, bounds) -> bool:
    positives, negatives = key
    max_pos, max_itemset, max_neg = bounds
    return (
        len(positives) <= max_pos
        and all(len(p) <= max_itemset for p in positives)
        and all(len(q) <= max_neg for q in negatives)
    )
