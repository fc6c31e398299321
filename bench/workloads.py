"""Seeded inputs and the fixed operation list of each benchmark workload.

A workload is a function of its seed alone. It returns the files to write and
the operations of one pass; negseq only ever sees those files and argv. Each
operation carries its expected exit code and an untimed check of its stdout
and stderr against the reference in ``reference.py`` (or, for the
verification suites, a hand-written expected outcome).

A workload may also carry probes: inputs with a hand-written expected outcome
that negseq is known to get wrong (the two ROADMAP inputs of ``dense``). They
run once, untimed, outside the passes, and are reported as known defects
rather than counted as failed operations.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Callable

import reference as ref

# (stdout, stderr, ctx) -> a failure reason, or None when the answer is right.
# ``ctx.lib`` is the imported negseq package and ``ctx.stdout(label)`` the
# output of another operation of the pass.
Check = Callable[[str, str, object], "str | None"]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Check
    exit_code: int = 0


@dataclass
class Workload:
    params: dict
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    probes: list[Op] = field(default_factory=list)
    # The generated databases, as sequences of frozensets of tokens.
    dbs: list = field(default_factory=list)

    def write(self) -> None:
        for path, text in self.files.items():
            Path(path).write_text(text, encoding="utf-8")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"negseq-bench/{workload}/{seed}")


def _render_itemset(itemset) -> str:
    items = sorted(itemset)
    return items[0] if len(items) == 1 else "(" + " ".join(items) + ")"


def _db_text(db) -> str:
    return "".join(" ".join(_render_itemset(i) for i in seq) + "\n" for seq in db)


def _pattern_text(positives, negatives) -> str:
    parts = [_render_itemset(positives[0])]
    for (q, mode), p in zip(negatives, positives[1:]):
        if q:
            body = " ".join(sorted(q))
            if mode == "{":
                parts.append("!{" + body + "}")
            elif mode == "|":
                parts.append("!|" + body + "|")
            else:
                parts.append("!" + body if len(q) == 1 else "!(" + body + ")")
        parts.append(_render_itemset(p))
    return "<" + " ".join(parts) + ">"


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    return sorted(rng.sample(range(n), min(n, k)))


# ---------------------------------------------------------------------------
# Checks built on the reference
# ---------------------------------------------------------------------------


def _lines(stdout: str) -> list[str]:
    return stdout.split("\n")[:-1] if stdout.endswith("\n") else stdout.split("\n")


def check_match(db, pattern_text: str, theta: str | None, explain: bool, sample) -> Check:
    """``match`` output: header, one line per sequence, sampled lines rechecked."""
    pattern = ref.parse_pattern(pattern_text)
    if theta is None:
        header = "seq," + ",".join(ref.THETAS)
    else:
        header = "seq,contained" + (",detail" if explain else "")

    def check(stdout, stderr, ctx):
        lines = _lines(stdout)
        if not lines or lines[0] != header:
            return "match: bad header"
        if len(lines) != len(db) + 1:
            return f"match: {len(lines) - 1} rows for {len(db)} sequences"
        for j in sample:
            if theta is None:
                bits = ref.contained_all(pattern, db[j])
                want = f"{j + 1}," + ",".join(str(b).lower() for b in bits)
            else:
                contained, detail = ref.decide(pattern, db[j], theta)
                want = f"{j + 1},{str(contained).lower()}" + (f",{detail}" if explain else "")
            if lines[j + 1] != want:
                return f"match: sequence {j + 1}: got {lines[j + 1]!r}, reference {want!r}"
        return None

    return check


def check_count(match_label: str) -> Check:
    """``support`` agrees with the ``true`` rows of the same query under
    ``match``, whose rows are rechecked on a sample."""

    def check(stdout, stderr, ctx):
        rows = _lines(ctx.stdout(match_label))[1:]
        want = sum(1 for row in rows if row.split(",")[1] == "true")
        return None if stdout == f"{want}\n" else f"support: got {stdout!r}, {want} rows of {match_label} are true"

    return check


def check_support(db, pattern_text: str, theta: str | None) -> Check:
    pattern = ref.parse_pattern(pattern_text)

    def check(stdout, stderr, ctx):
        if theta is None:
            want = ",".join(ref.THETAS) + "\n" + ",".join(map(str, ref.supports_all(pattern, db))) + "\n"
        else:
            want = f"{ref.support(pattern, db, theta)}\n"
        return None if stdout == want else f"support: got {stdout!r}, reference {want!r}"

    return check


def check_report(db, pattern_texts: list[str], fmt: str) -> Check:
    patterns = [ref.parse_pattern(t) for t in pattern_texts]

    def check(stdout, stderr, ctx):
        rows = _lines(stdout)[1:]
        if len(rows) != len(patterns):
            return f"report: {len(rows)} rows for {len(patterns)} patterns"
        for row, pattern in zip(rows, patterns):
            cells = row.split(",") if fmt == "csv" else row.split()
            got = tuple(int(c) for c in cells[-8:])
            want = ref.supports_all(pattern, db)
            if got != want:
                return f"report: got {got}, reference {want}"
        return None

    return check


def check_mine(db, theta: str, minsup: int, bounds, rng: random.Random, samples: int) -> Check:
    """Every mined pattern is within the bounds and has support >= minsup;
    sampled frequent patterns have the reported support, and sampled pruned
    candidates (one-item extensions of frequent patterns that were not
    reported) are infrequent."""
    alphabet = frozenset().union(*(i for seq in db for i in seq))
    seed = rng.random()

    def as_pattern(key):
        return key[0], tuple((q, None) for q in key[1])

    def check(stdout, stderr, ctx):
        lines = _lines(stdout)
        if not lines or lines[0] != "pattern,support":
            return "mine: bad header"
        mined = {}
        for line in lines[1:]:
            text, _, count = line.rpartition(",")
            key = ref.pattern_key(ref.parse_pattern(text))
            if key in mined or not ref.within(key, bounds) or int(count) < minsup:
                return f"mine: bad row {line!r}"
            mined[key] = int(count)
        m = re.search(r"frequent=(\d+)", stderr)
        if not m or int(m.group(1)) != len(mined):
            return "mine: statistics line disagrees with the output"
        pick = random.Random(seed)
        keys = sorted(mined, key=repr)
        for key in pick.sample(keys, min(samples, len(keys))):
            want = ref.support(as_pattern(key), db, theta)
            if want != mined[key]:
                return f"mine: support {mined[key]} of a frequent pattern, reference {want}"
        roots = [((frozenset([x]),), ()) for x in alphabet]
        border = {
            ext
            for key in keys
            for ext in ref.extensions(key, alphabet, bounds)
            if ext not in mined
        } | {r for r in roots if r not in mined}
        border = sorted(border, key=repr)
        for key in pick.sample(border, min(samples, len(border))):
            want = ref.support(as_pattern(key), db, theta)
            if want >= minsup:
                return f"mine: missed a pattern of support {want}"
        return None

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _random_db(rng, n, length, alphabet, weights, pair_p):
    """Sequence i has lo + (i mod (hi - lo + 1)) itemsets, a share ``pair_p``
    of them with two items; only the items and the order are drawn. Fixing the
    sizes keeps the work of a pass from varying with the seed."""
    cum = list(accumulate(weights))
    lo, hi = length
    db = []
    for i in range(n):
        size = lo + i % (hi - lo + 1)
        pairs = round(pair_p * size)
        seq = []
        for width in rng.sample([2] * pairs + [1] * (size - pairs), size):
            items = set()
            while len(items) < width:
                items.add(rng.choices(alphabet, cum_weights=cum)[0])
            seq.append(frozenset(items))
        db.append(tuple(seq))
    return db


MINE = dict(
    sequences=100,
    itemsets=(5, 15),
    items=8,
    pair_p=0.3,
    minsup=40,
    total_bounds=(3, 2, 1),
    partial_bounds=(2, 1, 2),
)


def mine(seed: int, workdir: Path) -> Workload:
    """Sparse database; three full mining runs per pass."""
    p = MINE
    rng = _rng("mine", seed)
    alphabet = [chr(ord("a") + i) for i in range(p["items"])]
    db = _random_db(rng, p["sequences"], p["itemsets"], alphabet, [1] * len(alphabet), p["pair_p"])
    path = str(workdir / "mine.txt")
    w = Workload(p, {path: _db_text(db)}, dbs=[db])
    for label, theta, engine, bounds in (
        ("mine.weak_total", "weak-strict-total", "pruned", p["total_bounds"]),
        ("mine.strong_total", "strong-strict-total", "pruned", p["total_bounds"]),
        ("mine.partial", "weak-strict-partial", "bruteforce", p["partial_bounds"]),
    ):
        argv = (
            "mine", "--db", path, "--theta", theta, "--minsup", str(p["minsup"]),
            "--engine", engine, "--max-positives", str(bounds[0]),
            "--max-itemset-size", str(bounds[1]), "--max-neg-size", str(bounds[2]),
        )
        w.ops.append(Op(label, argv, check_mine(db, theta, p["minsup"], bounds, rng, 8)))
    return w


QUERY = dict(
    sequences=1000,
    itemsets=(5, 15),
    universe=10_000,
    zipf_s=1.0,
    pair_p=0.3,
    rounds=4,
    sample=40,
)


def _sub_pattern(rng, db, k_range, head, neg_p, pinned_p):
    """A pattern whose positive part occurs in some sequence of ``db``. Half
    of its negatives come from the gaps of that occurrence, so that they
    decide the answer there; the others from the frequent ``head`` items."""
    while True:
        seq = rng.choice(db)
        k = rng.randint(*k_range)
        if len(seq) >= k:
            break
    positions = sorted(rng.sample(range(len(seq)), k))
    positives = []
    for j in positions:
        items = sorted(seq[j])
        positives.append(frozenset(items) if len(items) > 1 and rng.random() < 0.3 else frozenset([rng.choice(items)]))
    negatives = []
    for a, b in zip(positions, positions[1:]):
        if rng.random() >= neg_p:
            negatives.append((frozenset(), None))
            continue
        gap = sorted(frozenset().union(*seq[a + 1 : b]))
        pool = gap if gap and rng.random() < 0.5 else head
        q = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
        mode = rng.choice(["{", "|"]) if rng.random() < pinned_p else None
        negatives.append((q, mode))
    return _pattern_text(positives, negatives)


def query(seed: int, workdir: Path) -> Workload:
    """Large sparse database over a Zipf alphabet; a closed loop of CLI queries."""
    p = QUERY
    rng = _rng("query", seed)
    alphabet = [f"i{r}" for r in range(p["universe"])]
    weights = [1 / (r + 1) ** p["zipf_s"] for r in range(p["universe"])]
    db = _random_db(rng, p["sequences"], p["itemsets"], alphabet, weights, p["pair_p"])
    path = str(workdir / "query.txt")
    w = Workload(p, {path: _db_text(db)}, dbs=[db])
    head = alphabet[:30]
    thetas = list(ref.THETAS)
    rng.shuffle(thetas)

    def pattern():
        return _sub_pattern(rng, db, (2, 3), head, 0.7, 0.2)

    def sample():
        return _sample(rng, len(db), p["sample"])

    base = ("--db", path)
    for r in range(p["rounds"]):
        t1, t2 = thetas[(2 * r) % 8], thetas[(2 * r + 1) % 8]
        pt = pattern()
        w.ops.append(Op("support", ("support", *base, "--pattern", pt, "--theta", t1), check_support(db, pt, t1)))
        pt = pattern()
        w.ops.append(Op("support_all", ("support", *base, "--pattern", pt, "--all-thetas"), check_support(db, pt, None)))
        pt = pattern()
        w.ops.append(Op("match", ("match", *base, "--pattern", pt, "--theta", t2, "--explain"), check_match(db, pt, t2, True, sample())))
        pt = pattern()
        w.ops.append(Op("match_all", ("match", *base, "--pattern", pt, "--all-thetas"), check_match(db, pt, None, False, sample())))
        pts = [pattern() for _ in range(3)]
        fmt = ("text", "csv")[r % 2]
        argv = ("report", *base, *(a for pt in pts for a in ("--pattern", pt)), "--format", fmt)
        w.ops.append(Op("report", argv, check_report(db, pts, fmt)))
    return w


DENSE = dict(
    sequences=40,
    itemsets=(20, 30),
    items={"a": 0.55, "b": 0.35, "c": 0.10},
    # (positives, occurrence); a pattern's negatives are "b" under weak and
    # "c" under strong occurrence, in every other slot. Pattern i takes the
    # embedding and non-inclusion of COMBOS[i % 4] and negative slot j the
    # mode NEG_MODES[j % 4], so the work of a pass does not vary with the seed.
    patterns=(
        ("a b a", "weak"), ("a b a", "strong"), ("a a a a", "weak"),
        ("a a a a", "strong"), ("a a a a a", "weak"), ("a a a a a a", "strong"),
    ),
    sample=3,
)
NEG_MODES = (None, "{", None, "|")

CAP_SEQUENCE = " ".join(["a"] * 60 + ["b"] + ["a"] * 5) + "\n"
CAP_PATTERN = "<a !b a a a a a>"
LONG_SEQUENCE = " ".join(["a"] * 1200) + "\n"
LONG_PATTERN = "<" + " ".join(["a"] * 1100) + ">"


def _expect_stdout(want: str) -> Check:
    def check(stdout, stderr, ctx):
        return None if stdout == want else f"got {stdout!r}, expected {want!r}"

    return check


def _expect_one_line_error(stdout, stderr, ctx):
    lines = _lines(stderr)
    if len(lines) == 1 and lines[0].startswith("error: "):
        return None
    return f"expected a one-line error on stderr, got {len(lines)} lines"


def _dense_db(rng, p):
    """Sequence i has 20 + i % 11 itemsets with a fixed count of each item, in
    seeded order. The number of placements of a pattern of ``a`` items is then
    the same for every seed."""
    lo, hi = p["itemsets"]
    db = []
    for i in range(p["sequences"]):
        length = lo + i % (hi - lo + 1)
        seq = []
        for item, share in p["items"].items():
            seq += [item] * round(share * length)
        rng.shuffle(seq)
        db.append(tuple(frozenset([x]) for x in seq))
    return db


def dense(seed: int, workdir: Path) -> Workload:
    """Long repetitive sequences over three items: many embeddings per decision."""
    p = DENSE
    rng = _rng("dense", seed)
    db = _dense_db(rng, p)
    path = str(workdir / "dense.txt")
    cap_path = str(workdir / "cap.txt")
    long_path = str(workdir / "long.txt")
    w = Workload(p, {path: _db_text(db), cap_path: CAP_SEQUENCE, long_path: LONG_SEQUENCE}, dbs=[db])
    for i, (shape, occ) in enumerate(p["patterns"]):
        items = shape.split()
        k = len(items)
        # Negatives that most placements fail under weak occurrence and most
        # pass under strong occurrence, so decisions enumerate many placements.
        neg = frozenset("b" if occ == "weak" else "c")
        negatives = [(neg, NEG_MODES[j % 4]) if j % 2 == 0 else (frozenset(), None) for j in range(k - 1)]
        pt = _pattern_text([frozenset([x]) for x in items], negatives)
        emb, incl = ref.COMBOS[i % 4]
        theta = f"{occ}-{emb}-{incl}"
        label = f"k{k}_{occ}"
        sample = _sample(rng, len(db), p["sample"])
        w.ops.append(Op(f"match_{label}", ("match", "--db", path, "--pattern", pt, "--theta", theta, "--explain"), check_match(db, pt, theta, True, sample)))
        w.ops.append(Op(f"support_{label}", ("support", "--db", path, "--pattern", pt, "--theta", theta), check_count(f"match_{label}")))
    # ROADMAP's wrong-answer case: the embedding cap must not decide it.
    w.probes.append(Op("cap", ("match", "--db", cap_path, "--pattern", CAP_PATTERN, "--theta", "strong-soft-total"), _expect_stdout("seq,contained\n1,false\n")))
    # ROADMAP's crash case: a clean one-line error with exit 2, no traceback.
    w.probes.append(Op("long_pattern", ("match", "--db", long_path, "--pattern", LONG_PATTERN, "--theta", "weak-soft-total"), _expect_one_line_error, exit_code=2))
    return w


VERIFY = dict(space="default", draws=10_000, grid_sample=300)

_CE = re.compile(r"p=(<[^>]*>)(?: p'=(<[^>]*>))? s=<([^>]*)>")


def _holds(pattern_text, seq_text, theta) -> bool:
    return ref.decide(ref.parse_pattern(pattern_text), ref.parse_sequence(seq_text), theta)[0]


def _check_grid_sample(lib, rng_seed: float, count: int) -> str | None:
    """Recheck a seeded sample of the default space's (pattern, sequence)
    decisions, which the grid-based suites make through theta_bits."""
    space = lib.orders.default_space()
    pick = random.Random(rng_seed)
    for _ in range(count):
        p = pick.choice(space.patterns)
        s = pick.choice(space.sequences)
        bits = lib.matching.theta_bits(p, s)
        pattern = ref.parse_pattern(lib.textio.render_pattern(p, space.dictionary))
        seq = ref.parse_sequence(lib.textio.render_sequence(s, space.dictionary))
        want = ref.contained_all(pattern, seq)
        got = tuple(bool((bits >> t) & 1) for t in range(8))
        if got != want:
            return f"theta_bits disagrees with the reference on {pattern} / {seq}"
    return None


def _check_scan(order_scan: bool, checks: int, grid_seed: float, grid_sample: int) -> Check:
    def check(stdout, stderr, ctx):
        if f"result: {checks} checks, 0 violations" not in stdout:
            return "scan reported violations"
        for line in _lines(stdout):
            m = _CE.search(line)
            if not m:
                continue
            if order_scan:
                theta = line.split("theta ")[1].split(":")[0]
                lower, upper = m.group(1), m.group(2)
                if not (_holds(upper, m.group(3), theta) and not _holds(lower, m.group(3), theta)):
                    return f"counterexample does not hold: {line}"
            else:
                left, right = line.split(":")[0].split(" vs ")
                if not (_holds(m.group(1), m.group(3), left) and not _holds(m.group(1), m.group(3), right)):
                    return f"counterexample does not hold: {line}"
        return _check_grid_sample(ctx.lib, grid_seed, grid_sample)

    return check


def _check_equivalence(stdout, stderr, ctx):
    # Known result: 6 classes on the general space; 2 (not the 4 the spec
    # asks for) on the singleton-negative space, so the suite exits 1.
    want = ("general space: 6 classes", "expected 6: ok",
            "singleton-negative space: 2 classes", "expected 4: VIOLATION")
    missing = [w for w in want if w not in stdout]
    return f"equivalence: missing {missing}" if missing else None


def _check_lemmas(stdout, stderr, ctx):
    return None if "result: 9 checks, 0 violations" in stdout else "lemmas reported violations"


def verify(seed: int, workdir: Path) -> Workload:
    """The four verification suites over the default space."""
    p = VERIFY
    rng = _rng("verify", seed)
    lemma_seed = rng.randrange(1, 10**6)
    w = Workload(dict(p, lemma_seed=lemma_seed))
    w.ops = [
        Op("dominance", ("verify", "--suite", "dominance"), _check_scan(False, 56, rng.random(), p["grid_sample"])),
        Op("antimono", ("verify", "--suite", "antimono"), _check_scan(True, 24, rng.random(), p["grid_sample"])),
        Op("equivalence", ("verify", "--suite", "equivalence"), _check_equivalence, exit_code=1),
        Op("lemmas", ("verify", "--suite", "lemmas", "--draws", str(p["draws"]), "--seed", str(lemma_seed)), _check_lemmas),
    ]
    return w


WORKLOADS = {"mine": mine, "query": query, "dense": dense, "verify": verify}
