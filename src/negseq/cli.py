"""Command line front end.

Subcommands: match, support, mine, verify, report. All results go to stdout,
diagnostics to stderr; output is byte-identical across runs for identical
inputs. Exit codes: 0 success, 1 a verification suite found a violation,
2 usage or parse errors.

``match``, ``support`` and ``report`` need only ``textio``, ``matching`` and
``model``, so only those load with this module. The miner (``mining``) and
the verification harness (``orders``) load when ``mine`` or ``verify`` first
runs, and the handler then binds the names listed in ``_DEFERRED`` as globals
of this module. They stay module globals, not handler locals, because the
bench tracer replaces them by name (``cli.mine_pruned``), possibly before any
handler has run: reading such a name loads its module, and ``_need`` never
rebinds a name already bound. A stats channel that the handlers report to
would let the tracer's patches, and this table, go.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
from typing import Iterator

from .matching import all_theta_supports, contains, is_contained, support, theta_bits
from .model import (
    NegseqError,
    Theta,
    THETAS,
)
from .textio import (
    aligned_rows,
    csv_row,
    dominance_table_to_text,
    load_database,
    parse_pattern,
    render_pattern,
    render_sequence,
)

# The names of a submodule that only some subcommands need, bound by _need.
_DEFERRED = {
    "mining": ("PatternBounds", "mine_bruteforce", "mine_pruned"),
    "orders": (
        "Counterexample",
        "Dominance",
        "SpaceBounds",
        "default_space",
        "known_dominance",
        "verify_anti_monotonicity",
        "verify_dominance",
        "verify_equivalence",
        "verify_invariants",
    ),
}


def _need(module: str) -> None:
    """Import ``module`` and bind its deferred names here, except those
    already bound."""
    loaded = importlib.import_module(f"{__package__}.{module}")
    for name in _DEFERRED[module]:
        globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            _need(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Containment relations used by the published mining tools.
TOOL_THETAS = {
    "strong-strict-total": "eNSP",
    "weak-strict-partial": "PNSP",
    "weak-strict-total": "NegPSpan",
    "weak-soft-total": "NegGSP",
}


def _theta_header(theta: Theta) -> str:
    spelled = theta.spell()
    tool = TOOL_THETAS.get(spelled)
    return f"{spelled}({tool})" if tool else spelled


def _embedding_text(e: tuple[int, ...]) -> str:
    return "(" + " ".join(str(pos) for pos in e) + ")"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call. Parsing leaves it unchanged, and
    argparse reads the terminal width only when it formats help."""
    parser = argparse.ArgumentParser(
        prog="negseq",
        description="Negative sequential patterns: matching, verification, mining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_db(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", required=True, help="sequence database file")
        p.add_argument(
            "--db-format",
            choices=("native", "spmf"),
            default="native",
            help="database file format (default: native)",
        )

    p_match = sub.add_parser("match", help="per-sequence containment booleans")
    add_db(p_match)
    p_match.add_argument("--pattern", required=True)
    group = p_match.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", help="containment relation, e.g. weak-strict-total")
    group.add_argument("--all-thetas", action="store_true")
    p_match.add_argument(
        "--explain",
        action="store_true",
        help="show witness/violator embeddings; needs --theta",
    )

    p_support = sub.add_parser("support", help="support count(s) of a pattern")
    add_db(p_support)
    p_support.add_argument("--pattern", required=True)
    group = p_support.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta")
    group.add_argument("--all-thetas", action="store_true")

    p_mine = sub.add_parser("mine", help="frequent negative patterns")
    add_db(p_mine)
    p_mine.add_argument("--theta", required=True)
    p_mine.add_argument("--minsup", required=True, type=int)
    p_mine.add_argument("--engine", choices=("pruned", "bruteforce"), default="pruned")
    p_mine.add_argument("--max-positives", type=int, default=3)
    p_mine.add_argument("--max-itemset-size", type=int, default=2)
    p_mine.add_argument("--max-neg-size", type=int, default=2)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite; exit 1 on any violation"
    )
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("dominance", "equivalence", "antimono", "lemmas"),
    )
    p_verify.add_argument("--fill-alphabet", type=int, default=3)
    p_verify.add_argument("--fill-max-positives", type=int, default=2)
    p_verify.add_argument("--fill-max-itemset", type=int, default=2)
    p_verify.add_argument("--fill-max-neg", type=int, default=2)
    p_verify.add_argument("--fill-seq-len", type=int, default=3)
    p_verify.add_argument("--fill-seq-itemset", type=int, default=2)
    p_verify.add_argument("--draws", type=int, default=10000)
    p_verify.add_argument("--seed", type=int, default=94001)
    p_verify.add_argument("--format", choices=("text", "csv"), default="text")

    p_report = sub.add_parser(
        "report", help="supports of patterns under all eight relations"
    )
    add_db(p_report)
    p_report.add_argument(
        "--pattern", action="append", required=True, help="repeatable"
    )
    p_report.add_argument("--format", choices=("text", "csv"), default="text")

    return parser


@functools.cache
def _verdict_cells() -> tuple[str, ...]:
    """Per set of relation bits, as :func:`theta_bits` returns them, the
    eight verdict cells of a ``match --all-thetas`` row. Built on first use,
    so importing this module stays cheap."""
    return tuple(
        ",".join("true" if bits >> t & 1 else "false" for t in range(len(THETAS)))
        for bits in range(1 << len(THETAS))
    )


def _match_rows(pattern, sequences, theta: Theta, explain: bool) -> Iterator[str]:
    """The lines of ``match --theta``, one per sequence. Without ``explain``
    no embedding is printed, so each sequence is only decided."""
    for index, sequence in enumerate(sequences, start=1):
        if not explain:
            yield f"{index},{str(is_contained(pattern, sequence, theta)).lower()}\n"
            continue
        report = contains(pattern, sequence, theta)
        if report.witness is None and report.violator is None:
            detail = "no-positive-embedding"
        elif report.contained:
            detail = f"witness={_embedding_text(report.witness)}"
        else:
            detail = f"violator={_embedding_text(report.violator)}"
        yield csv_row([index, str(report.contained).lower(), detail]) + "\n"


def _cmd_match(args) -> int:
    if args.all_thetas and args.explain:
        raise ValueError("--explain needs --theta; --all-thetas prints no embeddings")
    db = load_database(args.db, args.db_format)
    pattern = parse_pattern(args.pattern, db.dictionary)
    if args.all_thetas:
        header = ["seq"] + [t.spell() for t in THETAS]
        cells = _verdict_cells()
        rows = (
            f"{index},{cells[theta_bits(pattern, sequence)]}\n"
            for index, sequence in enumerate(db.sequences, start=1)
        )
    else:
        theta = Theta.parse(args.theta)
        header = ["seq", "contained"] + (["detail"] if args.explain else [])
        rows = _match_rows(pattern, db.sequences, theta, args.explain)
    # The rows stream: each is written as it is decided.
    out = sys.stdout
    out.write(csv_row(header) + "\n")
    out.writelines(rows)
    return 0


def _cmd_support(args) -> int:
    db = load_database(args.db, args.db_format)
    pattern = parse_pattern(args.pattern, db.dictionary)
    if args.all_thetas:
        counts = all_theta_supports(pattern, db)
        print(csv_row(t.spell() for t in THETAS))
        print(csv_row(counts))
    else:
        print(support(pattern, db, Theta.parse(args.theta)))
    return 0


def _cmd_mine(args) -> int:
    _need("mining")
    db = load_database(args.db, args.db_format)
    theta = Theta.parse(args.theta)
    bounds = PatternBounds.for_dictionary(
        db.dictionary,
        max_positives=args.max_positives,
        max_itemset_size=args.max_itemset_size,
        max_neg_size=args.max_neg_size,
    )
    engine = mine_pruned if args.engine == "pruned" else mine_bruteforce
    result = engine(db, theta, args.minsup, bounds)
    print(csv_row(["pattern", "support"]))
    for pattern, count in result.frequent:
        print(csv_row([render_pattern(pattern, db.dictionary), count]))
    stats = result.stats
    print(
        f"# engine={args.engine} theta={theta.spell()} minsup={result.minsup} "
        f"candidates={stats.candidates} support_calls={stats.support_calls} "
        f"pruned_subtrees={stats.pruned_subtrees} frequent={len(result.frequent)}",
        file=sys.stderr,
    )
    return 0


def _space_bounds(args) -> SpaceBounds:
    return SpaceBounds(
        alphabet=args.fill_alphabet,
        max_positives=args.fill_max_positives,
        max_itemset_size=args.fill_max_itemset,
        max_neg_size=args.fill_max_neg,
        max_sequence_len=args.fill_seq_len,
        max_sequence_itemset=args.fill_seq_itemset,
    )


def _counterexample_cells(ce: Counterexample | None, dictionary) -> list[str]:
    if ce is None:
        return ["", "", ""]
    return [
        render_pattern(ce.pattern, dictionary),
        render_pattern(ce.pattern2, dictionary) if ce.pattern2 is not None else "",
        "<" + render_sequence(ce.sequence, dictionary) + ">",
    ]


def _scan_rows(suite: str, space) -> tuple[list[str], str, list[tuple[list, str, bool]]]:
    """The CSV header, the text preamble and, per check, the CSV cells, the
    text line and whether it is ok, for the dominance or antimono suite."""
    if suite == "dominance":
        report = verify_dominance(space)
        keys, label, held = ["left", "right"], "{} vs {}", "confirmed on {} pairs"
        preamble = (
            f"dominance scan over {report.pattern_count} patterns x "
            f"{report.sequence_count} sequences\n"
            + dominance_table_to_text(known_dominance())
        )
        scans = [
            (
                [check.left.spell(), check.right.spell()],
                "dominates"
                if check.expected is Dominance.DOMINATES
                else "does not dominate",
                check,
            )
            for check in report.checks
        ]
    else:
        report = verify_anti_monotonicity(space)
        keys, label = ["order", "theta"], "order {}, theta {}"
        held, preamble = "no violation over {} triples", ""
        scans = [
            (
                [check.order.value, check.theta.spell()],
                "anti-monotone" if check.expected_holds else "violation",
                check,
            )
            for check in report.checks
        ]
    rows = []
    for cells, expected, check in scans:
        verdict = check.verdict
        found = _counterexample_cells(verdict.counterexample, space.dictionary)
        if suite == "dominance" and not check.ok:
            detail = "scan disagrees with the known table"
        elif verdict.holds:
            detail = held.format(verdict.checked_pairs)
        else:
            detail = "counterexample " + " ".join(
                f"{name}={cell}" for name, cell in zip(("p", "p'", "s"), found) if cell
            )
        status = "ok" if check.ok else "VIOLATION"
        rows.append((
            cells + [expected, "holds" if verdict.holds else "refuted"] + found,
            f"{label.format(*cells)}: expected {expected}: {status} ({detail})",
            check.ok,
        ))
    return keys + ["expected", "scan", "p", "p2", "s"], preamble, rows


def _cmd_verify(args) -> int:
    _need("orders")
    bounds = _space_bounds(args)
    as_csv = args.format == "csv"
    if args.suite == "equivalence":
        report = verify_equivalence(bounds)
        status = 0
        if as_csv:
            print(csv_row(["space", "class", "members"]))
        for label, classes, expected, ok in (
            ("general", report.general, report.expected_general, report.ok_general),
            (
                "singleton-negative",
                report.singleton,
                report.expected_singleton,
                report.ok_singleton,
            ),
        ):
            if not ok:
                status = 1
            if as_csv:
                for index, cls in enumerate(classes, start=1):
                    print(
                        csv_row([label, index, " ".join(t.spell() for t in cls)])
                    )
                continue
            print(f"{label} space: {len(classes)} classes")
            for cls in classes:
                print("  {" + ", ".join(t.spell() for t in cls) + "}")
            print(f"expected {expected}: " + ("ok" if ok else "VIOLATION"))
        if not as_csv and not report.ok_singleton:
            print(
                "note: with singleton negatives, partial and total non-inclusion "
                "are the same test, so the scan merges them; only the "
                "weak/strong axis separates classes"
            )
        return status

    if args.suite == "lemmas":
        header, preamble, rows = ["check", "draws", "failures", "example"], "", []
        for check in verify_invariants(draws=args.draws, seed=args.seed):
            if check.ok:
                detail = f"ok ({check.draws} draws)"
            else:
                detail = f"VIOLATION ({check.failures} failures, e.g. {check.example})"
            cells = [check.name, check.draws, check.failures, check.example]
            rows.append((cells, f"{check.name}: {detail}", check.ok))
    else:
        header, preamble, rows = _scan_rows(args.suite, default_space(bounds))
    if as_csv:
        print(csv_row(header))
    else:
        sys.stdout.write(preamble)
    for cells, line, _ in rows:
        print(csv_row(cells) if as_csv else line)
    violations = sum(not ok for _, _, ok in rows)
    if not as_csv:
        print(f"result: {len(rows)} checks, {violations} violations")
    return 0 if violations == 0 else 1


def _cmd_report(args) -> int:
    db = load_database(args.db, args.db_format)
    patterns = [parse_pattern(text, db.dictionary) for text in args.pattern]
    header = ["pattern"] + [_theta_header(t) for t in THETAS]
    rows = [header]
    for pattern in patterns:
        counts = all_theta_supports(pattern, db)
        rows.append(
            [render_pattern(pattern, db.dictionary)] + [str(c) for c in counts]
        )
    if args.format == "csv":
        for row in rows:
            print(csv_row(row))
    else:
        sys.stdout.write(aligned_rows(rows))
    return 0


_HANDLERS = {
    "match": _cmd_match,
    "support": _cmd_support,
    "mine": _cmd_mine,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code.

    The parser is built once per process. Repeated calls are independent:
    each parses into a fresh namespace and prints what a first call prints.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (NegseqError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
