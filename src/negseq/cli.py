"""Command line front end.

Subcommands: match, support, mine, verify, report. All results go to stdout,
diagnostics to stderr; output is byte-identical across runs for identical
inputs. Exit codes: 0 success, 1 a verification suite found a violation,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from .matching import all_theta_supports, contains, support, theta_bits
from .mining import PatternBounds, mine_bruteforce, mine_pruned
from .model import (
    NegseqError,
    Theta,
    THETAS,
)
from .orders import (
    Counterexample,
    Dominance,
    SpaceBounds,
    default_space,
    known_dominance,
    verify_anti_monotonicity,
    verify_dominance,
    verify_equivalence,
    verify_invariants,
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


def _build_parser() -> argparse.ArgumentParser:
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
        help="show witness/violator embeddings (single-theta mode)",
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


def _cmd_match(args) -> int:
    db = load_database(args.db, args.db_format)
    pattern = parse_pattern(args.pattern, db.dictionary)
    out = sys.stdout
    if args.all_thetas:
        print(csv_row(["seq"] + [t.spell() for t in THETAS]), file=out)
        for index, sequence in enumerate(db.sequences, start=1):
            bits = theta_bits(pattern, sequence)
            cells = [str(index)] + [
                str(bool((bits >> t.index) & 1)).lower() for t in THETAS
            ]
            print(csv_row(cells), file=out)
        return 0
    theta = Theta.parse(args.theta)
    header = ["seq", "contained"] + (["detail"] if args.explain else [])
    print(csv_row(header), file=out)
    for index, sequence in enumerate(db.sequences, start=1):
        report = contains(pattern, sequence, theta)
        cells = [str(index), str(report.contained).lower()]
        if args.explain:
            if report.contained and report.witness:
                cells.append(f"witness={_embedding_text(report.witness)}")
            elif not report.contained and report.violator:
                cells.append(f"violator={_embedding_text(report.violator)}")
            elif report.total_positive_embeddings == 0:
                cells.append("no-positive-embedding")
            else:
                cells.append("")
        print(csv_row(cells), file=out)
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


def _describe_counterexample(ce: Counterexample, dictionary) -> str:
    parts = [f"p={render_pattern(ce.pattern, dictionary)}"]
    if ce.pattern2 is not None:
        parts.append(f"p'={render_pattern(ce.pattern2, dictionary)}")
    parts.append(f"s=<{render_sequence(ce.sequence, dictionary)}>")
    return " ".join(parts)


def _counterexample_cells(ce: Counterexample | None, dictionary) -> list[str]:
    if ce is None:
        return ["", "", ""]
    return [
        render_pattern(ce.pattern, dictionary),
        render_pattern(ce.pattern2, dictionary) if ce.pattern2 is not None else "",
        "<" + render_sequence(ce.sequence, dictionary) + ">",
    ]


def _cmd_verify(args) -> int:
    bounds = _space_bounds(args)
    as_csv = args.format == "csv"
    if args.suite == "dominance":
        space = default_space(bounds)
        report = verify_dominance(space)
        if as_csv:
            print(csv_row(["left", "right", "expected", "scan", "p", "p2", "s"]))
        else:
            print(
                f"dominance scan over {report.pattern_count} patterns x "
                f"{report.sequence_count} sequences"
            )
            sys.stdout.write(dominance_table_to_text(known_dominance()))
        mismatches = 0
        for check in report.checks:
            expected = (
                "dominates"
                if check.expected is Dominance.DOMINATES
                else "does not dominate"
            )
            if not check.ok:
                mismatches += 1
            if as_csv:
                scan = "holds" if check.verdict.holds else "refuted"
                cells = [check.left.spell(), check.right.spell(), expected, scan]
                cells += _counterexample_cells(
                    check.verdict.counterexample, space.dictionary
                )
                print(csv_row(cells))
                continue
            if check.ok:
                if check.verdict.holds:
                    detail = f"confirmed on {check.verdict.checked_pairs} pairs"
                else:
                    detail = "counterexample " + _describe_counterexample(
                        check.verdict.counterexample, space.dictionary
                    )
                status = "ok"
            else:
                detail = "scan disagrees with the known table"
                status = "VIOLATION"
            print(
                f"{check.left.spell()} vs {check.right.spell()}: "
                f"expected {expected}: {status} ({detail})"
            )
        if not as_csv:
            print(f"result: {len(report.checks)} checks, {mismatches} violations")
        return 0 if report.ok else 1

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

    if args.suite == "antimono":
        space = default_space(bounds)
        report = verify_anti_monotonicity(space)
        if as_csv:
            print(csv_row(["order", "theta", "expected", "scan", "p", "p2", "s"]))
        mismatches = 0
        for check in report.checks:
            expected = "anti-monotone" if check.expected_holds else "violation"
            if not check.ok:
                mismatches += 1
            if as_csv:
                scan = "holds" if check.verdict.holds else "refuted"
                cells = [check.order.value, check.theta.spell(), expected, scan]
                cells += _counterexample_cells(
                    check.verdict.counterexample, space.dictionary
                )
                print(csv_row(cells))
                continue
            if check.verdict.holds:
                detail = f"no violation over {check.verdict.checked_pairs} triples"
            else:
                detail = "counterexample " + _describe_counterexample(
                    check.verdict.counterexample, space.dictionary
                )
            status = "ok" if check.ok else "VIOLATION"
            print(
                f"order {check.order.value}, theta {check.theta.spell()}: "
                f"expected {expected}: {status} ({detail})"
            )
        if not as_csv:
            print(f"result: {len(report.checks)} checks, {mismatches} violations")
        return 0 if report.ok else 1

    checks = verify_invariants(draws=args.draws, seed=args.seed)
    bad = 0
    if as_csv:
        print(csv_row(["check", "draws", "failures", "example"]))
    for check in checks:
        if not check.ok:
            bad += 1
        if as_csv:
            print(csv_row([check.name, check.draws, check.failures, check.example]))
        elif check.ok:
            print(f"{check.name}: ok ({check.draws} draws)")
        else:
            print(
                f"{check.name}: VIOLATION ({check.failures} failures, "
                f"e.g. {check.example})"
            )
    if not as_csv:
        print(f"result: {len(checks)} checks, {bad} violations")
    return 0 if bad == 0 else 1


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
    """Parse arguments and dispatch; returns the process exit code."""
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
