import io
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from negseq import (
    THETAS,
    Theta,
    contains,
    load_database,
    matching,
    parse_pattern,
    positive_embeddings,
    positive_part,
)
from negseq.cli import run
from negseq.model import RESERVED_CHARS, Dictionary
from negseq.orders import (
    AntiMonotonicityCheck,
    AntiMonotonicityReport,
    Counterexample,
    Dominance,
    DominanceCheck,
    DominanceReport,
    InvariantCheck,
    OrderKind,
    Verdict,
    known_dominance,
    random_pattern,
    random_sequence,
)
from negseq.textio import (
    dominance_table_to_text,
    parse_sequence,
    render_pattern,
    render_sequence,
)
from conftest import ABSENCE_TEXT, FIG1_TEXT, TABLE1_TEXT, with_random_modes


@pytest.fixture
def table1_path(tmp_path):
    path = tmp_path / "table1.db"
    path.write_text(TABLE1_TEXT)
    return str(path)


@pytest.fixture
def absence_path(tmp_path):
    path = tmp_path / "absence.db"
    path.write_text(ABSENCE_TEXT)
    return str(path)


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.db"
    path.write_text(FIG1_TEXT)
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parents[1] / "src"


def first_call(*argv):
    """Exit code, stdout and stderr of ``python -m negseq`` in a new process,
    where the call is the first one."""
    done = subprocess.run(
        [sys.executable, "-m", "negseq", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return done.returncode, done.stdout, done.stderr


class TestSupportCommand:
    @pytest.mark.parametrize(
        "sequence, expected",
        [(["a"] * 2000, "1\n"), (["a"] * 2000 + ["b"] + ["a"] * 5, "0\n")],
    )
    def test_strong_support_over_long_runs(self, capsys, tmp_path, sequence, expected):
        # Strong occurrence needs every placement of the five a's, about
        # 2.7 * 10^14 of them, to keep b out of the gap.
        path = tmp_path / "run.db"
        path.write_text(" ".join(sequence) + "\n")
        code, out, err = invoke(
            capsys, "support", "--db", str(path),
            "--pattern", "<a !b a a a a>", "--theta", "strong-soft-total",
        )
        assert (code, out, err) == (0, expected, "")

    def test_single_theta(self, capsys, table1_path):
        code, out, _ = invoke(
            capsys, "support", "--db", table1_path,
            "--pattern", "<b !(c d) a>", "--theta", "weak-strict-total",
        )
        assert code == 0
        assert out == "2\n"

    def test_all_thetas_row(self, capsys, table1_path):
        code, out, _ = invoke(
            capsys, "support", "--db", table1_path,
            "--pattern", "<b !(c d) a>", "--all-thetas",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "strong-strict-partial"
        assert row == "4,4,4,4,2,2,2,2"

    def test_unknown_theta_is_usage_error(self, capsys, table1_path):
        code, _, err = invoke(
            capsys, "support", "--db", table1_path,
            "--pattern", "<a>", "--theta", "sideways-strict-total",
        )
        assert code == 2
        assert "error" in err

    def test_pattern_parse_error(self, capsys, table1_path):
        code, _, err = invoke(
            capsys, "support", "--db", table1_path,
            "--pattern", "<a !b>", "--theta", "weak-strict-total",
        )
        assert code == 2
        assert "negative" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(
            capsys, "support", "--db", "/nonexistent/x.db",
            "--pattern", "<a>", "--theta", "weak-strict-total",
        )
        assert code == 2

    def test_missing_required_argument(self, capsys, table1_path):
        code, _, _ = invoke(capsys, "support", "--db", table1_path, "--theta", "weak-soft-total")
        assert code == 2


class TestMatchCommand:
    def test_explain_columns(self, capsys, table1_path):
        code, out, _ = invoke(
            capsys, "match", "--db", table1_path,
            "--pattern", "<b !(c d) a>", "--theta", "weak-strict-total", "--explain",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "seq,contained,detail"
        assert lines[1] == "1,true,witness=(1 3)"
        assert lines[2] == "2,false,violator=(1 3)"

    def test_all_thetas_matrix(self, capsys, absence_path):
        code, out, _ = invoke(
            capsys, "match", "--db", absence_path,
            "--pattern", "<a !(b c) d>", "--all-thetas",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "seq"
        rows = [line.split(",") for line in lines[1:]]
        matrix = {row[0]: row[1:] for row in rows}
        # Columns follow the canonical order; weak-soft-partial is last of the
        # partial block, the totals close the row.
        assert matrix["1"] == ["false", "false", "true", "true", "false", "false", "false", "false"]
        assert matrix["2"] == ["false"] * 8
        assert matrix["3"] == ["true", "true", "true", "true", "false", "false", "false", "false"]
        assert matrix["4"] == ["true"] * 8

    def test_explain_with_all_thetas_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "one.db"
        path.write_text("a b a\n")
        code, out, err = invoke(
            capsys, "match", "--db", str(path),
            "--pattern", "<a !b a>", "--all-thetas", "--explain",
        )
        assert (code, out) == (2, "")
        assert err == "error: --explain needs --theta; --all-thetas prints no embeddings\n"

    def test_no_embedding_detail(self, capsys, tmp_path):
        path = tmp_path / "one.db"
        path.write_text("b\n")
        code, out, _ = invoke(
            capsys, "match", "--db", str(path),
            "--pattern", "<b a>", "--theta", "weak-soft-total", "--explain",
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "1,false,no-positive-embedding"

    def test_explain_counts_no_placements(self, capsys, monkeypatch, table1_path):
        # The detail cells come from the witness and the violator alone.
        def count(*args):
            raise AssertionError("match --explain counted the placements")

        monkeypatch.setattr(matching, "_count_embeddings", count)
        details = []
        for pattern in ("<b !(c d) a>", "<d a>"):
            code, out, err = invoke(
                capsys, "match", "--db", table1_path,
                "--pattern", pattern, "--theta", "strong-strict-total", "--explain",
            )
            assert (code, err) == (0, "")
            details += [row.split(",")[2].split("=")[0] for row in out.splitlines()[1:]]
        assert set(details) == {"witness", "violator", "no-positive-embedding"}

    def test_first_violator_beyond_a_million_embeddings(self, capsys, tmp_path):
        # Over 10^6 placements that pass come before the first violator, and
        # the exact count is C(65, 6): neither an enumeration cap nor a walk
        # over the placements decides this input.
        path = tmp_path / "many.db"
        path.write_text(" ".join(["a"] * 60 + ["b"] + ["a"] * 5) + "\n")
        pattern = "<a !b a a a a a>"
        code, out, err = invoke(
            capsys, "match", "--db", str(path),
            "--pattern", pattern, "--theta", "strong-soft-total", "--explain",
        )
        assert (code, err) == (0, "")
        assert out == "seq,contained,detail\n1,false,violator=(1 62 63 64 65 66)\n"
        db = load_database(str(path))
        report = contains(
            parse_pattern(pattern, db.dictionary), db.sequences[0],
            Theta.parse("strong-soft-total"),
        )
        assert report.total_positive_embeddings == math.comb(65, 6) == 82_598_880

    def test_pattern_of_1100_positives(self, capsys, tmp_path):
        path = tmp_path / "long.db"
        path.write_text(" ".join(["a"] * 1200) + "\n")
        code, out, err = invoke(
            capsys, "match", "--db", str(path),
            "--pattern", "<" + " ".join(["a"] * 1100) + ">", "--theta", "weak-soft-total",
        )
        assert (code, out, err) == (0, "seq,contained\n1,true\n", "")

    @pytest.mark.parametrize(
        "negative, theta, contained",
        [
            ("b", "weak-soft-total", "true"),
            ("b", "strong-strict-partial", "true"),
            ("b", "strong-soft-partial", "true"),
            # Only the placements with empty gaps keep a out of them.
            ("a", "weak-strict-total", "true"),
            ("a", "strong-soft-total", "false"),
        ],
    )
    def test_pattern_of_1100_positives_with_negatives(
        self, capsys, tmp_path, negative, theta, contained
    ):
        # Strong occurrence here quantifies over C(1200, 1100) placements.
        path = tmp_path / "long.db"
        path.write_text(" ".join(["a"] * 1200) + "\n")
        pattern = "<" + f" !{negative} ".join(["a"] * 1100) + ">"
        code, out, err = invoke(
            capsys, "match", "--db", str(path), "--pattern", pattern, "--theta", theta,
        )
        assert (code, out, err) == (0, f"seq,contained\n1,{contained}\n", "")


# --- match --explain against the enumeration oracle ---------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_explain_cells_agree_with_the_oracle(seed):
    # Small random databases over three items, where many sequences hold no
    # placement of the positives and others hold several.
    rng = random.Random(seed)
    names = Dictionary("abc")
    p = with_random_modes(rng, random_pattern(
        rng, alphabet=3, max_positives=4, max_itemset_size=2, max_neg_size=2
    ))
    lines = [
        render_sequence(random_sequence(rng, alphabet=3, max_len=8, max_itemset_size=2), names)
        for _ in range(1 + rng.randrange(6))
    ]
    theta = rng.choice(THETAS)
    text = render_pattern(p, names)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "db.txt"
        # The first line keeps the database non-empty. An empty sequence
        # renders as a blank line, which the parser skips, so the rows follow
        # the loaded database.
        path.write_text("a b c\n" + "\n".join(lines) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run([
                "match", f"--db={path}", f"--pattern={text}",
                f"--theta={theta.spell()}", "--explain",
            ])
        db = load_database(str(path))
    assert (code, err.getvalue()) == (0, "")
    pattern = parse_pattern(text, db.dictionary)
    rows = out.getvalue().splitlines()
    assert rows[0] == "seq,contained,detail"
    assert len(rows) == 1 + len(db.sequences)
    for index, (row, s) in enumerate(zip(rows[1:], db.sequences), start=1):
        embeddings = positive_embeddings(positive_part(pattern), s)
        report = contains(pattern, s, theta)
        seq, contained, detail = row.split(",")
        assert (seq, contained) == (str(index), str(report.contained).lower())
        assert (detail == "no-positive-embedding") == (not embeddings)
        if detail.startswith("witness="):
            assert report.contained
            assert detail == "witness=(" + " ".join(map(str, report.witness)) + ")"
        elif detail.startswith("violator="):
            assert not report.contained
            assert detail == "violator=(" + " ".join(map(str, report.violator)) + ")"
        else:
            assert detail == "no-positive-embedding"
        assert report.total_positive_embeddings == len(embeddings)
        assert report.total_positive_embeddings == len(embeddings)


class TestMineCommand:
    def test_engines_agree_on_stdout(self, capsys, fig1_path):
        # A total relation, a partial one (the default engine's refusal is
        # gone) and a strong one; two-item negatives tell partial from total.
        for theta, max_neg in (
            ("weak-strict-total", "1"),
            ("weak-soft-partial", "2"),
            ("strong-strict-partial", "2"),
            ("strong-soft-total", "2"),
        ):
            args = (
                "mine", "--db", fig1_path, "--theta", theta,
                "--minsup", "3", "--max-positives", "2", "--max-itemset-size", "1",
                "--max-neg-size", max_neg,
            )
            code1, out1, err1 = invoke(capsys, *args)
            code2, out2, err2 = invoke(capsys, *args, "--engine", "bruteforce")
            assert code1 == code2 == 0, theta
            assert out1 == out2, theta
            assert "engine=pruned" in err1 and "pruned_subtrees" in err1
            assert out1.splitlines()[0] == "pattern,support"
            assert len(out1.splitlines()) > 2, theta

    def test_contains_rule_pattern(self, capsys, fig1_path):
        code, out, _ = invoke(
            capsys, "mine", "--db", fig1_path, "--theta", "weak-strict-total",
            "--minsup", "3", "--max-positives", "3", "--max-itemset-size", "1",
            "--max-neg-size", "1",
        )
        assert code == 0
        assert "<a !b c d>,3" in out.splitlines()

    def test_bruteforce_accepts_partial(self, capsys, fig1_path):
        code, out, _ = invoke(
            capsys, "mine", "--db", fig1_path, "--theta", "weak-soft-partial",
            "--minsup", "6", "--engine", "bruteforce", "--max-positives", "1",
            "--max-itemset-size", "1", "--max-neg-size", "1",
        )
        assert code == 0
        assert "<a>,6" in out.splitlines()

    @pytest.mark.parametrize(
        "theta, rows", [("weak-soft-total", 15), ("strong-soft-total", 4)]
    )
    def test_negative_variants_of_a_run(self, capsys, tmp_path, theta, rows):
        # Adjacent positions leave an empty gap, so <a !a a> is weakly
        # contained in a^6: every a^k (k <= 4) with any choice of !a slots is
        # frequent, 1 + 2 + 4 + 8 = 15 patterns. Strong containment keeps only
        # the four negative-free ones.
        path = tmp_path / "run.db"
        path.write_text(" ".join(["a"] * 6) + "\n")
        code, out, _ = invoke(
            capsys, "mine", "--db", str(path), "--theta", theta, "--minsup", "1",
            "--max-positives", "4", "--max-itemset-size", "1", "--max-neg-size", "1",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + rows


class TestCleanErrors:
    def test_empty_database(self, capsys, tmp_path):
        path = tmp_path / "empty.db"
        path.write_text("# nothing here\n")
        db = ("--db", str(path))
        code, out, err = invoke(
            capsys, "mine", *db, "--theta", "weak-soft-total", "--minsup", "1"
        )
        assert (code, out, err) == (2, "", "error: alphabet must be non-empty\n")
        query = ("--pattern", "<a>", "--theta", "weak-soft-total")
        assert invoke(capsys, "match", *db, *query) == (0, "seq,contained\n", "")
        assert invoke(capsys, "support", *db, *query) == (0, "0\n", "")
        code, out, err = invoke(capsys, "report", *db, "--format", "csv", "--pattern", "<a>")
        assert (code, out.splitlines()[1:], err) == (0, ["<a>" + ",0" * 8], "")

    def test_deep_bounds_give_one_error_line(self, capsys, tmp_path):
        # The miner recurses once per positive, so 1,400 positives exceed the
        # interpreter's recursion limit. The full answer could not be printed
        # anyway: under weak-soft-total every negative variant of a^k is
        # frequent (see TestMineCommand.test_negative_variants_of_a_run), which
        # makes 2^1400 - 1 rows. An iterative miner would turn this test into
        # a run that never ends.
        path = tmp_path / "run.db"
        path.write_text(" ".join(["a"] * 1500) + "\n")
        code, out, err = invoke(
            capsys, "mine", "--db", str(path), "--theta", "weak-soft-total",
            "--minsup", "1", "--max-positives", "1400", "--max-itemset-size", "1",
            "--max-neg-size", "1",
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "lemmas", "--draws", "-5"),
            ("--suite", "lemmas", "--draws", "0"),
            ("--suite", "lemmas", "--fill-seq-len", "0"),
            ("--suite", "dominance", "--fill-seq-len", "0"),
            ("--suite", "dominance", "--fill-seq-itemset", "-3"),
            ("--suite", "antimono", "--fill-max-neg", "0"),
            ("--suite", "equivalence", "--fill-alphabet", "7"),
        ],
    )
    def test_vacuous_bounds_are_usage_errors(self, capsys, argv):
        code, out, err = invoke(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_dominance_suite_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "dominance")
        assert code == 0
        assert "0 violations" in out
        assert "counterexample" in out  # non-dominances come with witnesses

    def test_antimono_suite_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "antimono")
        assert code == 0
        assert "p=<b !c a> p'=<b !c d a> s=<b e d c a>" in out

    def test_equivalence_suite_reports_singleton_collapse(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "equivalence")
        assert code == 1
        assert "general space: 6 classes" in out
        assert "singleton-negative space: 2 classes" in out
        assert "VIOLATION" in out

    def test_lemmas_suite_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "lemmas", "--draws", "500")
        assert code == 0
        assert "0 violations" in out

    def test_csv_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "antimono", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "order,theta,expected,scan,p,p2,s"
        assert len(lines) == 25
        assert (
            "embed-incl,weak-soft-total,violation,refuted,"
            "<b !c a>,<b !c d a>,<b e d c a>" in lines
        )

    def test_lemmas_csv_format(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--suite", "lemmas", "--draws", "300", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,draws,failures,example"
        assert all(line.split(",")[2] == "0" for line in lines[1:])

    def test_dominance_text_includes_known_table(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "dominance")
        assert code == 0
        assert "\nstrong-soft-total      >" in out


GOLDEN = Path(__file__).parent / "golden"
# A space with about 126 times the default's (pattern, sequence) pairs.
FILL_4_4 = ("--fill-alphabet", "4", "--fill-seq-len", "4")


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize(
    "suite, extra",
    [
        ("dominance", ()),
        ("antimono", ()),
        ("equivalence", ()),
        ("lemmas", ("--draws", "500")),
        pytest.param("dominance", FILL_4_4, id="dominance-fill-4-4"),
        pytest.param("antimono", FILL_4_4, id="antimono-fill-4-4"),
        pytest.param("equivalence", FILL_4_4, id="equivalence-fill-4-4"),
    ],
)
def test_verify_output_matches_golden(capsys, suite, extra, fmt):
    # Each golden file holds the exit code on its first line, then stdout.
    code, out, _ = invoke(capsys, "verify", "--suite", suite, *extra, "--format", fmt)
    stem = f"{suite}_fill_4_4" if extra == FILL_4_4 else suite
    expected = (GOLDEN / f"verify_{stem}_{fmt}.txt").read_text()
    assert f"exit {code}\n" + out == expected


DATA = Path(__file__).parent / "data"


# mine_small: 20 sequences of 4-8 itemsets of 1-2 items over 8 items, where
# two-item negatives make partial growth regain support. mine_400: 300
# sequences of 5-15 itemsets of 1-2 items over 400 items, where nearly every
# candidate is infrequent. Both were drawn once with Python's random module.
@pytest.mark.parametrize("theta", THETAS, ids=lambda t: t.spell())
@pytest.mark.parametrize(
    "name, bounds, minsup", [("small", (3, 2, 2), 8), ("400", (2, 1, 1), 15)]
)
def test_mine_output_matches_golden(capsys, name, bounds, minsup, theta):
    # Per relation, in THETAS order, the golden holds the exit code, stdout
    # and the statistics line on stderr.
    code, out, err = invoke(
        capsys, "mine", "--db", str(DATA / f"mine_{name}.txt"),
        "--theta", theta.spell(), "--minsup", str(minsup),
        "--max-positives", str(bounds[0]), "--max-itemset-size", str(bounds[1]),
        "--max-neg-size", str(bounds[2]),
    )
    stem = "_".join(map(str, (name, *bounds)))
    blocks = re.split(r"^(?=exit )", (GOLDEN / f"mine_{stem}.txt").read_text(), flags=re.M)
    assert f"exit {code}\n" + out + err == blocks[1 + theta.index]


# The match goldens hold one block per pattern, each the exit code and
# stdout; the explain golden holds, per pattern, one block per relation in
# THETAS order. The first pattern pins no slot and the second pins one of
# its two. Each gives witness=, violator= and no-positive-embedding rows
# under most relations: no sequence violates either under the weak partial
# relations, nor the first under strong-soft-partial.
MATCH_PATTERNS = ("<b !(c d) a>", "<f !|a c| b !(a c) a>")


def _match_blocks(name: str) -> list[str]:
    text = (GOLDEN / f"match_small_{name}.txt").read_text()
    return re.split(r"^(?=exit )", text, flags=re.M)[1:]


@pytest.mark.parametrize("index, pattern", enumerate(MATCH_PATTERNS))
def test_match_all_thetas_matches_golden(capsys, index, pattern):
    code, out, _ = invoke(
        capsys, "match", "--db", str(DATA / "mine_small.txt"), "--pattern", pattern,
        "--all-thetas",
    )
    assert f"exit {code}\n" + out == _match_blocks("all_thetas")[index]


@pytest.mark.parametrize("theta", THETAS, ids=lambda t: t.spell())
@pytest.mark.parametrize("index, pattern", enumerate(MATCH_PATTERNS))
def test_match_explain_matches_golden(capsys, index, pattern, theta):
    code, out, _ = invoke(
        capsys, "match", "--db", str(DATA / "mine_small.txt"), "--pattern", pattern,
        "--theta", theta.spell(), "--explain",
    )
    block = _match_blocks("explain")[index * len(THETAS) + theta.index]
    assert f"exit {code}\n" + out == block


@pytest.mark.parametrize("theta", THETAS, ids=lambda t: t.spell())
@pytest.mark.parametrize("index, pattern", enumerate(MATCH_PATTERNS))
def test_match_rows_without_explain_are_the_explain_verdicts(capsys, index, pattern, theta):
    # Without --explain a sequence is only decided, not reported: its row is
    # the first two cells of its --explain row.
    rows = {}
    for extra in ((), ("--explain",)):
        code, out, err = invoke(
            capsys, "match", "--db", str(DATA / "mine_small.txt"), "--pattern", pattern,
            "--theta", theta.spell(), *extra,
        )
        assert (code, err) == (0, "")
        rows[extra] = out.splitlines()
    plain, explained = rows[()], rows[("--explain",)]
    assert plain[0] == "seq,contained"
    assert plain[1:] == [",".join(row.split(",")[:2]) for row in explained[1:]]
    assert len(plain) == len(explained) > 1


def _failing_reports():
    # One crafted failing check per case, in the default space's dictionary.
    d = Dictionary("abcdef")
    p, p2 = parse_pattern("<a !b c>", d), parse_pattern("<a !b c d>", d)
    s = parse_sequence("a c d a b c", d)
    strong, weak = Theta.parse("strong-soft-total"), Theta.parse("weak-soft-total")
    refuted = Verdict(False, Counterexample(p, None, s), 7)
    return {
        "dominance": DominanceReport(
            (DominanceCheck(weak, strong, Dominance.DOMINATES, refuted),), 2, 3
        ),
        "antimono-refuted": AntiMonotonicityReport((
            AntiMonotonicityCheck(
                OrderKind.PREFIX_INCL, strong, True,
                Verdict(False, Counterexample(p, p2, s), 5),
            ),
        )),
        "antimono-holds": AntiMonotonicityReport((
            AntiMonotonicityCheck(
                OrderKind.EMBED_INCL, weak, False, Verdict(True, None, 12)
            ),
        )),
        "lemmas": (
            InvariantCheck(
                "strong containment implies weak containment", 40, 3, "weak-soft-total"
            ),
        ),
    }


_DOMINANCE_TABLE = dominance_table_to_text(known_dominance())
_FAILURE_CASES = [
    (
        "dominance", "verify_dominance", "text",
        "dominance scan over 2 patterns x 3 sequences\n" + _DOMINANCE_TABLE
        + "weak-soft-total vs strong-soft-total: expected dominates: VIOLATION "
        "(scan disagrees with the known table)\n"
        "result: 1 checks, 1 violations\n",
    ),
    (
        "dominance", "verify_dominance", "csv",
        "left,right,expected,scan,p,p2,s\n"
        "weak-soft-total,strong-soft-total,dominates,refuted,<a !b c>,,<a c d a b c>\n",
    ),
    (
        "antimono-refuted", "verify_anti_monotonicity", "text",
        "order prefix-incl, theta strong-soft-total: expected anti-monotone: VIOLATION "
        "(counterexample p=<a !b c> p'=<a !b c d> s=<a c d a b c>)\n"
        "result: 1 checks, 1 violations\n",
    ),
    (
        "antimono-refuted", "verify_anti_monotonicity", "csv",
        "order,theta,expected,scan,p,p2,s\n"
        "prefix-incl,strong-soft-total,anti-monotone,refuted,"
        "<a !b c>,<a !b c d>,<a c d a b c>\n",
    ),
    (
        "antimono-holds", "verify_anti_monotonicity", "text",
        "order embed-incl, theta weak-soft-total: expected violation: VIOLATION "
        "(no violation over 12 triples)\n"
        "result: 1 checks, 1 violations\n",
    ),
    (
        "antimono-holds", "verify_anti_monotonicity", "csv",
        "order,theta,expected,scan,p,p2,s\n"
        "embed-incl,weak-soft-total,violation,holds,,,\n",
    ),
    (
        "lemmas", "verify_invariants", "text",
        "strong containment implies weak containment: VIOLATION "
        "(3 failures, e.g. weak-soft-total)\n"
        "result: 1 checks, 1 violations\n",
    ),
    (
        "lemmas", "verify_invariants", "csv",
        "check,draws,failures,example\n"
        "strong containment implies weak containment,40,3,weak-soft-total\n",
    ),
]


@pytest.mark.parametrize("case, target, fmt, expected", _FAILURE_CASES)
def test_verify_failure_output(capsys, monkeypatch, case, target, fmt, expected):
    # The goldens cover all-ok runs only; a failing check must print its
    # VIOLATION line or its cells and exit 1.
    report = _failing_reports()[case]
    monkeypatch.setattr(f"negseq.cli.{target}", lambda *args, **kwargs: report)
    suite = case.split("-")[0]
    code, out, err = invoke(capsys, "verify", "--suite", suite, "--format", fmt)
    assert (code, out, err) == (1, expected, "")


class TestReportCommand:
    def test_text_table_with_tool_tags(self, capsys, table1_path):
        code, out, _ = invoke(
            capsys, "report", "--db", table1_path,
            "--pattern", "<b !(c d) a>", "--pattern", "<b !c a>",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert "strong-strict-total(eNSP)" in header
        assert "weak-strict-partial(PNSP)" in header
        assert "weak-strict-total(NegPSpan)" in header
        assert "weak-soft-total(NegGSP)" in header

    def test_csv_rows(self, capsys, table1_path):
        code, out, _ = invoke(
            capsys, "report", "--db", table1_path, "--format", "csv",
            "--pattern", "<b !(c d) a>",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "<b !(c d) a>,4,4,4,4,2,2,2,2"


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, capsys, table1_path):
        args = ("report", "--db", table1_path, "--pattern", "<b !(c d e) a>")
        _, out1, err1 = invoke(capsys, *args)
        _, out2, err2 = invoke(capsys, *args)
        assert out1 == out2
        assert err1 == err2


class TestRepeatedRuns:
    """Calls of ``run`` in one process do not see each other: each prints
    what a first call in a new process prints."""

    def test_append_action_does_not_accumulate(self, capsys, table1_path):
        base = ("report", "--db", table1_path, "--format", "csv")
        code, out, _ = invoke(capsys, *base, "--pattern", "<b a>", "--pattern", "<b !c a>")
        assert (code, len(out.splitlines())) == (0, 3)
        second = invoke(capsys, *base, "--pattern", "<b !c a>")
        assert len(second[1].splitlines()) == 2
        assert second == first_call(*base, "--pattern", "<b !c a>")

    def test_usage_error_leaves_no_trace(self, capsys, table1_path):
        code, out, err = invoke(capsys, "match", "--db", table1_path, "--theta", "weak-soft-total")
        assert (code, out) == (2, "")
        assert err.startswith("usage: negseq match")
        argv = ("match", "--db", table1_path, "--pattern", "<b !c a>", "--theta",
                "weak-soft-total", "--explain")
        assert invoke(capsys, *argv) == first_call(*argv)

    def test_help_is_the_same_before_and_after_other_calls(self, capsys, table1_path):
        code, before, err = invoke(capsys, "match", "--help")
        assert (code, err) == (0, "")
        assert before.startswith("usage: negseq match")
        invoke(capsys, "support", "--db", table1_path, "--pattern", "<b a>", "--all-thetas")
        invoke(capsys, "match", "--db", table1_path)
        assert invoke(capsys, "match", "--help") == (0, before, "")

    def test_defaults_are_not_sticky(self, capsys):
        suite = ("verify", "--suite", "lemmas", "--draws", "20")
        code, out, _ = invoke(capsys, *suite, "--format", "csv")
        assert (code, out.splitlines()[0]) == (0, "check,draws,failures,example")
        second = invoke(capsys, *suite)
        assert second[1].endswith(" violations\n")
        assert second == first_call(*suite)


class TestSpmfThroughCli:
    def test_support_on_spmf_database(self, capsys, tmp_path):
        path = tmp_path / "db.spmf"
        path.write_text("1 2 -1 3 -1 -2\n3 -1 1 -1 -2\n")
        code, out, _ = invoke(
            capsys, "support", "--db", str(path), "--db-format", "spmf",
            "--pattern", "<1 3>", "--theta", "weak-soft-total",
        )
        assert code == 0
        assert out == "1\n"


# --- the exit-code contract, fuzzed -------------------------------------------

# Text over a tiny alphabet: two items, a non-ASCII one, an SPMF item and both
# SPMF markers, and every reserved character.
CLI_WORDS = ["a", "b", "é", "1", "-1", "-2", *sorted(RESERVED_CHARS)]
CLI_TEXT = st.lists(st.sampled_from(CLI_WORDS), max_size=8).flatmap(
    lambda words: st.sampled_from([" ".join(words), "".join(words)])
)
# Valid lines and patterns of each database format.
VALID = {
    "native": (["a (b é) a", "b a é", "a"], ["<a>", "<a !b a>", "<a !(b é) a>"]),
    "spmf": (["1 -1 1 -1 -2", "1 -1 -2"], ["<1>", "<1 !1 1>"]),
}
# The eight relation names and a broken one.
CLI_THETAS = st.sampled_from([t.spell() for t in THETAS] + ["weak-soft"])


@st.composite
def cli_cases(draw):
    """Argv that argparse accepts, without ``--db``, and the database text.
    Every value is attached with ``=``, so a value that starts with ``-``
    still parses."""
    db_format = draw(st.sampled_from(sorted(VALID)))
    lines, patterns = VALID[db_format]
    valid_line = st.sampled_from(lines)
    text = "\n".join(draw(st.one_of(
        st.lists(valid_line, max_size=3),
        st.lists(st.one_of(valid_line, CLI_TEXT), max_size=4),
    )))
    pattern = st.one_of(st.sampled_from(patterns), CLI_TEXT)
    command = draw(st.sampled_from(["match", "support", "report", "mine"]))
    argv = [command, "--db-format=" + db_format]
    if command == "mine":
        argv += [
            "--theta=" + draw(CLI_THETAS),
            f"--minsup={draw(st.integers(0, 3))}",
            "--engine=" + draw(st.sampled_from(["pruned", "bruteforce"])),
            "--max-positives=2", "--max-itemset-size=1", "--max-neg-size=1",
        ]
    elif command == "report":
        argv += ["--pattern=" + p for p in draw(st.lists(pattern, min_size=1, max_size=2))]
        argv.append("--format=" + draw(st.sampled_from(["text", "csv"])))
    else:
        argv.append("--pattern=" + draw(pattern))
        if draw(st.booleans()):
            argv.append("--all-thetas")
        else:
            argv.append("--theta=" + draw(CLI_THETAS))
        if command == "match" and draw(st.booleans()):
            argv.append("--explain")
    return argv, text


@settings(max_examples=200, deadline=None)
@given(cli_cases())
def test_exit_codes_and_streams(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "db.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run([*argv, f"--db={path}"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    elif argv[0] == "mine":
        assert err.startswith("# engine=") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
