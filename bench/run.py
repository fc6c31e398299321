#!/usr/bin/env python3
"""The negseq benchmark.

    python3 bench/run.py --workload {mine,query,dense,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout. One process, one client, closed
loop: each operation of a workload is a ``negseq.cli.run(argv)`` call with
stdout and stderr captured, and a pass is the workload's fixed list of
operations. Inputs are generated from the seed and written under
``.bench_run/``; negseq sees only those files and argv.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``spans.py``). The last line of stdout
is one JSON object; the lines before it repeat every metric by name and unit
and list the failures. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import calibration
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
# Set-ups per end-to-end run; setup_s is their median.
SETUPS = 3
PROCESS_RUNS = 5


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode("utf-8")).hexdigest()


def import_negseq():
    """A fresh import of negseq from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "negseq" or m.startswith("negseq.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("negseq")
    importlib.import_module("negseq.cli")
    return lib


def run_op(run, op: workloads.Op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(op.argv))
    except Exception as exc:  # escaping cli.run is a failed operation
        code, error = None, type(exc).__name__
    seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), error, seconds)


def run_pass(run, ops, tracer=None, reps=None) -> tuple[float, list[Outcome], float]:
    """(wall seconds, outcomes, cost in blocks) of one pass. With ``reps``,
    ``reps[i]`` calibration blocks are timed just before operation i and again
    after it; its cost in blocks is its time over the mean block time of the
    two. The pass's cost is the sum, and its wall time leaves the blocks out."""
    outcomes = []
    cost = 0.0
    after = calibration.block_seconds(reps[0]) if reps else 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = index
        before = after
        outcomes.append(run_op(run, op))
        if reps:
            after = calibration.block_seconds(reps[index])
            cost += outcomes[-1].seconds / ((before + after) / 2)
    return sum(o.seconds for o in outcomes), outcomes, cost


def run_probes(run, probes) -> list[tuple[str, str | None]]:
    """(label, reason) for each probe, run once; the reason is None when negseq
    gave the hand-written expected outcome."""
    ctx = SimpleNamespace(lib=None, stdout=lambda label: "")
    results = []
    for op in probes:
        outcome = run_op(run, op)
        if outcome.error:
            reason = f"{outcome.error} escaped cli.run"
        elif outcome.code != op.exit_code:
            reason = f"exit {outcome.code}, expected {op.exit_code}"
        else:
            reason = Judge._check(op, outcome.stdout, outcome.stderr, ctx)
        results.append((op.label, reason))
    return results


class Judge:
    """Decides whether each execution failed: an exception escaping cli.run,
    an unexpected exit code, stdout that differs from the first digest seen
    for the operation (in this run or an earlier run of the same code and
    seed), or an answer the untimed check rejects."""

    def __init__(self, ops, digest_file: Path) -> None:
        self.ops = ops
        self.digest_file = digest_file
        self.digests: dict[int, str] = {}
        if digest_file.exists():
            stored = json.loads(digest_file.read_text())
            self.digests = {int(k): v for k, v in stored.items()}
        self.outputs: dict[tuple[int, str], tuple[str, str]] = {}
        # (operation index, exit code, exception name, stdout digest)
        self.executions: list[tuple[int, int | None, str | None, str]] = []

    def see(self, outcomes: list[Outcome], timed: bool) -> None:
        for index, outcome in enumerate(outcomes):
            digest = outcome.digest
            self.digests.setdefault(index, digest)
            self.outputs.setdefault((index, digest), (outcome.stdout, outcome.stderr))
            if timed:
                self.executions.append((index, outcome.code, outcome.error, digest))

    def failures(self, lib) -> list[tuple[str, str]]:
        """(operation label, reason) for every failed timed execution."""
        first = {self.ops[i].label: self.outputs[i, d][0] for i, d in self.digests.items() if (i, d) in self.outputs}
        ctx = SimpleNamespace(lib=lib, stdout=lambda label: first.get(label, ""))
        verdicts = {
            key: self._check(self.ops[key[0]], stdout, stderr, ctx)
            for key, (stdout, stderr) in self.outputs.items()
        }
        failed = []
        for index, code, error, digest in self.executions:
            op = self.ops[index]
            if error:
                reason = f"{error} escaped cli.run"
            elif code != op.exit_code:
                reason = f"exit {code}, expected {op.exit_code}"
            elif digest != self.digests[index]:
                reason = "stdout differs from an earlier pass or run"
            else:
                reason = verdicts[index, digest]
            if reason:
                failed.append((op.label, reason))
        return failed

    @staticmethod
    def _check(op, stdout: str, stderr: str, ctx) -> str | None:
        try:
            return op.check(stdout, stderr, ctx)
        except Exception as exc:  # output the check cannot read is a wrong answer
            return f"unreadable output ({type(exc).__name__}: {exc})"

    def save(self) -> None:
        if not self.digest_file.exists():
            self.digest_file.write_text(json.dumps(self.digests, sort_keys=True))


def code_hash() -> str:
    """Identity of the program and the benchmark, for comparing digests
    between runs."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("negseq/**/*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def setup(name: str, seed: int, workdir: Path):
    """Generate and write the inputs, import negseq, make one warm-up pass."""
    start = time.perf_counter()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.write()
    lib = import_negseq()
    _, warm, _ = run_pass(lib.cli.run, workload.ops)
    return time.perf_counter() - start, workload, lib, warm


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def install_spans(tracer: spans.Tracer, lib) -> None:
    """Wrap each public function in the namespace of the module calling it."""
    cli, matching, mining, orders = lib.cli, lib.matching, lib.mining, lib.orders

    def load_note(args, db):
        bits = max((i.mask.bit_length() for s in db.sequences for i in s.itemsets), default=0)
        return os.path.getsize(args[0]), bits

    def db_size(args, result):
        return len(args[1])

    def mine_note(args, result):
        st = result.stats
        return st.candidates, st.support_calls, st.pruned_subtrees, len(result.frequent)

    tracer.patch(cli, "load_database", "textio.load", load_note)
    tracer.patch(cli, "parse_pattern", "textio.parse_pattern")
    for attr in ("render_pattern", "render_sequence", "csv_row", "aligned_rows", "dominance_table_to_text"):
        tracer.patch(cli, attr, "textio.render")
    tracer.patch(cli, "contains", "matching.contains", lambda a, r: r.total_positive_embeddings)
    for owner in (cli, mining):
        tracer.patch(owner, "support", "matching.support", db_size)
    tracer.patch(mining, "weak_strong_support", "matching.weak_strong_support", db_size)
    for owner in (cli, matching, orders):
        tracer.patch(owner, "theta_bits", "matching.theta_bits")
    for owner in (cli, orders):
        tracer.patch(owner, "all_theta_supports", "matching.all_theta_supports")
    tracer.patch(orders, "is_contained", "matching.is_contained")
    for attr in ("mine_pruned", "mine_bruteforce"):
        tracer.patch(cli, attr, "mining.mine", mine_note)
    for owner in (cli, orders):
        tracer.patch(owner, "default_space", "orders.space")
    tracer.patch(orders.ContainmentGrid, "__init__", "orders.grid_build", lambda a, r: a[0].pairs)
    for attr, name in (
        ("verify_dominance", "orders.dominance"),
        ("verify_anti_monotonicity", "orders.antimono"),
        ("verify_equivalence", "orders.equivalence"),
        ("verify_invariants", "orders.lemmas"),
    ):
        tracer.patch(cli, attr, name)


def pass_metrics(s: spans.Summary, cap: int) -> dict[str, float]:
    loads = s.notes("textio.load")
    mined = s.notes("mining.mine")
    candidates = sum(m[0] for m in mined)
    frequent = sum(m[3] for m in mined)
    embeddings = s.notes("matching.contains")
    decisions = (
        s.calls("matching.contains") + s.calls("matching.theta_bits")
        + s.calls("matching.is_contained") + sum(s.notes("matching.support"))
        + sum(s.notes("matching.weak_strong_support"))
    )
    m = {
        "textio.load_s": s.seconds("textio.load"),
        "textio.load_calls": s.calls("textio.load"),
        "textio.bytes": sum(b for b, _ in loads),
        "textio.parse_pattern_s": s.seconds("textio.parse_pattern"),
        "textio.render_s": s.seconds("textio.render"),
        "model.mask_bits": max((bits for _, bits in loads), default=0),
    }
    for fn in ("support", "contains", "theta_bits", "weak_strong_support"):
        m[f"matching.{fn}_s"] = s.seconds(f"matching.{fn}")
        m[f"matching.{fn}_calls"] = s.calls(f"matching.{fn}")
    m["matching.decisions"] = decisions
    m["matching.us_per_decision"] = 1e6 * s.outer_seconds("matching.") / decisions if decisions else 0.0
    m["matching.embeddings"] = sum(embeddings)
    m["matching.cap_hits"] = sum(1 for e in embeddings if e >= cap)
    m["mining.candidates"] = candidates
    m["mining.support_calls"] = sum(x[1] for x in mined)
    m["mining.pruned_subtrees"] = sum(x[2] for x in mined)
    m["mining.frequent"] = frequent
    m["mining.frequent_per_candidate"] = frequent / candidates if candidates else 0.0
    m["mining.self_s"] = s.self_seconds("mining.mine")
    m["orders.space_s"] = s.seconds("orders.space")
    m["orders.grid_build_s"] = s.seconds("orders.grid_build")
    m["orders.grid_pairs"] = sum(s.notes("orders.grid_build"))
    for suite in ("dominance", "antimono", "equivalence", "lemmas"):
        m[f"orders.{suite}_s"] = s.seconds(f"orders.{suite}")
    return m


def build_model(lib, db) -> tuple[float, int]:
    """Seconds to build Itemset, Sequence and SequenceDatabase values from
    the generated item ids, and the widest mask."""
    tokens = sorted({t for seq in db for itemset in seq for t in itemset})
    ids = {t: i for i, t in enumerate(tokens)}
    id_db = [[[ids[t] for t in itemset] for itemset in seq] for seq in db]
    model = lib.model
    start = time.perf_counter()
    built = model.SequenceDatabase(
        tuple(model.Sequence(tuple(model.Itemset.of(i) for i in seq)) for seq in id_db),
        model.Dictionary(tokens),
    )
    seconds = time.perf_counter() - start
    return seconds, max(i.mask.bit_length() for s in built.sequences for i in s.itemsets)


def process_ms(workdir: Path) -> float:
    """Median wall time of a ``python -m negseq`` process on a one-line database."""
    db = workdir / "one.txt"
    db.write_text("a b\n", encoding="utf-8")
    argv = [sys.executable, "-m", "negseq", "match", "--db", str(db), "--pattern", "<a>", "--theta", "weak-soft-total"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(PROCESS_RUNS):
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(1000 * (time.perf_counter() - start))
        if done.returncode != 0 or done.stdout != "seq,contained\n1,true\n":
            raise RuntimeError(f"python -m negseq failed: {done.stderr.strip()}")
    return statistics.median(times)


# ---------------------------------------------------------------------------


UNITS = {"setup_s": "s", "wall_ref": "blocks", "peak_rss_mb": "MB", "wall_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name == "textio.bytes":
        return "bytes"
    if name == "model.mask_bits":
        return "bits"
    if name == "matching.us_per_decision":
        return "us"
    if name.endswith(("frequent_per_candidate", "_ratio")):
        return "ratio"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    try:
        return _measure(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    setups = []
    for _ in range(1 if trace else SETUPS):
        elapsed, workload, lib, warm = setup(name, seed, workdir)
        setups.append((elapsed, warm))
    ops = workload.ops
    judge = Judge(ops, OUT / f"digests-{name}-{seed}-{code_hash()}.json")
    for _, warm in setups:
        judge.see(warm, timed=False)

    walls, costs, traced_walls, latencies = [], [], [], []
    tracer = spans.Tracer()
    ranges = []
    # The traced run compares raw wall times and times no blocks.
    reps = None if trace else calibration.reps_for([o.seconds for o in setups[-1][1]])
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds or (trace and not traced_walls):
        wall, outcomes, cost = run_pass(lib.cli.run, ops, reps=reps)
        walls.append(wall)
        costs.append(cost)
        latencies += [(op.label, o.seconds) for op, o in zip(ops, outcomes)]
        judge.see(outcomes, timed=True)
        if trace:
            install_spans(tracer, lib)
            run = tracer.wrap("cli.run", lib.cli.run, lambda a, r: a[0][0])
            lo = tracer.mark()
            wall, outcomes, _ = run_pass(run, ops, tracer)
            tracer.restore()
            ranges.append((lo, tracer.mark()))
            traced_walls.append(wall)
            judge.see(outcomes, timed=True)

    if trace:
        install_spans(tracer, lib)
        lo = tracer.mark()
        probes = run_probes(tracer.wrap("cli.run", lib.cli.run), workload.probes)
        tracer.restore()
        probe_range = (lo, tracer.mark())
    else:
        probes = run_probes(lib.cli.run, workload.probes)

    check_start = time.perf_counter()
    failures = judge.failures(lib)
    check_s = time.perf_counter() - check_start
    judge.save()
    attempted = len(judge.executions)
    report = {
        "workload": name, "seed": seed, "params": workload.params,
        "passes": len(walls) + len(traced_walls), "ops_per_pass": len(ops),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "check_s": check_s, "probes": probes,
    }
    if not trace:
        op_seconds = [sec for _, sec in latencies]
        tail_ms, tail_pct = tail(op_seconds)
        report["metrics"] = {
            "setup_s": statistics.median(e for e, _ in setups),
            "wall_ref": statistics.median(costs),
            "peak_rss_mb": peak_rss_mb(),
        }
        # Printed, but not in the JSON line: wall_s drifts with the speed of
        # the host (see calibration.py); on workloads with a few unlike
        # operations a pass, the median and the tail fall between operation
        # kinds and move with the seed; and some of these are 0.
        report["extra"] = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * statistics.median(op_seconds),
            "op_tail_ms": 1000 * tail_ms,
            "op_tail_percentile": tail_pct,
            "op_samples": len(op_seconds),
            "failed_ratio": len(failures) / attempted,
        }
        for label in dict.fromkeys(label for label, _ in latencies):
            seconds_ = statistics.median(s for lb, s in latencies if lb == label)
            if label.startswith("mine."):
                report["extra"][f"{label}_s"] = seconds_
            report.setdefault("ops", {})[label] = seconds_
    else:
        cap = lib.matching.DEFAULT_EMBEDDING_CAP
        per_pass = [pass_metrics(spans.Summary(tracer, [r]), cap) for r in ranges]
        metrics = {k: spans.median(p[k] for p in per_pass) for k in per_pass[0]}
        # Cap hits are counted over a pass plus the probes, where the known one is.
        metrics["matching.cap_hits"] += pass_metrics(spans.Summary(tracer, [probe_range]), cap)["matching.cap_hits"]
        both = spans.Summary(tracer, ranges)
        for cmd in ("match", "support", "mine", "verify", "report"):
            metrics[f"cli.{cmd}_ms"] = spans.median(both.durations_ms("cli.run", cmd))
        metrics["cli.self_ms"] = spans.median(both.self_ms("cli.run"))
        metrics["cli.process_ms"] = process_ms(workdir)
        builds = [build_model(lib, db) for db in workload.dbs for _ in range(3)]
        metrics["model.build_s"] = spans.median(s for s, _ in builds)
        metrics["model.mask_bits"] = max([metrics["model.mask_bits"], *(b for _, b in builds)])
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
        report["metrics"] = metrics
        tracer.write(str(OUT / f"spans-{name}.tsv"))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "negseq" / "cli.py").is_file():
        print(f"bench: no negseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"# workload {report['workload']} seed {report['seed']} params {json.dumps(report['params'])}")
    print(f"# {report['passes']} passes x {report['ops_per_pass']} operations; "
          f"untimed output checks took {report['check_s']:.2f} s")
    for label, reason in dict.fromkeys(report["failures"]):
        print(f"# FAILED {label}: {reason}")
    for label, reason in report["probes"]:
        print(f"# KNOWN DEFECT {label}: {reason}" if reason else f"# probe {label}: expected outcome")
    if report["probes"]:
        print(f"# known_defects = {sum(1 for _, r in report['probes'] if r)} count")
    for label, seconds_ in report.get("ops", {}).items():
        print(f"# op {label}: median {1000 * seconds_:.3f} ms")
    extra = report.get("extra", {})
    rows = dict(report["metrics"])
    rows.update(extra)
    for key, value in rows.items():
        unit = UNITS.get(key) or ("%" if key == "op_tail_percentile" else layer_unit(key))
        print(f"# {key} = {value:.6g} {unit}")
    units = UNITS if not args.trace else {k: layer_unit(k) for k in report["metrics"]}
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
