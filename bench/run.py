"""factgate benchmark harness.

Drives factgate's public API from outside `src/` on seeded scaled-rivers
inputs (see scaledrivers.py): one process, one client in a closed loop,
`jobs=1`. Usage, from the repository root:

    python3 bench/run.py --workload ask_wide_10k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see bench/README.md for both lists and what each should move). A run of one
workload, input generation and cold probes included, takes about
`--seconds`. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines above it are
a readable table and an `info` record (sample counts, quality metrics,
machine).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = ROOT / "fixtures" / "rivers"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from oracle import Oracle  # noqa: E402
from scaledrivers import COLD_KIND, generate  # noqa: E402
from tracing import Tracer, graphs_by_claims, layer_metrics  # noqa: E402

# Fresh processes per run that each time set-up and the first operation,
# spread through the window.
COLD_PROBES = 5
# On the question workloads, one validate_graph before every this many
# questions: spread through the window, the repeats see the same machine
# state as the questions do.
VALIDATE_EVERY = 2
# The measuring window ends this long before `--seconds` are up, for the
# closing work (scoring, clean-up) and interpreter exit.
TAIL_S = 1.0
# A fixed stdlib loop (parse, index, serialize 2k N-Triples-like lines)
# timed before every operation. It moves only with the machine, so its
# median over a run says how fast the machine ran: on a shared VM whole
# minutes run up to 2x slower. Every tracked timing is divided by
# (median / CAL_REF_MS) ** CAL_EXPONENT. The loop slows more than
# factgate's operations in one slow phase (up to 2.2x against 1.7x); over
# 60 runs, exponents of 0.6 and 0.7 left the narrowest spreads.
CAL_REF_MS = 10.0
CAL_EXPONENT = 0.6
_CAL_LINES = [f'<r{i % 97}> <p{i % 7}> "{i * 31 % 1000}.0" .' for i in range(2000)]


@dataclass(frozen=True)
class Spec:
    name: str
    triples: int
    qa: str | None  # "ask", "eval" or None for the validation workload
    items: int
    mock: str | None  # "echo" or "noisy"
    max_hops: int
    dirty_share: float


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    s.name: s
    for s in (
        Spec("ask_wide_10k", 10_000, "ask", 200, "echo", 3, 0.0),
        Spec("eval_narrow_10k", 10_000, "eval", 200, "noisy", 1, 0.0),
        Spec("validate_50k", 50_000, None, 0, None, 1, 0.005),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_op_ms": "ms",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "validate_s": "s",
    "peak_rss_mb": "MB",
}


PER_LAYER_UNITS = {
    "kg.parse_ms": "ms",
    "kg.graphs_built": "count",
    "kg.triples_indexed": "count",
    "kg.retrieve_ms": "ms",
    "kg.serialize_ms": "ms",
    "kg.context_triples": "count",
    "kg.context_bytes": "bytes",
    "kg.context_share": "ratio",
    "kg.find_supporting_us": "us",
    "extraction.build_lexicon_ms": "ms",
    "extraction.link_ms": "ms",
    "extraction.link_cold_ms": "ms",
    "extraction.extract_ms": "ms",
    "extraction.extract_cold_ms": "ms",
    "extraction.seeds": "count",
    "extraction.claims": "count",
    "constraints.validate_claim_ms": "ms",
    "constraints.claim_violations": "count",
    "constraints.validate_graph_ms": "ms",
    "constraints.graph_violations": "count",
    "generators.mock_ms": "ms",
    "gate.audit_self_ms": "ms",
    "gate.pipeline_self_ms": "ms",
    "gate.questions": "count",
    "gate.answer": "count",
    "gate.abstain.no_evidence": "count",
    "gate.abstain.constraint_violation": "count",
    "gate.abstain.no_claims": "count",
    "gate.licensed_claim_share": "ratio",
    "evaluation.grade_us": "us",
    "evaluation.compute_metrics_ms": "ms",
    "evaluation.failed": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or fixtures)."""


def import_factgate():
    """Import factgate from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    for required in (src / "factgate" / "__init__.py", FIXTURES / "constraints.txt"):
        if not required.is_file():
            raise BenchError(f"missing {required.relative_to(ROOT)}")
    sys.path.insert(0, str(src))
    fg = importlib.import_module("factgate")
    if Path(fg.__file__).resolve().parent != (src / "factgate").resolve():
        raise BenchError(f"factgate imported from {fg.__file__}, not from src/")
    return fg


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else nullcontext()


class Session:
    """factgate state for one workload, loaded the way the CLI loads it."""

    def __init__(
        self, fg, spec: Spec, workdir: Path, seed: int, tracer: Tracer | None = None
    ):
        self.fg, self.spec = fg, spec
        t0 = perf_counter()
        with _span(tracer, "parse_ntriples"):
            self.graph = fg.parse_ntriples((workdir / "graph.nt").read_text("utf-8"))
        with _span(tracer, "parse_manifest"):
            self.constraints = fg.parse_manifest(
                (FIXTURES / "constraints.txt").read_text("utf-8")
            )
        with _span(tracer, "parse_rules"):
            self.rules = fg.parse_rules((FIXTURES / "rules.txt").read_text("utf-8"))
        with _span(tracer, "build_lexicon"):
            self.lexicon = fg.build_lexicon(self.graph, [fg.Iri("label")])
        self.setup_s = perf_counter() - t0
        self.items = fg.load_dataset(workdir / "qa.jsonl") if spec.qa else []
        if spec.mock == "echo":
            behavior = fg.MockBehavior(fg.MockMode.ECHO_CONTEXT)
        else:
            behavior = fg.MockBehavior(fg.MockMode.NOISY, 0.6, 0.3, seed=seed)
        self.factory = fg.evaluation.mock_factory(behavior, rules=self.rules)

    def ask(self, item):
        """One gated QA item: run_pipeline plus grading, via run_condition."""
        fg = self.fg
        return fg.evaluation.run_condition(
            fg.Condition.ORACLE, [item], self.graph, self.constraints,
            self.factory, self.lexicon, self.rules, max_hops=self.spec.max_hops,
        )[0]

    def validate(self):
        return self.fg.validate_graph(self.graph, self.constraints)

    def cold_item(self):
        """The question a cold start runs: the first of a fixed kind that
        the mock answers with its answer key, so that its work has the same
        shape on every seed (the echo mock answers every item alike)."""
        kind = COLD_KIND[self.spec.qa]
        return next(
            i for i in self.items
            if i.id.startswith(f"{kind}-")
            and (self.spec.mock == "echo" or self.factory(i)(i.question, "") == i.gold_answer)
        )

    def first_op(self):
        return self.ask(self.cold_item()) if self.items else self.validate()


class Runner:
    """Runs operations, checks each with the oracle and counts failures."""

    def __init__(self, session: Session, oracle: Oracle, tracer: Tracer | None):
        self.session, self.oracle, self.tracer = session, oracle, tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.decisions: list = []
        evaluation = session.fg.evaluation
        pipeline = evaluation.run_pipeline

        def tapped(*args, **kwargs):
            decision = pipeline(*args, **kwargs)
            self.decisions.append(decision)
            return decision

        # The oracle needs each gate decision, which run_condition keeps to
        # itself; this tap only appends it to a list.
        evaluation.run_pipeline = tapped
        self._untap = lambda: setattr(evaluation, "run_pipeline", pipeline)

    def close(self) -> None:
        self._untap()

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems[:3])

    def ask(self, item, qid: str):
        """Time one QA item; returns (seconds, record or None)."""
        if self.tracer:
            self.tracer.qid = qid
        self.attempted += 1
        self.decisions.clear()
        t0 = perf_counter()
        try:
            with _span(self.tracer, "op"):
                record = self.session.ask(item)
        except Exception:  # a failed operation is counted, not fatal
            elapsed = perf_counter() - t0
            self._fail([traceback.format_exc(limit=3)])
            return elapsed, None
        elapsed = perf_counter() - t0
        problems = [] if len(self.decisions) == 1 else ["no single gate decision"]
        for decision in self.decisions:
            problems += self.oracle.check_decision(decision)
        if record.failed:
            problems.append("failed record")
        if problems:
            self._fail([f"{item.id}: {p}" for p in problems])
        return elapsed, record

    def validate(self, qid: str) -> float:
        if self.tracer:
            self.tracer.qid = qid
        self.attempted += 1
        t0 = perf_counter()
        try:
            with _span(self.tracer, "validate_graph") as span:
                report = self.session.validate()
        except Exception:
            elapsed = perf_counter() - t0
            self._fail([traceback.format_exc(limit=3)])
            return elapsed
        elapsed = perf_counter() - t0
        if span is not None:
            span.attrs["violations"] = len(report.violations)
        problems = self.oracle.check_report(report)
        if problems:
            self._fail(problems)
        return elapsed

    def cold(self) -> None:
        """The first operation of the process, checked but not timed here."""
        if self.session.items:
            self.ask(self.session.cold_item(), "cold")
        else:
            self.validate("cold")

    def window(self, deadline: float, prefix: str = "q", pause=None):
        """Operations in a closed loop until `deadline` (by `perf_counter`),
        at least one; returns (latencies, validate_graph latencies, QA
        records). Questions go through the QA set in order, so every prefix
        holds its stated mix; a validate_graph runs before every
        VALIDATE_EVERY-th question. `pause()` runs before each operation."""
        items = self.session.items
        latencies: list[float] = []
        checks: list[float] = []
        records: list = []
        while not latencies or perf_counter() < deadline:
            k = len(latencies)
            if pause is not None:
                pause()
            if items:
                if k % VALIDATE_EVERY == 0:
                    checks.append(self.validate(f"v{k}"))
                elapsed, record = self.ask(items[k % len(items)], f"{prefix}{k}")
                records.append(record)
            else:
                elapsed = self.validate(f"{prefix}{k}")
            latencies.append(elapsed)
        return latencies, checks, records


def _calibrate() -> float:
    """Seconds one run of the calibration loop takes (collector off)."""
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(12):
            index: dict = {}
            for line in _CAL_LINES:
                s, p, o, _ = line.split(" ")
                index.setdefault(s, {}).setdefault(p, []).append(o)
            "\n".join(
                f"{s} {p} {o} ." for s, po in index.items() for p, os in po.items() for o in os
            )
        return perf_counter() - t0
    finally:
        gc.enable()


def _percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def _score(fg, items, records):
    """compute_metrics over the QA items the window ran (once each)."""
    done = [(item, rec) for item, rec in zip(items, records) if rec is not None]
    t0 = perf_counter()
    metrics = fg.compute_metrics([i for i, _ in done], [r for _, r in done])
    return metrics, perf_counter() - t0


def _quality(metrics) -> dict:
    def ratio(value):
        return None if value is None else float(value)

    return {
        "accuracy": ratio(metrics.accuracy),
        "licensed_accuracy": ratio(metrics.licensed_accuracy),
        "abstention_precision": ratio(metrics.abstention_precision),
        "cvrr": ratio(metrics.cvrr),
        "far_ne": ratio(metrics.far_ne),
        "counts": vars(metrics.counts),
    }


def src_lines() -> int:
    return sum(
        len(p.read_text("utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_cold(spec: Spec, workdir: Path, seed: int) -> dict:
    """In a fresh process: set up once, then time the first operation."""
    fg = import_factgate()
    session = Session(fg, spec, workdir, seed)
    t0 = perf_counter()
    session.first_op()
    return {"setup_s": session.setup_s, "first_op_ms": 1000 * (perf_counter() - t0)}


def _run_probe(spec: Spec, workdir: Path, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", spec.name,
         "--seed", str(seed), "--probe", str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _write_inputs(spec: Spec, seed: int, workdir: Path) -> None:
    generate(seed, spec.triples, spec.qa, spec.items, spec.dirty_share).write(workdir)


def _generate(spec: Spec, seed: int, workdir: Path) -> None:
    """Write the workload's inputs from a forked child, so the generator's
    memory never counts in this process's peak RSS."""
    child = multiprocessing.get_context("fork").Process(
        target=_write_inputs, args=(spec, seed, workdir)
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise BenchError(f"input generation exited with {child.exitcode}")


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of about `seconds`; returns (result for the last line, info)."""
    deadline = perf_counter() + seconds - TAIL_S
    fg = import_factgate()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-s{seed}-", dir=WORK))
    try:
        _generate(spec, seed, workdir)
        # Only the question workloads check claims against the graph text.
        graph_nt = (workdir / "graph.nt").read_text("utf-8") if spec.qa else ""
        planted = [
            tuple(line.split("\t"))
            for line in (workdir / "planted.tsv").read_text("utf-8").splitlines()
        ]
        oracle = Oracle(graph_nt, planted)
        del graph_nt
        if trace:
            return _traced(fg, spec, seed, deadline, workdir, oracle)
        return _untraced(fg, spec, seed, deadline, workdir, oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(fg, spec, seed, deadline, workdir, oracle):
    harness_rss_mb = _rss_mb()
    session = Session(fg, spec, workdir, seed)
    runner = Runner(session, oracle, None)
    cold: list[dict] = []
    calibration: list[float] = []
    try:
        runner.cold()  # warm-up: regexes compile, caches fill
        start = perf_counter()

        def pause() -> None:
            # Cold probes spread evenly through the window, so that a phase
            # of slow machine reaches few of them.
            done = (perf_counter() - start) / max(deadline - start, 1e-9)
            if len(cold) < COLD_PROBES and done >= len(cold) / COLD_PROBES:
                cold.append(_run_probe(spec, workdir, seed))
            calibration.append(_calibrate())

        latencies, checks, records = runner.window(deadline, pause=pause)
        while len(cold) < COLD_PROBES:
            cold.append(_run_probe(spec, workdir, seed))
        if session.items:
            quality, score_s = _score(fg, session.items, records)
        else:
            quality, score_s, checks = None, 0.0, latencies
    finally:
        runner.close()
    measured = {
        "setup_s": statistics.median(c["setup_s"] for c in cold),
        "first_op_ms": statistics.median(c["first_op_ms"] for c in cold),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "ops_per_s": len(latencies) / (sum(latencies) + score_s),
        "validate_s": statistics.median(checks),
    }
    slowdown = (1000 * statistics.median(calibration) / CAL_REF_MS) ** CAL_EXPONENT
    metrics = {
        k: v * slowdown if k == "ops_per_s" else v / slowdown for k, v in measured.items()
    }
    metrics["peak_rss_mb"] = _rss_mb()
    p75, p90 = _percentile(latencies, 75), _percentile(latencies, 90)
    info = {
        "measured": measured,
        "calibration_ms": 1000 * statistics.median(calibration),
        "ops": len(latencies),
        "op_p75_ms": 1000 * p75,
        "ops_beyond_p75": sum(x > p75 for x in latencies),
        "op_p90_ms": 1000 * p90,
        "ops_beyond_p90": sum(x > p90 for x in latencies),
        "cold_probes": len(cold),
        "validate_repeats": len(checks),
        "harness_rss_mb": harness_rss_mb,
        "failed_share": runner.failed / runner.attempted,
        "problems": runner.problems[:10],
    }
    if quality is not None:
        info["quality"] = _quality(quality)
    return _result(runner, metrics, END_TO_END_UNITS), info


def _traced(fg, spec, seed, deadline, workdir, oracle):
    n_triples = len((workdir / "graph.nt").read_text("utf-8").splitlines())
    tracer = Tracer()
    tracer.qid = "setup"
    session = Session(fg, spec, workdir, seed, tracer)
    # The oracle's tap goes in first, so the tracer wraps it and uninstall
    # leaves it in place.
    runner = Runner(session, oracle, tracer)
    tracer.install(fg, session)
    try:
        runner.cold()
        # Half the window untraced, then the same operations traced: the
        # difference of the two medians is the tracing overhead.
        tracer.uninstall()
        runner.tracer = None
        plain, _, _ = runner.window((perf_counter() + deadline) / 2, prefix="u")
        runner.tracer = tracer
        tracer.install(fg, session)
        traced, _, records = runner.window(deadline)
        tracer.qid = "score"
        failed_records = sum(bool(r and r.failed) for r in records)
        if session.items:
            with tracer.span("compute_metrics"):
                _score(fg, session.items, records)
    finally:
        tracer.uninstall()
        runner.close()
    window = {f"q{k}" for k in range(len(traced))}
    metrics = layer_metrics(tracer, window, n_triples)
    metrics["evaluation.failed"] = failed_records
    common = min(len(plain), len(traced))
    plain_ms = 1000 * statistics.median(plain[:common])
    overhead = 1000 * statistics.median(traced[:common]) - plain_ms
    metrics["trace.overhead_ms"] = overhead
    metrics["trace.overhead_pct"] = 100 * overhead / plain_ms
    spans_path = WORK / f"spans-{spec.name}-s{seed}.jsonl"
    tracer.write(spans_path)
    info = {
        "ops": len(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "graphs_by_claims": graphs_by_claims(tracer, window),
        "failed_share": runner.failed / runner.attempted,
        "problems": runner.problems[:10],
    }
    return _result(runner, metrics, PER_LAYER_UNITS), info


def _result(runner: Runner, metrics: dict, units: dict) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _print_run(name: str, result: dict, info: dict) -> None:
    print(f"== {name}: attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for key, m in result["metrics"].items():
        print(f"  {key:<36} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps({"info": info}, sort_keys=True))


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_lines(),
    }


def _run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process (cold start, own peak RSS)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            raise BenchError(f"workload {name} exited with {out.returncode}")
        result = json.loads(out.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="factgate benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe:
            spec = WORKLOADS[args.workload]
            print(json.dumps(probe_cold(spec, args.probe, args.seed)))
            return 0
        if args.workload == "all":
            result = _run_all(args.seed, args.seconds, bool(args.trace))
        else:
            spec = WORKLOADS[args.workload]
            result, info = run_workload(spec, args.seed, args.seconds, bool(args.trace))
            info.update(_machine(), workload=spec.name, seed=args.seed,
                        seconds=args.seconds, trace=args.trace)
            _print_run(spec.name, result, info)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
