"""timeloom benchmark: run time of `timeloom run` per semantics, end to end,
and a traced run that breaks each operation down by layer.

    python3 bench/run.py --workload ward --seed 1 --seconds 35 --trace 0

Timeloom is imported from the src/ directory beside bench/; nothing needs
installing. An operation is one in-process `timeloom.cli.main(["run", ...])`
call on the rule and fact files the seeded generator wrote, in one of the
modes naive, consistent, preferred, cautious and check. Operations run one at
a time (a closed loop with one client), in passes of all five modes, until
`--seconds` is spent; each mode's time is the median over the passes. Every
output is compared with the answer the generator knows by construction.

Times are calibrated seconds (see Clock): wall seconds scaled by how fast a
fixed reference loop ran just before and after the operation. The report
lines also give the plain wall-clock medians.

`--trace 1` alternates an untraced pass with a pass that rebuilds the same
pipeline from timeloom's public functions and records a span around each
call (see spans.py); it reports per-layer self times and counts, checks the
rebuilt result against `timeline()`, and writes the spans to
.bench_work/spans-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `correct` is false when an operation returned
a success code with a wrong answer, or when the traced pipeline disagrees
with `timeline()`; operations that fail openly (a nonzero exit code, an
exception, a non-exhaustive result) count in `failed`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MODES = ("naive", "consistent", "preferred", "cautious", "check")
SETUP_RUNS = 7

# Runs in a fresh interpreter so that importing timeloom is part of set-up.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
from timeloom import ingest, parse_tes, validate_dataset
tes = parse_tes(open(sys.argv[1]).read())
validate_dataset(ingest([(sys.argv[2], None)]), tes)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s", **{f"{m}_s": "s" for m in MODES},
    "facts_per_s": "1/s", "ok_frac": "ratio", "peak_rss_mb": "MiB",
}


# ---------------------------------------------------------------------------
# Calibrated time
#
# On a shared 2-core x86 host the speed one process gets drifted by 20-30%
# between half-minute windows, so medians of plain wall time differed by as
# much between runs of identical code. The time of a fixed loop of dict,
# tuple and set work, taken beside each operation, follows that drift:
# operation time over reference time varied about 5% between runs where
# wall time varied 26%.

REFERENCE_S = 0.02  # calibrated seconds: wall seconds at a reference loop of 20 ms


def reference_loop() -> float:
    """Wall seconds of a fixed piece of dict, tuple, string and set work,
    the kind of work timeloom spends its time on."""
    t0 = perf_counter()
    groups: dict = {}
    for i in range(30_000):
        groups.setdefault((i % 251, "k%d" % (i % 17)), []).append(i)
    sorted(frozenset((k, len(v)) for k, v in groups.items()))
    return perf_counter() - t0


class Clock:
    """Times calls in calibrated seconds: wall seconds scaled by REFERENCE_S
    over the mean of the reference loops run just before and just after."""

    def __init__(self):
        self._before = reference_loop()

    def time(self, fn):
        """Returns (wall seconds, calibration factor, fn's value)."""
        t0 = perf_counter()
        value = fn()
        wall = perf_counter() - t0
        after = reference_loop()
        factor = 2 * REFERENCE_S / (self._before + after)
        self._before = after
        return wall, factor, value


# ---------------------------------------------------------------------------
# Generated files


@dataclass
class Case:
    """One generated workload and the files the program reads and writes."""

    wl: object  # workloads.Workload
    dir: Path

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def argv(self, mode: str) -> list[str]:
        argv = ["run", "--rules", self.path("rules.tes"), "--data", self.path("input.facts"),
                "--mode", mode, "--out", self.path("out.json")]
        return argv + (["--check", self.path("check.json")] if mode == "check" else [])


def fact_json(f: tuple) -> dict:
    pred, args, start, end, level = f
    return {"pred": pred, "args": list(args), "interval": {"start": start, "end": end},
            "level": level}


def write_case(wl, where: Path) -> Case:
    where.mkdir(parents=True)
    (where / "rules.tes").write_text(wl.rules)
    (where / "input.facts").write_text(wl.facts)
    target = {"kind": wl.check_kind,
              "facts": [fact_json(f) for f in sorted(wl.check_facts, key=repr)]}
    (where / "check.json").write_text(json.dumps(target) + "\n")
    return Case(wl, where)


# ---------------------------------------------------------------------------
# Operations and their judgement


def doc_models(doc: dict) -> Counter:
    return Counter(frozenset((f["pred"], tuple(f["args"]), f["interval"]["start"],
                              f["interval"]["end"], f["level"])
                             for f in m["simple"] + m["meta"])
                   for m in doc["models"])


def judge(wl, mode: str, code, error: str | None, doc: dict | None):
    """(failure or None, wrong): a failure is an exception, an unexpected
    exit code or a wrong answer; wrong marks a wrong answer under the
    expected exit code."""
    if error is not None:
        return error, False
    want = (0 if wl.check_verdict else 3) if mode == "check" else 0
    if code != want:
        return f"exit {code}", False
    if doc is None:
        return "no output", True
    if mode == "check":
        right = doc.get("recognized") is wl.check_verdict
    else:
        right = doc["exhaustive"] and doc_models(doc) == Counter(wl.expected[mode])
    return (None, False) if right else ("wrong answer", True)


def read_doc(path: str) -> dict | None:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


@dataclass
class Op:
    mode: str
    wall: float
    seconds: float  # calibrated
    failure: str | None
    wrong: bool


def cli_op(cli, clock: Clock, case: Case, mode: str) -> Op:
    out = case.path("out.json")
    Path(out).unlink(missing_ok=True)
    gc.collect()

    def call():
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                return cli.main(case.argv(mode)), None
        except Exception as e:  # one failed operation must not end the run
            return None, type(e).__name__

    wall, factor, (code, error) = clock.time(call)
    return Op(mode, wall, wall * factor, *judge(case.wl, mode, code, error, read_doc(out)))


def traced_op(tr, clock: Clock, case: Case, mode: str):
    """Returns the Op, the outcome compared against timeline() (the result,
    or the name of the exception raised), the operation's request id and
    its calibration factor."""
    from spans import traced_run
    from timeloom.errors import EnumerationCapExceeded

    Path(case.path("out.json")).unlink(missing_ok=True)
    gc.collect()

    def call():
        with tr.request(mode) as root:
            try:
                return root["request"], *traced_run(
                    tr, case.path("rules.tes"), case.path("input.facts"), mode,
                    case.path("check.json"), case.path("out.json")), None
            except EnumerationCapExceeded:  # the command line maps this to exit 2
                return root["request"], 2, "EnumerationCapExceeded", None, None
            except Exception as e:  # one failed operation must not end the run
                return root["request"], None, type(e).__name__, None, type(e).__name__

    wall, factor, (request, code, outcome, doc, error) = clock.time(call)
    op = Op(mode, wall, wall * factor, *judge(case.wl, mode, code, error, doc))
    return op, outcome, request, factor


def reference(case: Case, mode: str):
    """What timeline() gives for the traced outcome to equal; for check,
    whether the candidate is among the kind's models (None when that
    enumeration stops at the cap)."""
    from timeloom import ingest, parse_tes, timeline
    from timeloom.cli import fact_from_json

    tes = parse_tes(Path(case.path("rules.tes")).read_text())
    dataset = ingest([(case.path("input.facts"), None)])
    try:
        if mode != "check":
            return timeline(dataset, tes, mode)
        target = json.loads(Path(case.path("check.json")).read_text())
        ref = timeline(dataset, tes, target["kind"])
        if not ref.exhaustive:
            return None
        return frozenset(fact_from_json(x) for x in target["facts"]) in set(ref.models)
    except Exception as e:  # compared by name with the traced outcome
        return type(e).__name__


def clash_pairs(case: Case) -> int:
    from timeloom import infer_all_simple, ingest, parse_tes
    from timeloom.repair import temporal_conflict

    tes = parse_tes(Path(case.path("rules.tes")).read_text())
    by_key: dict = {}
    for f in infer_all_simple(ingest([(case.path("input.facts"), None)]), tes):
        by_key.setdefault(f.key, []).append(f)
    return sum(temporal_conflict(a, b) for group in by_key.values()
               for i, a in enumerate(group) for b in group[i + 1:])


# ---------------------------------------------------------------------------
# Runs


def until_spent(seconds: float, one_pass) -> list:
    """Repeat passes while another one fits in the time left (at least one)."""
    passes, start = [], perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(one_pass())
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            return passes


def setup_seconds(clock: Clock, case: Case) -> list[float]:
    """Calibrated seconds to import timeloom and load the workload's files,
    each in a fresh interpreter, timed inside it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", SETUP_CHILD, case.path("rules.tes"), case.path("input.facts")]
    out = []
    for _ in range(SETUP_RUNS):
        _, factor, proc = clock.time(lambda: subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=120, check=True))
        out.append(float(proc.stdout.strip().splitlines()[-1]) * factor)
    return out


def untraced_run(cli, case: Case, seconds: float):
    clock = Clock()
    setup = setup_seconds(clock, case)
    passes = until_spent(seconds, lambda: [cli_op(cli, clock, case, m) for m in MODES])
    n = len(passes)
    metrics = {"setup_s": statistics.median(setup)}
    notes = {"setup_s": f"median of {len(setup)} fresh interpreters"}
    for i, mode in enumerate(MODES):
        metrics[f"{mode}_s"] = statistics.median(p[i].seconds for p in passes)
        wall = statistics.median(p[i].wall for p in passes)
        notes[f"{mode}_s"] = f"median of {n}; wall-clock median {wall:.4g} s"
    metrics["facts_per_s"] = statistics.median(
        case.wl.n_facts * len(p) / sum(op.seconds for op in p) for p in passes)
    notes["facts_per_s"] = f"median of {n} passes, {case.wl.n_facts} input facts"
    ops = [op for p in passes for op in p]
    metrics["ok_frac"] = sum(op.failure is None for op in ops) / len(ops)
    notes["ok_frac"] = "operations without failure / attempted"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, notes, ops, True


def traced_run_metrics(cli, case: Case, seconds: float, spans_path: Path):
    from spans import LAYER_TIME, Tracer

    tr, clock = Tracer(), Clock()

    def one_pass():
        return ([cli_op(cli, clock, case, m) for m in MODES],
                [traced_op(tr, clock, case, m) for m in MODES])

    passes = until_spent(seconds, one_pass)
    n = len(passes)
    metrics, notes = {}, {}
    per_pass = []
    for _, traced in passes:
        layers: dict[str, float] = {}
        for _, _, request, factor in traced:
            for span, t in tr.self_times(request).items():
                layers[span] = layers.get(span, 0.0) + t * factor
        per_pass.append(layers)
    for span, name in LAYER_TIME.items():
        metrics[name] = statistics.median(t.get(span, 0.0) for t in per_pass)
        notes[name] = f"self time over one pass, median of {n}"
    last = {request for _, _, request, _ in passes[-1][1]}
    spans = [s for s in tr.spans if s["request"] in last]

    def count(span: str, key: str, agg=max) -> int:
        values = [s[key] for s in spans if s["name"] == span and key in s]
        return agg(values) if values else 0

    metrics.update({
        "language.rules": count("language", "rules"),
        "ingest.facts": count("ingest", "facts"),
        **{f"query.{k}": count("query", k) for k in ("exists", "ends", "windows", "instances")},
        "simple.facts": count("simple", "facts"),
        "simple.levels": count("simple", "levels"),
        "repair.repairs": count("repair.enum", "repairs"),
        "repair.exhaustive": count("repair.enum", "exhaustive"),
        "repair.preferred": count("repair.preferred", "repairs"),
        "repair.core_facts": count("repair.cautious", "core_facts"),
        "repair.clash_pairs": clash_pairs(case),
        "meta.closures": sum(s["name"] == "meta" for s in spans),
        "meta.facts": count("meta", "facts", sum),
        "cli.bytes": count("cli.render", "bytes", sum),
    })
    plain = sum(op.seconds for ops, _ in passes for op in ops)
    traced = sum(t[0].seconds for _, ts in passes for t in ts)
    metrics["trace.overhead_frac"] = traced / plain - 1
    notes["trace.overhead_frac"] = f"traced / untraced over {n} passes, minus 1"

    agree = True
    for i, mode in enumerate(MODES):
        got, want = passes[-1][1][i][1], reference(case, mode)
        same = want is None or got == want
        agree = agree and same
        notes[f"timeline.{mode}"] = ("skipped: enumeration capped" if want is None
                                     else "equal" if same else "DIFFERS")
    tr.write(spans_path)
    ops = [op for plain_ops, ts in passes for op in plain_ops + [t[0] for t in ts]]
    return metrics, notes, ops, agree


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "flag" if name == "repair.exhaustive" else "count"


def main(argv: list[str] | None = None) -> int:
    from workloads import NAMES, generate

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the generated entity count (default 1)")
    args = parser.parse_args(argv)

    if not (SRC / "timeloom" / "__init__.py").is_file():
        print(f"error: no timeloom sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from timeloom import cli

    wl = generate(args.workload, args.seed, args.scale)
    WORK.mkdir(exist_ok=True)
    case = write_case(wl, WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.json"
            metrics, notes, ops, agree = traced_run_metrics(cli, case, args.seconds, spans)
        else:
            metrics, notes, ops, agree = untraced_run(cli, case, args.seconds)
    finally:
        shutil.rmtree(case.dir, ignore_errors=True)

    failed = [op for op in ops if op.failure is not None]
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale:g}  "
          f"input facts {wl.n_facts}  trace {args.trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<22} {value:>14.6g} {unit(name)}{note}")
    for name, note in notes.items():
        if name.startswith("timeline."):
            print(f"  traced {name[9:]} vs timeline(): {note}")
    for mode in MODES:
        mine = [op for op in ops if op.mode == mode]
        why = Counter(op.failure for op in mine if op.failure is not None)
        detail = ", ".join(f"{k} x{v}" for k, v in sorted(why.items()))
        print(f"  failed {mode:<10} {sum(why.values())}/{len(mine)}"
              + (f"  ({detail})" if detail else ""))
    print(f"  fail_frac {len(failed) / len(ops):.4f} ({len(failed)}/{len(ops)})")

    print(json.dumps({
        "correct": agree and not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
