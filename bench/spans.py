"""Spans around the benchmark's calls into timeloom's layers, and the traced
pipeline that recomposes `timeloom run` from the library's public functions.

Spans live in memory until the run writes them out. Each span records its
name, start, end, parent span and the operation (request) it belongs to,
plus counts taken at the same boundary. Nothing inside timeloom is
instrumented; every span sits in this module around one public call.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from timeloom import (
    cautious_core,
    ingest,
    infer_meta,
    parse_tes,
    preferred_repairs,
    recognize_timeline,
    repairs,
    validate_dataset,
)
from timeloom.cli import fact_from_json, render_document, result_to_json
from timeloom.query import ground_simple_heads
from timeloom.repair import DEFAULT_CAP, TimelineResult
from timeloom.simple import infer_from_aux

# span name -> per-layer time metric; an operation's own "op" span holds
# only the glue between layers
LAYER_TIME = {
    "language": "language.parse_s",
    "ingest": "ingest.load_s",
    "query": "query.ground_s",
    "simple": "simple.infer_s",
    "repair.enum": "repair.enum_s",
    "repair.preferred": "repair.preferred_s",
    "repair.cautious": "repair.cautious_s",
    "repair.check": "repair.check_s",
    "meta": "meta.close_s",
    "cli.render": "cli.render_s",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._requests = 0

    @contextmanager
    def span(self, name: str, **counts):
        """Time the block; counts set on the yielded dict are kept with it."""
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "request": self._requests, **counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, mode: str):
        """One operation: a root span whose children share its request id."""
        self._requests += 1
        with self.span("op", mode=mode) as rec:
            yield rec

    def self_times(self, request: int) -> dict[str, float]:
        """Per span name, summed over one request's spans: duration minus
        the part its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans if s["request"] == request}
        for s in self.spans:
            if s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if s["id"] in own:
                out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n")


def traced_run(tr: Tracer, rules_path: str, facts_path: str, mode: str,
               check_path: str | None, out_path: str):
    """`timeloom run --mode MODE --out OUT` rebuilt from public functions, a
    span around each call. Returns (exit code, result, output document): the
    result is a TimelineResult, or the verdict in check mode."""
    with tr.span("language") as s:
        tes = parse_tes(Path(rules_path).read_text())
        s["rules"] = (len(tes.existence) + len(tes.termination) + len(tes.windows)
                      + len(tes.meta_rules) + len(tes.constraints))
    with tr.span("ingest") as s:
        dataset = ingest([(facts_path, None)])
        validate_dataset(dataset, tes)
        s["facts"] = len(dataset)
        if mode == "check":
            target = json.loads(Path(check_path).read_text())
            candidate = frozenset(fact_from_json(x) for x in target["facts"])
    with tr.span("query") as s:
        aux = ground_simple_heads(tes, dataset)
        s.update(exists=len(aux.exists), ends=len(aux.ends),
                 windows=len(aux.windows) + len(aux.default_windows),
                 instances=len(aux.keys()))
    with tr.span("simple") as s:
        se = infer_from_aux(aux, tes)
        s.update(facts=len(se), levels=len({f.level for f in se}))

    if mode == "check":
        with tr.span("repair.check"):
            ok = recognize_timeline(dataset, tes, candidate, mode=target["kind"],
                                    cap=DEFAULT_CAP)
        with tr.span("cli.render") as s:
            doc = {"recognized": ok}
            s["bytes"] = _write(doc, out_path)
        return (0 if ok else 3), ok, doc

    if mode == "naive":
        models, exhaustive = (se,), True
    elif mode == "cautious":
        with tr.span("repair.cautious") as s:
            core = cautious_core(dataset, tes, se=se, cap=DEFAULT_CAP)
            s["core_facts"] = len(core)
        models, exhaustive = (core,), True
    else:
        name, fn = (("repair.enum", repairs) if mode == "consistent"
                    else ("repair.preferred", preferred_repairs))
        with tr.span(name) as s:
            rep = fn(dataset, tes, se=se, cap=DEFAULT_CAP)
            s.update(repairs=len(rep.repairs), exhaustive=int(rep.exhaustive))
        models, exhaustive = rep.repairs, rep.exhaustive
    full = []
    for m in models:
        with tr.span("meta") as s:
            derived = infer_meta(tes, dataset, m)
            s["facts"] = len(derived)
        full.append(m | derived)
    result = TimelineResult(mode, tuple(full), exhaustive)
    with tr.span("cli.render") as s:
        doc = result_to_json(result, tes)
        s["bytes"] = _write(doc, out_path)
    return (0 if exhaustive else 2), result, doc


def _write(doc: dict, out_path: str) -> int:
    text = render_document(doc, "json")
    Path(out_path).write_text(text)
    return len(text)

