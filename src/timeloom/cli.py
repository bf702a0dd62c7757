"""Command-line interface: infer event timelines from rule and data files.

    timeloom run --rules care.tes --data ward.facts --mode consistent

Outputs are deterministic: facts are sorted, JSON key order is fixed, and
partitioned runs are solved and assembled in entity order.
Exit codes: 0 success, 1 rule or data error, 2 enumeration cap exceeded (or
recursion or memory exhausted during enumeration), 3 check-mode target not
recognized.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import groupby
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import (
    EnumerationCapExceeded,
    InvalidInterval,
    IoError,
    ParseError,
    ResourceExhausted,
    TimeloomError,
)
from .ingest import ingest, read_file, validate_dataset
from .language import MAX_DIGITS, NATURAL, TES, parse_tes, read_natural
from .model import (
    STAR,
    AnnotatedEventFact,
    Dataset,
    Interval,
    ObservationFact,
    Value,
    fact_key,
    value_key,
)
from .repair import DEFAULT_CAP, TimelineResult, recognize_timeline, timeline


# ---------------------------------------------------------------------------
# Serialization


def fact_to_json(f: AnnotatedEventFact, now: int | None = None) -> dict:
    """One event fact as a JSON-ready dict; an ongoing end becomes "*" and,
    under --now, gains a display-only clamped_end."""
    iv: dict = {"start": f.interval.start}
    if f.interval.ongoing:
        iv["end"] = "*"
        if now is not None:
            iv["clamped_end"] = now + 1
    else:
        iv["end"] = f.interval.end
    return {"pred": f.pred, "args": list(f.args), "interval": iv, "level": f.level}


def fact_from_json(d: dict) -> AnnotatedEventFact:
    """The inverse of `fact_to_json`. An end is a natural or "*", so JSON
    `Infinity` is refused rather than read as ongoing. The pred is a string,
    a level a positive integer and each argument a string or a natural; JSON
    `true` is neither, nor is a float. A value of another shape, or one
    without a field, is refused with a message that names the field."""
    if not isinstance(d, dict):
        raise ValueError("not a JSON object")
    for key in ("pred", "args", "interval", "level"):
        if key not in d:
            raise ValueError(f"no {key}")
    if not isinstance(d["interval"], dict):
        raise ValueError("interval is not a JSON object")
    for key in ("start", "end"):
        if key not in d["interval"]:
            raise ValueError(f"interval has no {key}")
    end = d["interval"]["end"]
    if end != "*" and not isinstance(end, int):
        raise InvalidInterval(f"bad interval end: {end!r}")
    interval = Interval(d["interval"]["start"], STAR if end == "*" else end)
    pred, level, args = d["pred"], d["level"], d["args"]
    if not isinstance(pred, str):
        raise ValueError(f"bad pred: {pred!r}")
    if type(level) is not int or level < 1:
        raise ValueError(f"bad level: {level!r}")
    if not isinstance(args, list) or not all(
            isinstance(a, str) or type(a) is int and a >= 0 for a in args):
        raise ValueError(f"bad args: {args!r}")
    return AnnotatedEventFact(pred, tuple(args), interval, level)


def _nth_fact(n: int, d) -> AnnotatedEventFact:
    """`fact_from_json` of the nth fact of a check target (from 1), its
    errors naming the fact by that position."""
    try:
        return fact_from_json(d)
    except (ValueError, InvalidInterval) as e:
        raise ValueError(f"fact {n}: {e}") from None


def _positioned(result: TimelineResult, tes: TES, now: int | None) -> dict:
    """A run document with its models as runs: the dicts of its distinct
    facts, simple facts before meta facts and each part in `fact_key`
    order; its runs, the maximal stretches of one part with one label (the
    core, or one unit and the same set of its results); and each model as
    the runs of its simple and of its meta facts, found by a scan of every
    run. When every model holds every fact, each part is one run."""
    models = result.factored
    simple: list = []
    meta: list = []
    for f in models.core.union(*[r for rs in models.units for r in rs]):
        (simple if tes.is_simple_pred(f.pred) else meta).append(f)
    facts = sorted(simple, key=fact_key) + sorted(meta, key=fact_key)
    core = (len(models.units), {0})  # the core: one more unit, whose one result every model picks
    held: dict = {}  # a unit's fact -> (the unit, its results holding it)
    for u, rs in enumerate(models.units):
        for i, r in enumerate(rs):
            for f in r:
                held.setdefault(f, (u, set()))[1].add(i)
    label = ([held.get(f, core) for f in facts] if held else [core] * len(facts)).__getitem__
    starts: list[int] = []
    parts: tuple[list, list] = ([], [])  # per part, its runs as (index, unit, results)
    for part, ps in zip(parts, (range(len(simple)), range(len(simple), len(facts)))):
        for (u, rs), run in groupby(ps, label):
            part.append((len(starts), u, rs))
            starts.append(next(run))
    runs = list(map(slice, starts, starts[1:] + [len(facts)]))  # the runs cover the facts in turn
    ranked = []
    for pick in models.picks:
        pick += (0,)
        ranked.append(([k for k, u, rs in parts[0] if pick[u] in rs],
                       [k for k, u, rs in parts[1] if pick[u] in rs]))
    return {"mode": result.mode, "models": ([fact_to_json(f, now) for f in facts], runs, ranked),
            "exhaustive": result.exhaustive}


def result_to_json(result: TimelineResult, tes: TES, now: int | None = None) -> dict:
    """A run's models as JSON-ready dicts, each model's facts sorted into
    its simple and meta sections; every model holding a fact shares its
    one dict."""
    doc = _positioned(result, tes, now)
    facts, runs, ranked = doc["models"]
    doc["models"] = [{"simple": [fj for k in s for fj in facts[runs[k]]],
                      "meta": [fj for k in m for fj in facts[runs[k]]]} for s, m in ranked]
    return doc


def _tsv_value(v: Value) -> str:
    """A data value as TSV text: a symbol that is empty, reads as a natural,
    or holds a tab, line break, comma, backslash or double quote as its JSON
    string literal, so that a row keeps its fields and reads back one way."""
    if isinstance(v, int):
        return str(v)
    if not v or NATURAL.fullmatch(v) or any(c in v for c in '\t\n\r,\\"'):
        return encode_basestring_ascii(v)
    return v


def _tsv_fact_row(fj: dict, with_clamp: bool) -> str:
    """One fact's TSV fields after the section, with the line end."""
    iv = fj["interval"]
    row = [fj["pred"], ",".join(map(_tsv_value, fj["args"])),
           str(iv["start"]), str(iv["end"]), str(fj["level"])]
    if with_clamp:
        row.append(str(iv.get("clamped_end", "")))
    return "\t".join(row) + "\n"


def _json_scalar(v: Value) -> str:
    return encode_basestring_ascii(v) if isinstance(v, str) else str(v)


def _json_fact(fj: dict, pad: str) -> str:
    """The text `json.dumps(fj, indent=2)` gives a `fact_to_json` dict,
    each newline followed by `pad` less its own newline."""
    p1, p2 = pad + "  ", pad + "    "
    args = ("," + p2).join(map(_json_scalar, fj["args"]))
    iv = ("," + p2).join(f'"{k}": {_json_scalar(v)}' for k, v in fj["interval"].items())
    return (f'{{{p1}"pred": {_json_scalar(fj["pred"])},{p1}"args": '
            + (f"[{p2}{args}{p1}]" if args else "[]")
            + f',{p1}"interval": {{{p2}{iv}{p1}}},{p1}"level": {fj["level"]}{pad}}}')


def _models(out: list, models, fmt: str, at: str, with_clamp: bool) -> None:
    """Append a run's models to `out`, each fact's text built once (for
    JSON at the facts' depth) and, for JSON, each run's text once: a model
    section is its runs' texts, appended as they are. `models` is the
    triple `_positioned` gives, or a list of model dicts that is reduced to
    it by the identity of their fact dicts, each fact a run of its own. For
    JSON `at` is the newline and indent before a model; for TSV the fields
    before its index."""
    if isinstance(models, list):
        dicts = {id(fj): fj for m in models for k in ("simple", "meta") for fj in m[k]}
        place = {i: p for p, i in enumerate(dicts)}
        ranked = [[[place[id(fj)] for fj in m[k]] for k in ("simple", "meta")] for m in models]
        models = list(dicts.values()), [slice(p, p + 1) for p in range(len(dicts))], ranked
    facts, runs, ranked = models
    if fmt != "json":
        text = [_tsv_fact_row(fj, with_clamp) for fj in facts]
        texts = [text[r] for r in runs]
        for j, sections in enumerate(ranked):
            for name, ks in zip(("simple", "meta"), sections):
                if ks:
                    rows: list[str] = []
                    for k in ks:
                        rows += texts[k]
                    sep = f"{at}{j}\t{name}\t"
                    out.extend((sep, sep.join(rows)))
        return
    key, item = at + "  ", at + "    "  # lead a model's keys and its sections' facts
    text = [_json_fact(fj, item) for fj in facts]
    sep, first, last, ends = "," + item, "[" + item, key + "]", (f',{key}"meta": ', at + "}")
    body = [sep.join(text[r]) for r in runs]
    after = [sep + b for b in body]  # a run's text after another run
    for j, sections in enumerate(ranked):
        out.append(f'{"," if j else "["}{at}{{{key}"simple": ')
        for ks, end in zip(sections, ends):
            out.extend((first, body[ks[0]], *[after[k] for k in ks[1:]], last, end) if ks
                       else ("[]", end))
    out.append(at[:-2] + "]" if ranked else "[]")


def render_document(doc: dict, fmt: str, with_clamp: bool = False) -> str:
    """Render a document `run` writes, as the text of `json.dumps(doc,
    indent=2)` or as tab-separated rows: a check verdict, a run, or a
    partitioned run whose entities are runs led by their "entity". A run's
    models may also be given as runs of facts, as `run` gives them (see
    `_positioned`). TSV leaves out every key but the models' sections and
    the verdict."""
    out: list[str] = []
    if fmt != "json":
        if "recognized" in doc:
            return f"recognized\t{json.dumps(doc['recognized'])}\n"
        for r in doc.get("entities", [doc]):
            lead = _tsv_value(r["entity"]) + "\t" if "entity" in r else ""
            _models(out, r["models"], fmt, lead, with_clamp)
        return "".join(out)

    def walk(d: dict, depth: int) -> None:
        pad = "\n" + "  " * (depth + 1)  # leads a key
        for i, (k, v) in enumerate(d.items()):
            out.append(f'{"," if i else "{"}{pad}"{k}": ')
            if k == "models":
                _models(out, v, fmt, pad + "  ", with_clamp)
            elif k == "entities":
                for j, sub in enumerate(v):
                    out.append(f'{"," if j else "["}{pad}  ')
                    walk(sub, depth + 2)
                out.append(pad + "]" if v else "[]")
            else:
                out.append(json.dumps(v))
        out.append(pad[:-2] + "}")

    walk(doc, 0)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Partitioning


def partition_dataset(dataset: Dataset, argpos: int) -> list[tuple[Value, Dataset]]:
    """Split observations by the value at one argument position; atemporal
    facts and observations without that position are shared by every entity.
    Observations of which none has that position are refused: they would
    make no entity to share them with."""
    groups: dict[Value, dict] = {}  # entity -> (kind, pred) -> its rows
    shared: dict = {}
    for table, rows in dataset.rows.items():
        for row in rows:  # an observation's row ends in its timestamp
            if table[0] is ObservationFact and len(row) > argpos + 1:
                groups.setdefault(row[argpos], {}).setdefault(table, {})[row] = None
            else:
                shared.setdefault(table, {})[row] = None
    if not groups and any(kind is ObservationFact for kind, _ in shared):
        raise TimeloomError(f"--partition-by {argpos}: no observation has an argument "
                            f"at position {argpos}")
    parts = []
    for k in sorted(groups, key=value_key):
        rows = dict(shared)
        for table, own in groups[k].items():  # the entity's rows, then the shared ones
            rows[table] = {**own, **shared.get(table, {})}
        parts.append((k, Dataset.from_rows(rows)))
    return parts


def _solve(fn, *args, **kwargs):
    """Call timeline or recognize_timeline, turning Python's recursion and
    memory limits into ResourceExhausted."""
    try:
        return fn(*args, **kwargs)
    except RecursionError:
        raise ResourceExhausted("recursion limit exceeded during enumeration") from None
    except MemoryError:
        raise ResourceExhausted("out of memory during enumeration") from None


# ---------------------------------------------------------------------------
# Entry points


def _load_rules(path: str) -> TES:
    try:
        return parse_tes(read_file(path))
    except ParseError as e:
        raise ParseError(f"{path}: {e.message}", e.line, e.col) from None


def run(args: argparse.Namespace) -> int:
    """Execute one `run` invocation, resolved by `_config_from_args`, and
    write its output; returns the exit code."""
    tes = _load_rules(args.rules)
    dataset = ingest(args.data)
    validate_dataset(dataset, tes)

    if args.mode == "check":
        try:
            target = json.loads(read_file(args.check), parse_int=read_natural)
            if not isinstance(target, dict):
                raise TypeError("the top level is not a JSON object")
            kind = target.get("kind", "consistent")
            if not isinstance(target.get("facts"), list):
                raise ValueError("facts is not a list" if "facts" in target else "no facts list")
            facts = frozenset(_nth_fact(n, x) for n, x in enumerate(target["facts"], 1))
            if kind not in ("consistent", "preferred"):
                raise ValueError(f"bad kind: {json.dumps(kind)}")
        except (ValueError, TypeError, InvalidInterval, RecursionError) as e:
            raise IoError(f"bad check target {args.check}: {e}") from None
        ok = _solve(recognize_timeline, dataset, tes, facts, mode=kind, cap=args.cap)
        _write(args, {"recognized": ok})
        return 0 if ok else 3

    def solved(data: Dataset) -> dict:
        result = _solve(timeline, data, tes, args.mode, args.cap, args.max_models)
        return _positioned(result, tes, args.now)

    if args.partition_by is None:
        doc = solved(dataset)
    else:
        entities = [{"entity": key, **solved(part)}
                    for key, part in partition_dataset(dataset, args.partition_by)]
        doc = {"mode": args.mode, "partition_by": args.partition_by, "entities": entities,
               "exhaustive": all(e["exhaustive"] for e in entities)}
    _write(args, doc)
    return 0 if doc["exhaustive"] else 2


def _write(args: argparse.Namespace, doc: dict) -> None:
    text = render_document(doc, args.format, with_clamp=args.now is not None)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as e:
            raise IoError(f"cannot write {args.out}: {e}") from None
    elif hasattr(sys.stdout, "buffer"):  # UTF-8 whatever the locale, as --out
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode())
    else:
        sys.stdout.write(text)


@cache  # one per process: parsing leaves the parser and its defaults as they were
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="timeloom",
                                description="Infer event timelines from timestamped facts.")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run inference over a rule file and data files")
    r.add_argument("--rules", required=True, help="rule file (.tes)")
    r.add_argument("--data", action="append", required=True,
                   help="fact file (.facts) or CSV file (.csv); repeatable")
    r.add_argument("--map", action="append", default=[],
                   help="mapping file for the matching CSV --data, in order")
    r.add_argument("--mode", default="naive",
                   choices=["naive", "consistent", "preferred", "cautious", "check"])
    r.add_argument("--check", help="target timeline JSON (mode check)")
    r.add_argument("--now", metavar="N", help="clamp ongoing ends to N+1 for display")
    r.add_argument("--cap", metavar="N", default=str(DEFAULT_CAP),
                   help="enumeration budget: repairs emitted plus dead-end "
                        "branches (for preferred, results plus each level's "
                        "dead ends; for cautious, only alternative provenance "
                        "supports of constraint matches); candidate subsets "
                        "examined instead when some constraint negates an "
                        "event, or names a meta event while some meta rule "
                        "negates an event or uses start/end")
    r.add_argument("--max-models", metavar="N", help="emit at most this many models")
    r.add_argument("--partition-by", metavar="N",
                   help="argument position to split entities on")
    r.add_argument("--format", default="json", choices=["json", "tsv"])
    r.add_argument("--out", help="write output here instead of stdout")
    return p


def _natural(flag: str, text: str | None) -> int | None:
    """A numeric option's value, read like every natural in the input:
    ASCII digits only."""
    if text is None:
        return None
    if not NATURAL.fullmatch(text):
        raise ValueError(f"{flag} takes a natural number, not {text!r}")
    try:
        return read_natural(text)
    except ValueError as e:
        raise ValueError(f"{flag}: {e}") from None


def _config_from_args(args: argparse.Namespace) -> None:
    """Resolve `run`'s options in place: pair each data file with its mapping
    file or None, read the naturals, refuse a --now whose clamped end N+1
    would pass the digit bound, and check --check and --partition-by
    against --mode."""
    maps = list(args.map)
    pairs: list[tuple[str, str | None]] = []
    for d in args.data:
        if d.endswith(".csv"):
            pairs.append((d, maps.pop(0) if maps else None))
        else:
            pairs.append((d, None))
    if maps:
        raise ValueError(f"{len(maps)} unused --map file(s)")
    args.data = pairs
    for name in ("now", "max_models", "cap", "partition_by"):
        setattr(args, name, _natural("--" + name.replace("_", "-"), getattr(args, name)))
    if args.now is not None and args.now + 1 >= 10 ** MAX_DIGITS:
        raise ValueError(f"--now: its clamped end N+1 has {MAX_DIGITS + 1} digits "
                         f"(at most {MAX_DIGITS})")
    if (args.mode == "check") != (args.check is not None):
        raise ValueError("--check is required for mode check and only there")
    if args.mode == "check" and args.partition_by is not None:
        raise ValueError("--partition-by splits the run modes only, not mode check")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        _config_from_args(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return run(args)
    except (EnumerationCapExceeded, ResourceExhausted) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TimeloomError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
