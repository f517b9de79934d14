"""What ``x3 trace`` does: explore dumped trace JSONL.

Input is the canonical JSONL the serving stack writes (``x3 server
--trace-jsonl`` / ``x3 cluster --trace-jsonl`` or
``TraceStore.write_jsonl``): one JSON object per finished trace, spans
inline.  A backend's request log (``--log-jsonl``, ``x3 top --jsonl``)
is the same format, one one-span record per read or write.  ``show``
renders one trace as an indented waterfall — children
under parents, bars proportional to wall time — or converts it to the
Chrome ``trace_event`` format for ``chrome://tracing`` / Perfetto.
``--jsonl`` re-emits the (filtered) records canonically, which is what
the CI determinism job byte-compares across two seeded runs.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.export import chrome_trace_json
from repro.obs.span import TraceSpan
from repro.obs.trace_store import TraceStore

#: Waterfall bar width in characters.
BAR_WIDTH = 28


def load_traces(path: str) -> List[Dict[str, Any]]:
    """Parse one trace dict per non-empty JSONL line."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                decoded = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: not JSON: {error}"
                ) from None
            if not isinstance(decoded, dict) or "trace_id" not in decoded:
                raise ValueError(
                    f"{path}:{number}: not a trace record (missing "
                    f"'trace_id')"
                )
            records.append(decoded)
    return records


def filter_traces(
    records: Sequence[Dict[str, Any]],
    *,
    status: Optional[str] = None,
    name: Optional[str] = None,
    retained: bool = False,
) -> List[Dict[str, Any]]:
    out = []
    for record in records:
        if status is not None and record.get("status") != status:
            continue
        if name is not None and name not in str(record.get("name", "")):
            continue
        if retained and not record.get("retained"):
            continue
        out.append(record)
    return out


def find_trace(
    records: Sequence[Dict[str, Any]], prefix: str
) -> Dict[str, Any]:
    """The unique trace whose id starts with ``prefix``; failing that,
    the record whose ``seq`` is ``prefix`` (request-log records of
    unsampled requests have no trace id)."""
    matches = [
        record
        for record in records
        if str(record.get("trace_id", "")).startswith(prefix)
    ] or [record for record in records if str(record.get("seq")) == prefix]
    if not matches:
        raise ValueError(f"no trace with id prefix or seq {prefix!r}")
    if len(matches) > 1:
        ids = ", ".join(
            str(record["trace_id"])[:12] for record in matches[:5]
        )
        raise ValueError(
            f"trace id prefix {prefix!r} is ambiguous ({ids}, ...)"
        )
    return matches[0]


def canonical_line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# waterfall rendering
# ----------------------------------------------------------------------
def _children_by_parent(
    spans: Sequence[Dict[str, Any]],
) -> Dict[str, List[Dict[str, Any]]]:
    tree: Dict[str, List[Dict[str, Any]]] = {}
    ids = {span.get("span_id") for span in spans}
    for span in spans:
        parent = str(span.get("parent_id", ""))
        if parent not in ids:
            parent = ""  # orphans (and the root) hang off the virtual top
        tree.setdefault(parent, []).append(span)
    for siblings in tree.values():
        siblings.sort(
            key=lambda s: (
                float(s.get("start_wall_seconds", 0.0)),
                str(s.get("span_id", "")),
            )
        )
    return tree


def render_waterfall(record: Dict[str, Any]) -> str:
    """One trace as an indented tree with proportional wall-time bars."""
    spans = list(record.get("spans", []))
    lines = [
        f"trace {record.get('trace_id')}  name={record.get('name')}  "
        f"status={record.get('status')}"
        + (
            f"  retained={record.get('retained')}"
            if record.get("retained")
            else ""
        )
        + f"  spans={len(spans)}  "
        f"sim={float(record.get('sim_seconds', 0.0)) * 1e3:.3f}ms"
    ]
    if not spans:
        return "\n".join(lines)
    starts = [float(s.get("start_wall_seconds", 0.0)) for s in spans]
    ends = [
        float(s.get("start_wall_seconds", 0.0))
        + float(s.get("wall_seconds", 0.0))
        for s in spans
    ]
    t0, t1 = min(starts), max(ends)
    width = max(t1 - t0, 1e-12)
    tree = _children_by_parent(spans)

    def emit(span: Dict[str, Any], depth: int) -> None:
        start = float(span.get("start_wall_seconds", 0.0))
        wall = float(span.get("wall_seconds", 0.0))
        left = int((start - t0) / width * BAR_WIDTH)
        length = max(1, int(wall / width * BAR_WIDTH))
        left = min(left, BAR_WIDTH - 1)
        length = min(length, BAR_WIDTH - left)
        bar = " " * left + "#" * length
        status = str(span.get("status", "ok"))
        flag = "" if status == "ok" else f" [{status.upper()}]"
        attrs = span.get("attrs", {})
        shown = ", ".join(
            f"{key}={attrs[key]}" for key in sorted(attrs)[:4]
        )
        lines.append(
            f"  [{bar:<{BAR_WIDTH}}] "
            + "  " * depth
            + f"{span.get('name')}"
            + (
                f" ({span.get('category')})"
                if span.get("category")
                else ""
            )
            + f" {wall * 1e3:.3f}ms"
            + (
                f" sim={float(span.get('sim_seconds', 0.0)) * 1e3:.3f}ms"
                if span.get("sim_seconds")
                else ""
            )
            + flag
            + (f"  {{{shown}}}" if shown else "")
        )
        span_id = str(span.get("span_id", ""))
        # A request-log record's one span has no id, and no children.
        for child in tree.get(span_id, []) if span_id else ():
            emit(child, depth + 1)

    for top in tree.get("", []):
        emit(top, 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the tool
# ----------------------------------------------------------------------
def run_list(args: argparse.Namespace) -> int:
    records = filter_traces(
        load_traces(args.file),
        status=args.status,
        name=args.name,
        retained=args.retained,
    )
    if args.jsonl:
        for record in records:
            print(canonical_line(record))
        return 0
    if not records:
        print("no matching traces")
        return 0
    print(
        f"{'trace_id (or seq)':32s}  {'name':16s} {'status':8s} "
        f"{'retained':8s} {'spans':>5s} {'sim_ms':>9s}"
    )
    for record in records:
        # What ``show`` takes: the trace id, or a log record's seq.
        key = record.get("trace_id") or record.get("seq", "")
        print(
            f"{str(key):32s}  "
            f"{str(record.get('name', '')):16s} "
            f"{str(record.get('status', '')):8s} "
            f"{str(record.get('retained', '') or '-'):8s} "
            f"{len(record.get('spans', [])):5d} "
            f"{float(record.get('sim_seconds', 0.0)) * 1e3:9.3f}"
        )
    print(f"{len(records)} trace(s)")
    return 0


def run_show(args: argparse.Namespace) -> int:
    record = find_trace(load_traces(args.file), args.trace_id)
    if args.chrome_out:
        # The trace id labels the one synthetic lane, so several
        # exported traces stay separable when loaded together.
        lane = f"trace-{str(record.get('trace_id', ''))[:8]}"
        document = chrome_trace_json(
            [
                TraceSpan.from_dict(span, thread=lane)
                for span in record.get("spans", [])
            ]
        )
        with open(args.chrome_out, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(
            f"wrote {len(record.get('spans', []))} spans to "
            f"{args.chrome_out}"
        )
        return 0
    print(render_waterfall(record))
    return 0


def report_store(store: TraceStore, jsonl: Optional[str]) -> None:
    """The ``--trace`` summary ``x3 server`` and ``x3 cluster`` print,
    plus the ``--trace-jsonl`` dump ``x3 trace`` reads back."""
    stats = store.stats()
    print(
        f"tracing: {stats['started']} started, "
        f"{stats['sampled']} sampled, "
        f"{stats['retained']} tail-retained, "
        f"{stats['stored']} stored"
    )
    if jsonl:
        count = store.write_jsonl(jsonl)
        print(f"wrote {count} traces to {jsonl}")
