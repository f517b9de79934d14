"""Byte-for-byte determinism differ for benchmark artifacts.

CI regenerates the two committed records (``BENCH_figures.json``,
``BENCH_smoke.json`` — tier-1 regenerates the latter too) and runs the
seeded cluster replay twice, and pipes each pair through this module:
every JSON artifact and JSONL request log must be **identical** once the
wall-clock noise is stripped.  The modeled numbers (simulated seconds,
cell counts, hit rates, record sequences) are deterministic by
construction — host timing is the only thing allowed to differ — so a
surviving diff is either a modeled change (commit the regenerated
record with it) or a nondeterminism bug (an unstable iteration order,
an unseeded random, a race), and fails the build.

Normalization: volatile keys are removed recursively, everything else
is re-serialized canonically (sorted keys) and compared byte for byte::

    python -m repro.bench.determinism fresh/BENCH_smoke.json BENCH_smoke.json
    python -m repro.bench.determinism --jsonl a/events.jsonl b/events.jsonl

A key is volatile when it measures host time: ``wall_seconds`` and any
``*_wall_seconds``, wall-derived ratios (``wall_speedup``), and the
engine's queueing/merge clocks.  Everything else — including every
``*sim_seconds`` and ``modeled_*`` value — must match exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

#: Keys stripped before comparison — host wall-clock measurements and
#: quantities derived from them.  Matching is exact or by suffix so duel
#: summaries (``buc_dict_wall_seconds``) normalize like run rows.
VOLATILE_KEYS = frozenset(
    {
        "wall_seconds",
        "wall_speedup",
        "merge_seconds",
        "queue_wait_seconds",
        "partition_seconds",
        "total_wall_seconds",
    }
)
VOLATILE_SUFFIXES = ("_wall_seconds", "_wall_speedup")


def is_volatile(key: str) -> bool:
    return key in VOLATILE_KEYS or key.endswith(VOLATILE_SUFFIXES)


def normalize(value: Any) -> Any:
    """Strip volatile keys recursively; leave everything else intact."""
    if isinstance(value, dict):
        return {
            key: normalize(item)
            for key, item in value.items()
            if not is_volatile(key)
        }
    if isinstance(value, list):
        return [normalize(item) for item in value]
    return value


def canonical(value: Any) -> str:
    """One canonical byte representation of a normalized document."""
    return json.dumps(normalize(value), sort_keys=True, separators=(",", ":"))


def diff_json(path_a: str, path_b: str) -> Optional[str]:
    """None when the two JSON documents normalize identically."""
    with open(path_a, "r", encoding="utf-8") as handle:
        doc_a = json.load(handle)
    with open(path_b, "r", encoding="utf-8") as handle:
        doc_b = json.load(handle)
    if canonical(doc_a) == canonical(doc_b):
        return None
    return _first_divergence(normalize(doc_a), normalize(doc_b), "$")


def diff_jsonl(path_a: str, path_b: str) -> Optional[str]:
    """None when the two JSON-Lines logs normalize identically."""
    lines_a = _read_jsonl(path_a)
    lines_b = _read_jsonl(path_b)
    if len(lines_a) != len(lines_b):
        return (
            f"line counts differ: {len(lines_a)} vs {len(lines_b)}"
        )
    for index, (doc_a, doc_b) in enumerate(zip(lines_a, lines_b)):
        if canonical(doc_a) != canonical(doc_b):
            where = _first_divergence(
                normalize(doc_a), normalize(doc_b), f"line {index + 1}"
            )
            return where
    return None


def _read_jsonl(path: str) -> List[Any]:
    documents: List[Any] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                documents.append(json.loads(line))
    return documents


def _first_divergence(a: Any, b: Any, path: str) -> str:
    """A human-readable pointer at the first differing element."""
    if isinstance(a, dict) and isinstance(b, dict):
        only_a = sorted(set(a) - set(b))
        only_b = sorted(set(b) - set(a))
        if only_a or only_b:
            return (
                f"{path}: key sets differ"
                f" (only in first: {only_a}, only in second: {only_b})"
            )
        for key in sorted(a):
            if canonical(a[key]) != canonical(b[key]):
                return _first_divergence(a[key], b[key], f"{path}.{key}")
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: lengths differ ({len(a)} vs {len(b)})"
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            if canonical(item_a) != canonical(item_b):
                return _first_divergence(
                    item_a, item_b, f"{path}[{index}]"
                )
    return f"{path}: {a!r} != {b!r}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.determinism",
        description=(
            "Compare two benchmark artifacts for determinism, ignoring"
            " wall-clock keys."
        ),
    )
    parser.add_argument("first", help="artifact from the first run")
    parser.add_argument("second", help="artifact from the second run")
    parser.add_argument(
        "--jsonl",
        action="store_true",
        help="compare as JSON Lines (one document per line)",
    )
    args = parser.parse_args(argv)
    differ = diff_jsonl if args.jsonl else diff_json
    problem = differ(args.first, args.second)
    if problem is not None:
        print(
            f"NONDETERMINISM {args.first} vs {args.second}: {problem}",
            file=sys.stderr,
        )
        return 1
    print(f"deterministic: {args.first} == {args.second} (normalized)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
