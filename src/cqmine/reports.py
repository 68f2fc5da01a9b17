"""Deterministic rendering of mining results as text reports and JSON.

``run.json`` carries every query text and exact number of a run
(confidences as numerator/denominator).  The text reports, line-oriented and
tab-separated so they can be diffed and grepped, show the same queries and
numbers.  All three are written in one pass over the frequent records and
one pass over the rules, and no report is held in memory.  The writer
renders no query: each headline is the record's class key, each frequent
instance the record's text, and each rule side the rule's text.

``run.json`` is byte for byte what ``json.dump(..., indent=2,
ensure_ascii=False)`` would write for the same document: its fixed-shape
entries come from indent-2 templates, and every string in them is escaped by
``json.encoder.encode_basestring``, the function that ``json.dump`` uses
with ``ensure_ascii=False``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Any, Iterable, TextIO

from .phase1 import MinerState
from .phase2 import AssociationRule

__all__ = [
    "write_frequent",
    "write_rules",
    "write_reports",
    "write_text_report",
]


def _array(items: Iterable[str], indent: str) -> str:
    """A JSON array of rendered items whose closing bracket sits at ``indent``."""
    body = f",\n{indent}  ".join(items)
    return f"[\n{indent}  {body}\n{indent}]" if body else "[]"


def _strings(items: Iterable[str], indent: str) -> str:
    return _array(map(encode_basestring, items), indent)


def _array_end(opening: str) -> str:
    """Close a top-level array whose items were each prefixed by ``opening``."""
    return "[]" if opening == "[\n" else "\n  ]"


def write_frequent(
    state: MinerState, text: TextIO | None, run_json: TextIO | None
) -> None:
    """Write each discovery, in discovery order, to the given streams.

    ``text`` gets the ``frequent.txt`` lines: ``<support>\\t<query>``, and
    for a discovery with constant placeholders one indented line per
    frequent assignment, showing the instantiated query with its own
    support; the discovery's headline support is the best assignment's.
    ``run_json`` gets the ``frequent`` array of ``run.json``.  Nothing is
    rendered here: each headline is the record's key, which is its query's
    canonical text, and each instance is the record's own text.
    """
    opening = "[\n"
    for record in state.frequent_records():
        grouped = record.frequent_constants
        query = record.key + "."
        assignments: list[tuple[tuple[str, ...], int, str]] = []
        if grouped.symbols:
            assignments = [
                (values, count, instance + ".")
                for (values, count), instance in zip(
                    grouped.sorted_items(), record.texts
                )
            ]
        if text is not None:
            text.write(f"{record.support}\t{query}\n")
            for _, count, instance in assignments:
                text.write(f"  {count}\t{instance}\n")
        if run_json is None:
            continue
        run_json.write(
            f'{opening}    {{\n      "query": {encode_basestring(query)},\n'
            f'      "support": {record.support},\n'
            f'      "level": {record.level},\n      "constants": '
        )
        opening = ",\n"
        if not grouped.symbols:
            run_json.write("null\n    }")
            continue
        symbols = _strings((f"$c{sym.index}" for sym in grouped.symbols), " " * 8)
        entries = _array(
            (
                f'{{\n            "values": {_strings(values, " " * 12)},\n'
                f'            "count": {count},\n'
                f'            "query": {encode_basestring(instance)}\n          }}'
                for values, count, instance in assignments
            ),
            " " * 8,
        )
        run_json.write(
            f'{{\n        "symbols": {symbols},\n'
            f'        "assignments": {entries}\n      }}\n    }}'
        )
    if run_json is not None:
        run_json.write(_array_end(opening))


def write_rules(
    rules: Iterable[AssociationRule], text: TextIO | None, run_json: TextIO | None
) -> None:
    """Write each rule, in the given order, to the given streams.

    ``text`` gets the ``rules.txt`` lines,
    ``<confidence>\\t<support>\\t<antecedent> => <consequent>``, whose
    confidence column shows six decimals of the exact fraction; ``run_json``
    gets the ``rules`` array of ``run.json``.
    """
    opening = "[\n"
    for rule in rules:
        numerator = rule.confidence.numerator
        denominator = rule.confidence.denominator
        if text is not None:
            text.write(
                f"{numerator / denominator:.6f}\t{rule.support}\t"
                f"{rule.antecedent} => {rule.consequent}\n"
            )
        if run_json is not None:
            run_json.write(
                f'{opening}    {{\n'
                f'      "antecedent": {encode_basestring(rule.antecedent)},\n'
                f'      "consequent": {encode_basestring(rule.consequent)},\n'
                f'      "support": {rule.support},\n'
                f'      "confidence": {{\n'
                f'        "numerator": {numerator},\n'
                f'        "denominator": {denominator}\n      }}\n    }}'
            )
            opening = ",\n"
    if run_json is not None:
        run_json.write(_array_end(opening))


def write_reports(
    state: MinerState,
    rules: Iterable[AssociationRule],
    parameters: dict[str, Any],
    run_json: TextIO,
    frequent_txt: TextIO | None = None,
    rules_txt: TextIO | None = None,
) -> None:
    """Write ``run.json``, and the text reports to the streams given for them.

    ``run.json`` is the complete machine-readable account of one mining run:
    ``parameters``, phase 1's ``levels``, the ``frequent`` discoveries and
    the ``rules``, in that order.
    """
    # parameters are small and of free shape, so json renders them itself
    rendered = json.dumps(parameters, indent=2, ensure_ascii=False)
    levels = _array(
        (
            f'{{\n      "number": {level.number},\n'
            f'      "candidates": {_strings(level.candidate_keys, " " * 6)},\n'
            f'      "frequent": {_strings(level.frequent_keys, " " * 6)}\n    }}'
            for level in state.levels
        ),
        "  ",
    )
    run_json.write(
        '{\n  "parameters": ' + rendered.replace("\n", "\n  ")
        + ',\n  "levels": ' + levels
        + ',\n  "frequent": '
    )
    write_frequent(state, frequent_txt, run_json)
    run_json.write(',\n  "rules": ')
    write_rules(rules, rules_txt, run_json)
    run_json.write("\n}\n")


def write_text_report(
    state: MinerState, rules: list[AssociationRule], out: TextIO
) -> None:
    """Both text reports on one stream, each under a header with its line count."""
    lines = sum(
        1 + len(record.frequent_constants.counts)
        if record.frequent_constants.symbols
        else 1
        for record in state.frequent_records()
    )
    out.write(f"# frequent queries: {lines}\n")
    write_frequent(state, out, None)
    out.write(f"# association rules: {len(rules)}\n")
    write_rules(rules, out, None)
