"""Deterministic rendering of mining results as text lines and JSON.

The text reports are line-oriented and tab-separated so they can be diffed
and grepped; the structured dump carries the same information with exact
numbers (confidences as numerator/denominator), so every figure in the text
reports can be re-derived from it.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

from .phase1 import MinerState, QueryRecord
from .phase2 import AssociationRule
from .queries import instantiate, render_query

__all__ = [
    "frequent_report_lines",
    "rule_report_lines",
    "run_dump",
    "dump_json",
]


def _assignment_queries(record: QueryRecord) -> list[tuple[int, str]]:
    grouped = record.frequent_constants
    if grouped is None:
        return []
    lines = []
    for values, count in grouped.sorted_items():
        mapping = dict(zip(grouped.symbols, values))
        lines.append((count, render_query(instantiate(record.query, mapping))))
    return lines


def frequent_report_lines(state: MinerState) -> list[str]:
    """One ``<support>\\t<query>`` line per discovery, in discovery order.

    A discovery with constant placeholders is followed by one indented line
    per frequent assignment, showing the instantiated query with its own
    support; the discovery's headline support is the best assignment's.
    """
    lines = []
    for record in state.frequent_records():
        lines.append(f"{record.support}\t{render_query(record.query)}")
        for count, text in _assignment_queries(record):
            lines.append(f"  {count}\t{text}")
    return lines


def rule_report_lines(rules: list[AssociationRule]) -> list[str]:
    """``<confidence>\\t<support>\\t<antecedent> => <consequent>`` lines.

    The rules arrive already sorted by descending confidence and canonical
    text; the confidence column shows six decimals, with the exact fraction
    available in the structured dump.
    """
    return [
        f"{float(rule.confidence):.6f}\t{rule.support}\t"
        f"{render_query(rule.antecedent)} => {render_query(rule.consequent)}"
        for rule in rules
    ]


def _record_entry(state: MinerState, record: QueryRecord) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "query": render_query(record.query),
        "support": record.support,
        "level": record.level,
        "constants": None,
    }
    grouped = record.frequent_constants
    if grouped is not None:
        entry["constants"] = {
            "symbols": [f"$c{sym.index}" for sym in grouped.symbols],
            "assignments": [
                {"values": list(values), "count": count, "query": text}
                for (values, count), (_, text) in zip(
                    grouped.sorted_items(), _assignment_queries(record)
                )
            ],
        }
    return entry


def run_dump(
    state: MinerState,
    rules: list[AssociationRule],
    parameters: dict[str, Any],
) -> dict[str, Any]:
    """Complete machine-readable account of one mining run."""
    return {
        "parameters": parameters,
        "levels": [
            {
                "number": level.number,
                "candidates": list(level.candidate_keys),
                "frequent": list(level.frequent_keys),
            }
            for level in state.levels
        ],
        "frequent": [
            _record_entry(state, record) for record in state.frequent_records()
        ],
        "rules": [
            {
                "antecedent": render_query(rule.antecedent),
                "consequent": render_query(rule.consequent),
                "support": rule.support,
                "confidence": {
                    "numerator": rule.confidence.numerator,
                    "denominator": rule.confidence.denominator,
                },
            }
            for rule in rules
        ],
    }


def dump_json(payload: dict[str, Any], handle: TextIO) -> None:
    """Write the structured dump to a text stream, chunk by chunk."""
    json.dump(payload, handle, indent=2, ensure_ascii=False)
    handle.write("\n")
