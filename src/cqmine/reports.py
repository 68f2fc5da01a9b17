"""Deterministic rendering of mining results as text lines and JSON.

The structured dump carries every query text and exact number of a run
(confidences as numerator/denominator).  The text reports, line-oriented and
tab-separated so they can be diffed and grepped, are read off the dump, so
each query is rendered once.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

from .phase1 import MinerState, QueryRecord
from .phase2 import AssociationRule
from .queries import instantiate

__all__ = [
    "frequent_report_lines",
    "rule_report_lines",
    "run_dump",
    "dump_json",
]


def frequent_report_lines(dump: dict[str, Any]) -> list[str]:
    """One ``<support>\\t<query>`` line per discovery, in discovery order.

    A discovery with constant placeholders is followed by one indented line
    per frequent assignment, showing the instantiated query with its own
    support; the discovery's headline support is the best assignment's.
    """
    lines = []
    for entry in dump["frequent"]:
        lines.append(f"{entry['support']}\t{entry['query']}")
        if entry["constants"] is not None:
            for assignment in entry["constants"]["assignments"]:
                lines.append(f"  {assignment['count']}\t{assignment['query']}")
    return lines


def rule_report_lines(dump: dict[str, Any]) -> list[str]:
    """``<confidence>\\t<support>\\t<antecedent> => <consequent>`` lines.

    The rules arrive already sorted by descending confidence and canonical
    text; the confidence column shows six decimals of the dump's exact
    fraction.
    """
    return [
        f"{rule['confidence']['numerator'] / rule['confidence']['denominator']:.6f}"
        f"\t{rule['support']}\t{rule['antecedent']} => {rule['consequent']}"
        for rule in dump["rules"]
    ]


def _record_entry(state: MinerState, record: QueryRecord) -> dict[str, Any]:
    # ``render_query`` through the run's memo, which phase 2 has mostly filled
    canonical_form = state.canonical_form
    entry: dict[str, Any] = {
        "query": canonical_form(record.query)[0] + ".",
        "support": record.support,
        "level": record.level,
        "constants": None,
    }
    grouped = record.frequent_constants
    if grouped is not None:
        entry["constants"] = {
            "symbols": [f"$c{sym.index}" for sym in grouped.symbols],
            "assignments": [
                {
                    "values": list(values),
                    "count": count,
                    "query": canonical_form(
                        instantiate(record.query, dict(zip(grouped.symbols, values)))
                    )[0] + ".",
                }
                for values, count in grouped.sorted_items()
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
                "antecedent": rule.antecedent,
                "consequent": rule.consequent,
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
