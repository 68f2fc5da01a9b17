"""Command-line front end: mining runs and ad-hoc query tooling.

Subcommands:

* ``mine`` — run both mining phases and emit the frequent-query report, the
  rule report, and a structured JSON dump, either to stdout or to files.
* ``eval`` — evaluate one query against the data, printing its answers and
  support (grouped per constant assignment when placeholders are present).
* ``contain`` — classify the containment relationship between two queries.
* ``sql`` — print the SQL rendering of a query.

All output is deterministic: repeated runs over identical inputs produce
identical bytes.  Exit codes: 0 success, 2 command-line usage error,
3 input or configuration error; the process entry (``cqmine.__main__``)
adds 141 when the reader of stdout closes the pipe early.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from pathlib import Path

from .containment import (
    is_contained,
    is_diagonally_contained,
    is_equivalent,
)
from .errors import ConfigError, CqmineError
from .evaluation import evaluate, support_grouped
from .phase1 import MinerConfig, parse_key_atom, run_phase1
from .phase2 import RuleConfig, run_phase2
from .queries import parse_query, render_term
from .relational import load_instance, load_schema
from .reports import write_reports, write_text_report
from .sqlgen import emit_sql

__all__ = [
    "build_parser",
    "cmd_contain",
    "cmd_emit_sql",
    "cmd_eval",
    "cmd_mine",
    "main",
]


def _key_atom_pattern(config: MinerConfig) -> str | None:
    if config.key_atom is None:
        return None
    underscores = ", ".join("_" for _ in config.key_atom.args)
    return f"{config.key_atom.relation}({underscores})"


def _parameters(
    args: argparse.Namespace, miner: MinerConfig, rules: RuleConfig
) -> dict:
    # paths as pathlib normalizes them: ``--data ./`` is recorded as "."
    return {
        "schema": str(Path(args.schema)),
        "data": str(Path(args.data)),
        "minsup": miner.minsup,
        "max_atoms": miner.max_atoms,
        "enable_constants": miner.enable_constants,
        "key_atom": _key_atom_pattern(miner),
        "modulo_head_permutation": miner.key_atom is None,
        "minconf": {
            "numerator": rules.minconf.numerator,
            "denominator": rules.minconf.denominator,
        },
        "include_trivial": rules.include_trivial,
        # run.json has always carried a thread count; the miner is single
        # threaded, and the key keeps its old value so reports stay
        # byte-identical across versions
        "jobs": 1,
    }


def cmd_mine(args: argparse.Namespace) -> int:
    """Run phase 1 and phase 2 and emit all three reports.

    Both configurations are validated before any CSV is read.
    """
    schema = load_schema(args.schema)
    key_atom = parse_key_atom(args.key_atom, schema) if args.key_atom else None
    miner = MinerConfig(
        minsup=args.minsup,
        max_atoms=args.max_atoms,
        enable_constants=not args.no_constants,
        key_atom=key_atom,
    )
    if miner.max_atoms > 3:
        print(
            f"warning: --max-atoms {miner.max_atoms} explores a very large "
            "candidate space; expect a long run",
            file=sys.stderr,
        )
    rule_config = RuleConfig(args.minconf)
    parameters = _parameters(args, miner, rule_config)

    instance = load_instance(schema, args.data)
    state = run_phase1(instance, miner)
    # phase 2 and the reports read neither phase 1's class memo nor the keys
    # its deferred candidates wait on
    state.classes.clear()
    state.waiting.clear()
    rules = run_phase2(state, instance, rule_config)

    if args.out_dir:
        out_dir = Path(args.out_dir)
        # each report is written beside its name and renamed over it once all
        # three are whole, so a failed or stopped run leaves the previous
        # run's reports as they were, and no temporary file
        names = ("frequent.txt", "rules.txt", "run.json")
        temporaries = [out_dir / f".{name}.{os.getpid()}.tmp" for name in names]
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            with (
                open(temporaries[0], "w", encoding="utf-8") as frequent_txt,
                open(temporaries[1], "w", encoding="utf-8") as rules_txt,
                open(temporaries[2], "w", encoding="utf-8") as run_json,
            ):
                write_reports(
                    state, rules, parameters, run_json, frequent_txt, rules_txt
                )
            for temporary, name in zip(temporaries, names):
                os.replace(temporary, out_dir / name)
        except OSError as exc:
            raise ConfigError(f"cannot write reports to {out_dir}: {exc}") from exc
        finally:
            for temporary in temporaries:
                with suppress(OSError):
                    temporary.unlink()
    elif args.format == "structured":
        write_reports(state, rules, parameters, sys.stdout)
    else:
        write_text_report(state, rules, sys.stdout)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    """Print a query's answers and support, grouped when placeholders occur."""
    schema = load_schema(args.schema)
    instance = load_instance(schema, args.data)
    query = parse_query(args.query, schema)
    if query.symbolic_constants():
        grouped = support_grouped(query, instance, max(args.minsup, 1))
        print("\t".join([*(render_term(s) for s in grouped.symbols), "support"]))
        for values, count in grouped.sorted_items():
            print("\t".join([*values, str(count)]))
        return 0
    answers = evaluate(query, instance)
    for answer in sorted(answers):
        print("\t".join(answer))
    print(f"support\t{len(answers)}")
    return 0


def cmd_contain(args: argparse.Namespace) -> int:
    """Classify how two queries relate under containment."""
    schema = load_schema(args.schema) if args.schema else None
    q1 = parse_query(args.query1, schema)
    q2 = parse_query(args.query2, schema)
    if q1.arity == q2.arity and is_equivalent(q1, q2):
        print("equivalent")
    elif q1.arity == q2.arity and is_contained(q1, q2):
        print("q1 ⊂ q2")
    elif q1.arity == q2.arity and is_contained(q2, q1):
        print("q2 ⊂ q1")
    elif is_diagonally_contained(q1, q2):
        print("q1 ⊂Δ q2 (diagonal only)")
    elif is_diagonally_contained(q2, q1):
        print("q2 ⊂Δ q1 (diagonal only)")
    else:
        print("incomparable")
    return 0


def cmd_emit_sql(args: argparse.Namespace) -> int:
    """Print the SQL rendering of one query."""
    schema = load_schema(args.schema)
    print(emit_sql(parse_query(args.query, schema), schema))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_data_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schema", required=True, help="schema declaration file")
    parser.add_argument("--data", required=True, help="directory of relation CSV files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqmine",
        description="Frequent conjunctive queries and association rules "
        "over relational data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mine = commands.add_parser("mine", help="run both mining phases")
    _add_data_options(mine)
    mine.add_argument("--minsup", type=int, required=True,
                      help="minimum support (absolute count)")
    mine.add_argument("--minconf", default="1",
                      help="minimum rule confidence, a fraction or decimal in (0, 1]")
    mine.add_argument("--max-atoms", type=int, default=2,
                      help="largest query body explored (default 2)")
    mine.add_argument("--no-constants", action="store_true",
                      help="disable constant discovery")
    mine.add_argument("--key-atom", metavar="REL(_,_)",
                      help="restrict to queries containing this anchor atom, "
                      "with its variables as the head")
    mine.add_argument("--out-dir",
                      help="write frequent.txt, rules.txt and run.json here "
                      "instead of stdout")
    mine.add_argument("--format", choices=("text", "structured"), default="text",
                      help="stdout format when --out-dir is not given")
    mine.set_defaults(handler=cmd_mine)

    evaluate_cmd = commands.add_parser("eval", help="evaluate one query")
    _add_data_options(evaluate_cmd)
    evaluate_cmd.add_argument("--minsup", type=int, default=1,
                              help="hide constant assignments below this support")
    evaluate_cmd.add_argument("query", help="query text")
    evaluate_cmd.set_defaults(handler=cmd_eval)

    contain = commands.add_parser("contain",
                                  help="compare two queries under containment")
    contain.add_argument("--schema", help="optional schema for validation")
    contain.add_argument("query1", help="first query")
    contain.add_argument("query2", help="second query")
    contain.set_defaults(handler=cmd_contain)

    sql = commands.add_parser("sql", help="print a query's SQL rendering")
    sql.add_argument("--schema", required=True, help="schema declaration file")
    sql.add_argument("query", help="query text")
    sql.set_defaults(handler=cmd_emit_sql)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CqmineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
