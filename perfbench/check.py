"""Output check for one ``cqmine mine --out-dir`` run.

Three checks, all stdlib:

* ``digests``: sha256 of ``frequent.txt``, ``rules.txt`` and ``run.json``.
  The benchmark runs mine with relative ``--schema``/``--data`` paths, so the
  paths embedded in ``run.json`` and hence the digests do not depend on where
  the benchmark writes its data.  At a workload's pinned seed they must equal
  the pinned ones.
* ``check_reports``: every line of ``frequent.txt`` and ``rules.txt`` must be
  the rendering of the corresponding entry of ``run.json``.
* ``check_sqlite``: a deterministic sample of the reported supports,
  per-assignment counts and exact rule confidences is recomputed with stdlib
  ``sqlite3`` running the SQL that ``cqmine.sqlgen.emit_sql`` renders.

Each check returns a list of problems; an empty list means the output passed.
Run as a script, ``python3 check.py OUT_DIR DATA_DIR --sample N --seed S
[--pinned JSON]`` prints that list as JSON.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import random
import sqlite3
from fractions import Fraction
from pathlib import Path

REPORTS = ("frequent.txt", "rules.txt", "run.json")


def digests(out_dir: Path) -> dict[str, str]:
    result = {}
    for name in REPORTS:
        digest = hashlib.sha256()
        with open(out_dir / name, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
        result[name] = digest.hexdigest()
    return result


def check_reports(out_dir: Path, run: dict) -> list[str]:
    """The text reports must render exactly what ``run.json`` holds."""
    frequent = []
    for entry in run["frequent"]:
        frequent.append(f"{entry['support']}\t{entry['query']}")
        for assignment in (entry["constants"] or {}).get("assignments", []):
            frequent.append(f"  {assignment['count']}\t{assignment['query']}")
    rules = [
        f"{float(_confidence(rule)):.6f}\t{rule['support']}\t"
        f"{rule['antecedent']} => {rule['consequent']}"
        for rule in run["rules"]
    ]
    problems = []
    for name, expected in (("frequent.txt", frequent), ("rules.txt", rules)):
        actual = (out_dir / name).read_text(encoding="utf-8").splitlines()
        if len(actual) != len(expected):
            problems.append(f"{name}: {len(actual)} lines, run.json has {len(expected)}")
        for number, (got, want) in enumerate(zip(actual, expected), start=1):
            if got != want:
                problems.append(f"{name}:{number}: {got!r} != {want!r}")
                break
    return problems


def _confidence(rule: dict) -> Fraction:
    return Fraction(rule["confidence"]["numerator"], rule["confidence"]["denominator"])


def _database(schema, data_dir: Path) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    for decl in schema.relations:
        conn.execute(f"CREATE TABLE {decl.name} ({', '.join(decl.columns)})")
        with open(data_dir / f"{decl.name}.csv", newline="", encoding="utf-8") as handle:
            rows = {tuple(row) for row in csv.reader(handle) if row}
        marks = ", ".join("?" for _ in decl.columns)
        conn.executemany(f"INSERT INTO {decl.name} VALUES ({marks})", sorted(rows))
    return conn


def check_sqlite(run: dict, data_dir: Path, *, sample: int, seed: int) -> list[str]:
    """Recompute a seeded sample of supports and confidences with sqlite3."""
    from cqmine.queries import parse_query
    from cqmine.relational import load_schema
    from cqmine.sqlgen import emit_sql

    schema = load_schema(data_dir / "schema.txt")
    conn = _database(schema, data_dir)
    minsup = run["parameters"]["minsup"]
    memo: dict[str, int] = {}

    def support(text: str) -> int:
        if text not in memo:
            sql = emit_sql(parse_query(text, schema), schema)
            memo[text] = len(conn.execute(sql).fetchall())
        return memo[text]

    rng = random.Random(seed)
    problems = []
    try:
        for entry in _sample(rng, run["frequent"], sample):
            query = entry["query"]
            if entry["constants"] is None:
                if support(query) != entry["support"]:
                    problems.append(f"support of {query}: sqlite {support(query)}, "
                                    f"reported {entry['support']}")
                continue
            sql = emit_sql(parse_query(query, schema), schema)
            counts = {tuple(row[:-1]): row[-1]
                      for row in conn.execute(sql, {"minsup": minsup})}
            reported = {tuple(a["values"]): a["count"]
                        for a in entry["constants"]["assignments"]}
            if counts != reported or max(counts.values(), default=0) != entry["support"]:
                problems.append(f"grouped supports of {query} differ from sqlite")
        minconf = Fraction(run["parameters"]["minconf"]["numerator"],
                           run["parameters"]["minconf"]["denominator"])
        for rule in _sample(rng, run["rules"], sample):
            consequent = support(rule["consequent"])
            antecedent = support(rule["antecedent"])
            exact = Fraction(consequent, antecedent) if antecedent else None
            if (consequent != rule["support"] or exact != _confidence(rule)
                    or exact < minconf):
                problems.append(f"rule {rule['antecedent']} => {rule['consequent']}: "
                                f"sqlite {consequent}/{antecedent}, reported "
                                f"{rule['support']} at {_confidence(rule)}")
    finally:
        conn.close()
    return problems


def _sample(rng: random.Random, items: list, size: int) -> list:
    return items if len(items) <= size else rng.sample(items, size)


def check_output(
    out_dir: Path, data_dir: Path, *, sample: int, seed: int,
    pinned: dict[str, str] | None = None,
) -> list[str]:
    """Pinned digests, reports consistent with run.json, a sample with sqlite."""
    missing = [name for name in REPORTS if not (out_dir / name).is_file()]
    if missing:
        return [f"missing report {name}" for name in missing]
    if pinned is not None:
        actual = digests(out_dir)
        changed = [name for name in REPORTS if actual[name] != pinned.get(name)]
        if changed:
            return [f"digests differ from the pinned ones: {', '.join(changed)}"]
    run = json.loads((out_dir / "run.json").read_text(encoding="utf-8"))
    return check_reports(out_dir, run) or check_sqlite(
        run, data_dir, sample=sample, seed=seed
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="check one mine output")
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("data_dir", type=Path)
    parser.add_argument("--sample", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pinned", type=json.loads, help="expected digests, as JSON")
    args = parser.parse_args(argv)
    problems = check_output(args.out_dir, args.data_dir, sample=args.sample,
                            seed=args.seed, pinned=args.pinned)
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
