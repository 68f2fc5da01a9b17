"""Seeded synthetic data on the beer schema, for the benchmark workloads.

``generate(out_dir, seed=N, rows=R, drinkers=D, bars=B, beers=E)`` writes
``schema.txt`` and one headerless CSV per relation into out_dir.  Each
relation holds exactly R distinct rows.  A row is a pair of values, and each
value's weight falls off as a Zipf law (exponent 0.8) over its domain, so a few
drinkers, bars and beers occur in many rows and most occur in few.  Rows are
drawn without replacement by weight (Efraimidis and Spirakis, 2006: keep the R
pairs with the largest ``u ** (1 / weight)``), so generation always ends.

Which rows exist is drawn from the fixed ``SHAPE_SEED``; the seed N only
names the values, by a random permutation of each domain.  So every seed gives
an isomorphic instance, and a mining run does the same work on it under
different constant names.  The same seed gives the same bytes.  Stdlib only.
"""

from __future__ import annotations

import random
from pathlib import Path

SCHEMA = """\
# Drinkers, the bars they visit, and what bars serve and drinkers like.
likes(drinker, beer)
visits(drinker, bar)
serves(bar, beer)
"""

ZIPF_S = 0.8
SHAPE_SEED = 1  # draws the rows; the seed argument only renames values


def _domain(stem: str, size: int) -> list[str]:
    width = len(str(size))
    return [f"{stem}{i:0{width}d}" for i in range(1, size + 1)]


def _pick_rows(
    rng: random.Random, left: int, right: int, rows: int
) -> list[tuple[int, int]]:
    """``rows`` distinct index pairs from left x right, Zipf-weighted on both sides.

    Index 0 is the most popular value of its domain.
    """
    if rows > left * right:
        raise ValueError(
            f"cannot draw {rows} distinct rows from {left} x {right} = {left * right} pairs"
        )
    keyed = []
    for a in range(left):
        for b in range(right):
            weight = ((a + 1) * (b + 1)) ** -ZIPF_S
            keyed.append((rng.random() ** (1.0 / weight), a, b))
    keyed.sort(reverse=True)
    return [(a, b) for _, a, b in keyed[:rows]]


def generate(
    out_dir: str | Path, *, seed: int, rows: int, drinkers: int, bars: int,
    beers: int,
) -> None:
    """Write the schema and ``likes``, ``visits``, ``serves`` CSVs to out_dir."""
    if min(rows, drinkers, bars, beers) < 1:
        raise ValueError("rows and domain sizes must be at least 1")
    shape_rng = random.Random(SHAPE_SEED)
    shapes = {
        "likes": ("d", "beer", _pick_rows(shape_rng, drinkers, beers, rows)),
        "visits": ("d", "bar", _pick_rows(shape_rng, drinkers, bars, rows)),
        "serves": ("bar", "beer", _pick_rows(shape_rng, bars, beers, rows)),
    }
    name_rng = random.Random(seed)
    names = {
        stem: name_rng.sample(_domain(stem, size), size)
        for stem, size in (("d", drinkers), ("bar", bars), ("beer", beers))
    }
    tables = {
        relation: sorted((names[left][a], names[right][b]) for a, b in pairs)
        for relation, (left, right, pairs) in shapes.items()
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "schema.txt").write_text(SCHEMA, encoding="utf-8")
    for name, table in tables.items():
        text = "".join(f"{a},{b}\n" for a, b in table)
        (out / f"{name}.csv").write_text(text, encoding="utf-8")

