"""Tests of the benchmark's own parts.

Run with: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_same_seed_same_bytes(tmp_path):
    params = {"rows": 50, "drinkers": 12, "bars": 6, "beers": 9}
    gen.generate(tmp_path / "a", seed=7, **params)
    gen.generate(tmp_path / "b", seed=7, **params)
    gen.generate(tmp_path / "c", seed=8, **params)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    for name in ("likes.csv", "visits.csv", "serves.csv"):
        rows = (tmp_path / "a" / name).read_text().splitlines()
        assert len(rows) == len(set(rows)) == 50


def test_generator_seed_only_renames(tmp_path):
    params = {"rows": 30, "drinkers": 10, "bars": 5, "beers": 7}
    gen.generate(tmp_path / "a", seed=1, **params)
    gen.generate(tmp_path / "b", seed=2, **params)
    for name in ("likes.csv", "visits.csv", "serves.csv"):
        degrees = []
        for run in ("a", "b"):
            rows = [line.split(",") for line in (tmp_path / run / name).read_text().splitlines()]
            degrees.append(sorted(sorted(sum(1 for r in rows if r[i] == v)
                                         for v in {r[i] for r in rows}) for i in (0, 1)))
        assert degrees[0] == degrees[1]


def test_generator_rejects_more_rows_than_pairs(tmp_path):
    with pytest.raises(ValueError, match="distinct rows"):
        gen.generate(tmp_path, seed=1, rows=21, drinkers=10, bars=4, beers=5)


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner@m", lambda: None)

    def body():
        inner()  # 1.0 .. 4.0
        inner()  # 5.0 .. 6.0

    outer = tracer.wrap("outer@m", body)
    outer()  # 0.0 .. 10.0
    spans = tracer.spans()
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("outer@m", -1), ("inner@m", 0), ("inner@m", 0)
    ]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]
    totals = tracing.aggregate(spans)
    assert totals["outer@m"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert totals["inner@m"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert tracing.by_layer(totals, "inner")["calls"] == 2
    assert tracing.by_layer(totals, "inner", "other")["calls"] == 0


@pytest.fixture
def beer_output(tmp_path, monkeypatch):
    """A small mine run on the bundled beer data, with relative paths."""
    from cqmine.cli import main

    data = tmp_path / "data"
    data.mkdir()
    for source in (ROOT / "tests" / "fixtures" / "beer").iterdir():
        (data / source.name).write_bytes(source.read_bytes())
    monkeypatch.chdir(tmp_path)
    args = ["mine", "--schema", "data/schema.txt", "--data", "data", "--out-dir", "out",
            "--max-atoms", "1", "--minsup", "2", "--minconf", "0.5"]
    assert main(args) == 0
    return tmp_path / "out", data


def test_output_check_passes_untouched_reports(beer_output):
    out, data = beer_output
    assert check.check_output(out, data, sample=1000, seed=1) == []


def test_output_check_rejects_tampered_rules(beer_output):
    out, data = beer_output
    before = check.digests(out)
    lines = (out / "rules.txt").read_text().splitlines(keepends=True)
    confidence, rest = lines[-1].split("\t", 1)
    lines[-1] = f"{float(confidence) + 0.25:.6f}\t{rest}"
    (out / "rules.txt").write_text("".join(lines))
    problems = check.check_output(out, data, sample=1000, seed=1)
    assert problems and problems[0].startswith("rules.txt:")
    pinned = check.check_output(out, data, sample=1000, seed=1, pinned=before)
    assert pinned == ["digests differ from the pinned ones: rules.txt"]


def test_sqlite_check_rejects_wrong_confidence(beer_output):
    out, data = beer_output
    run = json.loads((out / "run.json").read_text())
    run["rules"][0]["confidence"] = {"numerator": 1, "denominator": 7}
    problems = check.check_sqlite(run, data, sample=1000, seed=1)
    assert problems and problems[0].startswith("rule ")

