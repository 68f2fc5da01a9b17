"""Command-line behavior: reports, exit codes, determinism."""

import csv
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cqmine
from _oracle import sqlite_database
from cqmine import cli, reports
from cqmine.cli import main
from cqmine.phase1 import run_phase1
from cqmine.phase2 import run_phase2
from cqmine.relational import load_instance, load_schema

FIXTURES = Path(__file__).parent / "fixtures"
BEER = FIXTURES / "beer"
SCHEMA = str(BEER / "schema.txt")
# child processes import the package this suite imported, installed or not
ENV = {**os.environ, "PYTHONPATH": str(Path(cqmine.__file__).parents[1])}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cqmine", *argv],
        capture_output=True,
        text=True,
        env=ENV,
    )


@pytest.fixture(scope="module")
def mine_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("mine") / "run"
    result = run_cli(
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--minconf", "1.0", "--out-dir", str(out),
    )
    assert result.returncode == 0, result.stderr
    return out


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------


def test_mine_report_contains_flagship_artifacts(mine_out):
    frequent = (mine_out / "frequent.txt").read_text(encoding="utf-8")
    assert "36\tQ(x1, x2, x3, x4) :- likes(x1, x2), serves(x3, x4)." in frequent
    assert frequent.count("\t36\t") == 0  # support is the first column
    assert "3\tQ(x1) :- likes(x1, $c1)." in frequent
    assert "  3\tQ(x1) :- likes(x1, 'Duvel')." in frequent
    assert "  2\tQ(x1) :- likes(x1, 'Trappist')." in frequent
    rules = (mine_out / "rules.txt").read_text(encoding="utf-8")
    assert (
        "1.000000\t3\tQ(x1) :- likes(x1, x2). => Q(x1) :- likes(x1, 'Duvel')."
        in rules
    )


def test_mine_reruns_are_byte_identical(mine_out, tmp_path):
    again = tmp_path / "again"
    result = run_cli(
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--minconf", "1.0", "--out-dir", str(again),
    )
    assert result.returncode == 0
    for name in ("frequent.txt", "rules.txt", "run.json"):
        assert (again / name).read_bytes() == (mine_out / name).read_bytes()


def test_text_reports_rederivable_from_structured_dump(mine_out):
    payload = json.loads((mine_out / "run.json").read_text(encoding="utf-8"))
    frequent_lines = []
    for entry in payload["frequent"]:
        frequent_lines.append(f"{entry['support']}\t{entry['query']}")
        if entry["constants"] is not None:
            for assignment in entry["constants"]["assignments"]:
                frequent_lines.append(
                    f"  {assignment['count']}\t{assignment['query']}"
                )
    rebuilt = "".join(line + "\n" for line in frequent_lines)
    assert rebuilt == (mine_out / "frequent.txt").read_text(encoding="utf-8")

    rule_lines = []
    for entry in payload["rules"]:
        ratio = entry["confidence"]["numerator"] / entry["confidence"]["denominator"]
        rule_lines.append(
            f"{ratio:.6f}\t{entry['support']}\t"
            f"{entry['antecedent']} => {entry['consequent']}"
        )
    rebuilt = "".join(line + "\n" for line in rule_lines)
    assert rebuilt == (mine_out / "rules.txt").read_text(encoding="utf-8")


# sha256 of frequent.txt, rules.txt and run.json; run.json records the
# schema and data paths, so the runs use the relative paths below from inside
# the fixture directory
PINNED_REPORTS = {
    (): (
        "c07dcdf6dc9c54fb38b83a079df49e19a1678db0e83353a6246f120301f6f2eb",
        "9fa994edab662318579aca38bc4c2ed61d62c892a83a77a0169d0682317a84a9",
        "1c94bdb72603c9215f22bfc1f59bf2b83f6e4883c53f88bd5b7efa5bdb5d7f55",
    ),
    ("--key-atom", "likes(_,_)"): (
        "6bc6a4e43a09ed2d350e79052c96551617e6485eb7274be1fb6dee25288cdc06",
        "444cff491f675043896fc1d61f02ced3884d5beb5a6af9e2ea46139dcde22f7d",
        "1fe333b829170a2a5f790ff257a4542980516a92da9516f7cae81f5b83b4bbbe",
    ),
}


@pytest.mark.parametrize("extra", list(PINNED_REPORTS), ids=["constants", "key-atom"])
def test_report_bytes_are_pinned(extra, tmp_path):
    out = tmp_path / "run"
    result = subprocess.run(
        [
            sys.executable, "-m", "cqmine", "mine", "--schema", "schema.txt",
            "--data", ".", "--max-atoms", "2", "--minsup", "2",
            "--minconf", "0.5", *extra, "--out-dir", str(out),
        ],
        capture_output=True,
        cwd=BEER,
        env=ENV,
    )
    assert result.returncode == 0, result.stderr
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("frequent.txt", "rules.txt", "run.json")
    )
    assert digests == PINNED_REPORTS[extra]


# the same digests for three-atom runs, which exercise phase-1 admission
# far more than the two-atom runs above
PINNED_THREE_ATOM_REPORTS = {
    ("--no-constants", "--minsup", "40"): (
        "0ccc6425965e2e9f27428ef9338f95b156ddb9605750a808510b249ca5747258",
        "b630ff24bda0af69fb7cc95f30dce0d2fbf57e3a36f32ed1feb1af08d2f68e69",
        "249383cd14d5a1d69cd4adf308043c875a664b26a19dceee80df2c9cb4fc8604",
    ),
    ("--minsup", "3", "--key-atom", "likes(_,_)"): (
        "073579c1fa828ac77ca8b1308414b4112e854ac17c20519cd679017831c094ce",
        "0e4fa9421604c55602978b9ff70d74522cfafbd90d6de916519733d84fa39a6e",
        "88ebde128eec76f2103b57231b284cddc194503ce9acca2f178c1d75a8b37220",
    ),
}


@pytest.mark.parametrize(
    "extra", list(PINNED_THREE_ATOM_REPORTS), ids=["no-constants", "key-atom"]
)
def test_three_atom_report_bytes_are_pinned(extra, tmp_path):
    out = tmp_path / "run"
    result = subprocess.run(
        [
            sys.executable, "-m", "cqmine", "mine", "--schema", "schema.txt",
            "--data", ".", "--max-atoms", "3", "--minconf", "0.5", *extra,
            "--out-dir", str(out),
        ],
        capture_output=True,
        cwd=BEER,
        env=ENV,
    )
    assert result.returncode == 0, result.stderr
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("frequent.txt", "rules.txt", "run.json")
    )
    assert digests == PINNED_THREE_ATOM_REPORTS[extra]


# the benchmark's workloads, run as perfbench/run.py runs them: data in
# ``data`` under a scratch directory (the bundled fixture, or perfbench/gen.py
# at the default seed), mine flags and report digests from workloads.json
PERFBENCH = Path(__file__).parents[1] / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))


def bench_generator():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(WORKLOADS["workloads"]))
def test_bench_workload_bytes_are_pinned(name, tmp_path):
    workload = WORKLOADS["workloads"][name]
    source = workload["data"]
    if "fixture" in source:
        shutil.copytree(PERFBENCH.parent / source["fixture"], tmp_path / "data")
    else:
        bench_generator().generate(
            tmp_path / "data", seed=WORKLOADS["default_seed"], **source["generator"]
        )
    result = subprocess.run(
        [
            sys.executable, "-m", "cqmine", "mine", "--schema", "data/schema.txt",
            "--data", "data", "--out-dir", "out", *workload["mine"],
        ],
        capture_output=True,
        cwd=tmp_path,
        env=ENV,
    )
    assert result.returncode == 0, result.stderr
    digests = {
        report: hashlib.sha256((tmp_path / "out" / report).read_bytes()).hexdigest()
        for report in workload["digests"]
    }
    assert digests == workload["digests"]


# sha256 of frequent.txt, rules.txt and run.json of the large beer run
# (6,819 classes, 440,070 rules); run.json pins phase 1's level lists too.
# It takes about a minute, so it runs only under -m slow
PINNED_LARGE_REPORTS = (
    "cd32210bf6bad82389b0c1ccd232816078926d37fdca34f28184556b9e0c453f",
    "08586052c7d36561353e7c41c76bcd91ecf68e5327db6bf8279b5b557ff8ba10",
    "25d5d8e37ecb1fe8629ec33c4676fa99d2154e6768f57a6e5fb39a5c4f901b88",
)


@pytest.mark.slow
def test_large_beer_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "run"
    result = subprocess.run(
        [
            sys.executable, "-m", "cqmine", "mine", "--schema", "schema.txt",
            "--data", ".", "--max-atoms", "3", "--minsup", "3",
            "--minconf", "0.5", "--out-dir", str(out),
        ],
        capture_output=True,
        cwd=BEER,
        env=ENV,
    )
    assert result.returncode == 0, result.stderr
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("frequent.txt", "rules.txt", "run.json")
    )
    assert digests == PINNED_LARGE_REPORTS


# sha256 of the three reports of the 100-row run: perfbench/gen.py at seed 1
# (100 rows, 40 drinkers, 16 bars, 20 beers) at --max-atoms 2 --minsup 3
# --minconf 0.5, laid out as the bench lays out a workload (run.json records
# the schema and data paths as given).  1,378 of its consequents are members
# of patterns that merge placeholders.  Under -m slow, like the large run
PINNED_HUNDRED_ROW_REPORTS = (
    "63a6f52d9a43134a9cd5929692a5f593eae81156b340162e6990e897325ddd19",
    "c8c38e4d965cc3e5fc846127821fc2c9323e40cd0803cfa6c2d538e115410fe1",
    "0415afbafdab73c022ad51e7a702a33984edb7c8f07681644db6219c82e256b8",
)


def synthetic_report_digests(tmp_path, minsup, **generator):
    """sha256 of the three reports of a two-atom run at ``minsup`` and
    minconf 0.5 over ``perfbench/gen.py``'s data at seed 1."""
    bench_generator().generate(tmp_path / "data", seed=1, **generator)
    result = subprocess.run(
        [
            sys.executable, "-m", "cqmine", "mine", "--schema", "data/schema.txt",
            "--data", "data", "--out-dir", "out", "--max-atoms", "2",
            "--minsup", str(minsup), "--minconf", "0.5",
        ],
        capture_output=True,
        cwd=tmp_path,
        env=ENV,
    )
    assert result.returncode == 0, result.stderr
    return tuple(
        hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in ("frequent.txt", "rules.txt", "run.json")
    )


@pytest.mark.slow
def test_hundred_row_report_bytes_are_pinned(tmp_path):
    digests = synthetic_report_digests(
        tmp_path, 3, rows=100, drinkers=40, bars=16, beers=20
    )
    assert digests == PINNED_HUNDRED_ROW_REPORTS


# sha256 of the three reports of the 1,000-row run: perfbench/gen.py at seed 1
# (1,000 rows, 200 drinkers, 60 bars, 80 beers) at --max-atoms 2 --minsup 20
# --minconf 0.5, laid out like the 100-row run.  Its 444,304 consequents make
# it the byte-identity check of phase 2's groups at scale.  Under -m slow
PINNED_THOUSAND_ROW_REPORTS = (
    "2a2f171441e5eb4edc1276a2cc51c42982182f417028b1d60bf3e092b04a9a3e",
    "be229a26d0b7db046cec0b4dd121f0be41f4794cd027084416f41a15c00ae389",
    "444ba88eb829548941cf302bbb4595f05b31ded340611e4dbc2ed8f077bc03d2",
)


@pytest.mark.slow
def test_thousand_row_report_bytes_are_pinned(tmp_path):
    digests = synthetic_report_digests(
        tmp_path, 20, rows=1000, drinkers=200, bars=60, beers=80
    )
    assert digests == PINNED_THOUSAND_ROW_REPORTS


def test_structured_stdout_equals_run_json(mine_out):
    result = subprocess.run(
        [
            sys.executable, "-m", "cqmine", "mine", "--schema", SCHEMA,
            "--data", str(BEER), "--minsup", "2", "--minconf", "1.0",
            "--format", "structured",
        ],
        capture_output=True,
        env=ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (mine_out / "run.json").read_bytes()


def test_mine_stdout_text_format(capsys):
    rc = main([
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--max-atoms", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# frequent queries: ")
    assert "6\tQ(x1, x2) :- likes(x1, x2)." in out
    assert "# association rules: " in out


def test_mine_stdout_structured_format(capsys):
    rc = main([
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--max-atoms", "1", "--format", "structured",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameters"]["minsup"] == 2
    assert payload["parameters"]["max_atoms"] == 1
    assert payload["parameters"]["modulo_head_permutation"] is True
    assert any(e["query"] == "Q(x1, x2) :- likes(x1, x2)." for e in payload["frequent"])


def test_structured_stdout_builds_no_text_report(monkeypatch, capsys):
    text_streams = []

    def spy(write):
        def spied(items, text, run_json):
            text_streams.append(text)
            return write(items, text, run_json)

        return spied

    monkeypatch.setattr(reports, "write_frequent", spy(reports.write_frequent))
    monkeypatch.setattr(reports, "write_rules", spy(reports.write_rules))
    rc = main([
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--max-atoms", "1", "--format", "structured",
    ])
    assert rc == 0
    # both writers ran, for run.json alone: no text line was built
    assert text_streams == [None, None]
    payload = json.loads(capsys.readouterr().out)
    assert any(e["query"] == "Q(x1, x2) :- likes(x1, x2)." for e in payload["frequent"])


def test_text_stdout_equals_out_dir_reports(mine_out):
    result = subprocess.run(
        [
            sys.executable, "-m", "cqmine", "mine", "--schema", SCHEMA,
            "--data", str(BEER), "--minsup", "2", "--minconf", "1.0",
        ],
        capture_output=True,
        env=ENV,
    )
    assert result.returncode == 0, result.stderr
    frequent = (mine_out / "frequent.txt").read_bytes()
    rules = (mine_out / "rules.txt").read_bytes()
    assert b"\n  " in frequent  # the count covers assignment lines too
    assert result.stdout == (
        b"# frequent queries: %d\n" % frequent.count(b"\n") + frequent
        + b"# association rules: %d\n" % rules.count(b"\n") + rules
    )


def test_mine_frees_phase_one_memos_before_phase_two(monkeypatch, tmp_path):
    seen = []

    def phase1(instance, config):
        state = run_phase1(instance, config)
        seen.append((len(state.classes), len(state.waiting)))
        return state

    def phase2(state, instance, config):
        seen.append((len(state.classes), len(state.waiting)))
        return run_phase2(state, instance, config)

    monkeypatch.setattr(cli, "run_phase1", phase1)
    monkeypatch.setattr(cli, "run_phase2", phase2)
    assert main([
        "mine", "--schema", SCHEMA, "--data", str(BEER), "--minsup", "2",
        "--out-dir", str(tmp_path / "run"),
    ]) == 0
    (classes, waiting), at_phase2 = seen
    assert classes > 0 and waiting > 0
    assert at_phase2 == (0, 0)


def test_key_atom_run_keeps_head_order(capsys):
    rc = main([
        "mine", "--schema", SCHEMA, "--data", str(BEER), "--minsup", "2",
        "--max-atoms", "3", "--key-atom", "serves(_, _)", "--format", "structured",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameters"]["modulo_head_permutation"] is False
    # every reported query lists the bar, then the beer, as in the anchor
    queries = [e["query"] for e in payload["frequent"]]
    assert "Q(x1, x2) :- likes(x3, x2), serves(x1, x2)." in queries
    assert all("serves(x1, x2)" in query for query in queries)


def test_mine_high_minsup_yields_empty_reports(tmp_path, capsys):
    rc = main([
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "37", "--out-dir", str(tmp_path / "empty"),
    ])
    assert rc == 0
    assert (tmp_path / "empty" / "frequent.txt").read_text() == ""
    assert (tmp_path / "empty" / "rules.txt").read_text() == ""


def test_no_constants_flag_suppresses_placeholders(capsys):
    rc = main([
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--max-atoms", "1", "--no-constants",
    ])
    assert rc == 0
    assert "$c" not in capsys.readouterr().out


def test_key_atom_flag_anchors_the_language(capsys):
    rc = main([
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--key-atom", "visits(_, _)",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "6\tQ(x1, x2) :- visits(x1, x2)." in out
    body_lines = [l for l in out.splitlines() if "Q(" in l]
    assert all("visits" in line for line in body_lines)


def test_large_max_atoms_warns(tmp_path, capsys):
    schema = tmp_path / "schema.txt"
    schema.write_text("likes(drinker, beer)\n", encoding="utf-8")
    (tmp_path / "likes.csv").write_text("Allen,Duvel\n", encoding="utf-8")
    rc = main([
        "mine", "--schema", str(schema), "--data", str(tmp_path),
        "--minsup", "2", "--max-atoms", "4",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning" in captured.err
    assert "# frequent queries: 0" in captured.out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_data_file_exit_3_names_relation(tmp_path, capsys):
    (tmp_path / "likes.csv").write_text("Allen,Duvel\n", encoding="utf-8")
    rc = main([
        "mine", "--schema", SCHEMA, "--data", str(tmp_path), "--minsup", "2",
    ])
    assert rc == 3
    assert "visits" in capsys.readouterr().err


def test_missing_data_directory_exit_3_names_it(tmp_path, capsys):
    missing = tmp_path / "missing"
    rc = main(["mine", "--schema", SCHEMA, "--data", str(missing), "--minsup", "2"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and str(missing) in line
    # the parameters are checked before any data is read
    for option, value in (("--minsup", "0"), ("--minconf", "2")):
        argv = ["mine", "--schema", SCHEMA, "--data", str(missing), "--minsup", "2"]
        assert main([*argv, option, value]) == 3
        assert str(missing) not in capsys.readouterr().err


def test_run_json_records_paths_as_pathlib_renders_them(monkeypatch, capsys):
    monkeypatch.chdir(BEER)
    assert main([
        "mine", "--schema", "./schema.txt", "--data", "./", "--minsup", "40",
        "--format", "structured",
    ]) == 0
    parameters = json.loads(capsys.readouterr().out)["parameters"]
    assert parameters["schema"] == "schema.txt"
    assert parameters["data"] == "."


# file written over the small valid input, and what the error line names
BAD_RUNS = {
    "schema-not-utf8": (
        "schema.txt", b"# caf\xe9\nlikes(drinker, beer)\n", "schema.txt:1: not UTF-8"
    ),
    "csv-not-utf8": ("likes.csv", b"Allen,caf\xe9\n", "likes.csv: not UTF-8"),
    "csv-field-too-large": (
        "likes.csv",
        b"Allen," + b"x" * (csv.field_size_limit() + 1) + b"\n",
        "likes.csv:1: field larger than field limit",
    ),
    "out-dir-is-a-file": ("out", b"", "cannot write reports to"),
}


@pytest.mark.parametrize("case", list(BAD_RUNS))
def test_bad_input_or_out_dir_exit_3_without_traceback(case, tmp_path):
    (tmp_path / "schema.txt").write_text("likes(drinker, beer)\n", encoding="utf-8")
    (tmp_path / "likes.csv").write_text("Allen,Duvel\n", encoding="utf-8")
    name, content, message = BAD_RUNS[case]
    (tmp_path / name).write_bytes(content)
    result = run_cli(
        "mine", "--schema", str(tmp_path / "schema.txt"), "--data", str(tmp_path),
        "--minsup", "1", "--out-dir", str(tmp_path / "out"),
    )
    assert result.returncode == 3
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert message in result.stderr


def test_failed_rewrite_keeps_the_previous_reports(monkeypatch, tmp_path, capsys):
    out = tmp_path / "run"
    argv = [
        "mine", "--schema", SCHEMA, "--data", str(BEER), "--minsup", "2",
        "--minconf", "0.5", "--out-dir", str(out),
    ]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["frequent.txt", "rules.txt", "run.json"]
    write_rules = reports.write_rules

    def failing(rules, text, run_json):
        rules = list(rules)
        write_rules(rules[: len(rules) // 2], text, run_json)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(reports, "write_rules", failing)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: cannot write reports to ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_closed_pipe_exits_141_without_traceback():
    # the reader takes one line and goes away, like ``cqmine mine ... | head -1``;
    # the report is far larger than a pipe's buffer, so the writer sees it
    process = subprocess.Popen(
        [
            sys.executable, "-m", "cqmine", "mine", "--schema", SCHEMA,
            "--data", str(BEER), "--minsup", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    )
    assert process.stdout.readline().startswith("# frequent queries: ")
    process.stdout.close()
    _, stderr = process.communicate(timeout=60)
    assert process.returncode == 141
    assert stderr == ""


def test_usage_error_exit_2():
    result = run_cli("mine", "--schema", SCHEMA, "--data", str(BEER))
    assert result.returncode == 2
    assert "--minsup" in result.stderr


def test_out_of_range_parameters_exit_3(capsys):
    assert main([
        "mine", "--schema", SCHEMA, "--data", str(BEER), "--minsup", "0",
    ]) == 3
    assert main([
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--minconf", "2",
    ]) == 3
    assert main([
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--minconf", "oops",
    ]) == 3
    assert main([
        "mine", "--schema", str(BEER / "nope.txt"), "--data", str(BEER),
        "--minsup", "2",
    ]) == 3
    capsys.readouterr()


def test_malformed_query_exit_3(capsys):
    rc = main([
        "eval", "--schema", SCHEMA, "--data", str(BEER), "Q(x) :- likes(x",
    ])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:")


# the algebra builds its queries unchecked, so every query from the command
# line must meet the checked constructor
INVALID_QUERIES = {
    "Q(x) :- likes(y, z)": "head variable x does not occur in the body",
    "Q(x, x) :- likes(x, y)": "head variables must be distinct",
    "Q() :- likes(x, y)": "query head must list at least one variable",
}
QUERY_COMMANDS = {
    "eval": ["eval", "--schema", SCHEMA, "--data", str(BEER)],
    "contain": ["contain", "--schema", SCHEMA, "Q(x) :- likes(x, y)"],
    "sql": ["sql", "--schema", SCHEMA],
}


@pytest.mark.parametrize("command", sorted(QUERY_COMMANDS))
@pytest.mark.parametrize("text", sorted(INVALID_QUERIES))
def test_invalid_query_exit_3_with_the_constructor_message(capsys, command, text):
    rc = main([*QUERY_COMMANDS[command], text])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {INVALID_QUERIES[text]}\n"


# ---------------------------------------------------------------------------
# eval / contain / sql
# ---------------------------------------------------------------------------


def test_eval_prints_answers_and_support(capsys):
    rc = main([
        "eval", "--schema", SCHEMA, "--data", str(BEER),
        "Q(x) :- likes(x, 'Duvel'), likes(x, 'Trappist').",
    ])
    assert rc == 0
    assert capsys.readouterr().out == "Allen\nBill\nsupport\t2\n"


def test_eval_groups_placeholder_supports(capsys):
    rc = main([
        "eval", "--schema", SCHEMA, "--data", str(BEER),
        "Q(x1) :- likes(x1, $c1).",
    ])
    assert rc == 0
    assert capsys.readouterr().out == (
        "$c1\tsupport\nDuvel\t3\nTrappist\t2\nJupiler\t1\n"
    )


def test_eval_minsup_filters_groups(capsys):
    rc = main([
        "eval", "--schema", SCHEMA, "--data", str(BEER), "--minsup", "2",
        "Q(x1) :- likes(x1, $c1).",
    ])
    assert rc == 0
    assert "Jupiler" not in capsys.readouterr().out


def test_contain_classifications(capsys):
    cases = [
        (
            "Q(x, y) :- likes(x, 'Duvel'), visits(x, y).",
            "Q(x, y) :- likes(x, 'Duvel'), visits(x, y), serves(y, 'Duvel').",
            "q2 ⊂ q1",
        ),
        ("Q(x) :- likes(x, y).", "Q(a) :- likes(a, b).", "equivalent"),
        ("Q(x) :- likes(x, y).", "Q(x, y) :- likes(x, y).", "q1 ⊂Δ q2 (diagonal only)"),
        ("Q(x, y) :- likes(x, y).", "Q(x) :- likes(x, y).", "q2 ⊂Δ q1 (diagonal only)"),
        ("Q(x) :- likes(x, y).", "Q(x) :- serves(x, y).", "incomparable"),
    ]
    for query1, query2, expected in cases:
        assert main(["contain", query1, query2]) == 0
        assert capsys.readouterr().out.strip() == expected


def test_contain_wide_heads_finish():
    # neither query maps into the other with a covering head: the visits atom
    # has no image, and z has no preimage among the six likes atoms' images.
    # The answer must not cost one search per alignment of the 12-wide heads.
    wide = "Q(y1,y2,y3,y4,y5,y6,y7,y8,y9,y10,y11,y12) :- " + ", ".join(
        f"likes(y{i}, y{i + 1})" for i in range(1, 12, 2)
    )
    anchored = "Q(x1,x2,x3,x4,x5,x6,x7,x8,x9,x10,x11,z) :- " + ", ".join(
        [*(f"likes(x{i}, x{i + 1})" for i in range(1, 12, 2)), "visits(z, x1)"]
    )
    result = subprocess.run(
        [sys.executable, "-m", "cqmine", "contain", anchored, wide],
        capture_output=True, text=True, timeout=30, env=ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "incomparable"


def test_sql_subcommand_prints_select(capsys):
    rc = main(["sql", "--schema", SCHEMA, "Q(x1) :- likes(x1, $c1)."])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("SELECT")
    assert ":minsup" in out


def test_sql_subcommand_bytes_are_pinned(capsys):
    # two atoms of one relation, a literal constant and a placeholder: the
    # text lists the atoms in rendered-text order, whatever order the query
    # algebra sorts them in
    rc = main([
        "sql", "--schema", SCHEMA,
        "Q(x, y) :- likes(x, $c1), likes(x, 'Duvel'), visits(x, y).",
    ])
    assert rc == 0
    assert capsys.readouterr().out == (
        'SELECT s."$c1", COUNT(*) AS support FROM (SELECT DISTINCT '
        't1."beer" AS "$c1", t1."drinker" AS "x", t3."bar" AS "y" '
        'FROM "likes" t1, "likes" t2, "visits" t3 '
        "WHERE t2.\"drinker\" = t1.\"drinker\" AND t2.\"beer\" = 'Duvel' "
        'AND t3."drinker" = t1."drinker") s '
        'GROUP BY s."$c1" HAVING COUNT(*) >= :minsup\n'
    )


# ---------------------------------------------------------------------------
# names and values that SQL text must carry unchanged
# ---------------------------------------------------------------------------


@pytest.fixture
def keyword_data(tmp_path):
    """Relation and column names that are SQL keywords; values with a NUL
    character and with leading zeros."""
    (tmp_path / "schema.txt").write_text("order(group, select)\n", encoding="utf-8")
    (tmp_path / "order.csv").write_text(
        "a\0b,1\nc,01\nc,1\nd,1\n", encoding="utf-8"
    )
    return tmp_path


def _eval(data, query, *extra):
    return main([
        "eval", "--schema", str(data / "schema.txt"), "--data", str(data),
        *extra, query,
    ])


def test_eval_keyword_names(keyword_data, capsys):
    assert _eval(keyword_data, "Q(from, where) :- order(from, where).") == 0
    assert capsys.readouterr().out == (
        "a\0b\t1\nc\t01\nc\t1\nd\t1\nsupport\t4\n"
    )


def test_eval_value_with_nul(keyword_data, capsys):
    assert _eval(keyword_data, "Q(x) :- order(x, y), order('a\0b', y).") == 0
    assert capsys.readouterr().out == "a\0b\nc\nd\nsupport\t3\n"


def test_sql_inline_literal_with_nul_runs(keyword_data, capsys):
    # the printed text holds no NUL, and sqlite3 answers it as eval does
    query = "Q(x) :- order(x, y), order('a\0b', y)."
    schema = str(keyword_data / "schema.txt")
    assert main(["sql", "--schema", schema, query]) == 0
    sql = capsys.readouterr().out
    assert "\0" not in sql
    assert _eval(keyword_data, query) == 0
    answers = capsys.readouterr().out.splitlines()[:-1]  # the last is the support
    database = sqlite_database(load_instance(load_schema(schema), keyword_data))
    rows = sorted(row[0] for row in database.execute(sql))
    assert rows == answers == ["a\0b", "c", "d"]


def test_eval_keeps_leading_zeros_apart(keyword_data, capsys):
    assert _eval(keyword_data, "Q(x) :- order(x, '01').") == 0
    assert capsys.readouterr().out == "c\nsupport\t1\n"
    assert _eval(keyword_data, "Q(x) :- order(x, $c1).") == 0
    assert capsys.readouterr().out == "$c1\tsupport\n1\t3\n01\t1\n"


def test_mine_keyword_names_nul_and_leading_zeros(keyword_data, tmp_path):
    out = tmp_path / "out"
    assert main([
        "mine", "--schema", str(keyword_data / "schema.txt"),
        "--data", str(keyword_data), "--minsup", "1", "--out-dir", str(out),
    ]) == 0
    frequent = (out / "frequent.txt").read_text(encoding="utf-8").splitlines()
    assert "4\tQ(x1, x2) :- order(x1, x2)." in frequent
    assert "3\tQ(x1) :- order(x1, $c1)." in frequent
    assert "  3\tQ(x1) :- order(x1, '1')." in frequent
    assert "  1\tQ(x1) :- order(x1, '01')." in frequent
    assert "  1\tQ(x1) :- order('a\0b', x1)." in frequent


# run.json's own layout must stay json's indent-2 layout: escapes (NUL,
# quotes, backslashes, non-ASCII text), keyword names, empty arrays
JSON_LAYOUT_RUNS = {
    "constants": ("--minsup", "2", "--minconf", "0.5"),
    "key-atom": ("--minsup", "2", "--minconf", "0.5", "--key-atom", "likes(_,_)"),
    "empty": ("--minsup", "37"),
    "keyword-data": ("--minsup", "1"),
    "escapes": ("--minsup", "1", "--minconf", "0.1"),
}


@pytest.mark.parametrize("case", list(JSON_LAYOUT_RUNS))
def test_run_json_is_laid_out_as_json_dump(case, keyword_data, tmp_path):
    data = {"keyword-data": keyword_data, "escapes": tmp_path / "escapes"}.get(case, BEER)
    if case == "escapes":
        data.mkdir()
        (data / "schema.txt").write_text("likes(drinker, beer)\n", encoding="utf-8")
        (data / "likes.csv").write_text(
            '"Zoë","Brouwerij \'t IJ"\n"Zoë",Kölsch\nAnn,Kölsch\n'
            '"a""b\\c",Kölsch\n"tab\there",x y\n',
            encoding="utf-8",
        )
    out = tmp_path / "run"
    assert main([
        "mine", "--schema", str(data / "schema.txt"), "--data", str(data),
        *JSON_LAYOUT_RUNS[case], "--out-dir", str(out),
    ]) == 0
    text = (out / "run.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if case == "empty":
        assert payload["frequent"] == payload["rules"] == []
    else:
        assert any(e["constants"] for e in payload["frequent"]) and payload["rules"]


# ---------------------------------------------------------------------------
# the 64-table join limit
# ---------------------------------------------------------------------------


def _chain(atoms):
    return "Q(x1) :- " + ", ".join(
        f"likes(x{i}, x{i + 1})" for i in range(1, atoms + 1)
    )


def test_eval_at_most_64_atoms(capsys):
    assert main(["eval", "--schema", SCHEMA, "--data", str(BEER), _chain(64)]) == 0
    assert capsys.readouterr().out == "support\t0\n"
    assert main(["eval", "--schema", SCHEMA, "--data", str(BEER), _chain(65)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "64 tables" in captured.err


def test_mine_rejects_more_than_64_atoms(capsys):
    assert main([
        "mine", "--schema", SCHEMA, "--data", str(BEER),
        "--minsup", "2", "--max-atoms", "65",
    ]) == 3
    err = capsys.readouterr().err
    assert "from 1 to 64" in err
    assert "warning" not in err
