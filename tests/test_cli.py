"""CLI contract: flags, config file, report schema, exit codes."""

import json
import shlex
from pathlib import Path

import pytest

from acderiv import cli, verifier
from acderiv.operators import NotNilpotentError
from acderiv.verifier import REGISTRY_IDS, IdentityReport, parse_chart_name

FAST_IDS = "EQ2.3,L3.7.3,R3.10,NEG-T3.8.1"


def run_cli(args):
    return cli.main(args)


def test_list_ids(capsys):
    assert run_cli(["--list-ids"]) == 0
    out = capsys.readouterr().out
    for cid in REGISTRY_IDS:
        assert cid in out


def test_end_to_end_report(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["--chart", "standard:1", "--rank", "1", "--seed", "7", "--ids", FAST_IDS,
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "reports", "summary"}
    assert doc["config"]["chart"] == "standard:1"
    assert doc["config"]["seed"] == 7
    assert [r["id"] for r in doc["reports"]] == FAST_IDS.split(",")
    for r in doc["reports"]:
        assert "id" in r and "chart" in r and "seeds" in r and "millis" in r
        assert ("pass" in r) != ("skip" in r)
        if "skip" in r:
            assert r["reason"]
    assert doc["summary"] == {"pass": 3, "fail": 0, "skip": 1, "error": 0}


def test_rerun_reproduces_pass_fail_vector(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--chart", "standard:1", "--rank", "1", "--seed", "3", "--ids", "EQ2.3,EQ2.4"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    doc1, doc2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    strip = lambda doc: [
        {k: v for k, v in r.items() if k != "millis"} for r in doc["reports"]
    ]
    assert strip(doc1) == strip(doc2)
    assert doc1["summary"] == doc2["summary"]


def test_ids_filter_only_runs_selected(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["--chart", "standard:1", "--ids", "L3.6-matrix", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["id"] for r in doc["reports"]] == ["L3.6-matrix"]


def test_usage_error_on_bad_chart():
    assert run_cli(["--chart", "standard:0"]) == cli.USAGE_ERROR
    assert run_cli(["--chart", "twisted:1"]) == cli.USAGE_ERROR
    assert run_cli(["--chart", "nonsense"]) == cli.USAGE_ERROR
    assert run_cli(["--chart", "standard:01"]) == cli.USAGE_ERROR  # an alias of standard:1


def test_usage_error_on_unknown_id():
    assert run_cli(["--ids", "T0.0.0"]) == cli.USAGE_ERROR


def test_usage_error_on_bad_rank():
    assert run_cli(["--rank", "0", "--ids", "EQ2.3"]) == cli.USAGE_ERROR


def test_usage_error_on_unwritable_out_before_any_check(tmp_path, monkeypatch, capsys):
    def run_suite(config):
        raise AssertionError("a check ran before the report path was found unwritable")

    monkeypatch.setattr(cli, "run_suite", run_suite)
    out = tmp_path / "missing" / "r.json"
    assert run_cli(["--chart", "standard:1", "--ids", "EQ2.3", "--out", str(out)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err
    assert not out.parent.exists()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chart": "standard:2", "rank": 1, "ids": ["EQ2.3"], "seed": 5}))
    out = tmp_path / "r.json"
    code = run_cli(["--config", str(config), "--chart", "standard:1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["chart"] == "standard:1"  # flag wins
    assert doc["config"]["rank"] == 1  # file value survives
    assert doc["config"]["seed"] == 5


def test_malformed_config_reports_location(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"chart": }')
    assert run_cli(["--config", str(config)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert "line" in err


def test_unknown_config_field_rejected(tmp_path):
    config = tmp_path / "extra.json"
    config.write_text(json.dumps({"chart": "standard:1", "volume": 11}))
    assert run_cli(["--config", str(config)]) == cli.USAGE_ERROR


@pytest.mark.parametrize(
    "field, value",
    [
        ("rank", "two"), ("rank", 2.7), ("degree", "2"), ("degree", True), ("parallel", "false"), ("parallel", 1),
        ("seed", None), ("seed", 1.5), ("seed", True), ("seed", [1]), ("seed", [1, 2]), ("seed", {}), ("seed", {"a": 1}),
        ("out", True), ("out", 5), ("out", ["r.json"]), ("chart", 5), ("chart", ["standard:1"]),
        ("ids", [1]), ("ids", ["EQ2.3", None]), ("ids", 3),
    ],
)
def test_config_file_values_of_the_wrong_type_are_rejected(tmp_path, monkeypatch, capsys, field, value):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "typed.json"
    config.write_text(json.dumps({"chart": "standard:1", "ids": ["EQ2.3"], field: value}))
    assert run_cli(["--config", str(config)]) == cli.USAGE_ERROR
    assert f"{field} must be" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["typed.json"]


@pytest.mark.parametrize(
    "value, seed", [("alpha", "alpha"), ("12", 12), (-3, -3), ("--5", "--5"), ("²", "²")]
)
def test_config_file_seed_may_be_an_integer_or_a_string(tmp_path, value, seed):
    config = tmp_path / "seeded.json"
    config.write_text(json.dumps({"seed": value}))
    args = cli._build_parser().parse_args(["--config", str(config)])
    assert cli.build_config(args).seed == seed


@pytest.mark.parametrize("seed", ["--5", "²", "٧"])
def test_a_seed_that_is_not_ascii_digits_is_a_string_seed(tmp_path, seed):
    # only an optional "-" and ASCII digits make an integer seed; "٧" is not 7
    out = tmp_path / "r.json"
    args = ["--chart", "standard:1", "--ids", "EQ2.3", f"--seed={seed}", "--out", str(out)]
    assert run_cli(args) == 0
    assert json.loads(out.read_text())["config"]["seed"] == seed


def test_exit_code_one_on_failure(monkeypatch, tmp_path):
    failing = IdentityReport(
        id="EQ2.3", chart="standard:1", status="fail",
        worst_generator="s1", worst_residual="x1",
    )

    def fake_run_suite(config):
        return [failing], {"pass": 0, "fail": 1, "skip": 0}

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    out = tmp_path / "r.json"
    code = run_cli(["--chart", "standard:1", "--ids", "EQ2.3", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 1
    assert doc["reports"][0]["pass"] is False
    assert "worst_residual" in doc["reports"][0]


def test_parallel_flag_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    base = ["--chart", "standard:1", "--rank", "1", "--seed", "9", "--ids", "EQ2.3,L3.7.3,L3.6-matrix"]
    assert run_cli(base + ["--out", str(serial)]) == 0
    assert run_cli(base + ["--parallel", "--out", str(parallel)]) == 0
    doc_s, doc_p = json.loads(serial.read_text()), json.loads(parallel.read_text())
    strip = lambda doc: [
        {k: v for k, v in r.items() if k != "millis"} for r in doc["reports"]
    ]
    assert strip(doc_s) == strip(doc_p)


@pytest.mark.parametrize(
    "exc",
    [OverflowError("exponent 32768 overflows its field"), NotNilpotentError("(i_phi)^3 does not vanish")],
)
def test_checker_limit_is_an_error_not_a_failure(monkeypatch, tmp_path, exc):
    # the exponent guard and the series certificate say the checker cannot decide, not that
    # the identity is false
    def limited(ctx):
        raise exc

    monkeypatch.setitem(verifier._REGISTRY_BY_ID, "EQ2.3", ("EQ2.3", "limited", limited))
    out = tmp_path / "r.json"
    assert run_cli(["--chart", "standard:1", "--rank", "1", "--ids", "EQ2.3", "--out", str(out)]) == 3
    [report] = json.loads(out.read_text())["reports"]
    assert report["error"] is True and report["pass"] is False
    assert report["reason"] == f"checker limit: {exc}"


@pytest.mark.parametrize("exc", [KeyError("missing"), IndexError("list index out of range")])
def test_builder_bug_is_an_error_and_the_other_checks_still_report(monkeypatch, tmp_path, exc):
    def broken(ctx):
        raise exc

    monkeypatch.setitem(verifier._REGISTRY_BY_ID, "EQ2.3", ("EQ2.3", "broken", broken))
    out = tmp_path / "r.json"
    code = run_cli(
        ["--chart", "standard:1", "--rank", "1", "--ids", "EQ2.3,L3.7.3,NEG-T3.8.1", "--out", str(out)]
    )
    assert code == cli.CHECK_ERROR == 3
    doc = json.loads(out.read_text())
    errored, passed, skipped = doc["reports"]
    assert errored["error"] is True and errored["pass"] is False
    assert errored["reason"] == f"{type(exc).__name__}: {exc}"
    assert passed["id"] == "L3.7.3" and passed["pass"] is True
    assert skipped["id"] == "NEG-T3.8.1" and skipped["skip"] is True
    assert doc["summary"] == {"pass": 1, "fail": 0, "skip": 1, "error": 1}


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def console_script_commands(workflow: Path) -> list:
    """The argv of each line of the workflow's "Console script" step that runs acderiv, read as
    plain text (the step's lines up to the next "- name:")."""
    commands, in_step = [], False
    for line in workflow.read_text(encoding="utf-8").splitlines():
        text = line.strip()
        if text.startswith("- name:"):
            in_step = text == "- name: Console script"
        elif in_step and text.startswith("acderiv"):
            commands.append(shlex.split(text)[1:])
    return commands


def test_ci_console_script_commands_parse():
    # parses each command as the console script would and runs no check
    commands = console_script_commands(WORKFLOW)
    assert len([argv for argv in commands if "--ids" in argv]) >= 9
    for argv in commands:
        args = cli._build_parser().parse_args(argv)
        if args.ids is not None:
            unknown = [cid for cid in args.ids.split(",") if cid not in REGISTRY_IDS]
            assert not unknown, f"{' '.join(argv)}: unknown ids {unknown}"
        config = cli.build_config(args)
        parse_chart_name(config.chart)
