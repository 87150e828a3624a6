import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import demo_dataset_rows
from seercal import cli, params
from seercal.cli import main
from seercal.dataset import save_projects
from seercal.synth import synthesize_projects
from seercal.table import load_table_with_meta, save_table, validate_table


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def table_path(tmp_path, default_table):
    path = tmp_path / "table.yaml"
    save_table(default_table, path)
    return path


@pytest.fixture()
def identity_table_path(tmp_path, identity_table):
    path = tmp_path / "identity.yaml"
    save_table(identity_table, path)
    return path


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("\n".join(demo_dataset_rows(12)) + "\n", encoding="utf-8")
    return path


# --- estimate -----------------------------------------------------------------


def test_estimate_all_nominal_identity_table(identity_table_path, identity_table, capsys):
    size = 50_000.0
    code = run_cli(
        "estimate", "--table", str(identity_table_path), "--size", str(size), "--json"
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    d_nominal = identity_table.row("D")[7]
    expected = 0.393469 * d_nominal**0.4 * (size / 2000.0) ** 1.2
    assert doc["effort_py"] == pytest.approx(expected, rel=1e-9)
    assert doc["effective_technology"] == pytest.approx(2000.0, rel=1e-9)
    assert doc["effort_pm"] == pytest.approx(doc["effort_py"] * 12.0, rel=1e-12)


def test_estimate_accepts_labels_and_files(table_path, tmp_path, capsys):
    ratings_file = tmp_path / "ratings.yaml"
    ratings_file.write_text(yaml.safe_dump({"ACAP": "Hi", "TEST": 9.5}))
    code = run_cli(
        "estimate", "--table", str(table_path), "--size", "20000",
        "--ratings-file", str(ratings_file), "--rating", "TOOL=Low-",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "person-years" in out and "person-months" in out


def test_estimate_missing_table_exits_2(tmp_path, capsys):
    code = run_cli(
        "estimate", "--table", str(tmp_path / "nope.yaml"), "--size", "1000"
    )
    assert code == 2
    assert "table not found" in capsys.readouterr().err


def test_estimate_json_is_byte_stable(identity_table_path, capsys):
    run_cli("estimate", "--table", str(identity_table_path), "--size", "9000", "--json")
    first = capsys.readouterr().out
    run_cli("estimate", "--table", str(identity_table_path), "--size", "9000", "--json")
    second = capsys.readouterr().out
    assert first == second


def test_estimate_synthetic_builtin(capsys):
    assert run_cli("estimate", "--table", "synthetic", "--size", "10000") == 0


# --- validate-table -------------------------------------------------------------


def test_validate_table_ok(table_path, capsys):
    assert run_cli("validate-table", "--table", str(table_path)) == 0
    assert "table OK" in capsys.readouterr().out


def test_validate_table_reports_violations(tmp_path, default_table, capsys):
    values = default_table.values.copy()
    values[params.RATED_COLUMN["ACAP"], 10] = values[params.RATED_COLUMN["ACAP"], 9] + 1
    bad = default_table.with_values(values)
    path = tmp_path / "bad.yaml"
    save_table(bad, path)
    assert run_cli("validate-table", "--table", str(path)) == 1
    err = capsys.readouterr().err
    assert "ACAP" in err and "violation" in err


def test_infinite_entry_fails_validation_and_training(tmp_path, default_table, capsys):
    values = default_table.values.copy()
    values[params.RATED_COLUMN["MULT"], 17] = np.inf
    path = tmp_path / "inf.yaml"
    save_table(default_table.with_values(values), path)
    message = "MULT: value at level 18 must be finite, got inf"
    assert run_cli("validate-table", "--table", str(path)) == 1
    assert capsys.readouterr().err.splitlines()[0] == message
    projects = tmp_path / "projects.csv"
    save_projects(synthesize_projects(default_table, 3, seed=61), projects)
    outdir = tmp_path / "cal"
    code = run_cli("calibrate", "--projects", str(projects), "--table", str(path),
                   "--outdir", str(outdir))
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: train: refusing to train on an invalid table: {message}"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert (manifest["status"], "error: " + manifest["error"]) == ("failed", err)


# --- transfer -------------------------------------------------------------------


def test_transfer_writes_projects_and_manifest(dataset_path, tmp_path, capsys):
    out = tmp_path / "projects.csv"
    code = run_cli("transfer", "--dataset", str(dataset_path), "--out", str(out))
    assert code == 0
    assert out.exists()
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["command"] == "transfer"
    assert manifest["status"] == "ok"
    lines = out.read_text().splitlines()
    assert len(lines) == 13  # header + 12 rows
    header = lines[0].split(",")
    assert header[:5] == ["id", "size_sloc", "actual_effort_py", "sibr", "weight"]
    assert set(params.RATED_SYMBOLS) <= set(header)


def test_transfer_bad_dataset_fails(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,size_kloc,actual_effort,BOGUS\nP1,1,1,N\n")
    code = run_cli("transfer", "--dataset", str(bad), "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "BOGUS" in capsys.readouterr().err


# --- calibrate / evaluate --------------------------------------------------------


@pytest.fixture()
def projects_path(tmp_path, default_table):
    projects = synthesize_projects(default_table, 10, seed=60, effort_noise=0.1)
    path = tmp_path / "projects.csv"
    save_projects(projects, path)
    return path


def test_calibrate_writes_table_trace_manifest(projects_path, table_path, tmp_path, capsys):
    outdir = tmp_path / "cal"
    code = run_cli(
        "calibrate", "--projects", str(projects_path), "--table", str(table_path),
        "--outdir", str(outdir), "--alpha", "0.02", "--epochs", "10",
        "--tolerance", "0",
    )
    assert code == 0
    tbl, meta = load_table_with_meta(outdir / "calibrated_table.yaml")
    assert validate_table(tbl) == []
    assert meta["config"]["learning_rate"] == 0.02
    assert meta["epochs_run"] >= 1
    trace_lines = (outdir / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "epoch,loss,projection_count,floor_count,alpha"
    assert len(trace_lines) == meta["epochs_run"] + 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert sorted(manifest["outputs"]) == ["calibrated_table.yaml", "trace.csv"]


def test_calibrate_failure_writes_failed_manifest(table_path, tmp_path, capsys):
    outdir = tmp_path / "cal"
    code = run_cli(
        "calibrate", "--projects", str(tmp_path / "missing.csv"),
        "--table", str(table_path), "--outdir", str(outdir),
    )
    assert code == 2
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "load-projects" in manifest["error"]
    assert not (outdir / "calibrated_table.yaml").exists()


def test_evaluate_writes_reports(projects_path, table_path, tmp_path, capsys):
    outdir = tmp_path / "eval"
    code = run_cli(
        "evaluate", "--projects", str(projects_path), "--table", str(table_path),
        "--outdir", str(outdir),
    )
    assert code == 0
    doc = json.loads((outdir / "report.json").read_text())
    assert doc["n_projects"] == 10
    assert (outdir / "report.csv").read_text().startswith("id,estimated_py")
    assert "MMRE" in (outdir / "report.txt").read_text()


def test_evaluate_respects_env_outdir(projects_path, table_path, tmp_path, monkeypatch):
    outdir = tmp_path / "from-env"
    monkeypatch.setenv("SEERCAL_OUTDIR", str(outdir))
    code = run_cli(
        "evaluate", "--projects", str(projects_path), "--table", str(table_path)
    )
    assert code == 0
    assert (outdir / "report.json").exists()


def test_outdir_required_without_env(projects_path, table_path, monkeypatch, capsys):
    monkeypatch.delenv("SEERCAL_OUTDIR", raising=False)
    code = run_cli(
        "evaluate", "--projects", str(projects_path), "--table", str(table_path)
    )
    assert code == 2
    assert "SEERCAL_OUTDIR" in capsys.readouterr().err


# --- case -----------------------------------------------------------------------


CASE_FILES = [
    "case_report.json", "case_report.txt", "report_baseline.csv",
    "report_calibrated.csv", "change.csv", "trace.csv", "calibrated_table.yaml",
]


def test_case_zero_alpha_change_is_zero(dataset_path, table_path, tmp_path, capsys):
    outdir = tmp_path / "case0"
    code = run_cli(
        "case", "--dataset", str(dataset_path), "--table", str(table_path),
        "--protocol", "c2", "--outdir", str(outdir), "--alpha", "0",
        "--epochs", "3",
    )
    assert code == 0
    for name in CASE_FILES:
        assert (outdir / name).exists(), name
    doc = json.loads((outdir / "case_report.json").read_text())
    assert doc["change"]["mmre"] == 0.0
    assert all(v == 0.0 for v in doc["change"]["pred"].values())
    change_lines = (outdir / "change.csv").read_text().splitlines()
    assert change_lines[0] == "metric,baseline,calibrated,change"


def test_case_config_file_with_flag_override(dataset_path, table_path, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"alpha": 0.5, "epochs": 2, "tolerance": 0.0}))
    outdir = tmp_path / "case-cfg"
    code = run_cli(
        "case", "--dataset", str(dataset_path), "--table", str(table_path),
        "--protocol", "c2", "--outdir", str(outdir), "--config", str(cfg),
        "--alpha", "0",  # flag wins over file
    )
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["learning_rate"] == 0.0
    assert manifest["config"]["max_epochs"] == 2


def test_case_custom_protocol_and_industrial(dataset_path, tmp_path, table_path):
    industrial = tmp_path / "industrial.csv"
    industrial.write_text(
        "\n".join(demo_dataset_rows(4, model="COCOMO87", seed=9)) + "\n"
    )
    outdir = tmp_path / "case-ind"
    code = run_cli(
        "case", "--dataset", str(dataset_path), "--table", str(table_path),
        "--protocol", "custom:train=1-8,test=9-12", "--outdir", str(outdir),
        "--industrial", str(industrial), "--alpha", "0.001", "--epochs", "2",
    )
    assert code == 0
    doc = json.loads((outdir / "case_report.json").read_text())
    assert doc["baseline"]["n_projects"] == 4
    assert doc["industrial_baseline"]["n_projects"] == 4
    assert (outdir / "industrial_baseline.csv").exists()


def test_case_c41_on_93_rows_reports_23(table_path, tmp_path):
    dataset = tmp_path / "d93.csv"
    dataset.write_text("\n".join(demo_dataset_rows(93, seed=2)) + "\n")
    outdir = tmp_path / "case41"
    code = run_cli(
        "case", "--dataset", str(dataset), "--table", str(table_path),
        "--protocol", "c4-1", "--outdir", str(outdir), "--alpha", "0.001",
        "--epochs", "2",
    )
    assert code == 0
    doc = json.loads((outdir / "case_report.json").read_text())
    assert doc["baseline"]["n_projects"] == 23
    report_rows = (outdir / "report_calibrated.csv").read_text().splitlines()
    assert len(report_rows) == 24  # header + 23 projects


def test_case_failure_leaves_no_partial_reports(table_path, tmp_path):
    outdir = tmp_path / "case-fail"
    code = run_cli(
        "case", "--dataset", str(tmp_path / "missing.csv"), "--table", str(table_path),
        "--protocol", "c2", "--outdir", str(outdir),
    )
    assert code == 2
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("parse")
    for name in CASE_FILES:
        assert not (outdir / name).exists()


def test_case_rerun_is_byte_identical(dataset_path, table_path, tmp_path):
    args = [
        "case", "--dataset", str(dataset_path), "--table", str(table_path),
        "--protocol", "c2", "--alpha", "0.02", "--epochs", "6", "--tolerance", "0",
    ]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli(*args, "--outdir", str(out1)) == 0
    assert run_cli(*args, "--outdir", str(out2)) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert sorted(p.name for p in out2.iterdir()) == names
    for name in names:
        if name == "manifest.json":
            continue  # carries timestamps by design
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# --- report ---------------------------------------------------------------------


def test_report_rerenders_evaluation(projects_path, table_path, tmp_path, capsys):
    outdir = tmp_path / "eval"
    run_cli("evaluate", "--projects", str(projects_path), "--table", str(table_path),
            "--outdir", str(outdir))
    capsys.readouterr()
    code = run_cli("report", "--input", str(outdir / "report.json"))
    assert code == 0
    assert "MMRE" in capsys.readouterr().out
    code = run_cli(
        "report", "--input", str(outdir / "report.json"), "--format", "csv",
        "--out", str(tmp_path / "again.csv"),
    )
    assert code == 0
    assert (tmp_path / "again.csv").read_text() == (outdir / "report.csv").read_text()
    assert (tmp_path / "again.csv.manifest.json").exists()


def test_report_rerenders_case(dataset_path, table_path, tmp_path, capsys):
    outdir = tmp_path / "case"
    run_cli("case", "--dataset", str(dataset_path), "--table", str(table_path),
            "--protocol", "c2", "--outdir", str(outdir), "--alpha", "0",
            "--epochs", "1")
    capsys.readouterr()
    code = run_cli(
        "report", "--input", str(outdir / "case_report.json"), "--format", "csv"
    )
    assert code == 0
    assert capsys.readouterr().out == (outdir / "change.csv").read_text()


# --- failure contract -------------------------------------------------------------

CASE_RUN = "case --dataset {dataset} --table {table} --protocol c2 --epochs 2"

# (argv template, failing stage, manifest left behind or None when the output
# location cannot be created)
FAILURES = {
    "negative-alpha": (CASE_RUN + " --outdir {out} --alpha -1", "config",
                       "{out}/manifest.json"),
    "non-numeric-pred-level": (CASE_RUN + " --outdir {out} --pred-levels 20,x",
                               "config", "{out}/manifest.json"),
    "negative-pred-level": (CASE_RUN + " --outdir {out} --pred-levels -5", "config",
                            "{out}/manifest.json"),
    "malformed-config-yaml": (CASE_RUN + " --outdir {out} --config {broken_yaml}",
                              "config", "{out}/manifest.json"),
    "non-numeric-config-value": (CASE_RUN + " --outdir {out} --config {bad_tolerance}",
                                 "config", "{out}/manifest.json"),
    "unknown-config-key": (CASE_RUN + " --outdir {out} --config {typo_key}", "config",
                           "{out}/manifest.json"),
    "non-integral-config-epochs": (CASE_RUN + " --outdir {out} --config {half_epochs}",
                                   "config", "{out}/manifest.json"),
    "non-boolean-config-backtrack": (
        CASE_RUN + " --outdir {out} --config {string_backtrack}", "config",
        "{out}/manifest.json"),
    "non-integral-epochs-flag": (CASE_RUN + " --outdir {out} --epochs 2.5", "config",
                                 "{out}/manifest.json"),
    "non-numeric-alpha-flag": (CASE_RUN + " --outdir {out} --alpha abc", "config",
                               "{out}/manifest.json"),
    "bad-config-value-under-a-flag": (
        CASE_RUN + " --outdir {out} --config {bad_pred_levels} --pred-levels 20",
        "config", "{out}/manifest.json"),
    "negative-outlier-threshold": (CASE_RUN + " --outdir {out} --outlier-threshold -5",
                                   "config", "{out}/manifest.json"),
    "case-outdir-under-a-file": (CASE_RUN + " --outdir {blocker}/x", "write", None),
    "transfer-out-under-a-file": ("transfer --dataset {dataset} --out {blocker}/x/p.csv",
                                  "write", None),
    "transfer-missing-dataset": ("transfer --dataset {missing} --out {out}/p.csv",
                                 "parse", "{out}/p.csv.manifest.json"),
    "transfer-bad-mapping": (
        "transfer --dataset {dataset} --mapping {broken_yaml} --out {out}/p.csv",
        "mapping", "{out}/p.csv.manifest.json"),
    "report-on-non-report": ("report --input {not_report} --out {out}/r.txt", "read",
                             "{out}/r.txt.manifest.json"),
    # the last output's name is taken by a directory: the outputs written
    # before it are removed again
    "output-name-taken": (CASE_RUN + " --outdir {occupied}", "write",
                          "{out}/manifest.json"),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failures_name_their_stage_and_leave_a_failed_manifest(
    name, dataset_path, table_path, tmp_path, capsys
):
    template, stage, manifest = FAILURES[name]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    paths = {
        "dataset": dataset_path, "table": table_path, "out": tmp_path / "out",
        "missing": inputs / "missing.csv", "blocker": inputs / "blocker",
        "broken_yaml": inputs / "broken.yaml", "bad_tolerance": inputs / "tolerance.yaml",
        "not_report": inputs / "not_report.json", "typo_key": inputs / "typo.yaml",
        "half_epochs": inputs / "epochs.yaml", "string_backtrack": inputs / "backtrack.yaml",
        "bad_pred_levels": inputs / "pred_levels.yaml",
    }
    paths["blocker"].write_text("a file, not a directory\n")
    paths["broken_yaml"].write_text("alpha: [0.1, 0.2\n")
    paths["bad_tolerance"].write_text("tolerance: abc\n")
    paths["not_report"].write_text(json.dumps({"n_projects": 3}))
    paths["typo_key"].write_text("alhpa: 0.1\n")
    paths["half_epochs"].write_text("epochs: 2.5\n")
    paths["string_backtrack"].write_text('backtrack: "no"\n')
    paths["bad_pred_levels"].write_text("pred_levels: [x]\n")
    paths["occupied"] = paths["out"]
    if "{occupied}" in template:
        (paths["out"] / "calibrated_table.yaml").mkdir(parents=True)

    code = run_cli(*(token.format(**paths) for token in template.split()))

    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}:")
    assert "Traceback" not in err
    if manifest is None:
        assert not (tmp_path / "out").exists()
        return
    doc = json.loads(Path(manifest.format(**paths)).read_text())
    assert doc["status"] == "failed"
    assert doc["error"].startswith(f"{stage}:")
    assert doc["outputs"] == []
    assert doc["started_at"] <= doc["finished_at"]
    assert [p.name for p in paths["out"].iterdir() if p.is_file()] == [Path(manifest).name]


@pytest.mark.parametrize(
    "text, message",
    [
        ("alhpa: 0.1\n", "error: config: unknown key 'alhpa'"),
        ("epochs: 2.5\n", "error: config: epochs: expected a whole number, got 2.5"),
        ("tolerance: yes\n", "error: config: tolerance: expected a number, got True"),
        ("seed: 1\n", "error: config: unknown key 'seed'"),
        ('backtrack: "no"\n', "error: config: backtrack: expected true or false, got 'no'"),
    ],
)
def test_config_file_errors_name_the_key(text, message, tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(text)
    code = run_cli("calibrate", "--projects", str(tmp_path / "unused.csv"),
                   "--table", "synthetic", "--config", str(config),
                   "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err.strip() == message


# Per setting: one bad value as flag text, and flag arguments that give a good
# value.  In a --config file the bad value is the same text as a YAML string.
BAD_SETTINGS = {
    "alpha": ("abc", ["--alpha", "0.01"]),
    "epochs": ("2.5", ["--epochs", "1"]),
    "tolerance": ("abc", ["--tolerance", "0"]),
    "floor": ("abc", ["--floor", "1e-6"]),
    "backtrack": ("no", ["--no-backtrack"]),
    "pred_levels": ("20,x", ["--pred-levels", "20"]),
    "outlier_threshold": ("-5", ["--outlier-threshold", "50"]),
}


@pytest.mark.parametrize("key", list(cli.SETTINGS))
def test_a_bad_setting_fails_alike_as_flag_and_in_config(
    key, dataset_path, tmp_path, capsys
):
    bad, good_flag = BAD_SETTINGS[key]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({key: bad}))
    runs = {
        "file": ["--config", str(config)],
        "file-under-a-flag": ["--config", str(config), *good_flag],
    }
    if key != "backtrack":  # --no-backtrack carries no value
        runs["flag"] = [good_flag[0], bad]
    messages = set()
    for name, extra in runs.items():
        out = tmp_path / name
        code = run_cli("case", "--dataset", str(dataset_path), "--table", "synthetic",
                       "--protocol", "c2", "--outdir", str(out), *extra)
        assert code == 2, name
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: config: {key}: "), err
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], "error: " + manifest["error"]) == ("failed", err)
        messages.add(err)
    assert len(messages) == 1


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("alpha", "-1", "learning rate must be >= 0, got -1.0"),
        ("epochs", "-2", "max_epochs must be >= 0, got -2"),
        ("tolerance", "-1e-6", "tolerance must be >= 0, got -1e-06"),
        ("floor", "0", "value_floor must be positive, got 0.0"),
    ],
)
def test_range_errors_name_the_key(key, bad, message, dataset_path, tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(f"{key}: {bad}\n")
    for name, extra in {"flag": [f"--{key}={bad}"],
                        "file": ["--config", str(config)]}.items():
        out = tmp_path / name
        code = run_cli("case", "--dataset", str(dataset_path), "--table", "synthetic",
                       "--protocol", "c2", "--outdir", str(out), *extra)
        assert code == 2, name
        err = capsys.readouterr().err.strip()
        assert err == f"error: config: {key}: {message}", name
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], "error: " + manifest["error"]) == ("failed", err)


def test_readme_lists_every_setting():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    bullet = readme.split("- a `--config file.yaml` may hold the settings", 1)[1]
    assert re.findall(r"`(\w+)`", bullet.split(";", 1)[0]) == list(cli.SETTINGS)
