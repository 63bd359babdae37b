"""End-to-end CLI behavior on the bundled synthetic fixture."""

import argparse
import codecs
import csv
import os
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefnet import cli
from beliefnet.cli import build_parser, main
from beliefnet.learn import POOL_MIN_REPLICATES
from beliefnet.model import CategoricalVariable, Cpt, Dag, FittedNetwork
from beliefnet.modelio import save
from mutations import MUTATIONS, VALUES, mutate
from reference_io import read_query_csv

RAW = "fixtures/synthetic_survey.csv"
PREP = "fixtures/prep.yaml"
THEMES = "fixtures/themes.yaml"
TIERS = "fixtures/tiers_full.yaml"
LEARN = "fixtures/learn_fast.yaml"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One prepped workspace with a small-bootstrap model, shared per module."""
    root = tmp_path_factory.mktemp("ws")
    assert run(
        "prep", "--raw", RAW, "--recode", PREP, "--themes", THEMES,
        "--workspace", root, "--name", "survey",
    ) == 0
    assert run(
        "learn", "--data", root / "data" / "survey_full.csv",
        "--dict", root / "data" / "survey_full.dict.yaml",
        "--tiers", TIERS, "--config", LEARN, "--bootstrap", 15,
        "--seed", 7, "--workspace", root, "--name", "full",
    ) == 0
    return root


class TestPrep:
    def test_three_tables_with_audit(self, ws):
        audit = yaml.safe_load((ws / "data" / "survey.audit.yaml").read_text())
        assert set(audit["tables"]) == {"full", "risk", "opportunity"}
        assert audit["collapsed_levels"] == {"Municipality": ["500k+"]}

    def test_counts_match_brute_force(self, ws):
        # recompute the full-table row count straight from the raw tokens
        with open(RAW, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        with open(PREP, encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
        by_name = {v["name"]: v for v in cfg["variables"]}
        full_vars = cfg["models"]["full"]

        def level_of(row, var):
            spec = by_name[var]
            token = row[spec.get("source") or var]
            label = spec["map"].get(token, "__unmapped__")
            return label

        develop_tokens = {"1": "Risk", "2": "Opportunity", "3": "Both"}
        n_full = n_risk = 0
        for row in rows:
            levels = {v: level_of(row, v) for v in full_vars}
            if all(lvl is not None for lvl in levels.values()):
                n_full += 1
                framing = develop_tokens.get(row["develop"])
                if framing in ("Risk", "Both"):
                    n_risk += 1
        audit = yaml.safe_load((ws / "data" / "survey.audit.yaml").read_text())
        assert audit["tables"]["full"]["rows"] == n_full
        # risk table drops DevelopAI but keeps the same backbone minus themes;
        # its row count is bounded by the risk-framed complete backbone rows
        assert audit["tables"]["risk"]["rows"] <= audit["tables"]["risk"]["rows_before_drop"]

    def test_empty_input(self, tmp_path):
        raw = tmp_path / "empty.csv"
        with open(RAW, encoding="utf-8") as fh:
            header = fh.readline()
        raw.write_text(header, encoding="utf-8")
        code = run(
            "prep", "--raw", raw, "--recode", PREP, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "empty",
        )
        assert code == 0
        audit = yaml.safe_load(
            (tmp_path / "ws" / "data" / "empty.audit.yaml").read_text()
        )
        assert audit["raw_rows"] == 0
        assert all(t["rows"] == 0 for t in audit["tables"].values())

    def test_byte_order_mark_preps_the_plain_files_tables(self, tmp_path):
        """A survey saved as Excel's "CSV UTF-8" (a leading byte-order mark)
        preps to the plain file's tables and audit byte for byte: the
        fingerprint, and so each dictionary's ``source``, is the same."""
        bom = tmp_path / "bom.csv"
        bom.write_bytes(codecs.BOM_UTF8 + Path(RAW).read_bytes())
        for raw, name in ((RAW, "plain"), (bom, "bom")):
            assert run("prep", "--raw", raw, "--recode", PREP, "--themes", THEMES,
                       "--workspace", tmp_path / name, "--name", "survey") == 0
        files = sorted(p.name for p in (tmp_path / "plain" / "data").iterdir()
                       if not p.name.endswith(".manifest.yaml"))
        assert len(files) == 7
        for f in files:
            assert (tmp_path / "bom" / "data" / f).read_bytes() == (
                tmp_path / "plain" / "data" / f).read_bytes(), f

    @pytest.mark.parametrize("fault, reason", [
        ("empty", "empty file: no header row"),
        ("no_sex", "missing column 'sex'"),
    ])
    def test_raw_csv_fault_exit_2_at_line_1_without_output(self, tmp_path, capsys, fault,
                                                           reason):
        raw = tmp_path / f"{fault}.csv"
        if fault == "empty":
            raw.write_bytes(b"")
        else:  # the fixture survey without its first column, sex
            with open(RAW, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0][0] == "sex"
            with open(raw, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(row[1:] for row in rows)
        code = run(
            "prep", "--raw", raw, "--recode", PREP, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "survey",
        )
        assert code == 2
        assert f"beliefnet: error: {raw}: line 1: {reason}\n" in capsys.readouterr().err
        assert list((tmp_path / "ws" / "data").iterdir()) == []

    @pytest.mark.parametrize("copy", ["appended", "first"])
    def test_repeated_column_exit_2_at_line_1_without_output(self, tmp_path, capsys, copy):
        # a second sex column: a copy appended would go unread, and a column
        # of the missing token put first would be read in place of the real one
        with open(RAW, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "sex"
        if copy == "appended":
            rows = [row + row[:1] for row in rows]
        else:
            rows = [["sex"] + rows[0]] + [["9"] + row for row in rows[1:]]
        raw = tmp_path / "survey.csv"
        with open(raw, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        code = run(
            "prep", "--raw", raw, "--recode", PREP, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "survey",
        )
        assert code == 2
        assert (f"beliefnet: error: {raw}: line 1: repeated column 'sex'\n"
                in capsys.readouterr().err)
        assert list((tmp_path / "ws" / "data").iterdir()) == []

    def test_unmapped_token_names_file_and_row_without_output(self, tmp_path, capsys):
        with open(RAW, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "sex"
        rows[3][0] = "7"  # the third data row; the strict sex map has no 7
        raw = tmp_path / "survey.csv"
        with open(raw, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        code = run(
            "prep", "--raw", raw, "--recode", PREP, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "survey",
        )
        assert code == 2
        assert (f"beliefnet: error: {raw}: row 3: variable 'Sex': unmapped token '7'\n"
                in capsys.readouterr().err)
        assert list((tmp_path / "ws" / "data").iterdir()) == []

    def test_bad_theme_member_names_column(self, tmp_path, capsys):
        bad = tmp_path / "themes.yaml"
        bad.write_text(
            "format: beliefnet-themes\nversion: 1\nthemes:\n"
            "  - name: T\n    members: [does_not_exist]\n",
            encoding="utf-8",
        )
        code = run(
            "prep", "--raw", RAW, "--recode", PREP, "--themes", bad,
            "--workspace", tmp_path / "ws", "--name", "x",
        )
        assert code == 2
        assert (f"{bad}: themes[0].members: unknown variables ['does_not_exist']"
                in capsys.readouterr().err)

    def test_unknown_model_variable_writes_nothing(self, tmp_path, capsys):
        with open(PREP, encoding="utf-8") as fh:
            text = fh.read()
        cut = text.index("  risk:\n")
        bad = tmp_path / "prep.yaml"
        bad.write_text(text[:cut] + text[cut:].replace("[Sex,", "[Nope, Sex,", 1),
                       encoding="utf-8")
        code = run(
            "prep", "--raw", RAW, "--recode", bad, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "x",
        )
        assert code == 2
        assert "models.risk: unknown variables ['Nope']" in capsys.readouterr().err
        assert list((tmp_path / "ws" / "data").iterdir()) == []

    def test_unknown_model_variable_refused_before_raw_is_read(self, tmp_path, capsys):
        # without --themes, models.risk names theme columns the plan lacks
        code = run(
            "prep", "--raw", tmp_path / "does_not_exist.csv", "--recode", PREP,
            "--workspace", tmp_path / "ws", "--name", "x",
        )
        assert code == 2
        assert f"{PREP}: models.risk: unknown variables [" in capsys.readouterr().err
        assert list((tmp_path / "ws" / "data").iterdir()) == []

    def test_unknown_framing_refused_before_raw_is_read(self, tmp_path, capsys):
        # models lists risk and opportunity, which split the rows by framing
        with open(PREP, encoding="utf-8") as fh:
            text = fh.read()
        bad = tmp_path / "prep.yaml"
        bad.write_text(text.replace("framing: DevelopAI", "framing: DevelopA", 1),
                       encoding="utf-8")
        code = run(
            "prep", "--raw", tmp_path / "does_not_exist.csv", "--recode", bad,
            "--themes", THEMES, "--workspace", tmp_path / "ws", "--name", "x",
        )
        assert code == 2
        assert f"{bad}: framing: unknown variable 'DevelopA'" in capsys.readouterr().err
        assert list((tmp_path / "ws" / "data").iterdir()) == []

    def test_misspelled_table_writes_nothing(self, tmp_path, capsys):
        with open(PREP, encoding="utf-8") as fh:
            text = fh.read()
        bad = tmp_path / "prep.yaml"
        bad.write_text(text.replace("\n  risk:", "\n  riks:", 1), encoding="utf-8")
        code = run(
            "prep", "--raw", RAW, "--recode", bad, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "x",
        )
        assert code == 2
        assert f"{bad}: models.riks: unknown key" in capsys.readouterr().err
        assert list((tmp_path / "ws" / "data").iterdir()) == []

    def test_empty_model_table_exit_2_without_output(self, tmp_path, capsys):
        # it would be written as a bare newline that learn then refuses
        with open(PREP, encoding="utf-8") as fh:
            text = fh.read()
        bad = tmp_path / "prep.yaml"
        bad.write_text(text[:text.index("models:")] + "models:\n  full: []\n", encoding="utf-8")
        code = run(
            "prep", "--raw", RAW, "--recode", bad, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "x",
        )
        assert code == 2
        assert f"beliefnet: error: {bad}: models.full: lists no variables" in capsys.readouterr().err
        assert list((tmp_path / "ws" / "data").iterdir()) == []

    def test_tables_not_listed_are_not_written(self, tmp_path):
        # the paper's GESIS prep config lists `full` alone
        with open(PREP, encoding="utf-8") as fh:
            text = fh.read()
        only_full = tmp_path / "prep.yaml"
        only_full.write_text(text[:text.index("  risk:\n")], encoding="utf-8")
        assert run(
            "prep", "--raw", RAW, "--recode", only_full, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "x",
        ) == 0
        data = tmp_path / "ws" / "data"
        assert sorted(p.name for p in data.iterdir()) == [
            "x.audit.yaml", "x.manifest.yaml", "x_full.csv", "x_full.dict.yaml",
        ]
        assert list(yaml.safe_load((data / "x.audit.yaml").read_text())["tables"]) == ["full"]

    def test_split_only_when_a_subpopulation_table_is_listed(self, tmp_path):
        # a config that lists `full` alone never reads the framing levels
        with open(PREP, encoding="utf-8") as fh:
            text = fh.read()
        only_full = tmp_path / "prep.yaml"
        only_full.write_text(
            text[:text.index("  risk:\n")].replace("framing: DevelopAI", "framing: Sex"),
            encoding="utf-8",
        )
        assert run(
            "prep", "--raw", RAW, "--recode", only_full, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "x",
        ) == 0
        assert (tmp_path / "ws" / "data" / "x_full.csv").exists()

    @pytest.mark.parametrize("config, old, new, position, reason", [
        ("recode", "[Sex, Age,", "[Sex, Age, Sex,", "models.full[2]", "'Sex' is listed twice"),
        ("themes", "name: PosWork", "name: Sex", "themes[0].name",
         "'Sex' is already a column of the table"),
        ("themes", "name: PosHealth", "name: PosWork", "themes[1].name",
         "'PosWork' is listed twice"),
        ("recode", "missing_threshold: 50", "missing_threshold: 5000", "missing_threshold",
         "collapsing rare levels of 'Sex' would leave 0 level(s)"),
        ("recode", "levels: [Female, Male]", "levels: [Female, Male, Male]",
         "variables[0].levels[2]", "'Male' is listed twice"),
        ("recode", "name: Age", "name: Sex", "variables[1].name", "'Sex' is listed twice"),
    ], ids=["repeated_model_entry", "theme_named_like_a_column", "theme_named_twice",
            "threshold_leaves_one_level", "repeated_level", "repeated_variable"])
    def test_bad_config_exit_2_at_its_position_without_output(self, tmp_path, capsys, config,
                                                              old, new, position, reason):
        files = {"recode": PREP, "themes": THEMES}
        with open(files[config], encoding="utf-8") as fh:
            text = fh.read()
        bad = tmp_path / f"{config}.yaml"
        bad.write_text(text.replace(old, new, 1), encoding="utf-8")
        files[config] = bad
        code = run(
            "prep", "--raw", RAW, "--recode", files["recode"], "--themes", files["themes"],
            "--workspace", tmp_path / "ws", "--name", "x",
        )
        assert code == 2
        assert f"beliefnet: error: {bad}: {position}: {reason}" in capsys.readouterr().err
        assert list((tmp_path / "ws" / "data").iterdir()) == []


class TestLearn:
    def test_model_and_strengths_written(self, ws):
        assert (ws / "models" / "full.bn.yaml").exists()
        assert (ws / "strengths" / "full_strengths.csv").exists()
        manifest = yaml.safe_load((ws / "models" / "full.manifest.yaml").read_text())
        assert manifest["extra"]["seed"] == 7
        assert "seed" not in manifest and "workers" not in manifest
        assert manifest["extra"]["bootstrap"] == 15
        assert manifest["extra"]["bootstrap_workers"] == 1
        assert 0 < manifest["extra"]["threshold"] <= 1

    @pytest.mark.parametrize("b, used", [
        (2 * POOL_MIN_REPLICATES - 1, 1), (2 * POOL_MIN_REPLICATES, 2),
    ])
    def test_manifest_records_the_processes_the_bootstrap_used(self, ws, tmp_path, b, used):
        code = run(
            "learn", "--data", ws / "data" / "survey_full.csv",
            "--dict", ws / "data" / "survey_full.dict.yaml",
            "--tiers", TIERS, "--config", LEARN, "--bootstrap", b, "--workers", 2,
            "--seed", 7, "--workspace", tmp_path / "w", "--name", "full",
        )
        assert code == 0
        manifest = yaml.safe_load((tmp_path / "w" / "models" / "full.manifest.yaml").read_text())
        assert manifest["config"]["workers"] == 2
        assert manifest["extra"]["bootstrap_workers"] == used

    def test_byte_identical_across_runs(self, ws, tmp_path):
        code = run(
            "learn", "--data", ws / "data" / "survey_full.csv",
            "--dict", ws / "data" / "survey_full.dict.yaml",
            "--tiers", TIERS, "--config", LEARN, "--bootstrap", 15,
            "--seed", 7, "--workspace", tmp_path / "ws2", "--name", "full",
        )
        assert code == 0
        a = (ws / "models" / "full.bn.yaml").read_bytes()
        b = (tmp_path / "ws2" / "models" / "full.bn.yaml").read_bytes()
        assert a == b

    def test_tiers_respected(self, ws):
        from beliefnet.modelio import load as load_model
        from beliefnet.configio import load_tier_config
        from beliefnet.learn import tiers_to_blacklist

        net = load_model(ws / "models" / "full.bn.yaml")
        cons = tiers_to_blacklist(
            load_tier_config(TIERS), [v.name for v in net.variables]
        )
        assert not (set(net.dag.arcs()) & cons)

    def test_bootstrap_zero_is_a_usage_error(self, ws, tmp_path, capsys):
        code = run(
            "learn", "--data", ws / "data" / "survey_full.csv",
            "--dict", ws / "data" / "survey_full.dict.yaml",
            "--tiers", TIERS, "--config", LEARN, "--bootstrap", 0,
            "--workspace", tmp_path / "ws0", "--name", "single",
        )
        assert code == 1
        assert "--bootstrap: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "ws0").exists()

    def test_tier_naming_an_absent_variable_exit_2_without_output(self, ws, tmp_path, capsys):
        tiers = tmp_path / "tiers.yaml"
        text = Path(TIERS).read_text(encoding="utf-8")
        tiers.write_text(text.replace("AIRegulations]", "AIRegulations, Bogus]"),
                         encoding="utf-8")
        code = run(
            "learn", "--data", ws / "data" / "survey_full.csv",
            "--dict", ws / "data" / "survey_full.dict.yaml",
            "--tiers", tiers, "--config", LEARN, "--bootstrap", 1,
            "--workspace", tmp_path / "wst", "--name", "bad",
        )
        assert code == 2
        assert "unknown variable: 'Bogus'" in capsys.readouterr().err
        for directory in ("models", "strengths"):
            assert not list((tmp_path / "wst" / directory).iterdir())

    def test_missing_cell_exit_2_without_output(self, ws, tmp_path, capsys):
        # refused before the bootstrap: this one (seed 3, B=1) does not draw
        # row 5, so without the check the fit would meet the missing cell
        lines = (ws / "data" / "survey_full.csv").read_text(encoding="utf-8").split("\n")
        lines[5] = "," + lines[5].split(",", 1)[1]
        data = tmp_path / "holed.csv"
        data.write_text("\n".join(lines), encoding="utf-8")
        code = run(
            "learn", "--data", data, "--dict", ws / "data" / "survey_full.dict.yaml",
            "--bootstrap", 1, "--seed", 3, "--workspace", tmp_path / "ws",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"beliefnet: error: {data}: row 5: 'Sex' is missing" in err
        assert list((tmp_path / "ws" / "models").iterdir()) == []

    def test_unknown_label_exit_2_at_its_row_without_output(self, ws, tmp_path, capsys):
        with open(ws / "data" / "survey_full.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[4][rows[0].index("Age")] = "Bogus"  # data row 4: the header is row 0
        data = tmp_path / "bogus.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        code = run(
            "learn", "--data", data, "--dict", ws / "data" / "survey_full.dict.yaml",
            "--bootstrap", 1, "--seed", 3, "--workspace", tmp_path / "ws",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"beliefnet: error: {data}: row 4: variable 'Age' has no level 'Bogus'" in err
        for directory in ("models", "strengths"):
            assert list((tmp_path / "ws" / directory).iterdir()) == []

    def test_repeated_column_exit_2_at_line_1_without_output(self, ws, tmp_path, capsys):
        # a copy of the Age column appended: learn would read the first alone
        with open(ws / "data" / "survey_full.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        age = rows[0].index("Age")
        data = tmp_path / "twice.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(row + [row[age]] for row in rows)
        code = run(
            "learn", "--data", data, "--dict", ws / "data" / "survey_full.dict.yaml",
            "--bootstrap", 1, "--seed", 3, "--workspace", tmp_path / "ws",
        )
        assert code == 2
        assert f"beliefnet: error: {data}: line 1: repeated column 'Age'" in capsys.readouterr().err
        for directory in ("models", "strengths"):
            assert list((tmp_path / "ws" / directory).iterdir()) == []

    @pytest.mark.parametrize("key", ["whitelist", "blacklist"])
    def test_arc_list_config_refused_without_output(self, ws, tmp_path, capsys, key):
        cfg = tmp_path / "learn.yaml"
        cfg.write_text(
            f"format: beliefnet-learn\nversion: 1\nbootstrap: 4\n{key}: [[Sex, Age]]\n",
            encoding="utf-8",
        )
        code = run(
            "learn", "--data", ws / "data" / "survey_full.csv",
            "--dict", ws / "data" / "survey_full.dict.yaml",
            "--tiers", TIERS, "--config", cfg,
            "--workspace", tmp_path / "wsx", "--name", "bad",
        )
        assert code == 2
        assert f"{cfg}: {key}: unknown key" in capsys.readouterr().err
        for directory in ("models", "strengths"):
            assert not list((tmp_path / "wsx" / directory).iterdir())

    def test_infinite_alpha_exit_2_without_output(self, ws, tmp_path, capsys):
        cfg = tmp_path / "learn.yaml"
        text = Path(LEARN).read_text(encoding="utf-8")
        cfg.write_text(text.replace("alpha: 1\n", "alpha: .inf\n", 1), encoding="utf-8")
        code = run(
            "learn", "--data", ws / "data" / "survey_full.csv",
            "--dict", ws / "data" / "survey_full.dict.yaml",
            "--tiers", TIERS, "--config", cfg, "--bootstrap", 2,
            "--workspace", tmp_path / "wsi", "--name", "bad",
        )
        assert code == 2
        assert f"{cfg}: alpha: must be finite and > 0" in capsys.readouterr().err
        for directory in ("models", "strengths"):
            assert not list((tmp_path / "wsi" / directory).iterdir())


class TestQuery:
    def test_nan_cpt_entry_exit_2_without_report(self, tmp_path, capsys):
        model = tmp_path / "nan.bn.yaml"
        text = Path("fixtures/mini.bn.yaml").read_text(encoding="utf-8")
        model.write_text(text.replace("[0.8, 0.2]", "[.nan, 0.2]", 1), encoding="utf-8")
        cfg = tmp_path / "query.yaml"
        cfg.write_text("format: beliefnet-query\nversion: 1\ntables:\n"
                       "  - target: WetGrass\n    evidence_variables: [Rain]\n",
                       encoding="utf-8")
        code = run("query", "--model", model, "--config", cfg,
                   "--workspace", tmp_path / "wn", "--name", "rep")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{model}: (document): CPT for 'Rain': row 0 sums to nan, not 1" in err
        assert not list(tmp_path.glob("wn/reports/*.csv"))

    def test_layout(self, ws):
        assert run(
            "query", "--model", ws / "models" / "full.bn.yaml",
            "--config", "fixtures/query.yaml", "--workspace", ws, "--name", "rep",
        ) == 0
        levels, rows = read_query_csv(ws / "reports" / "rep_query_DevelopAI.csv")
        assert levels == ("Risk", "Opportunity", "Both")
        assert rows[0][0] == "Baseline"
        sweeps = [r[0] for r in rows[1:]]
        assert sweeps == ["AIEasierLife"] * 4 + ["InterestAI"] * 4
        for _, _, probs in rows:
            assert abs(sum(probs) - 1.0) < 1e-9

    @pytest.mark.parametrize("bad_sweep, error", [
        ("AIRegulations", "target 'AIRegulations' appears in the evidence"),
        ("NoSuchVariable", "NoSuchVariable"),
    ], ids=["sweep-is-target", "unknown-sweep"])
    def test_bad_table_writes_no_report(self, ws, tmp_path, capsys, bad_sweep, error):
        cfg = tmp_path / "query.yaml"

        def tables(second_sweep):
            cfg.write_text(
                "format: beliefnet-query\nversion: 1\ntables:\n"
                "  - target: DevelopAI\n    evidence_variables: [InterestAI]\n"
                f"  - target: AIRegulations\n    evidence_variables: [{second_sweep}]\n",
                encoding="utf-8",
            )

        argv = ["query", "--model", ws / "models" / "full.bn.yaml", "--config", cfg,
                "--workspace", tmp_path / "wq", "--name", "rep"]
        tables(bad_sweep)
        assert run(*argv) == 2
        assert error in capsys.readouterr().err
        assert not list(tmp_path.glob("wq/reports/rep_query_*.csv"))
        # nothing was left to overwrite, so the fixed config needs no --force
        tables("VoteIntent")
        assert run(*argv) == 0
        written = sorted(p.name for p in tmp_path.glob("wq/reports/rep_query_*.csv"))
        assert written == ["rep_query_AIRegulations.csv", "rep_query_DevelopAI.csv"]

    def test_repeated_sweep_exit_2_without_report(self, ws, tmp_path, capsys):
        cfg = tmp_path / "query.yaml"
        cfg.write_text(
            "format: beliefnet-query\nversion: 1\ntables:\n"
            "  - target: DevelopAI\n    evidence_variables: [InterestAI, InterestAI]\n",
            encoding="utf-8",
        )
        code = run(
            "query", "--model", ws / "models" / "full.bn.yaml", "--config", cfg,
            "--workspace", tmp_path / "wr", "--name", "rep",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}: tables[0].evidence_variables[1]: 'InterestAI' is listed twice" in err
        assert not list(tmp_path.glob("wr/reports/rep_query_*.csv"))

    def test_repeated_target_exit_2_without_report(self, ws, tmp_path, capsys):
        cfg = tmp_path / "query.yaml"
        cfg.write_text(
            "format: beliefnet-query\nversion: 1\ntables:\n"
            "  - target: DevelopAI\n    evidence_variables: [AIEasierLife]\n"
            "  - target: DevelopAI\n    evidence_variables: [InterestAI]\n",
            encoding="utf-8",
        )
        code = run(
            "query", "--model", ws / "models" / "full.bn.yaml", "--config", cfg,
            "--workspace", tmp_path / "wd", "--name", "rep",
        )
        assert code == 2
        assert "rep_query_DevelopAI.csv twice" in capsys.readouterr().err
        assert not list((tmp_path / "wd" / "reports").iterdir())


    def test_sweep_of_its_own_target_exit_2_at_the_entry(self, ws, tmp_path, capsys):
        cfg = tmp_path / "query.yaml"
        text = Path("fixtures/query.yaml").read_text(encoding="utf-8")
        cfg.write_text(text.replace("[AIEasierLife, InterestAI]",
                                    "[AIEasierLife, InterestAI, DevelopAI]", 1),
                       encoding="utf-8")
        code = run(
            "query", "--model", ws / "models" / "full.bn.yaml", "--config", cfg,
            "--workspace", tmp_path / "wt", "--name", "rep",
        )
        assert code == 2
        assert (f"{cfg}: tables[0].evidence_variables[2]: "
                "target 'DevelopAI' appears in the evidence") in capsys.readouterr().err
        assert not list((tmp_path / "wt" / "reports").iterdir())


class TestSobol:
    def test_matrix_written(self, ws):
        assert run(
            "sobol", "--model", ws / "models" / "full.bn.yaml",
            "--config", "fixtures/sobol.yaml", "--workspace", ws, "--name", "rep",
        ) == 0
        with open(ws / "reports" / "rep_sobol.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["input", "DevelopAI", "HeardEURegulation",
                           "AIRegulations", "EUAppropriateRegulation"]
        assert len(rows) == 15
        by_input = {r[0]: r for r in rows[1:]}
        assert by_input["DevelopAI"][1] == "--"
        # values sorted by first target column descending (dashes last)
        vals = [float(r[1]) for r in rows[1:] if r[1] != "--"]
        assert vals == sorted(vals, reverse=True)

    def test_no_targets_exit_2_without_report(self, ws, tmp_path, capsys):
        cfg = tmp_path / "sobol.yaml"
        cfg.write_text(
            "format: beliefnet-sobol\nversion: 1\ntargets: []\ninputs: [Sex, Age]\n",
            encoding="utf-8",
        )
        code = run(
            "sobol", "--model", ws / "models" / "full.bn.yaml",
            "--config", cfg, "--workspace", tmp_path / "wsn", "--name", "none",
        )
        assert code == 2
        assert "at least one target" in capsys.readouterr().err
        assert not list((tmp_path / "wsn" / "reports").iterdir())

    def test_repeated_input_exit_2_without_report(self, ws, tmp_path, capsys):
        cfg = tmp_path / "sobol.yaml"
        cfg.write_text(
            "format: beliefnet-sobol\nversion: 1\ntargets: [DevelopAI]\n"
            "inputs: [Sex, Sex, Age]\n",
            encoding="utf-8",
        )
        code = run(
            "sobol", "--model", ws / "models" / "full.bn.yaml",
            "--config", cfg, "--workspace", tmp_path / "wsd", "--name", "dup",
        )
        assert code == 2
        assert f"{cfg}: inputs[1]: 'Sex' is listed twice" in capsys.readouterr().err
        assert not list((tmp_path / "wsd" / "reports").iterdir())


class TestScenario:
    def test_table8_style_run(self, ws):
        assert run(
            "scenario", "--model", ws / "models" / "full.bn.yaml",
            "--config", "fixtures/scenarios.yaml", "--workspace", ws,
            "--name", "rep",
        ) == 0
        with open(
            ws / "reports" / "rep_scenario_DevelopAI.csv", newline="", encoding="utf-8"
        ) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 12  # header + baseline + ten profiles
        assert rows[1][0] == "Baseline"
        assert float(rows[1][1]) == pytest.approx(1.0)
        svg = (ws / "reports" / "rep_scenario_DevelopAI.svg").read_text()
        ET.fromstring(svg)
        assert "generated" not in svg

    def test_baseline_only_one_group_per_level(self, ws, tmp_path):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(
            "format: beliefnet-scenarios\nversion: 1\n"
            "targets: [DevelopAI]\nscenarios:\n  - name: Baseline\n    evidence: {}\n",
            encoding="utf-8",
        )
        assert run(
            "scenario", "--model", ws / "models" / "full.bn.yaml",
            "--config", cfg, "--workspace", ws, "--name", "solo",
        ) == 0
        svg = (ws / "reports" / "solo_scenario_DevelopAI.svg").read_text()
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        texts = [t.text for t in root.iter(f"{ns}text")]
        for level in ("Risk", "Opportunity", "Both"):
            assert level in texts

    def test_repeated_name_exit_2_without_report(self, ws, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(
            "format: beliefnet-scenarios\nversion: 1\ntargets: [DevelopAI]\nscenarios:\n"
            "  - name: Baseline\n    evidence: {}\n"
            "  - name: Baseline\n    evidence: {InterestAI: Strongly}\n",
            encoding="utf-8",
        )
        code = run(
            "scenario", "--model", ws / "models" / "full.bn.yaml",
            "--config", cfg, "--workspace", tmp_path / "wsd", "--name", "dup",
        )
        assert code == 2
        assert "'Baseline' is listed twice" in capsys.readouterr().err
        assert not list((tmp_path / "wsd" / "reports").iterdir())

    def test_repeated_name_exit_2_at_its_position(self, ws, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(
            "format: beliefnet-scenarios\nversion: 1\ntargets: [DevelopAI]\nscenarios:\n"
            "  - name: Baseline\n    evidence: {}\n"
            "  - name: Baseline\n    evidence: {InterestAI: Strongly}\n",
            encoding="utf-8",
        )
        code = run(
            "scenario", "--model", ws / "models" / "full.bn.yaml",
            "--config", cfg, "--workspace", tmp_path / "wsd", "--name", "dup",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}: scenarios[1].name: 'Baseline' is listed twice" in err

    def test_repeated_target_exit_2_at_its_position_without_report(self, ws, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(
            "format: beliefnet-scenarios\nversion: 1\n"
            "targets: [DevelopAI, AIRegulations, DevelopAI]\nscenarios:\n"
            "  - name: Baseline\n    evidence: {}\n",
            encoding="utf-8",
        )
        code = run(
            "scenario", "--model", ws / "models" / "full.bn.yaml",
            "--config", cfg, "--workspace", tmp_path / "wst", "--name", "twice",
        )
        assert code == 2
        assert f"{cfg}: targets[2]: 'DevelopAI' is listed twice" in capsys.readouterr().err
        assert not list((tmp_path / "wst" / "reports").iterdir())

    def test_no_targets_exit_2_without_report(self, ws, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(
            "format: beliefnet-scenarios\nversion: 1\ntargets: []\nscenarios:\n"
            "  - name: Women\n    evidence: {Sex: Female}\n",
            encoding="utf-8",
        )
        code = run(
            "scenario", "--model", ws / "models" / "full.bn.yaml",
            "--config", cfg, "--workspace", tmp_path / "wse", "--name", "none",
        )
        assert code == 2
        assert "at least one target" in capsys.readouterr().err
        assert not list((tmp_path / "wse" / "reports").iterdir())

    def test_evidence_on_a_target_exit_2_at_the_variable(self, ws, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(
            "format: beliefnet-scenarios\nversion: 1\n"
            "targets: [AIRegulations, DevelopAI]\nscenarios:\n"
            "  - name: Baseline\n    evidence: {}\n"
            "  - name: Odd\n    evidence: {InterestAI: Strongly, DevelopAI: Risk}\n",
            encoding="utf-8",
        )
        code = run(
            "scenario", "--model", ws / "models" / "full.bn.yaml",
            "--config", cfg, "--workspace", tmp_path / "wst", "--name", "odd",
        )
        assert code == 2
        assert (f"{cfg}: scenarios[1].evidence.DevelopAI: "
                "scenario 'Odd' fixes the target 'DevelopAI'") in capsys.readouterr().err
        assert not list((tmp_path / "wst" / "reports").iterdir())

    def test_csv_survives_svg_failure(self, ws, tmp_path, monkeypatch):
        import beliefnet.charts as charts

        def boom(*a, **k):
            raise RuntimeError("svg renderer down")

        monkeypatch.setattr(charts, "scenario_bars_svg", boom)
        with pytest.raises(RuntimeError):
            run(
                "scenario", "--model", ws / "models" / "full.bn.yaml",
                "--config", "fixtures/scenarios.yaml",
                "--workspace", tmp_path / "wss", "--name", "crash",
            )
        # CSVs were all written before the SVG stage ran, and none is corrupt
        for target in ("DevelopAI", "AIRegulations", "HeardEURegulation"):
            path = tmp_path / "wss" / "reports" / f"crash_scenario_{target}.csv"
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 12


class TestSensitivity:
    def test_outputs(self, ws):
        assert run(
            "sensitivity", "--model", ws / "models" / "full.bn.yaml",
            "--config", "fixtures/sensitivity.yaml", "--workspace", ws,
            "--name", "rep",
        ) == 0
        assert (ws / "reports" / "rep_tornado.csv").exists()
        svg = (ws / "reports" / "rep_tornado.svg").read_text()
        ET.fromstring(svg)
        dot = (ws / "reports" / "rep_influence.dot").read_text()
        assert "fillcolor" in dot

    def test_unknown_node_exit_2_without_report(self, ws, tmp_path, capsys):
        cfg = tmp_path / "sens.yaml"
        cfg.write_text(
            "format: beliefnet-sensitivity\nversion: 1\n"
            "target: {variable: Bogus, state: Female}\ndelta: 0.1\n",
            encoding="utf-8",
        )
        code = run(
            "sensitivity", "--model", ws / "models" / "full.bn.yaml",
            "--config", cfg, "--workspace", tmp_path / "wsb", "--name", "bogus",
        )
        assert code == 2
        assert "unknown variable: 'Bogus'" in capsys.readouterr().err
        assert not list((tmp_path / "wsb" / "reports").iterdir())

    def test_near_saturated_row_exit_2_naming_the_parameter(self, tmp_path, capsys):
        # the prior row sums to 1 within 1e-12, so the model loads, but the
        # rest of it is far from 1 - theta: moving theta down by delta
        # would give a row the CPT check refuses
        a = CategoricalVariable("A", ("a0", "a1", "a2"))
        b = CategoricalVariable("B", ("b0", "b1"))
        model = tmp_path / "saturated.bn.yaml"
        save(FittedNetwork(
            (a, b), Dag(("A", "B"), {"B": ("A",)}),
            {"A": Cpt("A", (), [[1 - 1e-13, 6.5e-14, 6.5e-14 + 3e-14]]),
             "B": Cpt("B", ("A",), [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])},
        ), model)
        cfg = tmp_path / "sens.yaml"
        cfg.write_text(
            "format: beliefnet-sensitivity\nversion: 1\n"
            "target: {variable: B, state: b1}\ndelta: 0.1\n",
            encoding="utf-8",
        )
        code = run("sensitivity", "--model", model, "--config", cfg,
                   "--workspace", tmp_path / "ws", "--name", "sat")
        err = capsys.readouterr().err
        assert code == 2
        assert "CptParameterId(variable='A', config=0, state=0)" in err
        assert "does not sum to 1 - theta" in err
        assert "Traceback" not in err
        assert not list((tmp_path / "ws" / "reports").glob("*_tornado.csv"))


class TestExport:
    def test_colors_file_refused(self, ws, tmp_path, capsys):
        # nodes are shaded only by --influence; a hand-made color map is not read
        code = run(
            "export", "--model", ws / "models" / "full.bn.yaml", "--colors", "x.yaml",
            "--workspace", tmp_path / "ws",
        )
        assert code == 1
        assert "unrecognized arguments: --colors" in capsys.readouterr().err
        assert not (tmp_path / "ws").exists()

    def test_influence_export(self, ws):
        assert run(
            "export", "--model", ws / "models" / "full.bn.yaml",
            "--influence", "HeardEURegulation=No", "--workspace", ws,
            "--name", "shaded", "--force",
        ) == 0
        assert "fillcolor" in (ws / "reports" / "shaded.dot").read_text()

    def test_influence_without_state_exit_2_without_dot(self, ws, tmp_path, capsys):
        code = run(
            "export", "--model", ws / "models" / "full.bn.yaml",
            "--influence", "HeardEURegulation", "--workspace", tmp_path / "ws",
        )
        assert code == 2
        assert "--influence: expected VARIABLE=STATE" in capsys.readouterr().err
        assert list((tmp_path / "ws" / "reports").iterdir()) == []


class TestCliContract:
    def test_usage_error_exit_1(self):
        assert run("learn") == 1          # missing required args
        assert run("not-a-command") == 1  # unknown command
        assert run("learn", "--data", "d.csv", "--dict", "d.yaml", "--bootstrap", -1) == 1

    def test_seed_belongs_to_learn_only(self, ws, tmp_path, capsys):
        code = run(
            "query", "--seed", 1, "--model", ws / "models" / "full.bn.yaml",
            "--config", "fixtures/query.yaml", "--workspace", tmp_path / "ws",
        )
        assert code == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        assert not (tmp_path / "ws").exists()

    def test_svgs_byte_identical_without_comment(self, ws, tmp_path):
        model = ws / "models" / "full.bn.yaml"
        svgs = []
        for k in (0, 1):
            root = tmp_path / f"ws{k}"
            assert run("scenario", "--model", model, "--config", "fixtures/scenarios.yaml",
                       "--workspace", root, "--name", "rep") == 0
            assert run("sensitivity", "--model", model, "--config", "fixtures/sensitivity.yaml",
                       "--workspace", root, "--name", "rep") == 0
            svgs.append({p.name: p.read_bytes() for p in (root / "reports").glob("*.svg")})
        assert len(svgs[0]) == 4  # three scenario targets and the tornado
        assert svgs[0] == svgs[1]
        assert not [name for name, body in svgs[0].items() if b"<!--" in body]

    def test_readme_shows_exactly_the_subcommands(self):
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        # even pieces are prose, odd pieces the bodies of fenced code blocks
        pieces = re.split(r"^```.*$", readme, flags=re.M)
        shown = set()
        for i, piece in enumerate(pieces):
            pattern = r"^\s*beliefnet +(\S+)" if i % 2 else r"`beliefnet +([^\s`]+)"
            shown.update(re.findall(pattern, piece, re.M))
        assert {c for c in shown if not c.startswith("-")} == set(commands.choices)

    def test_data_error_exit_2(self, tmp_path, capsys):
        code = run(
            "query", "--model", tmp_path / "missing.yaml",
            "--config", "fixtures/query.yaml", "--workspace", tmp_path / "ws",
        )
        assert code == 2

    def test_internal_error_is_not_a_data_error(self, ws, tmp_path, monkeypatch):
        # only a BeliefnetError or an OSError is exit 2; a bare ValueError is a bug
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(cli.analysis, "sobol_matrix", broken)
        with pytest.raises(ValueError, match="internal"):
            run("sobol", "--model", ws / "models" / "full.bn.yaml",
                "--config", "fixtures/sobol.yaml", "--workspace", tmp_path / "ws")

    @pytest.mark.parametrize("command", ["export --model", "learn --dict"])
    def test_malformed_yaml_exit_2_with_position(self, ws, tmp_path, capsys, command):
        bad = tmp_path / "bad.yaml"
        bad.write_text("a: [1, 2\n", encoding="utf-8")
        if command == "export --model":
            argv = ["export", "--model", bad]
        else:
            argv = ["learn", "--data", ws / "data" / "survey_full.csv", "--dict", bad]
        assert run(*argv, "--workspace", tmp_path / "ws") == 2
        err = capsys.readouterr().err
        assert err.startswith("beliefnet: error:")
        assert f"{bad}: line 2, column 1:" in err

    def test_bad_tagged_value_exit_2(self, tmp_path, capsys):
        # PyYAML's int constructor raises IndexError on an empty !!int
        with open("fixtures/mini.bn.yaml", encoding="utf-8") as fh:
            text = fh.read().replace("seed: '0'", "seed: !!int ''")
        model = tmp_path / "m.bn.yaml"
        model.write_text(text, encoding="utf-8")
        assert run("export", "--model", model, "--workspace", tmp_path / "ws") == 2
        err = capsys.readouterr().err
        assert err.startswith("beliefnet: error:") and "(document)" in err

    @pytest.mark.parametrize("fault, line", [(b'"', 4), (b"\xff", 7)])
    def test_malformed_csv_exit_2(self, tmp_path, capsys, fault, line):
        with open(RAW, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[line - 1] = fault + lines[line - 1]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        code = run(
            "prep", "--raw", bad, "--recode", PREP, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "bad",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("beliefnet: error:")
        assert f"{bad}: line {line}:" in err

    def test_mistyped_config_field_exit_2(self, ws, tmp_path, capsys):
        cfg = tmp_path / "sens.yaml"
        cfg.write_text(
            "format: beliefnet-sensitivity\nversion: 1\n"
            "target: {variable: HeardEURegulation, state: 'No'}\ndelta: [1, 2]\n",
            encoding="utf-8",
        )
        code = run(
            "sensitivity", "--model", ws / "models" / "full.bn.yaml", "--config", cfg,
            "--workspace", tmp_path / "ws",
        )
        assert code == 2
        assert f"beliefnet: error: {cfg}: delta: expected float" in capsys.readouterr().err

    def test_overwrite_requires_force(self, ws, tmp_path, capsys):
        argv = ["export", "--model", ws / "models" / "full.bn.yaml",
                "--influence", "HeardEURegulation=No", "--workspace", tmp_path / "ws"]
        assert run(*argv) == 0
        assert run(*argv) == 2
        assert "--force" in capsys.readouterr().err
        assert run(*argv, "--force") == 0

    def test_prep_refuses_before_first_write(self, tmp_path, capsys):
        data = tmp_path / "ws" / "data"
        data.mkdir(parents=True)
        (data / "survey_risk.csv").touch()
        code = run(
            "prep", "--raw", RAW, "--recode", PREP, "--themes", THEMES,
            "--workspace", tmp_path / "ws", "--name", "survey",
        )
        assert code == 2
        assert "survey_risk.csv" in capsys.readouterr().err
        assert [p.name for p in data.iterdir()] == ["survey_risk.csv"]

    def test_manifest_lists_inputs_and_outputs(self, tmp_path):
        root = tmp_path / "ws"
        table = root / "data" / "survey_full"
        model = root / "models" / "full.bn.yaml"
        file_flags = {"--raw", "--recode", "--themes", "--data", "--dict", "--tiers",
                      "--config", "--model"}
        commands = [
            ("data/survey.manifest.yaml",
             ["prep", "--raw", RAW, "--recode", PREP, "--themes", THEMES, "--name", "survey"]),
            ("models/full.manifest.yaml",
             ["learn", "--data", f"{table}.csv", "--dict", f"{table}.dict.yaml",
              "--tiers", TIERS, "--config", LEARN, "--bootstrap", 4, "--seed", 3,
              "--name", "full"]),
            ("reports/rep_query.manifest.yaml",
             ["query", "--model", model, "--config", "fixtures/query.yaml", "--name", "rep"]),
            ("reports/rep_sobol.manifest.yaml",
             ["sobol", "--model", model, "--config", "fixtures/sobol.yaml", "--name", "rep"]),
            ("reports/rep_scenario.manifest.yaml",
             ["scenario", "--model", model, "--config", "fixtures/scenarios.yaml",
              "--name", "rep"]),
            ("reports/rep_sensitivity.manifest.yaml",
             ["sensitivity", "--model", model, "--config", "fixtures/sensitivity.yaml",
              "--name", "rep"]),
            ("reports/graph_export.manifest.yaml",
             ["export", "--model", model, "--influence", "HeardEURegulation=No",
              "--name", "graph"]),
        ]

        def files():
            return {str(p) for p in root.rglob("*") if p.is_file()}

        for manifest_name, argv in commands:
            before = files()
            assert run(*argv, "--workspace", root) == 0
            created = files() - before
            manifest_path = root / manifest_name
            assert str(manifest_path) in created
            manifest = yaml.safe_load(manifest_path.read_text(encoding="utf-8"))
            assert manifest["command"] == argv[0]
            assert sorted(manifest["outputs"]) == sorted(created - {str(manifest_path)})
            given = [str(v) for flag, v in zip(argv, argv[1:]) if flag in file_flags]
            assert list(manifest["inputs"]) == given

    def test_workspace_lock(self, ws, tmp_path, capsys):
        lock = ws / ".beliefnet.lock"
        lock.write_text("12345", encoding="utf-8")
        try:
            code = run(
                "export", "--model", ws / "models" / "full.bn.yaml",
                "--workspace", ws, "--name", "locked",
            )
            assert code == 2
            err = capsys.readouterr().err
            assert "locked" in err
            assert "12345" in err
        finally:
            lock.unlink()

    @pytest.mark.parametrize("holder, explained", [
        ("", "another command"),  # the PID is written after the file is made
        ("self", "still running"),
        ("0", "process 0 "),  # kill(0, 0) would probe this process group
        ("-7", "process -7 "),
        ("other user", "still running"),  # kill refuses: the process exists
    ])
    def test_workspace_lock_explains_its_holder(self, ws, capsys, monkeypatch, holder,
                                                explained):
        lock = ws / ".beliefnet.lock"
        if holder == "other user":
            def refused(pid, signal):
                raise PermissionError(1, "Operation not permitted")
            monkeypatch.setattr(os, "kill", refused)
        pid = {"self": str(os.getpid()), "other user": "4242"}.get(holder, holder)
        lock.write_text(pid, encoding="utf-8")
        try:
            code = run(
                "export", "--model", ws / "models" / "full.bn.yaml",
                "--workspace", ws, "--name", "locked",
            )
            assert code == 2
            assert explained in capsys.readouterr().err
        finally:
            lock.unlink()

    def test_lock_removed_mid_run(self, ws, tmp_path, monkeypatch):
        # a user who deletes a lock they think stale must not fail the holder
        root = tmp_path / "ws"
        load = cli.load_model

        def load_and_unlock(path):
            (root / ".beliefnet.lock").unlink()
            return load(path)

        monkeypatch.setattr(cli, "load_model", load_and_unlock)
        assert run("export", "--model", ws / "models" / "full.bn.yaml", "--workspace", root) == 0
        assert (root / "reports" / "graph.dot").exists()
        assert not (root / ".beliefnet.lock").exists()

    def test_lock_released_however_a_command_ends(self, ws, tmp_path, monkeypatch, capsys):
        # a BeliefnetError, an OSError and a bug each end a run in one
        # workspace; none may leave the lock for the next command
        root = tmp_path / "ws"
        model = ws / "models" / "full.bn.yaml"

        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(cli.analysis, "sobol_matrix", broken)
        ends = [
            (["export", "--model", model, "--influence", "HeardEURegulation"],
             "expected VARIABLE=STATE"),
            (["query", "--model", tmp_path / "missing.bn.yaml", "--config", "fixtures/query.yaml"],
             "No such file or directory"),
            (["sobol", "--model", model, "--config", "fixtures/sobol.yaml"], None),
        ]
        for i, (argv, message) in enumerate(ends):
            if message is None:
                with pytest.raises(ValueError, match="internal"):
                    run(*argv, "--workspace", root)
            else:
                assert run(*argv, "--workspace", root) == 2
                assert message in capsys.readouterr().err
            assert not (root / ".beliefnet.lock").exists()
            assert run("export", "--model", model, "--workspace", root, "--name", f"after{i}") == 0

    @pytest.mark.parametrize("name", ["../../escaped", "a/b", "..", ".", ""])
    def test_name_with_a_directory_part_is_a_usage_error(self, ws, tmp_path, capsys,
                                                         monkeypatch, name):
        # the lock and the overwrite check cover the workspace alone
        cwd = tmp_path / "deep" / "er"
        cwd.mkdir(parents=True)
        model = (ws / "models" / "full.bn.yaml").resolve()
        monkeypatch.chdir(cwd)
        code = run("export", "--model", model, "--workspace", "ws", "--name", name)
        assert code == 1
        assert "--name: must be a file name" in capsys.readouterr().err
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "deep", "deep/er"]

    def test_entropy_seed_recorded(self, ws, tmp_path):
        code = run(
            "learn", "--data", ws / "data" / "survey_full.csv",
            "--dict", ws / "data" / "survey_full.dict.yaml",
            "--tiers", TIERS, "--bootstrap", 1,
            "--workspace", tmp_path / "wse", "--name", "noseed",
        )
        assert code == 0
        manifest = yaml.safe_load(
            (tmp_path / "wse" / "models" / "noseed.manifest.yaml").read_text()
        )
        assert isinstance(manifest["extra"]["seed"], int)

    def test_workspace_env_default(self, ws, tmp_path, monkeypatch):
        monkeypatch.setenv("BELIEFNET_WORKSPACE", str(tmp_path / "envws"))
        code = run(
            "export", "--model", ws / "models" / "full.bn.yaml", "--name", "env"
        )
        assert code == 0
        assert (tmp_path / "envws" / "reports" / "env.dot").exists()


class TestMutatedInputs:
    """A command handed a file with one line mutated exits 0 or 2 and leaves
    no ``*.tmp``: any other exception on a file path is a bug that a user
    sees as a traceback."""

    @pytest.fixture(scope="class")
    def sweep(self, ws, tmp_path_factory):
        """(file, argv) pairs: a run mutates ``file`` and hands the copy to argv."""
        # Education is in the first tier, so its ancestors and each run's tornado are few
        sensitivity = tmp_path_factory.mktemp("sweep") / "sensitivity.yaml"
        with open("fixtures/sensitivity.yaml", encoding="utf-8") as fh:
            sensitivity.write_text(
                fh.read().replace("HeardEURegulation", "Education").replace('"No"', "High"),
                encoding="utf-8",
            )
        model = ws / "models" / "full.bn.yaml"
        dictionary = ws / "data" / "survey_full.dict.yaml"
        prep = ["prep", "--raw", RAW, "--recode", PREP, "--themes", THEMES]
        learn = ["learn", "--data", ws / "data" / "survey_full.csv", "--dict", dictionary,
                 "--tiers", TIERS, "--config", LEARN, "--bootstrap", 1, "--seed", 3]

        def report(command, config):
            return [command, "--model", model, "--config", config]

        query = report("query", "fixtures/query.yaml")
        return [(PREP, prep), (THEMES, prep), (TIERS, learn), (LEARN, learn),
                (dictionary, learn), (model, query), ("fixtures/query.yaml", query),
                ("fixtures/sobol.yaml", report("sobol", "fixtures/sobol.yaml")),
                ("fixtures/scenarios.yaml", report("scenario", "fixtures/scenarios.yaml")),
                (sensitivity, report("sensitivity", sensitivity))]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_0_or_2_without_tmp(self, sweep, data):
        file, argv = data.draw(st.sampled_from(sweep), label="file")
        kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
        value = data.draw(st.sampled_from(VALUES), label="value")
        with open(file, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        changed = [i for i, line in enumerate(lines) if mutate(line, kind, value) != [line]]
        assume(changed)
        i = data.draw(st.sampled_from(changed), label="line")
        lines[i:i + 1] = mutate(lines[i], kind, value)
        with tempfile.TemporaryDirectory() as tmp:
            mutant = os.path.join(tmp, os.path.basename(file))
            with open(mutant, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            code = run(*(mutant if a == file else a for a in argv),
                       "--workspace", os.path.join(tmp, "ws"), "--name", "m")
            assert code in (0, 2)
            assert not [f for _, _, files in os.walk(tmp) for f in files if f.endswith(".tmp")]
