"""Config file parsing and validation."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefnet.configio import (
    load_learn_config,
    load_prep_config,
    load_query_config,
    load_scenario_config,
    load_sensitivity_config,
    load_sobol_config,
    load_theme_config,
    load_tier_config,
)
from beliefnet.data import load_datatable
from beliefnet.errors import BeliefnetError, MalformedFile, VersionMismatch
from beliefnet.modelio import load as load_model


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestHeaders:
    def test_wrong_format(self, tmp_path):
        p = write(tmp_path, "format: nope\nversion: 1\n")
        with pytest.raises(MalformedFile):
            load_tier_config(p)

    def test_version_mismatch(self, tmp_path):
        p = write(tmp_path, "format: beliefnet-tiers\nversion: 7\ntiers: []\n")
        with pytest.raises(VersionMismatch):
            load_tier_config(p)

    def test_syntax_error_position(self, tmp_path, yaml_path):
        p = write(tmp_path, "format: beliefnet-tiers\nversion: 1\ntiers: [:::\n")
        with pytest.raises(MalformedFile) as exc:
            load_tier_config(p)
        assert exc.value.position == "line 3, column 9"


class TestPrep:
    def test_fixture_parses(self):
        cfg = load_prep_config("fixtures/prep.yaml")
        assert cfg.missing_threshold == 50
        assert cfg.framing == "DevelopAI"
        names = cfg.recode.names()
        assert "VoteIntent" in names and "op24" in names
        vi = next(v for v in cfg.recode.variables if v.name == "VoteIntent")
        assert vi.source == "party"
        assert vi.mapping["2"] == "Left"
        assert vi.mapping["99"] is None
        assert set(cfg.models) == {"full", "risk", "opportunity"}

    def test_bad_level_reference(self, tmp_path):
        p = write(
            tmp_path,
            "format: beliefnet-prep\nversion: 1\nvariables:\n"
            "  - name: Q\n    levels: [a, b]\n    map: {'1': zzz}\n",
        )
        with pytest.raises(MalformedFile) as exc:
            load_prep_config(p)
        assert "variables[0]" in exc.value.position

    def test_missing_map(self, tmp_path):
        p = write(
            tmp_path,
            "format: beliefnet-prep\nversion: 1\nvariables:\n"
            "  - name: Q\n    levels: [a, b]\n",
        )
        with pytest.raises(MalformedFile):
            load_prep_config(p)

    def test_empty_level_label(self, tmp_path):
        # an empty CSV cell means missing, so level "" could not round-trip
        p = write(
            tmp_path,
            "format: beliefnet-prep\nversion: 1\nvariables:\n"
            "  - name: Q\n    levels: [a, '']\n    map: {'1': a}\n",
        )
        with pytest.raises(MalformedFile) as exc:
            load_prep_config(p)
        assert exc.value.position == "variables[0]"
        assert exc.value.reason == "variable 'Q' has an empty level label"

    def test_unquoted_carriage_return_in_label(self, tmp_path):
        # the CSV writer quotes "\r\n" but not a bare "\r", which would split a row
        body = ("format: beliefnet-prep\nversion: 1\nvariables:\n"
                "  - name: Q\n    levels: [{}]\n    map: {{'1': a}}\n")
        assert load_prep_config(write(tmp_path, body.format('a, "c\\r\\nd"')))
        with pytest.raises(MalformedFile) as exc:
            load_prep_config(write(tmp_path, body.format('a, "c\\rd"')))
        assert exc.value.position == "variables[0]"
        assert "'c\\rd' has a carriage return" in exc.value.reason


class TestThemes:
    def test_fixture_parses(self):
        groups = load_theme_config("fixtures/themes.yaml")
        assert len(groups) == 10
        ops = [g for g in groups if g.population == "opportunity"]
        rks = [g for g in groups if g.population == "risk"]
        assert sum(len(g.spec.members) for g in ops) == 24
        assert sum(len(g.spec.members) for g in rks) == 18

    def test_bad_population(self, tmp_path):
        p = write(
            tmp_path,
            "format: beliefnet-themes\nversion: 1\nthemes:\n"
            "  - name: T\n    population: nope\n    members: [a]\n",
        )
        with pytest.raises(MalformedFile):
            load_theme_config(p)


class TestTiers:
    def test_fixture_parses(self):
        spec = load_tier_config("fixtures/tiers_full.yaml")
        assert len(spec.tiers) == 3
        assert spec.tiers[0] == ("Sex", "Age", "Education", "VoteIntent")
        assert spec.within_tier_edges == (True, True, True)

    def test_quoted_flag_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "format: beliefnet-tiers\nversion: 1\ntiers:\n"
            "  - variables: [A]\n    within_tier_edges: 'false'\n",
        )
        with pytest.raises(MalformedFile) as exc:
            load_tier_config(p)
        assert exc.value.position == "tiers[0].within_tier_edges"

    def test_duplicate_across_tiers(self, tmp_path):
        p = write(
            tmp_path,
            "format: beliefnet-tiers\nversion: 1\ntiers:\n"
            "  - variables: [A]\n  - variables: [A]\n",
        )
        with pytest.raises(MalformedFile):
            load_tier_config(p)


class TestLearn:
    def test_fixture_parses(self):
        cfg = load_learn_config("fixtures/learn_fast.yaml")
        assert cfg.score == "AIC"
        assert cfg.bootstrap == 200
        assert cfg.threshold is None  # auto
        assert cfg.tabu.stall_limit == 15

    def test_numeric_threshold(self, tmp_path):
        p = write(
            tmp_path,
            "format: beliefnet-learn\nversion: 1\nthreshold: 0.7\n",
        )
        assert load_learn_config(p).threshold == 0.7

    def test_bad_threshold(self, tmp_path):
        p = write(tmp_path, "format: beliefnet-learn\nversion: 1\nthreshold: 1.5\n")
        with pytest.raises(MalformedFile):
            load_learn_config(p)

    def test_bad_score(self, tmp_path):
        p = write(tmp_path, "format: beliefnet-learn\nversion: 1\nscore: K2\n")
        with pytest.raises(MalformedFile):
            load_learn_config(p)

    @pytest.mark.parametrize("line, position", [
        ("tabu: {tenure: x}", "tabu.tenure"),
        ("tabu: {stall_limit: 0}", "tabu.stall_limit"),
        ("tabu: [1]", "tabu"),
        ("alpha: [1]", "alpha"),
        ("bootstrap: -1", "bootstrap"),
        ("bootstrap: .inf", "bootstrap"),
        ("bootstrap: 2.5", "bootstrap"),
        ("tabu: {tenure: true}", "tabu.tenure"),
        ("alpha: true", "alpha"),
        ("alpha: 1" + "0" * 400, "alpha"),
        ("threshold: x", "threshold"),
        ("whitelist: [[A]]", "whitelist"),
    ])
    def test_mistyped_field_is_named(self, tmp_path, line, position):
        p = write(tmp_path, f"format: beliefnet-learn\nversion: 1\n{line}\n")
        with pytest.raises(MalformedFile) as exc:
            load_learn_config(p)
        assert exc.value.position == position

    def test_constraints_built(self, tmp_path):
        p = write(
            tmp_path,
            "format: beliefnet-learn\nversion: 1\n"
            "whitelist: [[A, B]]\nblacklist: [[B, A]]\n",
        )
        cons = load_learn_config(p).constraints()
        assert ("A", "B") in cons.required
        assert ("B", "A") in cons.forbidden


class TestAnalysisConfigs:
    def test_query(self):
        cfg = load_query_config("fixtures/query.yaml")
        assert cfg.tables[0][0] == "DevelopAI"
        assert "AIEasierLife" in cfg.tables[0][1]

    def test_sobol(self):
        cfg = load_sobol_config("fixtures/sobol.yaml")
        assert "HeardEURegulation" in cfg.targets
        assert len(cfg.inputs) == 14

    def test_scenarios(self):
        cfg = load_scenario_config("fixtures/scenarios.yaml")
        assert len(cfg.scenarios) == 11
        assert cfg.scenarios[0].name == "Baseline"
        assert len(cfg.scenarios[0].evidence) == 0
        young = cfg.scenarios[1]
        assert young.evidence["MediaAI"] == "Yes"  # quoted, not a YAML bool

    def test_sensitivity(self):
        cfg = load_sensitivity_config("fixtures/sensitivity.yaml")
        assert (cfg.target_variable, cfg.target_state) == ("HeardEURegulation", "No")
        assert cfg.nodes is None
        assert cfg.delta == 0.1

    def test_sensitivity_bad_delta(self, tmp_path):
        p = write(
            tmp_path,
            "format: beliefnet-sensitivity\nversion: 1\n"
            "target: {variable: A, state: x}\ndelta: 0\n",
        )
        with pytest.raises(MalformedFile):
            load_sensitivity_config(p)


DICT_TEXT = """\
format: beliefnet-dict
version: 1
n_rows: 2
source: abc
variables:
- {name: A, levels: [a0, a1], ordinal: false}
- name: B
  levels: [b0, b1, b2]
  ordinal: true
"""


def _load_dictionary(path):
    csv_path = os.path.join(os.path.dirname(path), "table.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("A,B\na0,b2\na1,\n")
    return load_datatable(csv_path, path)


def _fixture(name):
    with open(os.path.join("fixtures", name), encoding="utf-8") as fh:
        return fh.read()


# (name, text, loader) for every file a user hands to the CLI
LOADERS = [
    (name, _fixture(name), loader)
    for name, loader in [
        ("prep.yaml", load_prep_config),
        ("themes.yaml", load_theme_config),
        ("tiers_full.yaml", load_tier_config),
        ("learn_fast.yaml", load_learn_config),
        ("query.yaml", load_query_config),
        ("sobol.yaml", load_sobol_config),
        ("scenarios.yaml", load_scenario_config),
        ("sensitivity.yaml", load_sensitivity_config),
        ("mini.bn.yaml", load_model),
    ]
] + [("dict.yaml", DICT_TEXT, _load_dictionary)]

VALUES = ("", "[]", "{}", "x", "-1", "0", "2.5", "[1, 2]", "{a: 1}", "{1: x}", "null",
          ".nan", ".inf", "true", "auto", "'1e-3'", "[[A]]", "!!int x", "!!float y")


MUTATIONS = ("delete", "drop colon", "indent", "dedent", "duplicate", "value")


def _mutate(line, kind, value):
    """The lines that replace ``line`` after one mutation."""
    key, colon, _ = line.partition(":")
    lead = line[:len(line) - len(line.lstrip(" -"))]
    return {
        "delete": [],
        "drop colon": [key + line[len(key) + 1:]] if colon else [line + ":"],
        "indent": ["  " + line],
        "dedent": [line.lstrip(" -")],
        "duplicate": [line, line],
        "value": [f"{key}: {value}" if colon else lead + value],
    }[kind]


class TestMutatedFiles:
    """A file with one line mutated either loads or raises a BeliefnetError."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.data())
    def test_loads_or_raises_beliefnet_error(self, data):
        name, text, loader = data.draw(st.sampled_from(LOADERS), label="file")
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
        value = data.draw(st.sampled_from(VALUES), label="value")
        lines[i:i + 1] = _mutate(lines[i], kind, value)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            try:
                loader(path)
            except BeliefnetError:
                pass
