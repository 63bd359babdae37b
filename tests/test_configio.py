"""Config file parsing and validation."""

import glob
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import yaml

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
from beliefnet.data import ThemeSpec, load_datatable
from beliefnet.errors import BeliefnetError, MalformedFile, VersionMismatch
from beliefnet.modelio import load as load_model
from mutations import MUTATIONS, VALUES, mutate


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


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


# (loader, format) for a config, the table dictionary and the model file,
# which share one format/version check
HEADERS = {
    "tiers": (load_tier_config, "beliefnet-tiers"),
    "dictionary": (_load_dictionary, "beliefnet-dict"),
    "model": (load_model, "beliefnet-model"),
}


class TestHeaders:
    @pytest.mark.parametrize("kind", HEADERS)
    def test_wrong_format(self, tmp_path, kind):
        p = write(tmp_path, "format: nope\nversion: 1\n")
        with pytest.raises(MalformedFile) as exc:
            HEADERS[kind][0](p)
        assert exc.value.position == "format"

    @pytest.mark.parametrize("kind", HEADERS)
    def test_version_mismatch(self, tmp_path, kind):
        loader, name = HEADERS[kind]
        p = write(tmp_path, f"format: {name}\nversion: 7\n")
        with pytest.raises(VersionMismatch) as exc:
            loader(p)
        assert (exc.value.found, exc.value.supported) == (7, 1)

    @pytest.mark.parametrize("kind", HEADERS)
    def test_not_a_mapping(self, tmp_path, kind):
        p = write(tmp_path, "- format\n- version\n")
        with pytest.raises(MalformedFile) as exc:
            HEADERS[kind][0](p)
        assert exc.value.position == "(root)"

    def test_syntax_error_position(self, tmp_path, yaml_path):
        p = write(tmp_path, "format: beliefnet-tiers\nversion: 1\ntiers: [:::\n")
        with pytest.raises(MalformedFile) as exc:
            load_tier_config(p)
        assert exc.value.position == "line 3, column 9"


class TestPrep:
    def test_fixture_parses(self):
        variables, missing_threshold, framing, models = load_prep_config("fixtures/prep.yaml")
        assert missing_threshold == 50
        assert framing == "DevelopAI"
        names = [v.name for v in variables]
        assert "VoteIntent" in names and "op24" in names
        vi = next(v for v in variables if v.name == "VoteIntent")
        assert vi.source == "party"
        assert vi.mapping["2"] == "Left"
        assert vi.mapping["99"] is None
        assert set(models) == {"full", "risk", "opportunity"}

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
                "  - name: Q\n    levels: [{}]\n    map: {{'1': a}}\n"
                "models: {{full: [Q]}}\n")
        assert load_prep_config(write(tmp_path, body.format('a, "c\\r\\nd"')))
        with pytest.raises(MalformedFile) as exc:
            load_prep_config(write(tmp_path, body.format('a, "c\\rd"')))
        assert exc.value.position == "variables[0]"
        assert "'c\\rd' has a carriage return" in exc.value.reason

    @pytest.mark.parametrize("models, position", [
        ("", "models"),
        ("models: {full: [Q], riks: [Q]}\n", "models.riks"),
    ])
    def test_models_name_the_known_tables(self, tmp_path, models, position):
        # a table is named only here; a misspelled one must not be skipped
        body = ("format: beliefnet-prep\nversion: 1\nvariables:\n"
                "  - name: Q\n    levels: [a, b]\n    map: {'1': a}\n" + models)
        with pytest.raises(MalformedFile) as exc:
            load_prep_config(write(tmp_path, body))
        assert exc.value.position == position

    def test_empty_model_table_refused_at_the_table(self, tmp_path):
        # a table of no columns would be written as a bare newline
        body = ("format: beliefnet-prep\nversion: 1\nvariables:\n"
                "  - name: Q\n    levels: [a, b]\n    map: {'1': a}\nmodels: {full: []}\n")
        with pytest.raises(MalformedFile) as exc:
            load_prep_config(write(tmp_path, body))
        assert (exc.value.position, exc.value.reason) == ("models.full", "lists no variables")


class TestThemes:
    def test_fixture_parses(self):
        specs = load_theme_config("fixtures/themes.yaml")
        assert len(specs) == 10
        assert all(isinstance(s, ThemeSpec) for s in specs)
        assert sum(len(s.members) for s in specs) == 42

    def test_population_refused(self, tmp_path):
        # earlier versions read it to derive the tables; no step reads it now
        p = write(tmp_path, "format: beliefnet-themes\nversion: 1\nthemes:\n"
                  "  - name: T\n    members: [a]\n    population: risk\n")
        with pytest.raises(MalformedFile) as exc:
            load_theme_config(p)
        assert exc.value.position == "themes[0].population"


class TestTiers:
    def test_fixture_parses(self):
        spec = load_tier_config("fixtures/tiers_full.yaml")
        assert len(spec.tiers) == 3
        assert spec.tiers[0] == ("Sex", "Age", "Education", "VoteIntent")

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
        with pytest.raises(MalformedFile) as exc:
            load_tier_config(p)
        assert (exc.value.position, exc.value.reason) == (
            "tiers[1].variables[0]", "'A' is in an earlier tier")

    @pytest.mark.parametrize("tiers, position, reason", [
        ("\n  - variables: [A]\n  - variables: []\n", "tiers[1].variables", "lists no variables"),
        (" []\n", "tiers", "lists no tiers"),
    ], ids=["empty_tier", "no_tiers"])
    def test_nothing_to_order_refused_at_its_position(self, tmp_path, tiers, position, reason):
        p = write(tmp_path, "format: beliefnet-tiers\nversion: 1\ntiers:" + tiers)
        with pytest.raises(MalformedFile) as exc:
            load_tier_config(p)
        assert (exc.value.position, exc.value.reason) == (position, reason)


class TestLearn:
    def test_fixture_parses(self):
        score, _, bootstrap, tabu = load_learn_config("fixtures/learn_fast.yaml")
        assert score == "AIC"
        assert bootstrap == 200
        assert tabu.stall_limit == 15

    def test_numeric_threshold(self, tmp_path):
        # the consensus threshold is always the L1-optimal one, so neither a
        # number nor the 'auto' earlier versions accepted is read
        for i, value in enumerate(("0.7", "auto")):
            p = write(tmp_path, f"format: beliefnet-learn\nversion: 1\nthreshold: {value}\n",
                      f"{i}.yaml")
            with pytest.raises(MalformedFile) as exc:
                load_learn_config(p)
            assert exc.value.position == "threshold"

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
        ("bootstrap: 0", "bootstrap"),
        ("bootstrp: 10", "bootstrp"),
        ("tabu: {tenur: 3}", "tabu.tenur"),
        ("bootstrap: .inf", "bootstrap"),
        ("bootstrap: 2.5", "bootstrap"),
        ("tabu: {tenure: true}", "tabu.tenure"),
        ("alpha: true", "alpha"),
        ("alpha: 1" + "0" * 400, "alpha"),
        ("threshold: x", "threshold"),
        ("whitelist: [[A]]", "whitelist"),
        ("tabu: {restarts: 2}", "tabu.restarts"),
        ("tabu: {restarts: true}", "tabu.restarts"),
    ])
    def test_mistyped_field_is_named(self, tmp_path, line, position):
        p = write(tmp_path, f"format: beliefnet-learn\nversion: 1\n{line}\n")
        with pytest.raises(MalformedFile) as exc:
            load_learn_config(p)
        assert exc.value.position == position

    def test_no_file_gives_the_defaults(self, tmp_path):
        head = write(tmp_path, "format: beliefnet-learn\nversion: 1\n")
        assert load_learn_config(None) == load_learn_config(head)
        assert load_learn_config(None)[2] == 2000

    def test_restarts_refused(self, tmp_path):
        # the search makes one tabu walk, so even the one restart is refused
        p = write(tmp_path, "format: beliefnet-learn\nversion: 1\n"
                  "tabu: {tenure: 5, restarts: 1}\n")
        with pytest.raises(MalformedFile) as exc:
            load_learn_config(p)
        assert exc.value.position == "tabu.restarts"

    @pytest.mark.parametrize("key, arcs", [("whitelist", "[[A, B]]"), ("blacklist", "[[B, A]]")])
    def test_arc_list_refused(self, tmp_path, key, arcs):
        # the tier file is the search's only constraint, so even an empty list
        # is refused
        head = "format: beliefnet-learn\nversion: 1\n"
        for i, value in enumerate((arcs, "[]")):
            with pytest.raises(MalformedFile) as exc:
                load_learn_config(write(tmp_path, head + f"{key}: {value}\n", f"{i}.yaml"))
            assert exc.value.position == key


@pytest.mark.parametrize("loader, template, refused, kept, position", [
    (load_sensitivity_config,
     "format: beliefnet-sensitivity\nversion: 1\ntarget: {variable: A, state: x}\n@\n",
     ["nodes: [Age]"], "nodes: auto", "nodes"),
    (load_tier_config, "format: beliefnet-tiers\nversion: 1\ntiers:\n  - variables: [A]\n    @\n",
     ["within_tier_edges: false", "within_tier_edges: true"], None,
     "tiers[0].within_tier_edges"),
], ids=["nodes", "within_tier_edges"])
def test_removed_option_refused_at_its_key(tmp_path, loader, template, refused, kept, position):
    """A node list and either tier flag are refused at their key; ``nodes:
    auto``, which the benchmark harness still writes, loads as if the key
    were absent."""
    for i, line in enumerate(refused):
        with pytest.raises(MalformedFile) as exc:
            loader(write(tmp_path, template.replace("@", line), f"old{i}.yaml"))
        assert exc.value.position == position
    if kept is not None:
        without = loader(write(tmp_path, template.replace("@", ""), "without.yaml"))
        assert loader(write(tmp_path, template.replace("@", kept), "kept.yaml")) == without


PREP_BODY = ("format: beliefnet-prep\nversion: 1\nvariables:\n"
             "  - name: Q\n    levels: [a, b]\n    map: {'1': a}\n@\nmodels: {full: [Q]}\n")
THEMES_BODY = "format: beliefnet-themes\nversion: 1\nthemes:\n  - name: T\n    members: [a, b]\n@\n"
TIERS_BODY = "format: beliefnet-tiers\nversion: 1\ntiers:\n  - name: t\n    variables: [A]\n@\n"
QUERY_BODY = ("format: beliefnet-query\nversion: 1\ntables:\n"
              "  - target: A\n    evidence_variables: [B]\n@\n")
SOBOL_BODY = "format: beliefnet-sobol\nversion: 1\ntargets: [A]\ninputs: [B]\n@\n"
SCENARIO_BODY = ("format: beliefnet-scenarios\nversion: 1\ntargets: [A]\nscenarios:\n"
                 "  - name: Young\n    evidence: {Age: '14-29'}\n@\n")
# an entry put at "@" is variables[0]
DICT_VARIABLES = DICT_TEXT.replace("variables:\n", "variables:\n@\n")
MODEL_BODY = ("format: beliefnet-model\nversion: 1\nvariables:\n- {name: A, levels: [a0, a1]}\n"
              "arcs: []\ncpts:\n- variable: A\n  parents: []\n  rows: [[0.5, 0.5]]\n@\n")
LEARN_BODY = "format: beliefnet-learn\nversion: 1\nalpha: 2.5\n"
SENSITIVITY_BODY = ("format: beliefnet-sensitivity\nversion: 1\n"
                    "target: {variable: A, state: x}\ndelta: 0.2\n")
MODEL_CHAIN = ("format: beliefnet-model\nversion: 1\nvariables:\n"
               "- {name: A, levels: [a0, a1]}\n- {name: B, levels: [b0, b1]}\n"
               "arcs: [[A, B]]\ncpts:\n- {variable: A, parents: [], rows: [[0.5, 0.5]]}\n"
               "- {variable: B, parents: [A], rows: [[0.5, 0.5], [0.1, 0.9]]}\n")
MODEL_VARIABLES = ("format: beliefnet-model\nversion: 1\narcs: []\n"
                   "cpts: [{variable: A, parents: [], rows: [[0.5, 0.5]]}]\n"
                   "variables:\n@\n- {name: A, levels: [a0, a1]}\n")


@pytest.mark.parametrize("loader, body, typo, position", [
    (load_prep_config, PREP_BODY, "missing_treshold: 5", "missing_treshold"),
    (load_prep_config, PREP_BODY, "    sorce: q", "variables[0].sorce"),
    (load_theme_config, THEMES_BODY, "theme: []", "theme"),
    (load_theme_config, THEMES_BODY, "    memebrs: [c]", "themes[0].memebrs"),
    (load_tier_config, TIERS_BODY, "tier: []", "tier"),
    (load_tier_config, TIERS_BODY, "    within_tier_edge: false", "tiers[0].within_tier_edge"),
    (load_query_config, QUERY_BODY, "table: []", "table"),
    (load_query_config, QUERY_BODY, "    evidence_variable: [C]",
     "tables[0].evidence_variable"),
    (load_sobol_config, SOBOL_BODY, "input: [C]", "input"),
    (load_scenario_config, SCENARIO_BODY, "target: [B]", "target"),
    (load_scenario_config, SCENARIO_BODY, "    evidnce: {Age: '30-44'}",
     "scenarios[0].evidnce"),
    (_load_dictionary, DICT_TEXT + "@\n", "sourc: x", "sourc"),
    (_load_dictionary, DICT_VARIABLES, "- {name: C, levels: [c0, c1], ordnal: true}",
     "variables[0].ordnal"),
    (_load_dictionary, DICT_VARIABLES, "- {name: C, levels: ab}", "variables[0].levels"),
    (_load_dictionary, DICT_VARIABLES, "- {name: C, levels: [c0, c1], ordinal: 'false'}",
     "variables[0].ordinal"),
    (load_model, MODEL_BODY, "metdata: {}", "metdata"),
    (load_model, MODEL_BODY, "  prior: 1", "cpts[0].prior"),
    (load_model, MODEL_VARIABLES, "- {name: C, levels: [c0, c1], ordnal: true}",
     "variables[0].ordnal"),
    (load_model, MODEL_VARIABLES, "- {name: C, levels: ab}", "variables[0].levels"),
    (load_model, MODEL_VARIABLES, "- {name: C, levels: [c0, c1], ordinal: 'false'}",
     "variables[0].ordinal"),
], ids=["prep", "prep.variables", "themes", "themes.entry", "tiers", "tiers.entry",
        "query", "query.tables", "sobol", "scenarios", "scenarios.entry",
        "dict", "dict.variables", "dict.levels", "dict.ordinal",
        "model", "model.cpts", "model.variables", "model.levels", "model.ordinal"])
def test_misspelled_key_refused_at_its_position(tmp_path, loader, body, typo, position):
    """Every mapping a loader reads refuses a key it does not know, instead
    of reading the misspelled key as absent; a dictionary or model variable
    whose levels are not a list, or whose ordinal flag is not a boolean, is
    refused at that field, not read as its characters or its truth."""
    loader(write(tmp_path, body.replace("@", ""), "without.yaml"))
    with pytest.raises(MalformedFile) as exc:
        loader(write(tmp_path, body.replace("@", typo), "typo.yaml"))
    assert exc.value.position == position


@pytest.mark.parametrize("loader, body, old, new, position", [
    (load_theme_config, THEMES_BODY, "- name: T\n    members:", "- membrs:", "themes[0].membrs"),
    (load_tier_config, TIERS_BODY, "variables:", "variabls:", "tiers[0].variabls"),
    (load_query_config, QUERY_BODY, "- target: A\n    evidence_variables:", "- evidence:",
     "tables[0].evidence"),
    (load_scenario_config, SCENARIO_BODY, "- name: Young\n    evidence:", "- evidnce:",
     "scenarios[0].evidnce"),
], ids=["themes", "tiers", "query", "scenarios"])
def test_unknown_key_refused_before_a_missing_field(tmp_path, loader, body, old, new, position):
    """A list entry, like the root and every nested mapping, refuses an
    unknown key before it reads a field, so an entry with a misspelled key
    in place of a required one is refused at the misspelling."""
    body = body.replace("@", "")
    with pytest.raises(MalformedFile) as exc:
        loader(write(tmp_path, body.replace(old, new, 1)))
    assert (exc.value.position, exc.value.reason.split(";")[0]) == (position, "unknown key")


@pytest.mark.parametrize("loader, body, old, new, position", [
    (load_model, MODEL_BODY, "name: A", "name: [A]", "variables[0].name"),
    (load_model, MODEL_BODY, "levels: [a0, a1]", "levels: [[a0], a1]", "variables[0].levels[0]"),
    (load_model, MODEL_BODY, "parents: []", "parents: [{A: 1}]", "cpts[0].parents[0]"),
    (_load_dictionary, DICT_TEXT, "levels: [b0, b1, b2]", "levels: [b0, b1, {b2: 1}]",
     "variables[1].levels[2]"),
    (load_prep_config, PREP_BODY, "levels: [a, b]", "levels: [[a], b]",
     "variables[0].levels[0]"),
    (load_prep_config, PREP_BODY, "full: [Q]", "full: [[Q]]", "models.full[0]"),
    (load_prep_config, PREP_BODY + "framing: F\n", "framing: F", "framing: [F]", "framing"),
    (load_theme_config, THEMES_BODY, "[a, b]", "[a, [b]]", "themes[0].members[1]"),
    (load_tier_config, TIERS_BODY, "[A]", "[{A: 1}]", "tiers[0].variables[0]"),
    (load_query_config, QUERY_BODY, "[B]", "[[B]]", "tables[0].evidence_variables[0]"),
    (load_query_config, QUERY_BODY, "target: A", "target: {A: 1}", "tables[0].target"),
    (load_sobol_config, SOBOL_BODY, "targets: [A]", "targets: [[A]]", "targets[0]"),
    (load_sobol_config, SOBOL_BODY, "inputs: [B]", "inputs: [B, [C]]", "inputs[1]"),
    (load_scenario_config, SCENARIO_BODY, "targets: [A]", "targets: [{A: 1}]", "targets[0]"),
    (load_scenario_config, SCENARIO_BODY, "'14-29'", "['14-29']", "scenarios[0].evidence.Age"),
    (load_scenario_config, SCENARIO_BODY, "name: Young", "name: [Young]", "scenarios[0].name"),
    (load_sensitivity_config, "format: beliefnet-sensitivity\nversion: 1\n"
     "target: {variable: A, state: x}\n", "state: x", "state: [x]", "target.state"),
    (load_prep_config, PREP_BODY, "map: {'1': a}", "map: {'1': a}\n    unmapped: sometimes",
     "variables[0]"),
    (load_theme_config, THEMES_BODY, "[a, b]", "[]", "themes[0]"),
    (load_tier_config, TIERS_BODY, "- name: t\n    variables: [A]", "- [A]", "tiers[0]"),
    (_load_dictionary, DICT_TEXT, "levels: [a0, a1]", "levels: [a0]", "variables[0]"),
    (_load_dictionary, DICT_TEXT, "name: B", "name: A", "variables[1].name"),
    (load_model, MODEL_BODY, "levels: [a0, a1]", "levels: [a0]", "variables[0]"),
    (load_model, MODEL_BODY, "variables:\n", "variables:\n- {name: A, levels: [x, y]}\n",
     "variables[1].name"),
    (load_model, MODEL_CHAIN, "parents: [A]", "parents: [A, A]", "cpts[1].parents[1]"),
    (load_model, MODEL_BODY, "rows: [[0.5, 0.5]]", "rows: [0.5, 0.5]", "(document)"),
    (load_model, MODEL_BODY, "rows: [[0.5, 0.5]]", "rows: [[1.0]]", "(document)"),
    (load_model, MODEL_BODY, "levels: [a0, a1]", "levels: [a0, ~]", "variables[0].levels[1]"),
    (load_model, MODEL_BODY, "levels: [a0, a1]", "levels: [Yes, No]", "variables[0].levels[0]"),
    (load_model, MODEL_BODY, "name: A", "name: yes", "variables[0].name"),
    (_load_dictionary, DICT_TEXT, "levels: [b0, b1, b2]", "levels: [b0, b1, null]",
     "variables[1].levels[2]"),
    (load_prep_config, PREP_BODY, "full: [Q]", "full: [Q, ~]", "models.full[1]"),
    (load_prep_config, PREP_BODY, "full: [Q]", "full: [Q, Q]", "models.full[1]"),
    (load_prep_config, PREP_BODY + "framing: F\n", "framing: F", "framing: no", "framing"),
    (load_tier_config, TIERS_BODY, "[A]", "[A, off]", "tiers[0].variables[1]"),
    (load_scenario_config, SCENARIO_BODY, "'14-29'", "yes", "scenarios[0].evidence.Age"),
    (load_sensitivity_config, "format: beliefnet-sensitivity\nversion: 1\n"
     "target: {variable: A, state: x}\n", "state: x", "state: on", "target.state"),
    (load_prep_config, PREP_BODY, "map: {'1': a}", "map: {'1': a, yes: a}", "variables[0].map"),
    (load_prep_config, PREP_BODY, "map: {'1': a}", "map: {'1': a, ~: a}", "variables[0].map"),
    (load_prep_config, PREP_BODY, "map: {'1': a}", "map: {'1': Off}", "variables[0].map"),
    (load_scenario_config, SCENARIO_BODY, "{Age:", "{yes:", "scenarios[0].evidence"),
    (load_prep_config, PREP_BODY, "levels: [a, b]", "levels: [a]", "variables[0]"),
    (load_prep_config, PREP_BODY, "levels: [a, b]", "levels: [a, b, a]",
     "variables[0].levels[2]"),
    (load_model, MODEL_BODY, "rows: [[0.5, 0.5]]", "rows: [[.nan, 0.5]]", "(document)"),
    (load_learn_config, LEARN_BODY, "alpha: 2.5", "alpha: .inf", "alpha"),
    (load_sensitivity_config, SENSITIVITY_BODY, "delta: 0.2", "delta: .inf", "delta"),
    (load_theme_config, THEMES_BODY, "[a, b]", "[a, a]", "themes[0].members[1]"),
    (load_tier_config, TIERS_BODY, "[A]", "[A, A]", "tiers[0].variables[1]"),
    (load_sobol_config, SOBOL_BODY, "targets: [A]", "targets: [A, A]", "targets[1]"),
    (load_sobol_config, SOBOL_BODY, "inputs: [B]", "inputs: [B, B]", "inputs[1]"),
    (load_query_config, QUERY_BODY, "[B]", "[B, B]", "tables[0].evidence_variables[1]"),
    (_load_dictionary, DICT_TEXT, "levels: [b0, b1, b2]", "levels: [b0, b1, b0]",
     "variables[1].levels[2]"),
    (load_scenario_config, SCENARIO_BODY, "- name: Young\n",
     "- name: Young\n    evidence: {}\n  - name: Young\n", "scenarios[1].name"),
    (load_tier_config, TIERS_BODY, "[A]\n", "[A]\n  - name: u\n    variables: [B, A]\n",
     "tiers[1].variables[1]"),
    (load_prep_config, PREP_BODY, "map: {'1': a}\n",
     "map: {'1': a}\n  - name: Q\n    levels: [c, d]\n    map: {'1': c}\n", "variables[1].name"),
    (load_theme_config, THEMES_BODY, "[a, b]\n", "[a, b]\n  - name: T\n    members: [c]\n",
     "themes[1].name"),
    (load_model, MODEL_BODY, "rows: [[0.5, 0.5]]\n",
     "rows: [[0.5, 0.5]]\n- {variable: A, parents: [], rows: [[0.5, 0.5]]}\n",
     "cpts[1].variable"),
    (load_tier_config, TIERS_BODY, "[A]\n", "[A]\n  - name: u\n    variables: []\n",
     "tiers[1].variables"),
    (load_tier_config, TIERS_BODY, "tiers:\n  - name: t\n    variables: [A]\n", "tiers: []\n",
     "tiers"),
], ids=["model.name", "model.levels", "model.parents", "dict.levels", "prep.levels",
        "prep.models", "prep.framing", "themes.members", "tiers.variables",
        "query.evidence_variables", "query.target", "sobol.targets", "sobol.inputs",
        "scenarios.targets", "scenarios.evidence", "scenarios.name", "sensitivity.state",
        "prep.unmapped", "themes.no_members", "tiers.entry_not_mapping", "dict.one_level",
        "dict.repeated_variable", "model.one_level", "model.repeated_variable",
        "model.repeated_parent", "model.rows_1d", "model.rows_one_state",
        "model.null_level", "model.boolean_levels", "model.boolean_name", "dict.null_level",
        "prep.null_model_entry", "prep.repeated_model_entry", "prep.boolean_framing",
        "tiers.boolean_variable", "scenarios.boolean_evidence", "sensitivity.boolean_state",
        "prep.boolean_token", "prep.null_token", "prep.boolean_label",
        "scenarios.boolean_evidence_key", "prep.one_level", "prep.repeated_level",
        "model.nan_entry", "learn.infinite_alpha", "sensitivity.infinite_delta",
        "themes.repeated_member", "tiers.repeated_variable", "sobol.repeated_target",
        "sobol.repeated_input", "query.repeated_sweep", "dict.repeated_level",
        "scenarios.repeated_name", "tiers.variable_in_earlier_tier", "prep.repeated_variable",
        "themes.repeated_name", "model.repeated_cpt", "tiers.empty_tier",
        "tiers.no_tiers"])
def test_bad_entry_refused_at_its_position(tmp_path, loader, body, old, new, position):
    """A list or mapping where a name or label belongs is refused at its
    position, not read as its Python repr (``name: [A]`` as "['A']"), and so
    is a null or a YAML 1.1 boolean (``~`` is not "None", ``yes`` not
    "True"), a name repeated in any list of names or levels, or by a later
    entry of a list keyed by name, or in a later tier, and an entry no
    constructor accepts: an unknown ``unmapped`` policy, a theme without
    members, a tier without variables, an empty ``tiers`` list, a variable
    with one level, CPT rows that are not a (q, r) table of r >= 2 or that
    hold a NaN, and an infinite ``alpha`` or ``delta``."""
    body = body.replace("@", "")
    loader(write(tmp_path, body, "scalar.yaml"))
    with pytest.raises(MalformedFile) as exc:
        loader(write(tmp_path, body.replace(old, new, 1), "nested.yaml"))
    assert exc.value.position == position


LOADER_OF_FORMAT = {
    "beliefnet-prep": load_prep_config,
    "beliefnet-themes": load_theme_config,
    "beliefnet-tiers": load_tier_config,
    "beliefnet-learn": load_learn_config,
    "beliefnet-query": load_query_config,
    "beliefnet-sobol": load_sobol_config,
    "beliefnet-scenarios": load_scenario_config,
    "beliefnet-sensitivity": load_sensitivity_config,
    "beliefnet-model": load_model,
}


def _shipped(pattern):
    """(path, loader its ``format`` header names) for each file ``pattern`` matches."""
    found = []
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as fh:
            found.append((path, LOADER_OF_FORMAT[yaml.safe_load(fh)["format"]]))
    return found


@pytest.mark.parametrize("name, loader", [
    (os.path.basename(path), loader) for path, loader in _shipped("configs/gesis/*.yaml")
])
def test_gesis_config_loads(name, loader):
    """The paper's configs, which only the GESIS reproduction reads."""
    loader(os.path.join("configs", "gesis", name))


@pytest.mark.parametrize(
    "path, loader", _shipped("fixtures/*.yaml") + _shipped("perfbench/data/*.bn.yaml")
)
def test_shipped_file_loads(path, loader):
    """Every fixture and benchmark file loads, so a retired key left in one
    fails here and not first in a user's run."""
    loader(path)


class TestAnalysisConfigs:
    def test_query(self):
        tables = load_query_config("fixtures/query.yaml")
        assert tables[0][0] == "DevelopAI"
        assert "AIEasierLife" in tables[0][1]

    def test_sobol(self):
        targets, inputs = load_sobol_config("fixtures/sobol.yaml")
        assert "HeardEURegulation" in targets
        assert len(inputs) == 14

    def test_scenarios(self):
        _, scenarios = load_scenario_config("fixtures/scenarios.yaml")
        assert len(scenarios) == 11
        assert list(scenarios)[:2] == ["Baseline", "Young Informed Left"]
        assert scenarios["Baseline"] == {}
        assert scenarios["Young Informed Left"]["MediaAI"] == "Yes"  # quoted, not a YAML bool

    def test_sensitivity(self):
        assert load_sensitivity_config("fixtures/sensitivity.yaml") == (
            ("HeardEURegulation", "No"), 0.1)

    @pytest.mark.parametrize("body, position", [
        ("target: {variable: A, state: x}\ndelat: 0.5\n", "delat"),
        ("target: {variable: A, state: x, sate: y}\n", "target.sate"),
    ])
    def test_sensitivity_unknown_key(self, tmp_path, body, position):
        p = write(tmp_path, "format: beliefnet-sensitivity\nversion: 1\n" + body)
        with pytest.raises(MalformedFile) as exc:
            load_sensitivity_config(p)
        assert exc.value.position == position

    @pytest.mark.parametrize("loader, body, old, new, position, reason", [
        (load_query_config, QUERY_BODY, "[B]", "[B, C, A]",
         "tables[0].evidence_variables[2]", "target 'A' appears in the evidence"),
        (load_scenario_config, SCENARIO_BODY, "targets: [A]", "targets: [A, Age]",
         "scenarios[0].evidence.Age", "scenario 'Young' fixes the target 'Age'"),
    ], ids=["query", "scenarios"])
    def test_target_in_the_evidence_refused_at_its_entry(
        self, tmp_path, loader, body, old, new, position, reason
    ):
        """Evidence on a target contradicts itself in any model, so the file
        is refused before one is read."""
        body = body.replace("@", "")
        loader(write(tmp_path, body, "plain.yaml"))
        with pytest.raises(MalformedFile) as exc:
            loader(write(tmp_path, body.replace(old, new, 1), "target.yaml"))
        assert (exc.value.position, exc.value.reason) == (position, reason)

    def test_repeated_scenario_target_refused_at_its_entry(self, tmp_path):
        # it would claim one report twice; models.<table>[i] is refused alike
        body = SCENARIO_BODY.replace("@", "").replace("targets: [A]", "targets: [A, B, A]")
        with pytest.raises(MalformedFile) as exc:
            load_scenario_config(write(tmp_path, body))
        assert (exc.value.position, exc.value.reason) == ("targets[2]", "'A' is listed twice")

    def test_sensitivity_bad_delta(self, tmp_path):
        p = write(
            tmp_path,
            "format: beliefnet-sensitivity\nversion: 1\n"
            "target: {variable: A, state: x}\ndelta: 0\n",
        )
        with pytest.raises(MalformedFile):
            load_sensitivity_config(p)


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
        lines[i:i + 1] = mutate(lines[i], kind, value)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            try:
                loader(path)
            except BeliefnetError:
                pass
