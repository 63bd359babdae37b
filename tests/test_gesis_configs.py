"""The paper's own configs (configs/gesis/) run every stage end to end.

The survey file they were written for is access-restricted (acceptance
criterion 10 needs it), so this runs them on a synthetic raw CSV built from
the prep config's token maps. It judges that the configs run, not the
published numbers.
"""

import os

import yaml

from beliefnet.cli import main
from beliefnet.configio import load_query_config, load_scenario_config
from gesis import CONFIGS, prep_learn_argv, write_raw_survey

ANALYSES = [("query", "query.yaml"), ("sobol", "sobol.yaml"),
            ("scenario", "scenarios.yaml"), ("sensitivity", "sensitivity.yaml")]


def _expected(root):
    """Each stage's manifest and the outputs it lists, by workspace path."""
    query_targets = [target for target, _ in load_query_config(f"{CONFIGS}/query.yaml")]
    scenario_targets = load_scenario_config(f"{CONFIGS}/scenarios.yaml")[0]
    reports = {
        "query": [f"paper_query_{t}.csv" for t in query_targets],
        "sobol": ["paper_sobol.csv", "paper_sobol.txt"],
        "scenario": [f"paper_scenario_{t}.csv" for t in scenario_targets]
        + ["paper_scenario.txt"] + [f"paper_scenario_{t}.svg" for t in scenario_targets],
        "sensitivity": ["paper_tornado.csv", "paper_tornado.txt",
                        "paper_influence.dot", "paper_tornado.svg"],
    }
    stages = {
        "data/gesis.manifest.yaml": ["data/gesis_full.csv", "data/gesis_full.dict.yaml",
                                     "data/gesis.audit.yaml"],
        "models/full.manifest.yaml": ["models/full.bn.yaml", "strengths/full_strengths.csv"],
    }
    for command, names in reports.items():
        stages[f"reports/paper_{command}.manifest.yaml"] = [f"reports/{n}" for n in names]
    return {os.path.join(root, m): [os.path.join(root, p) for p in outputs]
            for m, outputs in stages.items()}


def test_every_stage_runs_on_the_paper_configs(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_survey(raw, n_rows=400, seed=1)
    root = str(tmp_path / "ws")
    for argv in prep_learn_argv(raw, root, bootstrap=4):
        assert main(argv) == 0, argv[0]
    model = os.path.join(root, "models", "full.bn.yaml")
    for command, config in ANALYSES:
        argv = [command, "--model", model, "--config", f"{CONFIGS}/{config}",
                "--workspace", root, "--name", "paper"]
        assert main(argv) == 0, command

    expected = _expected(root)
    for manifest, outputs in expected.items():
        with open(manifest, encoding="utf-8") as fh:
            assert yaml.safe_load(fh)["outputs"] == outputs, manifest
    written = {os.path.join(d, f) for d, _, files in os.walk(root) for f in files}
    assert written == set(expected) | {p for outputs in expected.values() for p in outputs}
