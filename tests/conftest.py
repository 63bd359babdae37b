"""Shared pytest hooks and fixtures: acceptance criterion summary lines, and
the choice of YAML parser and emitter."""

import pytest
import yaml

from beliefnet import _yamlio

ACCEPTANCE_LINES = []

# (loader, dumper) of each YAML path; the libyaml one exists only when PyYAML
# was built with it
YAML_CLASSES = {
    "libyaml": (_yamlio.loader(yaml.CSafeLoader) if yaml.__with_libyaml__ else None,
                getattr(yaml, "CSafeDumper", None)),
    "pure": (_yamlio.loader(yaml.SafeLoader), yaml.SafeDumper),
}
NEEDS_LIBYAML = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML built without libyaml"
)


def use_yaml(monkeypatch, path):
    """Route every beliefnet YAML read and write through ``path``'s classes."""
    loader, dumper = YAML_CLASSES[path]
    monkeypatch.setattr(_yamlio, "Loader", loader)
    monkeypatch.setattr(_yamlio, "Dumper", dumper)


@pytest.fixture(params=[pytest.param("libyaml", marks=NEEDS_LIBYAML), "pure"])
def yaml_path(request, monkeypatch):
    use_yaml(monkeypatch, request.param)
    return request.param


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
