"""Report writers, the one file writer, and SVG charts."""

import ast
import os
import stat
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from beliefnet.analysis import CptParameterId, TornadoBar
from beliefnet.charts import scenario_bars_svg, tornado_svg
from beliefnet.data import DataTable, save_datatable
from beliefnet.inference import posterior
from beliefnet.model import CategoricalVariable, Cpt, Dag, FittedNetwork
from beliefnet.reports import _write_report_csv, fmt, text_table, write_query_csv, write_text
from reference_io import read_query_csv


def simple_net():
    variables = (
        CategoricalVariable("A", ("a0", "a1")),
        CategoricalVariable("B", ("b0", "b1", "b2")),
    )
    dag = Dag(("A", "B"), {"B": ("A",)})
    cpts = {
        "A": Cpt("A", (), [[1 / 3, 2 / 3]]),
        "B": Cpt("B", ("A",), [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]),
    }
    return FittedNetwork(variables, dag, cpts)


class TestNumberFormat:
    def test_twelve_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(0.25) == "0.25"
        assert fmt(1e-7) == "1e-07"

    def test_round_trip_is_stable(self):
        for x in (1 / 3, 0.1234567890123456, 2 / 7, 1e-12):
            once = fmt(x)
            assert fmt(float(once)) == once

    @pytest.mark.parametrize("cell, text", [
        (1 / 3, "0.333333333333"), (np.float64(2 / 3), "0.666666666667"),
        (np.float64(1e-7), "1e-07"), (1e13, "1e+13"),
        ("0.1234567890123456", "0.1234567890123456"), ("--", "--"),
        (10 ** 13, "10000000000000"), (np.int64(3), "3"),
    ])
    def test_report_csv_cell(self, tmp_path, cell, text):
        # a float cell, numpy.float64 included, is written as fmt writes it;
        # a str or int cell as given
        path = tmp_path / "r.csv"
        _write_report_csv(path, ["name", "cell"], [["x", cell]])
        assert path.read_text(encoding="utf-8") == f"name,cell\nx,{text}\n"
        if isinstance(cell, float):
            assert text == fmt(cell)

    def test_datatable_labels_untouched(self, tmp_path):
        labels = ("0.1234567890123456", "1e+13", "7")
        t = DataTable([CategoricalVariable("A", labels)], [[0], [1], [2]])
        save_datatable(t, tmp_path / "t.csv", tmp_path / "t.dict.yaml")
        text = (tmp_path / "t.csv").read_text(encoding="utf-8")
        assert text == "A\n" + "\n".join(labels) + "\n"


class TestQueryCsv:
    def test_loss_free_reload(self, tmp_path):
        net = simple_net()
        baseline = posterior(net, "B")
        rows = [posterior(net, "B", {"A": a}) for a in ("a0", "a1")]
        path = tmp_path / "q.csv"
        write_query_csv(path, net.variable("B").levels, baseline, [("A", rows)])
        levels, parsed = read_query_csv(path)
        assert levels == ("b0", "b1", "b2")
        assert parsed[0][0] == "Baseline"
        # reload reproduces the stored 12-digit values exactly
        for (_, _, probs), res in zip(parsed, [baseline] + rows):
            for got, want in zip(probs, res.distribution):
                assert got == float(fmt(want))

    def test_byte_identical(self, tmp_path):
        net = simple_net()
        baseline = posterior(net, "B")
        rows = [posterior(net, "B", {"A": a}) for a in ("a0", "a1")]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_query_csv(a, net.variable("B").levels, baseline, [("A", rows)])
        write_query_csv(b, net.variable("B").levels, baseline, [("A", rows)])
        assert a.read_bytes() == b.read_bytes()


class TestWriteText:
    def test_overwrite_leaves_only_the_target(self, tmp_path):
        path = tmp_path / "r.txt"
        write_text(path, "old\n")
        write_text(path, "a\nb\r\n")
        assert path.read_bytes() == b"a\nb\r\n"
        assert os.listdir(tmp_path) == ["r.txt"]

    def test_failed_replace_keeps_old_bytes_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "r.txt"
        write_text(path, "old\n")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            write_text(path, "new\n")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["r.txt"]

    def test_stale_temp_of_this_pid_is_replaced(self, tmp_path):
        # a killed writer that had this pid left its temp file behind
        path = tmp_path / "r.txt"
        (tmp_path / f"r.txt.{os.getpid()}.tmp").write_text("partial", encoding="utf-8")
        write_text(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["r.txt"]

    def test_failed_write_leaves_no_file(self, tmp_path):
        # a lone surrogate has no UTF-8 encoding, so the write itself raises
        with pytest.raises(UnicodeEncodeError):
            write_text(tmp_path / "r.txt", "bad \ud800")
        assert os.listdir(tmp_path) == []

    def test_new_file_mode_is_what_open_gives(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_text(tmp_path / "a.txt", "x")
            with open(tmp_path / "b.txt", "w", encoding="utf-8") as fh:
                fh.write("x")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in ("a.txt", "b.txt")]
        assert modes == [0o640, 0o640]


def test_every_open_in_src_is_a_known_one():
    """Only reports.write_text opens a file for writing and only _yamlio.read
    opens a YAML file; the other opens read the lock and raw bytes."""
    src = os.path.join(os.path.dirname(__file__), "..", "src", "beliefnet")
    found = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "open":
                    mode = call.args[1].value if len(call.args) > 1 else "r"
                    found.add((name[:-3], fn.name, mode))
    assert found == {
        ("reports", "write_text", "x"), ("_yamlio", "read", "r"), ("data", "load_csv", "rb"),
        ("cli", "_lock_holder", "r"), ("cli", "_fingerprint", "rb"),
    }


class TestTextTable:
    def test_four_decimal_rounding(self):
        out = text_table("T", ["name", "v"], [["x", 0.123456]])
        assert "0.1235" in out
        assert "0.123456" not in out


def fake_bars(n=3):
    """``n`` bars and their labels."""
    bars = [TornadoBar(CptParameterId("X", 0, i), 0.1, 0.05 * (n - i), 0.1, -0.04 * (n - i))
            for i in range(n)]
    return bars, [f"P(X=s{i})" for i in range(n)]


class TestSvg:
    def test_scenario_svg_well_formed(self):
        svg = scenario_bars_svg(
            "B", ("b0", "b1"), ["Baseline", "S1"], [[0.4, 0.6], [0.1, 0.9]]
        )
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_scenario_one_group_per_level(self):
        svg = scenario_bars_svg("B", ("b0", "b1", "b2"), ["Baseline"], [[0.2, 0.3, 0.5]])
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        texts = [t.text for t in root.iter(f"{ns}text")]
        for level in ("b0", "b1", "b2"):
            assert level in texts
        bars = [
            r for r in root.iter(f"{ns}rect") if float(r.get("y")) < 280 and r.get("fill") != "#dddddd"
        ]
        assert len(bars) >= 3  # one per level plus legend swatch

    def test_tornado_svg_well_formed_and_capped(self):
        bars, labels = fake_bars(60)
        svg = tornado_svg(bars, labels, ("X", "s0"), 0.1)
        root = ET.fromstring(svg)
        assert "top 40 of 60" in svg
        assert root.tag.endswith("svg")

    def test_tornado_colors_by_direction(self):
        svg = tornado_svg(*fake_bars(2), ("X", "s0"), 0.1)
        assert "#55a868" in svg  # increase
        assert "#c44e52" in svg  # decrease

    def test_deterministic(self):
        bars, labels = fake_bars(4)
        assert tornado_svg(bars, labels, ("X", "s0"), 0.1) == tornado_svg(bars, labels, ("X", "s0"), 0.1)
