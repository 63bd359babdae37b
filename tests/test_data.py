"""Survey pipeline: loading, recoding, missing handling, themes, splits, and the
family tally that parameter fitting reads."""

import codecs
import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io
from beliefnet.cli import main

from beliefnet.data import (
    MENTIONED,
    MISSING,
    NOT_MENTIONED,
    DataTable,
    RawTable,
    ThemeSpec,
    VariableRecode,
    collapse_rare,
    drop_incomplete,
    group_themes,
    load_csv,
    load_datatable,
    recode,
    save_datatable,
    split_population,
)
from beliefnet.errors import (
    BeliefnetError,
    MalformedFile,
    MissingColumn,
    NonBinaryMember,
    RaggedRow,
    UnknownLevel,
    UnknownVariable,
    UnmappedToken,
)
from beliefnet.inference import _family_tables
from beliefnet.model import CategoricalVariable, Dag


def yn_spec(name, source=None):
    return VariableRecode(
        name, ("Yes", "No"), {"1": "Yes", "2": "No", "99": None}, source=source or name
    )


def table_from(columns, rows, spec):
    return recode(RawTable(columns, rows), spec)


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n", encoding="utf-8")
        t = load_csv(p)
        assert t.n_rows == 3
        assert t.columns == ("a", "b")
        assert t.rows[2] == ("5", "6")

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3\n5,6\n", encoding="utf-8")
        with pytest.raises(RaggedRow) as exc:
            load_csv(p)
        assert exc.value.row == 2
        assert f"{p}: line 3:" in str(exc.value)

    def test_missing_declared_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(MalformedFile, match=r"t\.csv: line 1: missing column 'zz'"):
            load_csv(p, required_columns=["a", "zz"])

    def test_repeated_declared_column(self, tmp_path):
        # a column reads its first copy alone, so a second copy would go unseen
        p = tmp_path / "t.csv"
        p.write_text("a,b,a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(MalformedFile, match=r"t\.csv: line 1: repeated column 'a'"):
            load_csv(p, required_columns=["b", "a"])
        assert load_csv(p, required_columns=["b"]).columns == ("a", "b", "a")

    def test_cells_verbatim(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('a\n" spacey "\n', encoding="utf-8")
        assert load_csv(p).rows[0] == (" spacey ",)

    def test_fingerprint_stable(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n", encoding="utf-8")
        assert load_csv(p).fingerprint == load_csv(p).fingerprint

    def test_unterminated_quote_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('a,b\n1,2\n"3,4\n' + "5,6\n" * 40000, encoding="utf-8")
        with pytest.raises(MalformedFile, match=r"t\.csv: line 3: field larger"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"")
        with pytest.raises(MalformedFile, match=r"t\.csv: line 1: .*no header row"):
            load_csv(p)

    def test_not_utf8_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(MalformedFile, match=r"t\.csv: line 3: not UTF-8"):
            load_csv(p)

    def test_one_byte_order_mark_dropped(self, tmp_path):
        """As Excel's "CSV UTF-8" export writes it: the header and the
        fingerprint read as without it, and a bad byte keeps its line."""
        plain, p = tmp_path / "plain.csv", tmp_path / "t.csv"
        plain.write_bytes(b"a,b\n1,2\n")
        p.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert load_csv(p).columns == ("a", "b")
        assert load_csv(p).fingerprint == load_csv(plain).fingerprint
        p.write_bytes(codecs.BOM_UTF8 * 2 + plain.read_bytes())  # only one is dropped
        assert load_csv(p).columns == ("\ufeffa", "b")
        p.write_bytes(codecs.BOM_UTF8 + b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(MalformedFile, match=r"t\.csv: line 3: not UTF-8"):
            load_csv(p)


class TestRecode:
    def test_basic_mapping(self):
        spec = [yn_spec("Q")]
        t = table_from(["Q"], [("1",), ("2",), ("2",)], spec)
        assert list(t.column("Q")) == [0, 1, 1]

    def test_missing_token(self):
        spec = [yn_spec("Q")]
        t = table_from(["Q"], [("99",), ("1",)], spec)
        assert list(t.column("Q")) == [MISSING, 0]
        assert t.missing_mask()[0, 0]

    def test_unmapped_strict(self):
        spec = [yn_spec("Q")]
        with pytest.raises(UnmappedToken):
            table_from(["Q"], [("7",)], spec)

    def test_unmapped_strict_names_the_first_row_of_the_token(self):
        spec = [yn_spec("P"), yn_spec("Q")]
        with pytest.raises(UnmappedToken) as exc:
            table_from(["P", "Q"], [("1", "1"), ("2", "7"), ("1", "2"), ("2", "7")], spec)
        assert (exc.value.variable, exc.value.token, exc.value.row) == ("Q", "7", 2)
        assert str(exc.value) == "variable 'Q': unmapped token '7'"

    def test_unmapped_missing_policy(self):
        vr = VariableRecode("Q", ("Yes", "No"), {"1": "Yes"}, unmapped="missing")
        t = table_from(["Q"], [("7",), ("1",)], [vr])
        assert list(t.column("Q")) == [MISSING, 0]

    def test_undeclared_level_rejected(self):
        with pytest.raises(ValueError):
            VariableRecode("Q", ("Yes",  "No"), {"1": "Maybe"})

    def test_source_column_absent(self):
        with pytest.raises(MissingColumn, match="'q17'"):
            table_from(["Q"], [("1",)], [yn_spec("Q", source="q17")])

    def test_source_column(self):
        spec = [yn_spec("Nice", source="q17")]
        t = table_from(["q17"], [("1",)], spec)
        assert t.variables[0].name == "Nice"

    def test_pure(self):
        spec = [yn_spec("Q")]
        raw = RawTable(["Q"], [("1",), ("2",)])
        assert reference_io.same(recode(raw, spec), recode(raw, spec))


class TestDataTable:
    @pytest.mark.parametrize("names, codes, reason", [
        ("QQ", [[0, 0]], "duplicate variable names"),
        ("Q", [0, 1], "codes must be"),
        ("Q", [[0], [2]], "'Q' has out-of-range codes"),
        ("Q", [[-2]], "'Q' has out-of-range codes"),
    ])
    def test_codes_checked(self, names, codes, reason):
        variables = [CategoricalVariable(n, ("Yes", "No")) for n in names]
        with pytest.raises(ValueError, match=reason):
            DataTable(variables, codes)

    def test_unknown_variable(self):
        table = DataTable([CategoricalVariable("Q", ("Yes", "No"))], [[0], [1]])
        with pytest.raises(UnknownVariable, match="nope"):
            table.column("nope")
        with pytest.raises(UnknownVariable, match="nope"):
            table.select(["nope"])


class TestCollapseRare:
    def make(self, counts_per_level):
        levels = tuple(f"l{i}" for i in range(len(counts_per_level)))
        codes = []
        for i, c in enumerate(counts_per_level):
            codes += [i] * c
        var = CategoricalVariable("X", levels)
        return DataTable([var], np.array(codes, dtype=np.int32)[:, None])

    def test_level_at_49_removed(self):
        # collapsing to below two levels is refused, so add a third level
        t = self.make([100, 49, 60])
        out, dropped = collapse_rare(t, min_count=50)
        assert out.variable("X").levels == ("l0", "l2")
        assert int((out.column("X") == MISSING).sum()) == 49
        assert dropped == {"X": ["l1"]}

    def test_level_at_50_retained(self):
        t = self.make([100, 50])
        out, dropped = collapse_rare(t, min_count=50)
        assert out.variable("X").levels == ("l0", "l1")
        assert out is t and dropped == {}  # nothing drops, so no table is built

    def test_counts_taken_before_row_dropping(self):
        # level l1 has 50 occurrences overall but only 30 among rows complete
        # in Y; the pipeline counts on the unfiltered table, so l1 survives
        x = CategoricalVariable("X", ("l0", "l1"))
        y = CategoricalVariable("Y", ("a", "b"))
        x_codes = np.array([0] * 100 + [1] * 50, dtype=np.int32)
        y_codes = np.array([0] * 50 + [1] * 50 + [0] * 30 + [MISSING] * 20, dtype=np.int32)
        t = DataTable([x, y], np.stack([x_codes, y_codes], axis=1))
        kept, dropped = collapse_rare(t, min_count=50)
        assert kept.variable("X").levels == ("l0", "l1") and dropped == {}
        # the reversed order would have dropped l1
        dropped_first = drop_incomplete(t)
        obs = np.bincount(dropped_first.column("X"), minlength=2)
        assert obs[1] < 50

    def test_refuses_single_level_result(self):
        t = self.make([100, 10])
        with pytest.raises(ValueError, match="rare levels of 'X' would leave 1 level"):
            collapse_rare(t, min_count=50)

    @staticmethod
    def one_column(table, variable, min_count):
        """The reference: one column collapsed on its own, cell by cell."""
        vi = table.var_index(variable)
        var, col = table.variables[vi], table.codes[:, vi]
        keep = np.bincount(col[col >= 0], minlength=var.r) >= min_count
        codes = np.array(table.codes)
        codes[:, vi] = [MISSING if c < 0 or not keep[c] else int(keep[:c].sum()) for c in col]
        variables = list(table.variables)
        variables[vi] = CategoricalVariable(
            var.name, [lvl for lvl, k in zip(var.levels, keep) if k], var.ordinal)
        return DataTable(variables, codes, table.source)

    def test_two_columns_collapse_in_table_order(self):
        rng = np.random.default_rng(5)
        z = CategoricalVariable("Z", ("z0", "z1", "z2", "z3"), ordinal=True)
        m = CategoricalVariable("M", ("m0", "m1"))
        a = CategoricalVariable("A", ("a0", "a1", "a2"))
        codes = np.stack([
            rng.choice([MISSING, 0, 1, 2, 3], 300, p=[0.1, 0.4, 0.05, 0.4, 0.05]),
            rng.choice([MISSING, 0, 1], 300, p=[0.2, 0.4, 0.4]),
            rng.choice([MISSING, 0, 1, 2], 300, p=[0.1, 0.03, 0.47, 0.4]),
        ], axis=1)
        t = DataTable([z, m, a], codes, source="abc")
        out, dropped = collapse_rare(t, min_count=30)
        assert list(dropped.items()) == [("Z", ["z1", "z3"]), ("A", ["a0"])]
        want = t
        for name in ("Z", "M", "A"):
            want = self.one_column(want, name, 30)
        assert reference_io.same(out, want) and out.source == "abc"
        assert out.variable("Z").ordinal

    def test_first_column_short_of_two_levels_named(self):
        x = CategoricalVariable("X", ("x0", "x1"))
        y = CategoricalVariable("Y", ("y0", "y1"))
        t = DataTable([y, x], [[0, 0]] * 5 + [[1, 0]] * 5)
        with pytest.raises(ValueError, match="^collapsing rare levels of 'Y' would leave 0"):
            collapse_rare(t, min_count=6)

    def test_empty_table_passes_through(self):
        t = self.make([0, 0])
        assert t.n_rows == 0
        out, dropped = collapse_rare(t, min_count=50)
        assert out is t and dropped == {}


class TestDropIncomplete:
    def test_identity_when_complete(self):
        spec = [yn_spec("Q")]
        t = table_from(["Q"], [("1",), ("2",)], spec)
        assert reference_io.same(drop_incomplete(t), t)

    def test_all_rows_missing(self):
        spec = [yn_spec("Q")]
        t = table_from(["Q"], [("99",), ("99",)], spec)
        assert drop_incomplete(t).n_rows == 0

    def test_only_listed_variables_matter(self):
        # prep lists a table's variables by selecting them first
        spec = [yn_spec("Q"), yn_spec("R")]
        t = table_from(["Q", "R"], [("1", "99"), ("99", "1")], spec)
        assert drop_incomplete(t).n_rows == 0
        out = drop_incomplete(t.select(["Q"]))
        assert out.n_rows == 1
        assert reference_io.same(out, t.select(["Q"]).filter_rows([True, False]))

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(5)
        spec = [yn_spec("Q"), yn_spec("R"), yn_spec("S")]
        rows = [
            tuple(rng.choice(["1", "2", "99"]) for _ in range(3)) for _ in range(500)
        ]
        t = table_from(["Q", "R", "S"], rows, spec)
        expected = sum(1 for r in rows if r[0] != "99" and r[2] != "99")
        assert drop_incomplete(t.select(["Q", "S"])).n_rows == expected


def indicator(name):
    return CategoricalVariable(name, (MENTIONED, NOT_MENTIONED))


class TestGroupThemes:
    def make(self, rows):
        variables = [indicator("m1"), indicator("m2"), indicator("m3")]
        return DataTable(variables, np.array(rows, dtype=np.int32))

    def test_all_not_mentioned(self):
        t = self.make([[1, 1, 1]])
        out = group_themes(t, [ThemeSpec("T", ("m1", "m2", "m3"))])
        assert out.variable("T").levels == (MENTIONED, NOT_MENTIONED)
        assert list(out.column("T")) == [1]

    def test_or_semantics(self):
        t = self.make([[1, 0, 1], [0, 0, 0], [1, 1, 0]])
        out = group_themes(t, [ThemeSpec("T", ("m1", "m2"))])
        assert list(out.column("T")) == [0, 0, 1]

    def test_missing_member_blocks_negative_only(self):
        t = self.make([[MISSING, 0, 1], [MISSING, 1, 1]])
        out = group_themes(t, [ThemeSpec("T", ("m1", "m2"))])
        assert list(out.column("T")) == [0, MISSING]

    def test_members_dropped_from_view(self):
        t = self.make([[0, 1, 0]])
        out = group_themes(t, [ThemeSpec("T", ("m1", "m2"))])
        assert [v.name for v in out.variables] == ["m3", "T"]

    def test_non_binary_member(self):
        bad = CategoricalVariable("m1", ("Yes", "No"))
        t = DataTable([bad], np.array([[0]], dtype=np.int32))
        with pytest.raises(NonBinaryMember):
            group_themes(t, [ThemeSpec("T", ("m1",))])

    def test_marginals_match_brute_force_or(self):
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 2, size=(400, 3)).astype(np.int32)
        t = self.make(rows)
        out = group_themes(t, [ThemeSpec("T", ("m1", "m2", "m3"))])
        expected = sum(1 for r in rows if 0 in r[:3])
        assert int((out.column("T") == 0).sum()) == expected

    def test_or_dominance(self):
        rng = np.random.default_rng(13)
        rows = rng.integers(0, 2, size=(300, 3)).astype(np.int32)
        t = self.make(rows)
        out = group_themes(t, [ThemeSpec("T", ("m1", "m2", "m3"))])
        theme_marginal = int((out.column("T") == 0).sum())
        member_max = max(int((rows[:, i] == 0).sum()) for i in range(3))
        assert theme_marginal >= member_max


class TestSplitPopulation:
    def make(self, tokens):
        var = CategoricalVariable("DevelopAI", ("Risk", "Opportunity", "Both"))
        codes = np.array(
            [[{"R": 0, "O": 1, "B": 2}[t]] for t in tokens], dtype=np.int32
        )
        return DataTable([var], codes)

    def test_both_in_both_outputs(self):
        t = self.make(["R", "O", "B"])
        risk, opp = split_population(t, "DevelopAI")
        assert risk.n_rows == 2 and opp.n_rows == 2

    def test_all_opportunity(self):
        t = self.make(["O", "O"])
        risk, opp = split_population(t, "DevelopAI")
        assert risk.n_rows == 0 and opp.n_rows == 2

    def test_missing_level_is_error(self):
        var = CategoricalVariable("DevelopAI", ("Risk", "Opportunity"))
        t = DataTable([var], np.array([[0]], dtype=np.int32))
        with pytest.raises(UnknownLevel):
            split_population(t, "DevelopAI")

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        tokens = [str(rng.choice(["R", "O", "B"])) for _ in range(300)]
        risk, opp = split_population(self.make(tokens), "DevelopAI")
        assert risk.n_rows == sum(1 for t in tokens if t in "RB")
        assert opp.n_rows == sum(1 for t in tokens if t in "OB")


def counts(table, variable, parents=()):
    """N_ijk of ``variable`` given ``parents``, as parameter fitting tallies it."""
    dag = Dag((variable, *parents), {variable: tuple(parents)})
    return dict(_family_tables(dag, table))[variable]


class TestCounts:
    def test_marginal_histogram(self):
        spec = [yn_spec("Q")]
        t = table_from(["Q"], [("1",), ("1",), ("2",)], spec)
        assert counts(t, "Q").tolist() == [[2, 1]]

    def test_unobserved_config_zero_row(self):
        x = CategoricalVariable("X", ("a", "b"))
        y = CategoricalVariable("Y", ("c", "d"))
        t = DataTable([x, y], np.array([[0, 0], [0, 1]], dtype=np.int32))
        n = counts(t, "Y", ["X"])
        assert n.tolist() == [[1, 1], [0, 0]]
        assert n.sum(axis=1).tolist() == [2, 0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        x = CategoricalVariable("X", ("a", "b", "c"))
        y = CategoricalVariable("Y", ("d", "e"))
        z = CategoricalVariable("Z", ("f", "g", "h", "i"))
        codes = np.stack(
            [
                rng.integers(0, 3, 500),
                rng.integers(0, 2, 500),
                rng.integers(0, 4, 500),
            ],
            axis=1,
        ).astype(np.int32)
        t = DataTable([x, y, z], codes)
        n = counts(t, "Y", ["X", "Z"])
        brute = np.zeros((12, 2), dtype=int)
        for xi, yi, zi in codes:
            brute[xi * 4 + zi, yi] += 1
        assert np.array_equal(n, brute)

    def test_marginalizing_one_parent(self):
        rng = np.random.default_rng(22)
        x = CategoricalVariable("X", ("a", "b", "c"))
        y = CategoricalVariable("Y", ("d", "e"))
        z = CategoricalVariable("Z", ("f", "g"))
        codes = np.stack(
            [rng.integers(0, 3, 300), rng.integers(0, 2, 300), rng.integers(0, 2, 300)],
            axis=1,
        ).astype(np.int32)
        t = DataTable([x, y, z], codes)
        with_z = counts(t, "Y", ["X", "Z"]).reshape(3, 2, 2)
        without = counts(t, "Y", ["X"])
        assert np.array_equal(with_z.sum(axis=1), without)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        spec = [yn_spec("Q"), yn_spec("R")]
        t = table_from(["Q", "R"], [("1", "99"), ("2", "1")], spec)
        save_datatable(t, tmp_path / "d.csv", tmp_path / "d.dict.yaml")
        back = load_datatable(tmp_path / "d.csv", tmp_path / "d.dict.yaml")
        assert reference_io.same(back, t)
        assert back.source == t.source

    def test_byte_identical_rewrites(self, tmp_path):
        spec = [yn_spec("Q")]
        t = table_from(["Q"], [("1",), ("99",)], spec)
        save_datatable(t, tmp_path / "a.csv", tmp_path / "a.yaml")
        save_datatable(t, tmp_path / "b.csv", tmp_path / "b.yaml")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.yaml").read_bytes() == (tmp_path / "b.yaml").read_bytes()

    def test_empty_level_label_refused_on_save(self, tmp_path):
        # an empty cell reads back as missing, so level "" would not round-trip
        var = CategoricalVariable("A", ("", "x"))
        t = DataTable([var, CategoricalVariable("B", ("b0", "b1"))],
                      [[0, 0], [1, 1], [-1, 0]])
        with pytest.raises(MalformedFile) as err:
            save_datatable(t, tmp_path / "t.csv", tmp_path / "t.dict.yaml")
        assert err.value.position == "variables" and "'A'" in err.value.reason
        assert not (tmp_path / "t.csv").exists()

    def test_empty_level_label_refused_in_dictionary(self, tmp_path):
        t = table_from(["Q"], [("1",), ("2",)], [yn_spec("Q")])
        save_datatable(t, tmp_path / "t.csv", tmp_path / "t.dict.yaml")
        text = (tmp_path / "t.dict.yaml").read_text(encoding="utf-8")
        (tmp_path / "t.dict.yaml").write_text(text.replace("'No'", "''"), encoding="utf-8")
        with pytest.raises(MalformedFile) as err:
            load_datatable(tmp_path / "t.csv", tmp_path / "t.dict.yaml")
        assert err.value.position == "variables" and "empty level" in err.value.reason

    def test_unquoted_carriage_return_refused_in_dictionary(self, tmp_path):
        t = table_from(["Q"], [("1",), ("2",)], [yn_spec("Q")])
        save_datatable(t, tmp_path / "t.csv", tmp_path / "t.dict.yaml")
        text = (tmp_path / "t.dict.yaml").read_text(encoding="utf-8")
        (tmp_path / "t.dict.yaml").write_text(text.replace("'No'", '"N\\ro"'), encoding="utf-8")
        with pytest.raises(MalformedFile) as err:
            load_datatable(tmp_path / "t.csv", tmp_path / "t.dict.yaml")
        assert err.value.path == str(tmp_path / "t.dict.yaml")
        assert err.value.position == "variables" and "carriage return" in err.value.reason

    def test_truncated_csv_refused(self, tmp_path):
        spec = [yn_spec("Q"), yn_spec("R")]
        t = table_from(["Q", "R"], [("1", "2"), ("2", "1"), ("99", "1"), ("1", "1")], spec)
        csv_path = tmp_path / "t.csv"
        save_datatable(t, csv_path, tmp_path / "t.dict.yaml")
        lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
        csv_path.write_text("".join(lines[:3]), encoding="utf-8")  # header + 2 rows
        with pytest.raises(MalformedFile) as err:
            load_datatable(csv_path, tmp_path / "t.dict.yaml")
        assert err.value.path == str(csv_path)
        assert err.value.position == "n_rows"
        assert "2 rows" in err.value.reason and "4" in err.value.reason


# labels the CSV writer must quote or escape, next to plain ones
LABELS = ["a", "b c", "x,y", 'say "hi"', "two\nlines", "cr\r\nlf", " pad ", "Männlich",
          "'q'", ",", '"', "No"]


@st.composite
def _tables(draw):
    """(variables, codes) with 1-4 columns and 0-12 rows; codes include -1."""
    n_vars = draw(st.integers(1, 4))
    variables = [
        CategoricalVariable(
            f"V{i}" if draw(st.booleans()) else f"V,{i}",
            draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=5, unique=True)),
        )
        for i in range(n_vars)
    ]
    n_rows = draw(st.integers(0, 12))
    codes = np.array(
        [[draw(st.integers(MISSING, v.r - 1)) for v in variables] for _ in range(n_rows)],
        dtype=np.int32,
    ).reshape(n_rows, n_vars)
    return variables, codes


class TestColumnWiseParity:
    """Column-wise recode, save and load against per-cell references."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_tables(), st.data())
    def test_save_and_load_match_reference(self, table, data):
        variables, codes = table
        t = DataTable(variables, codes, source="src")
        with tempfile.TemporaryDirectory() as tmp:
            a = [os.path.join(tmp, n) for n in ("a.csv", "a.yaml")]
            b = [os.path.join(tmp, n) for n in ("b.csv", "b.yaml")]
            save_datatable(t, *a)
            reference_io.save_datatable(t, *b)
            for x, y in zip(a, b):
                with open(x, "rb") as fx, open(y, "rb") as fy:
                    assert fx.read() == fy.read()
            back = load_datatable(*a)
            assert reference_io.same(back, t) and back.source == "src"
            assert np.array_equal(reference_io.load_codes(a[0], variables), back.codes)
            if t.n_rows:  # one cell set to a label no variable declares
                i = data.draw(st.integers(0, t.n_rows - 1), label="row")
                j = data.draw(st.integers(0, len(variables) - 1), label="column")
                labels = [["" if c == MISSING else v.levels[c] for v, c in zip(variables, row)]
                          for row in codes]
                labels[i][j] = "unknown"
                with open(a[0], "w", encoding="utf-8", newline="") as fh:
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow([v.name for v in variables])
                    writer.writerows(labels)
                with pytest.raises(MalformedFile) as want:
                    reference_io.load_codes(a[0], variables)
                with pytest.raises(MalformedFile) as got:
                    load_datatable(*a)
                assert str(got.value) == str(want.value)
                assert got.value.position == f"row {i + 1}"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_recode_and_fingerprint_match_reference(self, data):
        tokens = ["1", "2", "3", "x,y", 'q"', "a\nb", "", " 9 "]
        n_rows = data.draw(st.integers(0, 10), label="rows")
        specs, columns = [], []
        for i in range(data.draw(st.integers(1, 3), label="variables")):
            levels = data.draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=4,
                                        unique=True), label="levels")
            mapping = data.draw(st.dictionaries(
                st.sampled_from(tokens), st.sampled_from(levels + [None]), max_size=6),
                label="mapping")
            specs.append(VariableRecode(
                f"V{i}", levels, mapping, source=f"S{i}",
                unmapped=data.draw(st.sampled_from(["strict", "missing"]), label="policy")))
            columns.append(f"S{i}")
        rows = [tuple(data.draw(st.sampled_from(tokens)) for _ in columns)
                for _ in range(n_rows)]
        raw = RawTable(columns, rows)
        assert raw.fingerprint == reference_io.fingerprint(columns, rows)
        spec = specs
        try:
            want = reference_io.recode(raw, spec)
        except UnmappedToken as exc:
            with pytest.raises(UnmappedToken) as got:
                recode(raw, spec)
            assert str(got.value) == str(exc)
        else:
            got = recode(raw, spec)
            assert reference_io.same(got, want) and got.source == want.source

    def test_ragged_row_names_first_bad_row(self):
        with pytest.raises(RaggedRow) as err:
            RawTable(["a", "b"], [("1", "2"), ("1",), ("1", "2", "3")])
        assert str(err.value) == "row 2: expected 2 cells, got 1"


RAW_SURVEY = os.path.join("fixtures", "synthetic_survey.csv")
CSV_MUTATIONS = ("delete", "append cell", "drop comma", "insert 0xff", "prefix quote",
                 "code -1")


def _mutate_row(line, kind, at):
    """The lines that replace the CSV line ``line`` after one mutation."""
    cells = line.split(b",")
    k = at % len(cells)
    if kind == "delete":
        return []
    if kind == "append cell":
        return [line + b",x"]
    if kind == "drop comma":
        if len(cells) > 1:
            k = at % (len(cells) - 1)
            cells[k:k + 2] = [cells[k] + cells[k + 1]]
        return [b",".join(cells)]
    if kind == "insert 0xff":
        k = at % (len(line) + 1)
        return [line[:k] + b"\xff" + line[k:]]
    if kind == "prefix quote":
        return [b'"' + line]
    cells[k] = b"-1"
    return [b",".join(cells)]


@pytest.fixture(scope="module")
def csv_files(tmp_path_factory):
    """(lines, loader) of the raw fixture survey and of its prepared full table."""
    root = tmp_path_factory.mktemp("prep")
    assert main([
        "prep", "--raw", RAW_SURVEY, "--recode", os.path.join("fixtures", "prep.yaml"),
        "--themes", os.path.join("fixtures", "themes.yaml"), "--workspace", str(root),
        "--name", "survey",
    ]) == 0
    prepared = root / "data" / "survey_full.csv"
    dict_path = root / "data" / "survey_full.dict.yaml"
    with open(RAW_SURVEY, "rb") as fh:
        raw = fh.read()
    return [
        (raw.split(b"\n"), load_csv),
        (prepared.read_bytes().split(b"\n"), lambda path: load_datatable(path, dict_path)),
    ]


class TestMutatedCsv:
    """A CSV with one line mutated either loads or raises a BeliefnetError."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.data())
    def test_loads_or_raises_beliefnet_error(self, csv_files, data):
        lines, loader = data.draw(st.sampled_from(csv_files), label="file")
        lines = list(lines)
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        kind = data.draw(st.sampled_from(CSV_MUTATIONS), label="mutation")
        at = data.draw(st.integers(0, 10**6), label="position")
        lines[i:i + 1] = _mutate_row(lines[i], kind, at)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.csv")
            with open(path, "wb") as fh:
                fh.write(b"\n".join(lines))
            try:
                loader(path)
            except BeliefnetError:
                pass
