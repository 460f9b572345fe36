"""The one report type and diff core behind every verify harness."""

from repro.verify.report import DIFF_LIMIT, Report, diff_mapping, diff_rows


def _report(**sections):
    return Report("X PARITY", "all agree", ["x run: 3 things"], {}, sections)


class TestReport:
    def test_ok_iff_no_section_holds_a_line(self):
        assert _report().ok
        assert _report(a=[], b=[]).ok
        assert not _report(a=[], b=["b: differs"]).ok

    def test_ok_rendering(self):
        assert _report(a=[]).describe() == (
            "x run: 3 things\n  X PARITY OK — all agree"
        )
        bare = Report("X PARITY", "", ["x run"])
        assert bare.describe() == "x run\n  X PARITY OK"

    def test_failed_rendering_counts_every_section(self):
        report = _report(a=["a: one"], b=["b: two", "b: three"])
        assert report.divergences == ("a: one", "b: two", "b: three")
        assert report.describe().splitlines()[1:] == [
            "  X PARITY FAILED — 3 divergence(s):",
            "    - a: one",
            "    - b: two",
            "    - b: three",
        ]

    def test_counterexample_is_listed_only_on_failure(self):
        report = _report(a=["a: one"])
        report.counterexample = [("u", "p", 0), ("v", "p", 60)]
        text = report.describe()
        assert "minimal counterexample (2 comment(s)):" in text
        assert "    ('u', 'p', 0)" in text
        report.sections["a"].clear()
        assert "counterexample" not in report.describe()


class TestDiffCore:
    def test_equal_inputs_yield_nothing(self):
        assert diff_mapping("m", {"a": 1}, {"a": 1}) == []
        assert diff_rows("r", [{"a": 1}], [{"a": 1}]) == []

    def test_mapping_names_missing_extra_and_changed_keys(self):
        (line,) = diff_mapping(
            "ledger", {"a": 1, "b": 2, "c": 3}, {"b": 2, "c": 4, "d": 5}
        )
        assert line == (
            "ledger: missing: 'a'; extra: 'd'; changed: 'c': 4 != 3"
        )

    def test_mapping_elides_past_the_limit(self):
        ref = {i: 0 for i in range(DIFF_LIMIT + 3)}
        (line,) = diff_mapping("ledger", ref, {})
        assert line == "ledger: missing: 0, 1, 2, 3 (+3 more)"

    def test_rows_report_length_then_positions(self):
        assert diff_rows("top", [1, 2], [1]) == ["top: 1 rows != 2"]
        assert diff_rows("top", [1, 2, 3], [1, 5, 3]) == [
            "top: 1 row mismatch(es) — row 1: 5 != 2"
        ]
