"""Tests for the benchmark harness plumbing and the parallel grid driver helpers."""

import json

import numpy as np
import pytest

from repro.backends.grid_driver import allocation_for_index, grid_strides, select_best
from repro.bench import json_out
from repro.bench.harness import FigureReport, figure3_report, figure6_report
from repro.cogframe.prng import CounterRNG


class TestFigureReport:
    def test_format_table_contains_rows_and_notes(self):
        report = FigureReport("Figure X", "demo")
        report.add(name="a", value=1.5)
        report.add(name="b", value=2.5e-6)
        report.note("a note")
        text = report.format_table()
        assert "Figure X: demo" in text
        assert "a note" in text
        assert "2.5" in text

    def test_empty_report(self):
        assert "(no rows)" in FigureReport("F", "t").format_table()


class TestHarnessReports:
    def test_figure3_rows(self):
        report = figure3_report()
        assert len(report.rows) == 2
        assert report.rows[1]["equivalent"] is True
        assert report.rows[0]["equivalent"] is False

    def test_figure6_rows(self):
        report = figure6_report()
        assert len(report.rows) == 10  # 5 register caps x 2 precisions
        assert {r["precision"] for r in report.rows} == {"fp32", "fp64"}
        assert all(0.0 < r["occupancy"] <= 1.0 for r in report.rows)


class TestBenchJson:
    def test_main_validates_benches_and_writes_strict_json(self, tmp_path, monkeypatch):
        built = []

        def fake_fig5a(quick):
            built.append(quick)
            report = FigureReport("Figure 5a", "demo")
            report.add(
                nan=float("nan"),
                inf=float("-inf"),
                f64=np.float64(1.5),
                i64=np.int64(7),
                flag=True,
                label="s",
            )
            report.note("a note")
            return report

        monkeypatch.setitem(json_out.BENCH_BUILDERS, "fig5a", fake_fig5a)
        monkeypatch.setenv("GITHUB_SHA", "abc123")

        # An unknown name fails before any bench is built or written.
        with pytest.raises(SystemExit):
            json_out.main(["--out-dir", str(tmp_path), "--benches", "fig5a,nope"])
        assert built == []
        assert list(tmp_path.iterdir()) == []

        assert json_out.main(["--out-dir", str(tmp_path), "--benches", "fig5a", "--quick"]) == 0
        assert built == [True]
        with open(tmp_path / "BENCH_fig5a.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["bench"] == "fig5a"
        assert payload["commit"] == "abc123"
        assert payload["schema_version"] == json_out.SCHEMA_VERSION
        assert payload["title"] == "demo"
        assert payload["notes"] == ["a note"]
        assert payload["rows"] == [
            {"nan": None, "inf": None, "f64": 1.5, "i64": 7, "flag": True, "label": "s"}
        ]
        assert type(payload["rows"][0]["i64"]) is int


class TestGridDriverHelpers:
    def test_allocation_for_index_row_major(self):
        levels = [[0.0, 1.0], [10.0, 20.0, 30.0]]
        assert allocation_for_index(levels, 0) == [0.0, 10.0]
        assert allocation_for_index(levels, 2) == [0.0, 30.0]
        assert allocation_for_index(levels, 3) == [1.0, 10.0]
        assert allocation_for_index(levels, 5) == [1.0, 30.0]

    def test_allocation_covers_whole_grid(self):
        levels = [[0.0, 2.5, 5.0]] * 3
        seen = {tuple(allocation_for_index(levels, i)) for i in range(27)}
        assert len(seen) == 27

    def test_select_best_unique_minimum_consumes_no_draws(self):
        state = [float(CounterRNG.derive_key(0, 1)), 0.0]
        costs = np.array([3.0, 1.0, 2.0])
        index = select_best(costs, state, rng_offset=0)
        assert index == 1
        assert state[1] == 0.0  # counter untouched

    def test_select_best_tie_draws_advance_counter(self):
        state = [float(CounterRNG.derive_key(0, 1)), 0.0]
        costs = np.array([1.0, 1.0, 5.0])
        index = select_best(costs, state, rng_offset=0)
        assert index in (0, 1)
        assert state[1] == 1.0  # one uniform consumed for the single tie

    def test_select_best_draws_for_intermediate_minima_ties(self):
        """Ties with a minimum later displaced by a lower cost still draw —
        the serial scan consumed that uniform, so the parallel replay must."""
        state = [float(CounterRNG.derive_key(0, 1)), 0.0]
        index = select_best(np.array([5.0, 5.0, 3.0, 4.0]), state, rng_offset=0)
        assert index == 2
        assert state[1] == 1.0  # the 5.0/5.0 tie drew even though 3.0 wins

    def test_allocation_with_precomputed_strides_matches(self):
        levels = [[0.0, 1.0, 2.0], [10.0, 20.0], [5.0, 6.0, 7.0]]
        strides = grid_strides(levels)
        assert strides == (6, 3, 1)
        for index in range(3 * 2 * 3):
            assert allocation_for_index(levels, index, strides) == allocation_for_index(
                levels, index
            )
