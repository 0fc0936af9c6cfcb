"""Tests for the paper-experiment harness in ``benchmarks/paper``.

The figure functions are exercised at tiny parameter settings so that the
whole module runs in a few seconds; what is checked is the plumbing — every
requested method produces a measurement for every instance, tables render,
timeouts are reported — not the timings themselves.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.workloads.hard import HardCaseParameters, generate_hard_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "benchmarks"))

from paper.figures import (  # noqa: E402
    ablation_engine_options,
    ablation_methods,
    conditioning_overhead,
    conditioning_overhead_table,
    figure10,
    figure10_table,
    figure11a,
    figure11b,
    figure12,
    figure13,
    main,
)
from paper.reporting import (  # noqa: E402
    format_sweep_result,
    format_table,
    summarize_shape,
    sweep_to_dict,
    to_markdown,
    write_sweep_json,
)
from paper.runner import method_registry, run_sweep  # noqa: E402


class TestRunner:
    def test_method_registry_names(self):
        methods = method_registry(
            epsilons=(0.1,), include_exact=("indve(minlog)", "ve(minmax)"), include_we=True
        )
        assert set(methods) == {"indve(minlog)", "ve(minmax)", "kl(e0.1)", "we"}

    def test_method_registry_rejects_unknown_exact_method(self):
        with pytest.raises(ValueError):
            method_registry(include_exact=("speedy",))

    def test_run_sweep_collects_every_point(self):
        instance = generate_hard_instance(HardCaseParameters(8, 2, 2, 6, seed=0))
        methods = method_registry(include_exact=("indve(minlog)", "ve(minlog)"))
        result = run_sweep(
            "tiny", "ws-set size",
            [(6, instance.ws_set, instance.world_table)] * 2,
            methods,
        )
        assert result.methods() == ["indve(minlog)", "ve(minlog)"]
        for series in result.series:
            assert len(series.points) == 2
            assert all(point.seconds >= 0 for point in series.points)
            assert all(point.value is not None for point in series.points)
        assert result.series_by_method("ve(minlog)").xs() == [6, 6]
        with pytest.raises(KeyError):
            result.series_by_method("nope")

    def test_timeouts_are_flagged(self):
        instance = generate_hard_instance(HardCaseParameters(20, 2, 4, 60, seed=0))
        methods = method_registry(include_exact=("indve(minlog)",), max_calls=3)
        result = run_sweep(
            "budgeted", "ws-set size",
            [(60, instance.ws_set, instance.world_table)],
            methods,
        )
        point = result.series[0].points[0]
        assert point.timed_out


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([("a", 1.0), ("bb", 123.456)], headers=("name", "seconds"))
        assert "name" in text and "bb" in text

    def test_markdown_table(self):
        text = to_markdown([("a", 1)], headers=("x", "y"))
        assert text.splitlines()[0] == "| x | y |"

    def test_sweep_to_dict_and_json_report(self, tmp_path):
        import json

        instance = generate_hard_instance(HardCaseParameters(8, 2, 2, 5, seed=1))
        methods = method_registry(include_exact=("indve(minlog)", "ve(minlog)"))
        result = run_sweep(
            "engines", "ws-set size",
            [(5, instance.ws_set, instance.world_table)],
            methods,
        )
        payload = sweep_to_dict(result)
        assert payload["title"] == "engines"
        assert {series["method"] for series in payload["series"]} == {
            "indve(minlog)", "ve(minlog)",
        }
        point = payload["series"][0]["points"][0]
        assert point["x"] == 5 and point["seconds"] >= 0 and not point["timed_out"]

        path = write_sweep_json(
            result, tmp_path / "report.json", extra={"speedup": {"overall": 1.0}}
        )
        loaded = json.loads(path.read_text())
        assert loaded["title"] == "engines"
        assert loaded["speedup"] == {"overall": 1.0}

    def test_format_sweep_result_and_summary(self):
        instance = generate_hard_instance(HardCaseParameters(8, 2, 2, 5, seed=1))
        methods = method_registry(include_exact=("indve(minlog)",))
        result = run_sweep(
            "tiny", "ws-set size",
            [(5, instance.ws_set, instance.world_table)],
            methods,
            time_limit=10,
        )
        rendering = format_sweep_result(result)
        assert "tiny" in rendering and "indve(minlog) (s)" in rendering
        assert "fastest method" in summarize_shape(result)


class TestFigureDefinitions:
    def test_figure10_rows_and_table(self):
        rows = figure10(scale_factors=(0.0001,))
        assert {row.query for row in rows} == {"Q1", "Q2"}
        assert all(row.input_variables > 0 for row in rows)
        assert "Size of ws-set" in figure10_table(rows)

    def test_figure11a_tiny(self):
        result = figure11a(
            sizes=(8, 16), num_variables=8, alternatives=2, descriptor_length=2,
            time_limit=10.0, kl_max_iterations=500,
        )
        assert len(result.methods()) == 4
        assert all(len(series.points) == 2 for series in result.series)

    def test_figure12_tiny(self):
        result = figure12(
            sizes=(4, 8), num_variables=8, alternatives=2, descriptor_length=2,
            time_limit=10.0, kl_max_iterations=500,
        )
        assert "Figure 12" in result.title

    def test_figure13_tiny(self):
        result = figure13(
            sizes=(4, 8), num_variables=20, alternatives=2, descriptor_length=2,
            time_limit=10.0,
        )
        assert set(result.methods()) == {"indve(minlog)", "indve(minmax)"}

    def test_conditioning_overhead_rows(self):
        rows = conditioning_overhead(sizes=(5, 10), num_variables=30)
        assert [size for size, _, _ in rows] == [5, 10]
        table = conditioning_overhead_table(rows)
        assert "overhead factor" in table

    def test_figure11b_tiny(self):
        result = figure11b(
            sizes=(4, 8), num_variables=40, alternatives=4, descriptor_length=2,
            time_limit=10.0, kl_max_iterations=500,
        )
        assert result.methods() == ["indve(minlog)", "kl(e0.1)", "kl(e0.01)"]
        assert all(len(series.points) == 2 for series in result.series)

    def test_ablation_methods_tiny(self):
        result = ablation_methods(
            sizes=(4, 8), num_variables=8, alternatives=2, descriptor_length=2,
            time_limit=10.0,
        )
        assert result.methods() == ["indve(minlog)", "ve(minlog)", "we"]
        _assert_methods_agree(result)

    def test_ablation_engine_options_tiny(self):
        result = ablation_engine_options(
            sizes=(4, 8), num_variables=8, alternatives=2, descriptor_length=2,
            time_limit=10.0,
        )
        assert result.methods() == [
            "indve(minlog)", "indve-no-memo", "indve+subsume-steps",
            "indve(frequency)",
        ]
        _assert_methods_agree(result)


def _assert_methods_agree(result):
    """Every method of an exact sweep gives the same confidence at every x."""
    points = [point for series in result.series for point in series.points]
    assert not any(point.timed_out for point in points)
    for x in {point.x for point in points}:
        values = [point.value for point in points if point.x == x]
        assert max(values) - min(values) < 1e-9, (x, values)


def test_cli_runs_figure10(capsys):
    assert main(["--figure", "10"]) == 0
    output = capsys.readouterr().out
    assert "Size of ws-set" in output and "total experiment time" in output
