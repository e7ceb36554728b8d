"""Reporting: ASCII charts and CLI plumbing."""

import dataclasses

import pytest

from repro.experiments import cli
from repro.experiments.cli import main as cli_main
from repro.experiments.reporting import ascii_chart, text_table


class TestAsciiChart:
    def test_basic_render(self):
        out = ascii_chart([1, 2, 3], {"a": [10, 20, 30]}, width=20, height=5, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "*" in out
        assert "* a" in lines[-1]

    def test_extremes_on_border_rows(self):
        out = ascii_chart([0, 10], {"s": [0.0, 100.0]}, width=10, height=4)
        lines = out.splitlines()
        assert "100" in lines[0]         # y max labels the top row
        assert "*" in lines[0]           # max point plotted top
        assert "*" in lines[3]           # min point plotted bottom

    def test_multiple_series_markers(self):
        out = ascii_chart(
            [1, 2], {"one": [1, 2], "two": [2, 1]}, width=12, height=4
        )
        assert "*" in out and "o" in out
        assert "* one" in out and "o two" in out

    def test_flat_series_ok(self):
        out = ascii_chart([1, 2, 3], {"flat": [5, 5, 5]}, width=10, height=3)
        # Three plotted points plus the legend's marker.
        assert out.count("*") == 4

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ascii_chart([1, 2], {"bad": [1]}, width=10, height=3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ascii_chart([], {"a": []})

    def test_axis_labels(self):
        out = ascii_chart([1, 2], {"a": [1, 2]}, x_label="CPUs", y_label="us", height=6)
        assert "CPUs" in out and "us" in out


class TestCli:
    def test_fig1_runs(self, capsys):
        assert cli_main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        verdicts = [line for line in out.splitlines() if line.endswith(("PASS", "FAIL"))]
        assert len(verdicts) == len(cli.EXPERIMENTS["fig1"].claims) > 0
        assert all(line.endswith("PASS") for line in verdicts)

    def test_csv_option(self, tmp_path, capsys):
        assert cli_main(["fig3", "--quick", "--csv", str(tmp_path)]) == 0
        csv = (tmp_path / "fig3.csv").read_text()
        assert csv.startswith("procs,mean_us")
        assert len(csv.splitlines()) >= 4

    def test_failed_claim_exits_1_after_writing_csv(self, tmp_path, monkeypatch, capsys):
        row = cli.EXPERIMENTS["fig1"]
        first, *rest = row.claims
        monkeypatch.setitem(cli.EXPERIMENTS, "fig1", dataclasses.replace(
            row, csv=(("green_random",), lambda res: [(res.green_random,)]),
            claims=(dataclasses.replace(first, bound="> 1e9"), *rest),
        ))
        assert cli_main(["fig1", "--csv", str(tmp_path)]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert len(failed) == 1 and first.name in failed[0]
        assert (tmp_path / "fig1.csv").read_text().startswith("green_random\n")

    def test_quick_judges_no_claim(self, capsys):
        assert cli_main(["fig1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" not in out and "FAIL" not in out

    def test_claim_names_are_unique(self):
        names = [c.name for row in cli.EXPERIMENTS.values() for c in row.claims]
        assert len(names) == len(set(names))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])

    def test_table_smoke(self):
        assert "x" in text_table(["x"], [(1,)])
