"""Benchmark harness conventions.

Every benchmark regenerates one paper table/figure (DESIGN.md §3): it runs
the corresponding experiment once, prints the same rows/series the paper
reports, and asserts the *shape* criteria (who wins, by roughly what
factor, where the pathology shows) — absolute microseconds are
simulator-relative by construction.  Timing is ``perfbench/bench.py``'s
job, not these checks'.

Run with::

    pytest benchmarks/
"""

import pytest


@pytest.fixture
def show(capsys):
    """Print a report through the captured-output barrier."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show
