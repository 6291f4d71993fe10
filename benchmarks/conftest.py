"""Shared fixtures for the benchmark suite.

The datasets of Table 2 are generated once per session (scaled down by
``repro.experiments.DEFAULT_SCALE`` — see DESIGN.md's substitution
table) and shared by the Table 3-5 benches.
"""

import pytest

from repro.experiments import DEFAULT_SCALE, table2


@pytest.fixture(scope="session")
def paper_data():
    """The four Table 2 datasets plus the printed rows."""
    datasets, rows = table2(scale=DEFAULT_SCALE, seed=0)
    return datasets, rows
