import pytest

from hexmimo.config import InterferenceMode
from hexmimo.moments import build_table


@pytest.fixture(scope="session")
def avg_table():
    """Average-mode moment table at the default exponent and exclusion disk."""
    return build_table(3.5, InterferenceMode.AVERAGE)


@pytest.fixture(scope="session")
def worst_table():
    return build_table(3.5, InterferenceMode.WORST_CASE)


@pytest.fixture(scope="session")
def fullres_tables(avg_table, worst_table):
    """Both tables of the default run, for the acceptance suite."""
    return {InterferenceMode.AVERAGE: avg_table,
            InterferenceMode.WORST_CASE: worst_table}
