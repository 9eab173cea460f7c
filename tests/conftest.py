import multiprocessing

import pytest
from hypothesis import settings

# the random draws of tests/test_critical.py: derandomised, so that every
# run draws the same graphs; Tier-1 takes the small budget and the
# extended tier the large one
settings.register_profile("draws", max_examples=120, derandomize=True,
                          deadline=None, database=None)
settings.register_profile("draws-extended", max_examples=1500,
                          derandomize=True, deadline=None, database=None)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running computations")
    config.addinivalue_line("markers", "extended: opt-in, not desk-scale")


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a multiprocessing child running."""
    yield
    children = multiprocessing.active_children()
    if children:
        pytest.fail(f"child processes still running: {children}")
