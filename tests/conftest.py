import multiprocessing

import pytest


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
