import pytest


@pytest.fixture
def in_process(monkeypatch):
    """Episodes play in-process: BANDITBENCH_THREADS=1 sizes the pool of
    harness.run_cells at one worker, and one worker is no pool."""
    monkeypatch.setenv("BANDITBENCH_THREADS", "1")
