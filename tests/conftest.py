import pytest

from banditbench import data, envs
from banditbench.data import ingest_csv
from helpers import assert_same_dataset, reference_ingest_csv


@pytest.fixture
def in_process(monkeypatch):
    """Episodes play in-process: BANDITBENCH_THREADS=1 sizes the pool of
    harness.run_cells at one worker, and one worker is no pool."""
    monkeypatch.setenv("BANDITBENCH_THREADS", "1")


@pytest.fixture(autouse=True)
def csv_matches_reference(monkeypatch):
    """Every CSV that ingest_csv accepts in a test is read by the row-wise
    reference reader too, which must accept it and give the same dataset.
    A rejection is ingest_csv's alone."""
    def checked(path, label_column, schema):
        dataset = ingest_csv(path, label_column, schema)
        try:
            want = reference_ingest_csv(path, label_column, schema)
        except ValueError as err:
            pytest.fail(f"ingest_csv accepted {path}, which the reference "
                        f"rejects: {err}")
        assert_same_dataset(dataset, want)
        return dataset

    monkeypatch.setattr(data, "ingest_csv", checked)
    monkeypatch.setattr(envs, "ingest_csv", checked)
