import concurrent.futures

import pytest


@pytest.fixture
def started_pools(monkeypatch) -> list:
    """The ``max_workers`` of each process pool the sweeps start during the test."""
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    # _run_sweeps imports the pool class from here when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return pools
