import pytest

import igq


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts from empty memo tables, as every `igq` run does."""
    igq.clear_caches()
