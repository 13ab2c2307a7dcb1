import pytest
from hypothesis import settings

from mienasr.lexicon import default_g2p_table
from mienasr.orthography import InventoryConfig, default_inventory

# no per-example time limit, since timing varies with machine load, and a
# failing example is printed with the blob that replays it
settings.register_profile("mienasr", deadline=None, print_blob=True)
settings.load_profile("mienasr")


@pytest.fixture(scope="session")
def inv():
    return default_inventory()


@pytest.fixture(scope="session")
def g2p_table():
    return default_g2p_table()


@pytest.fixture(scope="session")
def tiny_inv():
    """Reduced inventory over the letters {a, b, g, n, q} for oracle tests."""
    return InventoryConfig(
        initials=("b", "n", "nq"),
        finals=("a", "aa", "ang", "aang"),
        medials=frozenset(),
        mains=frozenset({"a", "aa"}),
        codas=frozenset({"ng"}),
        tone_letters=("h", "v", "z", "x", "c"),
    )
