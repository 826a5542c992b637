"""Unit tests run before the acceptance suite, so `pytest -x` stops at a
broken unit in seconds, not after the acceptance suite's training runs."""


def pytest_collection_modifyitems(items):
    # a stable sort: nothing is dropped, and each file keeps its own order
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
