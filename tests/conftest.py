import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CYCVIN_EXTENDED"):
        return
    skip = pytest.mark.skip(reason="set CYCVIN_EXTENDED=1 to run the slow Table 2 tail rows")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)
