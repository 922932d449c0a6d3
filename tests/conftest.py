"""A file a tier-1 test leaves open fails that test.

The ResourceWarning for an unclosed file is raised while the file object
is collected, where Python can only report it as an unraisable
exception; pyproject's filterwarnings turns that report into an error.
"""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
