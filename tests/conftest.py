"""Session checks of the test suite.

pyproject.toml's ``pythonpath = ["src"]`` puts this checkout's ``src`` ahead
of ``PYTHONPATH``.  A session whose ``PYTHONPATH`` points at another copy of
the package (a modified copy under test, say) would test this checkout's
code instead, and unseen, so such a session stops before it collects.
"""

import os

import pytest


def pytest_configure(config):
    import dcee

    imported = os.path.realpath(dcee.__file__)
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        other = os.path.join(entry, "dcee", "__init__.py")
        if os.path.isfile(other) and os.path.realpath(other) != imported:
            raise pytest.UsageError(
                f"PYTHONPATH holds {os.path.abspath(other)}, but the tests import "
                f"{imported}, which pyproject.toml's pythonpath puts first; run pytest "
                "from the root of the tree under test")
