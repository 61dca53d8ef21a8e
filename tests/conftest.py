"""Suite-wide collection order and the ``trend`` marker.

Acceptance criteria 6 and 7 each train 5 seeds at the pinned configuration
and take most of the suite's wall time.  They run after every other test,
so the quick tests report first, and carry the ``trend`` marker, so
``pytest -m "not trend"`` runs everything else; what each test checks is
unchanged.
"""

import pytest

_LAST = ("TestCriterion6AblationTrend", "TestCriterion7ScaleTrend")


def pytest_collection_modifyitems(items):
    for item in items:
        if getattr(item.cls, "__name__", "") in _LAST:
            item.add_marker(pytest.mark.trend)
    items.sort(key=lambda item: getattr(item.cls, "__name__", "") in _LAST)
