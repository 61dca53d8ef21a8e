"""Suite-wide collection order.

Acceptance criteria 6 and 7 each train 5 seeds at the pinned configuration
and take most of the suite's wall time.  They run after every other test,
so the quick tests report first; what each test checks is unchanged.
"""

_LAST = ("TestCriterion6AblationTrend", "TestCriterion7ScaleTrend")


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: getattr(item.cls, "__name__", "") in _LAST)
