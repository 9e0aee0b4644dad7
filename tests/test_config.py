"""The pytest configuration: warnings are errors, except known third-party ones."""

import importlib


def test_falsified_property_report_imports_cleanly():
    # a falsified hypothesis property makes its plugin import this module to
    # suggest a patch; a warning raised there must not abort the session
    importlib.import_module("hypothesis.extra._patching")
