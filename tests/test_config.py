"""The project configuration.  In pytest, warnings are errors, except known
third-party ones, and an unregistered marker or a misspelt ini key fails the
run on its own.  pyproject.toml's version is the one solutions carry."""

import importlib
import re
import subprocess
import sys

import pytest

import util
from troplp import __version__
from troplp.io import parse_instance, solve_to_payload

PYPROJECT = util.TESTS.parent / "pyproject.toml"


def test_falsified_property_report_imports_cleanly():
    # a falsified hypothesis property makes its plugin import this module to
    # suggest a patch; a warning raised there must not abort the session
    importlib.import_module("hypothesis.extra._patching")


@pytest.mark.parametrize("ini_line,test_text,culprit", [
    ("", "import pytest\n\n@pytest.mark.slwo\ndef test_one():\n    pass\n", "slwo"),
    ("xfail_strct = true\n", "def test_one():\n    pass\n", "xfail_strct"),
], ids=["unregistered-marker", "misspelt-ini-key"])
def test_strictness_does_not_rest_on_warnings(ini_line, test_text, culprit, tmp_path):
    # with warnings off (-p no:warnings) the strict settings alone must fail
    # the run; the repo's own ini options, plus ini_line, in a scratch project
    section = "[tool.pytest.ini_options]\n"
    text = PYPROJECT.read_text(encoding="utf-8")
    assert section in text
    (tmp_path / "pyproject.toml").write_text(text.replace(section, section + ini_line),
                                             encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_one.py").write_text(test_text, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:warnings",
         "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode != 0, output
    assert culprit in output


def test_package_version_is_the_one_solutions_carry():
    # a regex, not tomllib, which needs Python 3.11 where 3.10 is supported
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)",
                        PYPROJECT.read_text(encoding="utf-8"), re.M | re.S)
    version = re.search(r'^version = "([^"]+)"$', project.group(1), re.M)
    payload, _ = solve_to_payload(parse_instance('{"problem": "mcm", "A": [[0]]}'), 1e-9)
    assert version.group(1) == __version__ == payload["version"]
