"""Pinned solution bytes: one committed instance and solution per kind.

Each `tests/golden/<name>.instance.json` has a `<name>.solution.json` next to
it, written by `troplp solve`.  Solving the instance again must reproduce the
solution byte for byte, and `troplp check` must accept the committed file.
The two failure statuses have one file each: `infeasible-lambda-positive`
(a tslp instance) and `divergent-star`.

After a deliberate change of the solution format, regenerate every solution
from the repository root with

    for f in tests/golden/*.instance.json; do PYTHONPATH=src python -m troplp.cli solve --input "$f" --output "${f%.instance.json}.solution.json"; done
"""

import json
from pathlib import Path

import pytest

from troplp.cli import main
from troplp.io import EXIT_INFEASIBLE, EXIT_OK, KINDS, parse_instance

GOLDEN = Path(__file__).parent / "golden"
FAILURES = ("infeasible-lambda-positive", "divergent-star")
NAMES = KINDS + FAILURES


def test_one_file_pair_per_name():
    stems = sorted(p.name[:-len(".instance.json")] for p in GOLDEN.glob("*.instance.json"))
    assert stems == sorted(NAMES)
    assert all((GOLDEN / f"{name}.solution.json").is_file() for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_solve_reproduces_golden_bytes(name, tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = main(["solve", "--input", str(GOLDEN / f"{name}.instance.json"),
                 "--output", str(out)])
    assert code == (EXIT_INFEASIBLE if name in FAILURES else EXIT_OK)
    assert out.read_bytes() == (GOLDEN / f"{name}.solution.json").read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_canonical_spelling_reproduces_golden_bytes(name, tmp_path, capsys):
    """The committed instances spell A with integers, so solve formats it
    from the floats; spelled as floats, A's rows are copied from the input
    text instead, and the bytes must not change."""
    obj = json.loads((GOLDEN / f"{name}.instance.json").read_text())
    obj["A"] = [[v if v == "-inf" else float(v) for v in row] for row in obj["A"]]
    text = json.dumps(obj)
    assert parse_instance(text).a_rows is not None
    path, out = tmp_path / "instance.json", tmp_path / "solution.json"
    path.write_text(text)
    main(["solve", "--input", str(path), "--output", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{name}.solution.json").read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_check_accepts_golden_solution(name, capsys):
    assert main(["check", "--input", str(GOLDEN / f"{name}.solution.json")]) == EXIT_OK


@pytest.mark.parametrize("indent", [2, None])
@pytest.mark.parametrize("name", NAMES)
def test_check_accepts_any_layout(name, indent, tmp_path, capsys):
    """Files in an earlier layout (indent=2, every number on its own line) or
    on a single line still check."""
    doc = json.loads((GOLDEN / f"{name}.solution.json").read_text())
    path = tmp_path / "relaid.json"
    path.write_text(json.dumps(doc, indent=indent))
    assert main(["check", "--input", str(path)]) == EXIT_OK
