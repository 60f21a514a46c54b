"""CLI output compared byte for byte with recorded files under ``data/cli``.

Each case is one command line; its file holds exactly what the command
printed on stdout.  The commands print nothing on stderr and exit 0.  After a
deliberate change of output, rewrite the files with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from momentkoszul.cli import main

DATA = Path(__file__).parent / "data" / "cli"

CASES = {"verify-all": ["verify", "--suite", "all"]}
for _kind in ("gl", "sl", "so", "sp"):
    for _n in range(1, 5):
        for _fmt in ("text", "json"):
            CASES[f"koszul-{_kind}{_n}-{_fmt}"] = [
                "koszul", "--family", _kind, "--n", str(_n), "--format", _fmt]
for _kind, _n in (("gl", 2), ("sl", 2), ("so", 3), ("sp", 1)):
    for _fmt in ("text", "json", "csv"):
        CASES[f"betti-{_kind}{_n}-both-{_fmt}"] = [
            "betti", "--family", _kind, "--n", str(_n), "--source", "both",
            "--format", _fmt]


def _path(name: str) -> Path:
    return DATA / f"{name}.txt"


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_the_recorded_file(capsys, name):
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == _path(name).read_text(), name


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(argv) != 0:
                sys.exit(f"{name}: nonzero exit")
        _path(name).write_text(out.getvalue())
