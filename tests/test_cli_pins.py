"""The CLI's outputs pinned byte for byte.

Each argv of the table runs through `georobust.cli.main` in an empty
directory. Its exit code and the SHA-256 of its stdout plus every file it
wrote must match `cli_pins.json`. stderr holds prose and is not pinned.

The bits may depend on numpy and its BLAS, so the pins record the numpy
version and `platform.machine()` they were made on, and the test skips,
naming both, on any other. To regenerate the pins after an intended change
of output:

    PYTHONPATH=src python tests/test_cli_pins.py

and name each changed output, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from georobust import FAMILIES, NAMED_GATES
from georobust.cli import main

PINS = Path(__file__).with_name("cli_pins.json")
GRID_GAMMAS = "0,1e-5,1e-4,1e-3,1e-2"


def cases() -> dict[str, list[str]]:
    """label -> argv: build and a 41-beta sweep-beta for every (family, gate)
    pair, check-src per gate, one all-family grid with its delta CSV, and
    report-table1."""
    pairs = [(f, g) for f in FAMILIES for g in sorted(NAMED_GATES)]
    table = {}
    for fam, gate in pairs:
        table[f"build {fam} {gate}"] = ["build", "--family", fam, "--gate", gate]
    for fam, gate in pairs:
        table[f"sweep-beta {fam} {gate}"] = [
            "sweep-beta", "--families", fam, "--gate", gate, "--beta-points", "41"]
    for gate in sorted(NAMED_GATES):
        table[f"check-src {gate}"] = ["check-src", "--gate", gate]
    table["sweep-grid all not"] = [
        "sweep-grid", "--beta-points", "41", "--gamma", GRID_GAMMAS, "--out", "grid.csv"]
    table["report-table1"] = ["report-table1"]
    return table


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, SHA-256 of stdout and of each written file, by name)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        digest = hashlib.sha256(out.getvalue().encode())
        for path in sorted(Path(tmp).iterdir()):
            digest.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return code, digest.hexdigest()


def pin(argv: list[str]) -> dict:
    code, sha = run(argv)
    return {"argv": argv, "exit": code, "sha256": sha}


def platform_record() -> dict[str, str]:
    return {"numpy": np.__version__, "machine": platform.machine()}


def test_cli_outputs_match_pins():
    pinned = json.loads(PINS.read_text())
    here = platform_record()
    made_on = {k: pinned[k] for k in here}
    if made_on != here:
        pytest.skip(f"CLI pins were made on {made_on}, this is {here}; regenerate to compare")
    table = cases()
    assert sorted(table) == sorted(pinned["pins"]), "the argv table and the pins disagree"
    wrong = []
    for label, argv in table.items():
        got = pin(argv)
        if got != pinned["pins"][label]:
            wrong.append(f"{label}: {got} != {pinned['pins'][label]}")
    assert not wrong, "\n".join(wrong)


if __name__ == "__main__":
    pins = {label: pin(argv) for label, argv in cases().items()}
    PINS.write_text(json.dumps({**platform_record(), "pins": pins}, indent=1) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}", file=sys.stderr)
