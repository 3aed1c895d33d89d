"""Golden lock: the CLI output on a fixed input set, byte for byte.

tests/golden/manifest.json lists each invocation with its expected exit code
and standard output; tests/golden/make_golden.py wrote them.
"""

import json
import os
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
sys.path.insert(0, GOLDEN)

from make_golden import run  # noqa: E402

with open(os.path.join(GOLDEN, "manifest.json")) as _handle:
    MANIFEST = json.load(_handle)


@pytest.mark.parametrize("entry", MANIFEST,
                         ids=[os.path.basename(e["stdout"])[:-4] for e in MANIFEST])
def test_golden_output(entry):
    code, text = run(entry["argv"])
    with open(os.path.join(GOLDEN, entry["stdout"])) as handle:
        expected = handle.read()
    assert text == expected
    assert code == entry["exit"]
