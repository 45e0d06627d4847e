"""Rewrite the golden files under ``tests/golden/``.

    python tests/golden/regenerate.py

``claims.json`` holds, per claim of the paper, the exact simulated numbers
``tests/test_paper_claims.py`` compares with: one line per claim, keys
sorted, floats at ``PIN_DIGITS`` significant digits.  ``traces.json`` holds,
per specification, the canonical trace's sha256, firing count, rounds and
final simulated time that ``tests/test_golden_traces.py`` compares with.
This script is the files' only writer; tests only read them.  The numbers
are simulated time, counts and digests of them, so two runs write identical
bytes on any host, under any hash seed and on Python 3.10 to 3.13.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    sys.path.insert(0, str(entry))

from tests import test_golden_traces  # noqa: E402
from tests.test_paper_claims import CLAIMS, GOLDEN, pinned  # noqa: E402


def render(pins_by_name: dict) -> str:
    lines = [
        f"  {json.dumps(name)}: {json.dumps(pins, sort_keys=True)}"
        for name, pins in pins_by_name.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    GOLDEN.write_text(render({claim: pinned(run()[1]) for claim, run in CLAIMS.items()}))
    test_golden_traces.GOLDEN.write_text(render(test_golden_traces.trace_pins()))
    for path in (GOLDEN, test_golden_traces.GOLDEN):
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
