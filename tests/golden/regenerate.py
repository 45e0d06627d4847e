"""Rewrite the golden files under ``tests/golden/``.

    python tests/golden/regenerate.py

``claims.json`` holds, per claim of the paper, the exact simulated numbers
``tests/test_paper_claims.py`` compares with: one line per claim, keys
sorted, floats at ``PIN_DIGITS`` significant digits.  This script is the
file's only writer; tests only read it.  The numbers are simulated time and
counts, so two runs write identical bytes on any host, under any hash seed
and on Python 3.10 to 3.13.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    sys.path.insert(0, str(entry))

from tests.test_paper_claims import CLAIMS, GOLDEN, pinned  # noqa: E402


def render(pins_by_claim: dict) -> str:
    lines = [
        f"  {json.dumps(claim)}: {json.dumps(pins, sort_keys=True)}"
        for claim, pins in pins_by_claim.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    GOLDEN.write_text(render({claim: pinned(run()[1]) for claim, run in CLAIMS.items()}))
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
