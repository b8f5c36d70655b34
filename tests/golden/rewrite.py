"""Rewrite `digests.json`, the identity gate's digests of the CLI's outputs.

    PYTHONPATH=src python tests/golden/rewrite.py

Run it from the repository root after a change of behaviour, and report
each digest that moved. It runs the same configurations as
`tests/test_golden.py`, in a temporary directory.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import DIGESTS, cli_output_digests  # noqa: E402


def main() -> None:
    start = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            digests = cli_output_digests(Path(tmp))
        finally:
            os.chdir(start)
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    moved = sorted(k for k in digests.keys() | old.keys() if digests.get(k) != old.get(k))
    print(f"wrote {len(digests)} digests to {DIGESTS}; {len(moved)} moved")
    for name in moved:
        print(f"  {name}")


if __name__ == "__main__":
    main()
