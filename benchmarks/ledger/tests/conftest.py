"""Path set-up for the ledger's own tests (run by path:
``python -m pytest benchmarks/ledger/tests``; tier-1 ``testpaths`` does
not include them)."""

import sys
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parents[2]
for entry in (_BENCHMARKS.parent / "src", _BENCHMARKS):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
