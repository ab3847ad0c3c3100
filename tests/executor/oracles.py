"""Former bodies the executor layer is held to, verbatim.

``case_key`` is the key formula from before ``Case`` carried its own
``key``: every cache store written since schema 2 is addressed by it, so
``Case.key`` must equal it for every case a user can build or their
``.repro-cache`` goes cold.
"""

from __future__ import annotations

import hashlib
import json

from repro.exec.cases import CACHE_SCHEMA_VERSION, Case


def case_key(case: Case) -> str:
    payload = json.dumps(
        {
            "version": CACHE_SCHEMA_VERSION,
            "experiment": case.experiment,
            "params": case.params,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
