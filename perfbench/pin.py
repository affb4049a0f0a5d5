"""Regenerate ``data/``: the pinned n=8 family and the answers the
workloads check against.

    PYTHONPATH=src python3 perfbench/pin.py

Run from the repository root.  The n=8 family is enumerated afresh, with
no cache, which makes this take a few minutes.  The paper's facts are
asserted before anything is written, so a program that has lost them
cannot be pinned.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

from deckcensus import census

from workloads import (
    CENSUS_N,
    CLASS_CARD_SIZES,
    ENUMERATE_N,
    FAMILY_FILE,
    INVARIANTS,
    PINS_FILE,
    QUERY_CARD_SIZES,
    census_argv,
    digest_lines,
    run_command,
)

PAPER_PAIR = {"k": 4, "invariant": "connectedness", "keys": ["G?Che?", "G?Cid?"]}
# Published A000088 counts, and the n=8 facts the census must reproduce.
FAMILY_SIZES = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156, ENUMERATE_N: 1044, CENSUS_N: 12346}
CLASS_COUNTS = {4: 11297, 5: 12342, 6: 12346, 7: 12346}
VIOLATIONS = {4: {"degree_list": 6, "connectedness": 4},
              5: {"degree_list": 0, "connectedness": 0}}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list[str]) -> str:
    status, text = run_command(argv)
    if status:
        sys.exit(f"{argv} exited {status}")
    return text


def main() -> None:
    families = {n: census.enumerate_graphs(n) for n in FAMILY_SIZES}
    assert {n: len(fam) for n, fam in families.items()} == FAMILY_SIZES
    fam8 = families.pop(CENSUS_N)

    work = Path(".perfbench-work") / "pin"
    shutil.rmtree(work, ignore_errors=True)
    census.CensusCache(work).store_family(fam8)
    pins = {
        "families": {
            str(n): {"count": len(fam), "sha256": digest_lines(fam.members)}
            for n, fam in families.items()
        },
        "family_n8": {"count": len(fam8), "sha256": digest_lines(fam8.members)},
        "classes": {},
        "verify": {},
        "paper_pair": PAPER_PAIR,
        "shared_decks": {},
    }
    try:
        for k in CLASS_CARD_SIZES:
            tsv = _run(census_argv("classes", k, work))
            groups: dict[str, list[str]] = {}
            for line in tsv.splitlines()[1:]:
                digest, key = line.split("\t")
                groups.setdefault(digest, []).append(key)
            assert len(groups) == CLASS_COUNTS[k], (k, len(groups))
            pins["classes"][str(k)] = {"classes": len(groups), "tsv_sha256": _sha(tsv)}
            if k in QUERY_CARD_SIZES:
                pins["shared_decks"][str(k)] = sorted(
                    sorted(keys) for keys in groups.values() if len(keys) > 1
                )
            pins["verify"][str(k)] = {}
            for invariant in INVARIANTS:
                tsv = _run(census_argv("verify", k, work, "--invariant", invariant))
                rows = [line.split("\t") for line in tsv.splitlines()[1:]]
                if k in VIOLATIONS:
                    assert len(rows) == VIOLATIONS[k][invariant], (k, invariant)
                if (k, invariant) == (PAPER_PAIR["k"], PAPER_PAIR["invariant"]):
                    assert any(row[:2] == PAPER_PAIR["keys"] for row in rows)
                pins["verify"][str(k)][invariant] = {
                    "violations": len(rows), "tsv_sha256": _sha(tsv)
                }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    FAMILY_FILE.write_text("\n".join(fam8.members) + "\n")
    PINS_FILE.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
