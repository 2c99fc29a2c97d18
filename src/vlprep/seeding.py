"""Seed derivation.

Every random stage of the pipeline draws from a child seed derived from the
single run seed plus a stage label, so one seed reproduces the whole run and
stages stay independent of each other's draw counts.
"""

from __future__ import annotations

# Name and version of the permutation generator recorded in mix reports.
# Python's random module: MT19937 state, Fisher-Yates shuffle.
GENERATOR_NAME = "mt19937-fisher-yates/1"


def derive_seed(root: int, *labels: str) -> int:
    """Derive a 64-bit child seed from ``root`` and one or more stage labels."""
    import hashlib  # only mix and --shuffle-options derive a seed; loading _hashlib costs a start about 4 ms

    material = ":".join([str(root), *labels]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
