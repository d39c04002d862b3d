"""Exact per-item checks against closed-form expectations.

None of these reuses the package's search code: the expected images come
from the closed form of the seeded Jordan isomorphism, and the expected
counts from formulas (Harding-Navara: one reconstruction without 4-element
blocks, 2^n for MO(n); Bell numbers for BSub of a Boolean algebra).  Each
check returns ``None`` when the output is right, else the reason it is not.
"""

from __future__ import annotations

from omljordan.jordan import NotInSpan

AMBIGUOUS_CANDIDATES = 4


def agrees_on(F, expected) -> bool:
    """F maps every fragment projection to its closed-form image."""
    try:
        return all(F.apply(p) == image for p, image in expected)
    except NotInSpan:
        return False


def check_unique(output, expected) -> str | None:
    F, claims, uniqueness = output
    if not claims.passed:
        return "the claims report has a FAIL entry"
    if not uniqueness.passed:
        return "the uniqueness report has a FAIL entry"
    if not agrees_on(F, expected):
        return "F differs from g on a fragment projection"
    return None


def check_ambiguous(candidates, expected) -> str | None:
    if candidates is None:
        return "AmbiguousReconstruction was not raised"
    if len(candidates) != AMBIGUOUS_CANDIDATES:
        return f"{len(candidates)} candidates, expected {AMBIGUOUS_CANDIDATES}"
    if not any(agrees_on(F, expected) for F in candidates):
        return "no candidate agrees with g on the fragment projections"
    return None


def check_oml(output, expected) -> str | None:
    candidates, extension, mu, bsub_size, block_count = output
    if len(candidates) != expected["candidates"]:
        return f"{len(candidates)} candidates, expected {expected['candidates']}"
    if not any(dict(k.mapping) == expected["k"] for k in candidates):
        return "the seeded automorphism k is not among the candidates"
    if dict(extension.mapping) != dict(mu.mapping):
        return "the ideal extension differs from the input BSub isomorphism"
    if bsub_size != expected["bsub"]:
        return f"|BSub| = {bsub_size}, expected {expected['bsub']}"
    if block_count != expected["blocks"]:
        return f"{block_count} blocks, expected {expected['blocks']}"
    return None


CHECKS = {"unique": check_unique, "ambiguous": check_ambiguous, "oml": check_oml}


def check(item, output) -> str | None:
    return CHECKS[item.kind](output, item.expected)
