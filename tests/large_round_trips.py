"""Criterion 6's round trip on the 7-atom dims (4,3) and (6,1) and the
8-atom dims (4,4), for ad-rot and transpose, under the same 60 s
per-instance budget.  The fragments have 1,551 members, and 7,403 on
(4,4), so these instances stay out of Tier-1: pytest does not collect this
file by default.  Run it with

    PYTHONPATH=src python -m pytest -q -s tests/large_round_trips.py
"""

import time

import pytest

from omljordan.jordan import ad_unitary, transpose_map
from omljordan.matalg import FinDimAlgebra

from .conftest import rotation_unitary
from .test_acceptance import _round_trip_case


@pytest.mark.parametrize("label", ["ad-rot", "transpose"])
@pytest.mark.parametrize("dims", [(4, 3), (6, 1), (4, 4)], ids=str)
def test_large_round_trip(dims, label):
    algebra = FinDimAlgebra(dims)
    if label == "ad-rot":
        g = ad_unitary(algebra, rotation_unitary(algebra))
    else:
        g = transpose_map(algebra)
    start = time.perf_counter()
    ok = _round_trip_case(algebra, g)
    elapsed = time.perf_counter() - start
    print(f"{label}@{dims}: {'ok' if ok else 'FAIL'} in {elapsed:.1f}s (< 60s)")
    assert ok
    assert elapsed < 60.0
