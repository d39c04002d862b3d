"""Finite-scale reconstruction of Jordan structure from abelian-subalgebra posets.

The package has three layers:

* order theory: finite posets, order-isomorphisms, ideals (`poset`), and
  finite orthomodular lattices with their Boolean subalgebra posets (`oml`);
* reconstruction: recovering lattice isomorphisms from subalgebra-poset
  isomorphisms with uniqueness certification (`reconstruct`);
* exact operator algebra: finite-dimensional *-algebras over Gaussian
  rationals (`matalg`), Jordan maps and spectral extension (`jordan`), and
  the end-to-end theorem pipeline (`pipeline`).

`cli` exposes the command-line front end.  It is not imported here, so
that `python -m omljordan.cli` runs it fresh.
"""

from . import combinat, jordan, linalg, matalg, oml, pipeline, poset, reconstruct

__all__ = [
    "cli",
    "combinat",
    "jordan",
    "linalg",
    "matalg",
    "oml",
    "pipeline",
    "poset",
    "reconstruct",
]
