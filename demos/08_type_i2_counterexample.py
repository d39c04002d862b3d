"""Why 2x2 summands are excluded: the type-I2 ambiguity demonstration.

For M2 the projection lattice fragment generated by two partitions is an
MO(2): every block has 4 elements, each complementary pair can be flipped
independently, and the order data no longer pins the Jordan map down.  The
pipeline reports exactly 4 candidates.

Run:  python demos/08_type_i2_counterexample.py
"""

from fractions import Fraction
from pathlib import Path

from omljordan.jordan import identity_map
from omljordan.matalg import (
    FinDimAlgebra,
    as_projection,
    coarsening_closure,
    format_element,
    partition_of_unity,
)
from omljordan.pipeline import (
    AmbiguousReconstruction,
    induced_instance,
    run_pipeline,
    write_instance_files,
)

m2 = FinDimAlgebra((2,))
u = m2.from_rows(
    [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
)
diag = partition_of_unity(m2, m2.diagonal_atoms())
rot = partition_of_unity(
    m2, [as_projection(u * p * u.star()) for p in m2.diagonal_atoms()]
)
frag = coarsening_closure(m2, {"diag": diag, "rot": rot})

instance = induced_instance(identity_map(m2), frag)

try:
    run_pipeline(instance)
    print("unexpected: the pipeline produced a unique map")
except AmbiguousReconstruction as exc:
    print(exc)
    print(f"{len(exc.candidates)} candidate Jordan maps on the fragment span:")
    for i, cand in enumerate(exc.candidates):
        images = [
            f"{format_element(dom)} -> {format_element(cand.apply(dom))}"
            for dom, _ in cand.generators
            if dom.trace().re == 1  # show the rank-one projections only
        ]
        print(f"  candidate {i}:")
        for line in images:
            print("    ", line)

# The same instance as files, for the CLI:
#   omljordan pipeline demos/data/type_i2.instance   (exit code 1)
out = Path(__file__).parent / "data"
path = write_instance_files(out, "type_i2", instance)
print("\nwrote", path)
