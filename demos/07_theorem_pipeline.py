"""The full reconstruction pipeline: from an order-isomorphism of abelian
fragments to the unique Jordan map inducing it.

The fragment is all diagonal partitions of C^3 plus one rotated maximal
partition, closed under coarsening; the target map g = Ad(U) conjugation by
a rational rotation.  The pipeline is handed only the order data of the
induced fragment map and must recover g on the fragment span.

Run:  python demos/07_theorem_pipeline.py
"""

from fractions import Fraction

from omljordan.jordan import ad_unitary
from omljordan.matalg import (
    AlgElement,
    FinDimAlgebra,
    as_projection,
    coarsening_closure,
    format_element,
    partition_of_unity,
)
from omljordan.pipeline import (
    induced_instance,
    run_pipeline,
    verify_claims,
    verify_uniqueness,
)

m3 = FinDimAlgebra((3,))
u = m3.from_rows(
    [
        [Fraction(3, 5), Fraction(4, 5), 0],
        [Fraction(-4, 5), Fraction(3, 5), 0],
        [0, 0, 1],
    ]
)

diag = partition_of_unity(m3, m3.diagonal_atoms())
rot = partition_of_unity(
    m3, [as_projection(u * p * u.star()) for p in m3.diagonal_atoms()]
)
fragment_m = coarsening_closure(m3, {"diag": diag, "rot": rot})
print("fragment members:", fragment_m.names())

g = ad_unitary(m3, u)
instance = induced_instance(g, fragment_m)  # only order data goes in

run = instance.run
for step in run.steps:
    print("step:", step)

F = run_pipeline(instance)
recovered = all(
    F.apply(AlgElement(p.algebra, p.blocks))
    == g.apply(AlgElement(p.algebra, p.blocks))
    for p in fragment_m.projections()
)
print("\nF equals Ad(U) on every fragment projection:", recovered)
sample = diag.atoms[0].scale(2) + diag.atoms[1].scale(5)
print("F(2p1 + 5p2) =", format_element(F.apply(AlgElement(m3, sample.blocks))))

print("\nclaims report:")
print(verify_claims(instance, F).render())
print("\nuniqueness report:")
print(verify_uniqueness(instance, F).render())
