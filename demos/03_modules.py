"""The module engine: realize tableaux as invariant subspaces over a
prime field, read tableaux back off embeddings, and use hom dimensions
and invariant intersections as computable order tests."""

from lrlab.nilmod import (Embedding, canonical_module, direct_sum, hom_dim,
                          invariant_intersection_dim, jordan_type, mu_entries,
                          picket_embedding, picket_dominance_test,
                          realize_picket, realize_pole, realize_tableau,
                          tableau_of_embedding)
from lrlab.poles import Pole
from lrlab.tableaux import Shape, dominance_leq, enumerate_tableaux, reading_word

p = 2

# A module is a nilpotent matrix; its Jordan type is a partition.
B = canonical_module((4, 3, 1), p)
print("type of the canonical module:", jordan_type(B))

# Realize the pole with layers (0,2,3,6): the subspace generator is
# g1 + T g4 + T^3 g7, and the quotients B / T^i A walk the chain.
E = realize_pole(Pole((0, 2, 3, 6), (7, 4, 1)), p)
print("pole chain over F2:", [list(c) for c in E.chain()])
print("entry counts mu(4,7), mu(2,3), mu(2,4):",
      mu_entries(E, 4, 7), mu_entries(E, 2, 3), mu_entries(E, 2, 4))

# Every horizontal-strip tableau realizes as a graded sum of poles and
# empty pickets, and the tableau of the result returns the input.
shape = Shape((2, 1), (5, 2, 1), (4, 1))
for t in enumerate_tableaux(shape):
    R = realize_tableau(t, p)
    assert tableau_of_embedding(R) == t
    print("realized", reading_word(t), "on dim", R.B.dim, "grading",
          R.B.grading)

# Hom dimensions against pickets recover the partial sums of the chain;
# comparing whole picket-hom profiles decides dominance of the tableaux.
five = Shape((3, 1), (4, 3, 2, 1), (3, 2, 1))
ts = enumerate_tableaux(five)
M12 = direct_sum(realize_pole(Pole((0, 2, 3), (4, 1)), p),
                 realize_picket(3, 0, p), realize_picket(2, 1, p))
M3 = direct_sum(realize_picket(4, 1, p), realize_picket(3, 3, p),
                realize_picket(2, 0, p), realize_picket(1, 0, p))
t12, t3 = tableau_of_embedding(M12), tableau_of_embedding(M3)
print("\nM12 word:", reading_word(t12), " M3 word:", reading_word(t3))
print("picket test M3 <= M12:", picket_dominance_test(M3, M12),
      "(dominance:", dominance_leq(t3, t12), ")")
for i in range(3):
    row = [hom_dim(M12, picket_embedding(i, ell, p)) for ell in range(1, 5)]
    print(f"hom(M12, pickets at i={i}):", row)

# Invariant intersections separate embeddings beyond dominance: these two
# have comparable tableaux but different intersection dimensions, so
# neither orbit can lie in the closure of the other in that direction.
print("dim(A ∩ T^2 B ∩ soc) for M12, M3:",
      invariant_intersection_dim(M12, 2, 1),
      invariant_intersection_dim(M3, 2, 1))
