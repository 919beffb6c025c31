"""Exact integer homology shadows of the twist relations.

In the capped-torus embedding every boundary curve is null-homologous, the
three disjoint curves share one class, and each relation becomes an exact
matrix identity; the interesting part lives in a 2x2 block.
"""

from twistcert import (
    SymplecticSpace,
    evaluate_rep,
    genus3_assignment,
    reflection_matrix_fig2,
    transvection,
    word,
)

asg = genus3_assignment()

print("twist along the one-point-intersecting pair, restricted to rank two:")
space = SymplecticSpace(1)
t_a = transvection(space, (1, 0))
t_b = transvection(space, (0, 1))
print("T_a =")
print(t_a)
print("T_b =")
print(t_b)

m = t_b * t_a ** 3
trace = sum(m.rows[i][i] for i in range(m.dim))
print("\nM = T_b T_a^3  (trace %d, det %d)" % (trace, m.det()))
print(m)
print("M^3 =")
print(m ** 3)

for text in ("b a1 b a1^-1 b^-1 a1^-1",            # braid relation
             "( b a1 a2 a3 )^3 ( c1 c2 c3 )^-1",   # star relation
             "r a1 r a1"):                          # reflection inverts twists
    rep = evaluate_rep(word(text), asg)
    print(f"\nrep({text}) identity: {rep.is_identity()}")

print("\nreflection determinants in the orientable-complement embedding:")
print(" k  genus  det")
for k in range(0, 9):
    print(f"{k:>2}  {2 * (k + 3):>5}  {reflection_matrix_fig2(k).det():+d}")
