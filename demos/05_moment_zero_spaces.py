"""Zero spaces of the moment functionals, two ways.

For a base polynomial P, the polynomials Q killing every moment
int P^i Q' form a vector space.  It is computed both as an exact moment
kernel, returned only when the composition span certifies it (otherwise
a larger moment count is asked for), and as the span of compositions
with P's factor classes; the two agree, and for the degree-6 Chebyshev
base the dimension has a closed form.

Run:  python demos/05_moment_zero_spaces.py
"""

from abellab import (
    Interval,
    Poly,
    chebyshev,
    chebyshev_zero_space_dim,
    composition_sum_space,
    moment,
    rational,
    sqrtD,
    zero_space,
    zero_space_matches_compositions,
)

half_r3 = sqrtD(3) * rational(1, 2)
iv3 = Interval(-half_r3, half_r3)
P6 = chebyshev(6) + Poly.one()

print("== zero space of 1 + T6 at degree 6 ==")
basis = zero_space(P6, iv3, 6, 12)
for f in basis:
    print("  ", f)
print("dimension:", len(basis))

print()
print("== dimensions vs the closed form ==")
print("d:        ", list(range(6, 13)))
print("kernel:   ", [len(zero_space(P6, iv3, d, 2 * d)) for d in range(6, 13)])
print("formula:  ", [chebyshev_zero_space_dim(d) for d in range(6, 13)])
print("(the mismatches at d = 7, 8, 9, 11 are the documented boundary")
print(" off-by-one: [d/2]+[d/3]-[d/6] matches the kernel at every degree)")

print()
print("== kernel equals the composition span ==")
print("degree-6 base, d = 10:", zero_space_matches_compositions(P6, iv3, 10, 20))
P10 = Poly([0, 0, 1]) * (Poly([-1, 0, 0, 0, 1]) ** 2)
iv = Interval(-1, 1)
print("degree-10 base, d = 10:", zero_space_matches_compositions(P10, iv, 10, 20))

print()
print("== every span member kills the moments ==")
member = composition_sum_space(P6, iv3, 9)[2]
print("member:", member)
print("moments 0..8:", [str(moment(P6, member, iv3, i)) for i in range(9)])
