"""Size guards: the largest input each exact computation accepts.

The calculator computes its classes exactly or refuses the input, so these
constants are its whole size policy.  Each check site imports its guard
from here and raises TooLarge (GuardError in the parser) above it.  Every
guard has an edge test in tests/test_guards.py: the costliest accepted
input it knows runs within a time budget and guard + 1 is refused at once.
The README's "Size guards" list states the same values.  Times below are
medians of a few cold runs on a 2-vCPU x86-64 host.
"""

# groups.enumerate_partitions: the set partitions of {1..m}; Bell(9) =
# 21,147 of them take 0.45 s.
PARTITION_GUARD = 9

# subgroups.PartitionLattice: the block-torus poset of GL(m) with its incidence
# and Mobius tables, refused above this rank before any enumeration;
# Bell(7) = 877 elements take 0.034-0.063 s (11 cold runs on a shared
# 2-vCPU host).
Q_LATTICE_GUARD = 7

# coefficients.scalar_e, before any work, and e_coeff_gl: E(GL(m), Q) for
# m up to this, the one size policy of eff-table, abelianize/euler and the
# consistency suite.  Cold: ECoeffTable.build(7) 0.010-0.015 s,
# abelianize_bgl(7) with gen_euler 0.017-0.023 s, consistency_residual(7)
# 0.019-0.032 s.  eff-table --max 8 is a refusal pinned by bench goldens.
E_GUARD = 7

# coefficients.e_recursion_residual and f_recursion_residual: the residual
# level.  It binds only on a hand-built table, since a built one stops at
# E_GUARD and level m reads rows up to m + 1; level 8 takes 0.03 s on
# the true E(1..9).
RECURSION_GUARD = 8

# stackcalc.abelianize_model, behind every projection, on a GL(m) model: one
# term per set partition of {1..m} and stratum; the GL(5) point model 0.03 s.
MODEL_GL_GUARD = 5

# stackcalc.abelianize_model on a torus model: linear in the strata (0.02 s
# for the 64 of G_m^6 on A^6), but even a point model computes Upsilon(T) =
# (l - 1)^m, whose cost grows without bound in m: with the guard lifted,
# 0.004 s at m = 256, 0.09 s at 1024 and 3.5 s at 4096.
MODEL_TORUS_GUARD = 6

# subgroups.SubgroupPoset.crosscut_coeff: down-set size for the literal
# subset sum, which walks 2^(size - 1) subsets; 2^19 take 0.25 s.
CROSSCUT_GUARD = 20

# expr.parse: exponents, affine and projective dimensions and torus ranks.
DIM_MAX = 64

# expr.parse: GL ranks.
GL_MAX = 16

# expr.parse: open brackets and parentheses; keeps the recursive descent far
# from the interpreter's stack limit.
NEST_MAX = 100

# expr.eval_class: the degree predicted from the expression before any
# arithmetic.  The slowest accepted inputs known are sums with a factor of
# high multiplicity near the bound: [P^64/Gm^64]^11 + [P^63/Gm^63] (degree
# 767) takes 0.09 s and [pt/Gm^64]^10 + [pt/GL(11)] (761) 0.05 s, nearly
# all of it in big-integer products and cofactor divisions; the
# (GL(16))^3 edge 0.005 s (medians of 7 cold runs).
DEGREE_MAX = 768

# expr.eval_class: the height predicted from the expression before any
# arithmetic, log2 of an L1-norm bound of the unreduced integer numerator
# and denominator.  A reduced coefficient has at most DEGREE_MAX more bits
# (Landau-Mignotte), so every accepted output integer stays far below the
# 4300 digits str() converts.  ((pt+pt)^64)^32 = 2^2048 takes a millisecond;
# the slowest accepted inputs known near both bounds are sums of quotients
# with a wide constant, such as [P^25 / GL(11)]^5 + [((pt+pt)^64)^29 *
# (pt+pt)^3 * Gm^8 / Gm^56] + [P^5 / Gm^17]^3 (height 1975, degree 712) at
# 0.03 s (median of 7 cold runs).
HEIGHT_MAX = 2048
