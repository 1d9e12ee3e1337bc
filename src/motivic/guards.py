"""Size guards: the largest input each exact computation accepts.

The calculator computes its classes exactly or refuses the input, so these
constants are its whole size policy.  Each check site imports its guard
from here and raises TooLarge (GuardError in the parser) above it.  Every
guard has an edge test in tests/test_guards.py: the costliest accepted
input it knows runs within a time budget and guard + 1 is refused at once.
The README's "Size guards" list states the same values.  Times below are
single cold runs on a 2-vCPU x86-64 host.
"""

# groups.enumerate_partitions: the set partitions of {1..m}; Bell(9) =
# 21,147 of them take 0.5 s.
PARTITION_GUARD = 9

# groups.PartitionLattice: the block-torus poset of GL(m) with its incidence
# and Mobius tables, refused above this rank before any enumeration;
# Bell(7) = 877 elements take 0.2 s.
Q_LATTICE_GUARD = 7

# coefficients.e_coeff_gl and ECoeffTable.build: E(GL(m), Q) for m up to
# this; a cold build(7) takes 0.3 s.  eff-table --max 8 is a documented
# refusal, pinned by tests and bench goldens.
E_GUARD = 7

# coefficients.e_recursion_residual and f_recursion_residual: the residual
# level.  It binds only on a hand-built table, since a built one stops at
# E_GUARD and level m reads rows up to m + 1; level 8 takes 0.9 s on
# the true E(1..9).
RECURSION_GUARD = 8

# coefficients.consistency_residual: m up to this, 0.3 s at m = 6.
CONSISTENCY_GUARD = 6

# stackcalc.abelianize_bgl, behind `abelianize M` and `euler M`: 0.2 s at 6.
ABELIANIZE_GUARD = 6

# stackcalc.upsilon_pi_mu on a GL(m) model: one term per set partition of
# {1..m} and stratum; the GL(5) point model takes 0.6 s.
MODEL_GL_GUARD = 5

# stackcalc.upsilon_pi_mu on a torus model: linear in the strata, so this
# bounds no measured cost (0.1 s for the 64 strata of G_m^6 on A^6).
MODEL_TORUS_GUARD = 6

# subgroups.SubgroupPoset.crosscut_coeff: down-set size for the literal
# subset sum, which walks 2^(size - 1) subsets; 2^19 take 0.35 s.
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
# 767) takes 0.5 s and [pt/Gm^64]^10 + [pt/GL(11)] (761) 0.3 s; the
# (GL(16))^3 edge 0.01 s.
DEGREE_MAX = 768
