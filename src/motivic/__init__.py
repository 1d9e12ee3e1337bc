"""Exact motivic-class calculator for quotient stacks over a point.

Everything is computed in the field of univariate rational functions over
Q, with the distinguished variable l standing for the class of the affine
line.  The subpackages cover: exact field arithmetic (ratfield), torus
subgroups as integer character lattices plus Mobius machinery (subgroups),
group descriptors and the block-torus lattices of GL(m) (groups), the E/F
coefficient calculus (coefficients), the abelianized class ring and its
projection operators (stackcalc), and the expression language plus command
line (expr, cli).
"""

from .errors import (
    AmbientMismatch,
    DivisionByZero,
    ExprSyntaxError,
    GuardError,
    InternalInvariant,
    MotivicError,
    NotAbelian,
    NotComparable,
    NotInPoset,
    PoleAtOne,
    TooLarge,
)
from .ratfield import (
    ELL,
    ONE,
    ZERO,
    Polynomial,
    RatFunc,
    canonical_str,
    in_lambda_circ,
    pi_eval,
    specialize,
)
from .subgroups import (
    AbelianGroupClass,
    SubgroupPoset,
    TorusSubgroup,
    contains,
    crosscut_coeff,
    hnf,
    intersect,
    iso_class,
    mobius,
    poset_close,
    snf_divisors,
)
from .groups import (
    GeneralLinear,
    GroupDesc,
    Product,
    SetPartition,
    Torus,
    bell_number,
    centralizer_gl,
    enumerate_partitions,
    group_rank,
    partition_to_subgroup,
    product,
    q_lattice_gl,
    torus,
    upsilon_group,
    weyl_index_gl,
)
from .coefficients import (
    ECoeffTable,
    consistency_residual,
    e_coeff_gl,
    e_recursion_residual,
    f_coeff_gl,
    f_recursion_residual,
    m_big_coeff,
)
from .stackcalc import (
    LambdaBarElem,
    OmegaBarElem,
    StratifiedModel,
    WeightFn,
    abelianize_bgl,
    gen_euler,
    lbar_mul,
    model_total_upsilon,
    p_lattice,
    pi_mu_lbar,
    pi_re_n,
    upsilon_pi_mu,
    weight_mul,
)
from .expr import eval_class, parse, render

__version__ = "0.1.0"
