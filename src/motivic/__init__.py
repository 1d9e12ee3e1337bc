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

from .errors import *
from .ratfield import *
from .subgroups import *
from .groups import *
from .coefficients import *
from .stackcalc import *
from .expr import eval_class, parse, render

__version__ = "0.1.0"
