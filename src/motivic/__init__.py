"""Exact motivic-class calculator for quotient stacks over a point.

Everything is computed in the field of univariate rational functions over
Q, with the distinguished variable l standing for the class of the affine
line.  The modules cover: exact field arithmetic (ratfield), torus
subgroups as integer character lattices, group descriptors and the block
tori of GL(m) (groups), posets of torus subgroups with their Mobius
machinery, the block-torus lattices of GL(m) among them (subgroups, the
one module that imports numpy), the E/F coefficient calculus
(coefficients), the abelianized class ring and its projection operators
(stackcalc), and the expression language plus command line (expr, cli).

Importing the package does not import subgroups: its four poset names
resolve through the module __getattr__, so numpy loads only when a poset
is first needed.
"""

from . import coefficients, errors, groups, ratfield, stackcalc
from .errors import *
from .ratfield import *
from .groups import *
from .coefficients import *
from .stackcalc import *
from .expr import eval_class, parse, render

__version__ = "0.1.0"

_POSETS = ("SubgroupPoset", "poset_close", "PartitionLattice", "q_lattice_gl")

__all__ = [
    *errors.__all__,
    *ratfield.__all__,
    *groups.__all__,
    *coefficients.__all__,
    *stackcalc.__all__,
    "eval_class",
    "parse",
    "render",
    *_POSETS,
]


def __getattr__(name):
    if name in _POSETS:
        from . import subgroups

        return getattr(subgroups, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
