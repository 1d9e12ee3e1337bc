"""Hand-stratified quotient models used by the check suites and tests.

Each model records the exact diagonal-torus stabilizer decomposition of a
concrete variety, worked out by hand; the expected projected classes come
from an independent description of the quotient (its presentation as a
point modulo an abelian group, or the plain class ratio).
"""

from __future__ import annotations

from .groups import (
    GeneralLinear,
    SetPartition,
    TorusSubgroup,
    partition_to_subgroup,
    torus,
    upsilon_group,
)
from .ratfield import ELL
from .stackcalc import StratifiedModel

__all__ = [
    "gl2_flag_model",
    "gl3_flag_model",
    "gl3_free_model",
    "torus_weighted_line_model",
    "torus_plane_model",
]


def gl2_flag_model():
    """GL(2) acting on GL(2)/T, T the diagonal torus.

    Points are ordered pairs of distinct lines in the plane.  The torus
    fixes the two coordinate-axis pairs; every other pair has exactly the
    scalars as stabilizer.  The quotient is a point with T automorphisms.
    """
    full = TorusSubgroup.full_torus(2)
    scalars = partition_to_subgroup(SetPartition.one_block(2))
    return StratifiedModel(
        GeneralLinear(2),
        (
            (full, 2),
            (scalars, ELL**2 + ELL - 2),
        ),
    )


def gl3_flag_model():
    """GL(3) acting on GL(3)/T: ordered triples of independent lines.

    Exact stabilizers: the six coordinate configurations keep the whole
    torus; configurations with one coordinate axis and two distinct lines
    in the complementary coordinate plane (not both axes) keep the block
    torus of that plane, class 3(l^2 + l - 2) each; the rest keep only the
    scalars.  Total class: l^3 (l + 1)(l^2 + l + 1).
    """
    full = TorusSubgroup.full_torus(3)
    scalars = partition_to_subgroup(SetPartition.one_block(3))
    pair = 3 * (ELL**2 + ELL - 2)
    total = ELL**6 + 2 * ELL**5 + 2 * ELL**4 + ELL**3
    rest = total - 6 - 3 * pair
    return StratifiedModel(
        GeneralLinear(3),
        (
            (full, 6),
            (partition_to_subgroup(SetPartition(3, ((1, 2), (3,)))), pair),
            (partition_to_subgroup(SetPartition(3, ((1, 3), (2,)))), pair),
            (partition_to_subgroup(SetPartition(3, ((2, 3), (1,)))), pair),
            (scalars, rest),
        ),
    )


def gl3_free_model():
    """GL(3) acting on itself by left translation: a free action.

    Every point has trivial diagonal stabilizer and the quotient is a
    plain point.
    """
    return StratifiedModel(
        GeneralLinear(3),
        ((TorusSubgroup.trivial(3), upsilon_group(GeneralLinear(3))),),
    )


def torus_weighted_line_model():
    """G_m acting on the affine line through the square character t^2 x.

    The origin keeps the whole torus; every other point keeps exactly the
    order-two subgroup.
    """
    return StratifiedModel(
        torus(1),
        (
            (TorusSubgroup.full_torus(1), 1),
            (TorusSubgroup(1, ((2,),)), ELL - 1),
        ),
    )


def torus_plane_model():
    """G_m^2 acting coordinatewise on the affine plane.

    Four strata: the origin (full torus), the two punctured axes (one
    coordinate subtorus each) and the dense open orbit (trivial
    stabilizer).
    """
    return StratifiedModel(
        torus(2),
        (
            (TorusSubgroup.full_torus(2), 1),
            (TorusSubgroup(2, ((1, 0),)), ELL - 1),
            (TorusSubgroup(2, ((0, 1),)), ELL - 1),
            (TorusSubgroup.trivial(2), (ELL - 1) ** 2),
        ),
    )
