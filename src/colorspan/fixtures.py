"""Small hand-built point sets on which the objectives visibly diverge.

Both fixtures use four colors over six points named a..f (indexes 0..5)
and take a perturbation ``eps`` in (0, 0.5).  They are shipped serialized
as ``fixtures/figure1.points`` and ``fixtures/figure2.points`` with
``eps = 0.1`` and certified by the exhaustive oracle in the test suite
before anything else relies on them.

Fixture one lives on two side-by-side unit squares:

* a = (1, 0) color 0, b = (1, 1) color 1 sit on the shared square edge;
* c = (eps, 0) and d = (0, 1) share color 2;
* e = (2, 0) and f = (2 - eps, 1) share color 3.

Its optima: minsum picks (a, c) and (b, f) for a total of 2 - 2*eps; the
largest-total matching picks (a, b) and (d, e) for 1 + sqrt(5); maxmin
picks (a, d) and (b, e), both of length sqrt(2).

Fixture two stacks three horizontal point rows symmetric about the y axis:

* a, b sit on the x axis, 1 - eps apart, colors 0 and 1;
* c, d sit 2 + eps apart at height chosen so a-c and b-d are 2 + eps,
  colors 2 and 3;
* e, f sit directly above c and d at vertical offset 1.5 + eps, with the
  colors of a and b.

Its optima: minsum picks (a, b) and (c, d) for a total of exactly 3;
minmax picks (c, e) and (d, f), both of length 1.5 + eps.
"""

from __future__ import annotations

import math

from .errors import InvalidInstanceError
from .geometry import ColoredPointSet

DEFAULT_EPS = 0.1


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise InvalidInstanceError(f"eps must lie in (0, 0.5), got {eps}")
    return eps


def two_squares_point_set(eps: float = DEFAULT_EPS) -> ColoredPointSet:
    """The six-point, four-color arrangement on two unit squares."""
    eps = _check_eps(eps)
    return ColoredPointSet(
        # a    b    c    d    e    f
        [1.0, 1.0, eps, 0.0, 2.0, 2.0 - eps],  # x
        [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],        # y
        [0,   1,   2,   2,   3,   3],          # color
        4,
    )


def stacked_rows_point_set(eps: float = DEFAULT_EPS) -> ColoredPointSet:
    """The six-point, four-color arrangement on three stacked rows."""
    eps = _check_eps(eps)
    half_ab = (1.0 - eps) / 2.0
    half_cd = (2.0 + eps) / 2.0
    # Row height making the a-c and b-d distances exactly 2 + eps.
    rise = math.sqrt((2.0 + eps) ** 2 - (half_cd - half_ab) ** 2)
    top = rise + 1.5 + eps
    return ColoredPointSet(
        # a        b        c         d        e         f
        [-half_ab, half_ab, -half_cd, half_cd, -half_cd, half_cd],  # x
        [0.0,      0.0,     rise,     rise,    top,      top],      # y
        [0,        1,       2,        3,       0,        1],        # color
        4,
    )
