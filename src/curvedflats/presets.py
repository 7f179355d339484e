"""Named symmetric-space presets.

Each preset is a Grassmannian-type space O(J)/(O(J1) x O(J2)) hosting the
Gauss maps of isometric immersions M^m -> S between space forms; the four
quadric rows differ by which blocks carry negative metric directions.  The
layout always puts the (m+1)-dimensional tangent-plane block first so the
reconstructed map phi reads off as the frame's first column.
"""

import numpy as np

from .algebra import BilinearSpace, SymmetricSpaceSpec
from .errors import StructuralError

# name -> (negative directions leading block 1, leading block 2, description).
# Blocks are J1 = m+1 and J2 = n+1-m directions, (m, n) = (2, 3) by default;
# "sphere-grassmannian" is "sphere" at the critical codimension n = 2m - 1,
# whose reconstruction target is S^{2m}.  The isothermic space puts its
# negative direction last, so ``make_preset`` builds it on its own.
_PRESETS = {
    "sphere": (0, 0, "O(n+2)/O(m+1)xO(n+1-m), definite; spherical quadric"),
    "de-sitter": (0, 1, "O(1,n+1)/O(1+m)xO(1,n-m); de Sitter quadric"),
    "hyperbolic": (1, 0, "O(1,n+1)/O(1,m)xO(n+1-m); hyperbolic quadric"),
    "anti-de-sitter": (1, 1, "O(2,n)/O(1,m)xO(1,n-m); anti-de Sitter quadric"),
    "sphere-grassmannian": (
        0, 0, "O(n+2)/O(m+1)xO(n+1-m), reconstruction target S^{2m}",
    ),
    "isothermic": (
        None, None, "O(1,4)/O(3)xO(1,1), space-like 3-planes in Lorentz 5-space",
    ),
}


def preset_names():
    return list(_PRESETS)


def describe(name):
    return _PRESETS[name][2]


def make_preset(name, m=None, n=None):
    """Instantiate a preset by name; m and n default to 2 and 3."""
    if name not in _PRESETS:
        raise StructuralError(
            f"unknown preset {name!r}; known: {', '.join(_PRESETS)}"
        )
    if name == "isothermic":
        if m is not None or n is not None:
            raise StructuralError("the isothermic preset has fixed dimensions")
        space = BilinearSpace(4, 1, diag=[1.0, 1.0, 1.0, 1.0, -1.0])
        return SymmetricSpaceSpec(space, (3, 2), rank=2, preset_name=name)
    m = 2 if m is None else int(m)
    n = 3 if n is None else int(n)
    n1, n2 = m + 1, n + 1 - m
    if n2 < 1:
        raise StructuralError(f"preset needs n >= m, got m={m}, n={n}")
    neg1, neg2, _ = _PRESETS[name]
    diag = np.ones(n1 + n2)
    diag[:neg1] = -1.0
    diag[n1:n1 + neg2] = -1.0
    space = BilinearSpace(n1 + n2 - neg1 - neg2, neg1 + neg2, diag=diag)
    return SymmetricSpaceSpec(space, (n1, n2), rank=min(n1, n2), preset_name=name)
