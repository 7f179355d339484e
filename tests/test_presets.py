"""Pins every preset: metric diagonal, signature, block split, rank, name,
description and the order of ``preset_names``."""

import numpy as np
import pytest

from curvedflats.errors import StructuralError
from curvedflats.presets import describe, make_preset, preset_names

NAMES = [
    "sphere",
    "de-sitter",
    "hyperbolic",
    "anti-de-sitter",
    "sphere-grassmannian",
    "isothermic",
]

DESCRIPTIONS = {
    "sphere": "O(n+2)/O(m+1)xO(n+1-m), definite; spherical quadric",
    "de-sitter": "O(1,n+1)/O(1+m)xO(1,n-m); de Sitter quadric",
    "hyperbolic": "O(1,n+1)/O(1,m)xO(n+1-m); hyperbolic quadric",
    "anti-de-sitter": "O(2,n)/O(1,m)xO(1,n-m); anti-de Sitter quadric",
    "sphere-grassmannian": "O(n+2)/O(m+1)xO(n+1-m), reconstruction target S^{2m}",
    "isothermic": "O(1,4)/O(3)xO(1,1), space-like 3-planes in Lorentz 5-space",
}

# Sign of each diagonal entry of J, block 1 | block 2; None is the default
# (m, n) = (2, 3).
SIGNATURES = {
    "sphere": {None: "+++|++", (1, 1): "++|+", (1, 2): "++|++",
               (2, 4): "+++|+++", (3, 5): "++++|+++"},
    "de-sitter": {None: "+++|-+", (1, 1): "++|-", (1, 2): "++|-+",
                  (2, 4): "+++|-++", (3, 5): "++++|-++"},
    "hyperbolic": {None: "-++|++", (1, 1): "-+|+", (1, 2): "-+|++",
                   (2, 4): "-++|+++", (3, 5): "-+++|+++"},
    "anti-de-sitter": {None: "-++|-+", (1, 1): "-+|-", (1, 2): "-+|-+",
                       (2, 4): "-++|-++", (3, 5): "-+++|-++"},
    "sphere-grassmannian": {None: "+++|++", (1, 1): "++|+", (1, 2): "++|++",
                            (2, 4): "+++|+++", (3, 5): "++++|+++"},
    "isothermic": {None: "+++|+-"},
}

CASES = [(name, size) for name in NAMES for size in SIGNATURES[name]]


def test_preset_names_order():
    assert preset_names() == NAMES


@pytest.mark.parametrize("name, size", CASES)
def test_preset_pinned(name, size):
    spec = make_preset(name) if size is None else make_preset(name, *size)
    block1, block2 = SIGNATURES[name][size].split("|")
    signs = block1 + block2
    diag = np.array([1.0 if s == "+" else -1.0 for s in signs])
    assert spec.space.j_diag.tobytes() == diag.tobytes()
    assert (spec.space.pos, spec.space.neg) == (signs.count("+"), signs.count("-"))
    assert spec.split == (len(block1), len(block2))
    assert spec.rank == min(len(block1), len(block2))
    assert spec.preset_name == name
    assert describe(name) == DESCRIPTIONS[name]


def test_make_preset_errors():
    with pytest.raises(StructuralError, match="unknown preset 'torus'"):
        make_preset("torus")
    with pytest.raises(StructuralError, match="fixed dimensions"):
        make_preset("isothermic", m=2)
    with pytest.raises(StructuralError, match="n >= m"):
        make_preset("sphere", m=3, n=2)
