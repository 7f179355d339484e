"""Numerical construction of curved flats in pseudo-orthogonal symmetric
spaces via commuting Lax flows, with frame integration and geometric
verification of the reconstructed space-form immersions."""

from .algebra import (
    BilinearSpace,
    SymmetricSpaceSpec,
    in_group_residual,
    is_abelian,
    is_cartan,
)
from .frame import (
    ConnectionForm,
    abelian_residual,
    connection_from_state,
    integrate_frame,
    mc_residual,
)
from .geometry import (
    DevelopingMap,
    GaugeField,
    ImmersionData,
    developing_map,
    gauge_to_normal_form,
    reconstruct_immersion,
    spectral_reparam,
    verify_space_form_geometry,
)
from .lax import (
    GridSpec,
    commutativity_check,
    conservation_report,
    integrate_grid,
)
from .loops import FlowFamily, LaxState
from .presets import make_preset, preset_names

__version__ = "0.1.0"

__all__ = [
    "BilinearSpace",
    "ConnectionForm",
    "DevelopingMap",
    "FlowFamily",
    "GaugeField",
    "GridSpec",
    "ImmersionData",
    "LaxState",
    "SymmetricSpaceSpec",
    "abelian_residual",
    "commutativity_check",
    "connection_from_state",
    "conservation_report",
    "developing_map",
    "gauge_to_normal_form",
    "in_group_residual",
    "integrate_frame",
    "integrate_grid",
    "is_abelian",
    "is_cartan",
    "make_preset",
    "mc_residual",
    "preset_names",
    "reconstruct_immersion",
    "spectral_reparam",
    "verify_space_form_geometry",
]
