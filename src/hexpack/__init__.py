"""Locally univalent circle packings on the hexagonal lattice.

Doyle spiral generation, the angle-sum packing solver, harmonic edge
weights of radius-ratio fields, developing maps, univalence checks, and
deterministic SVG/CSV output.
"""

from types import ModuleType as _ModuleType

from .geometry import AngleGradient, angle_gradient, dtheta_dx1, inner_angles, theta
from .harmonic import (
    EdgeWeights,
    MissingEdgeError,
    Quadrature,
    WalkReport,
    WindowTooSmallError,
    compute_edge_weights,
    eta,
    harmonic_residual,
    random_walk_return,
    segment,
    volume,
)
from .lattice import (
    NEIGHBOR_OFFSETS,
    ScalarField,
    Vertex,
    Window,
    ball,
    d1,
    d2,
    embed,
    faces_at,
    faces_containing_edge,
    graph_distance,
    neighbors,
    read_field_csv,
    translate,
    write_field_csv,
)
from .layout import (
    Anchor,
    Circle,
    DefectTooLarge,
    Layout,
    check_local_univalence,
    check_univalent_flower,
    circles_from_json,
    develop,
    develop_flower,
    flower_ratio_check,
    layout_to_json,
    max_tangency_residual,
    min_face_orientation,
    ring_ratio_bound,
)
from .render import RenderStyle, render_svg
from .solver import (
    InvalidPatch,
    NonConvergence,
    SolveOptions,
    SolveReport,
    angle_defect,
    angle_sum,
    harmonic_interpolation,
    solve_patch,
)
from .spiral import (
    Classification,
    SpiralParams,
    classify,
    flower_angle_sum,
    solve_flower_closure,
    spiral_field,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
