"""The package's public surface: ``hexpack.__all__`` names exactly these
objects, and each one resolves."""

import hexpack

PUBLIC = [
    "Anchor", "AngleGradient", "Circle", "Classification", "DefectTooLarge", "EdgeWeights",
    "InvalidPatch", "Layout", "MissingEdgeError", "NEIGHBOR_OFFSETS",
    "NonConvergence", "Quadrature", "RenderStyle", "ScalarField", "SolveOptions",
    "SolveReport", "SpiralParams", "Vertex", "WalkReport", "Window", "WindowTooSmallError",
    "angle_defect", "angle_gradient", "angle_sum", "ball", "check_local_univalence",
    "check_univalent_flower", "circles_from_json", "classify", "compute_edge_weights", "d1",
    "d2", "develop", "develop_flower", "dtheta_dx1", "embed", "eta", "faces_at",
    "faces_containing_edge", "flower_angle_sum", "flower_ratio_check", "graph_distance",
    "harmonic_interpolation", "harmonic_residual", "inner_angles", "layout_to_json",
    "max_tangency_residual", "min_face_orientation", "neighbors", "random_walk_return",
    "read_field_csv", "render_svg", "ring_ratio_bound", "segment", "solve_flower_closure",
    "solve_patch", "spiral_field", "theta", "translate", "volume", "write_field_csv",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 61
    assert sorted(hexpack.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in hexpack.__all__:
        assert getattr(hexpack, name) is not None, name
