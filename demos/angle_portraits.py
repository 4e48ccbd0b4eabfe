"""Angle portraits of the built-in surfaces.

For each scenario this prints the range of the angle cosine cos(alpha) (one
on complex curves, zero on Lagrangian ones), the behaviour of the unit
angle e^(i theta) where it is defined, the identity
cos^2(alpha) + |pairing|^2 = 1, and the curvature pinching margin
|grad J|^2 - |H|^2/2.
"""

import numpy as np

from mcf4d.functionals import pinching_check
from mcf4d.geometry import build_geometry, plane_angles
from mcf4d.scenarios import (clifford_torus, complex_line, lagrangian_graph,
                             plane, sphere_patch, symplectic_graph)


def portrait(name, state) -> None:
    b = build_geometry(state)
    ca = b.cos_alpha
    omega_norm = plane_angles(b.f_u, b.f_v, b.area_element)[2]
    identity = np.abs(ca ** 2 + omega_norm ** 2 - 1.0).max()
    margin = pinching_check(b).min_margin
    theta = np.angle(b.lag_angle_unit)
    print(f"{name:18s} cos(alpha) in [{ca.min():+.4f}, {ca.max():+.4f}]  "
          f"theta span {theta.max() - theta.min():6.3f}  "
          f"identity defect {identity:.1e}  pinch margin {margin:+.4f}")


def main() -> None:
    print("surface            angle cosine range        angle spread   "
          "unit-norm identity   |grad J|^2 - |H|^2/2")
    portrait("flat patch", plane(32, 32))
    portrait("complex curve", complex_line(32, 32))
    portrait("square torus", clifford_torus(32, 32))
    portrait("round sphere", sphere_patch(32, 48))
    portrait("graph (lagr)", lagrangian_graph(32, 32, 0.1))
    portrait("graph (sympl)", symplectic_graph(32, 32, 0.1))
    print("\nLagrangian surfaces sit at cos(alpha) = 0 with a well-defined "
          "unit angle;\nholomorphic ones at cos(alpha) = 1 where the unit "
          "degenerates.  The pinching\nmargin stays nonnegative on every "
          "sample.")


if __name__ == "__main__":
    main()
