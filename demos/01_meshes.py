"""Build the two mesh families and poke at their structure.

The symmetric family cuts an M x M uniform grid into right triangles;
every interior vertex sees the same six-triangle patch, which is what
makes the lumped mass matrix exactly h^2 per interior node there.  The
nonsymmetric family alternates wide and narrow columns over uniform rows,
so node patches vary and nothing cancels by accident.
"""
import numpy as np

from frstokes.mesh import build_nonsymmetric_mesh, build_symmetric_mesh, evaluate_p1, format_mesh_text

sym = build_symmetric_mesh(8)
non = build_nonsymmetric_mesh(8)

for mesh in (sym, non):
    areas = mesh.triangle_areas()
    print(f"{mesh.family}: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles, "
          f"{mesh.n_interior} interior; h = {mesh.h:.4f}; "
          f"area sum = {areas.sum():.15f}")

# a P1 field is the array of its nodal values; evaluation locates the
# triangle and interpolates barycentrically
field = sym.nodes[:, 0] + 2 * sym.nodes[:, 1]
pts = np.array([[0.3, 0.4], [0.51, 0.49], [1.0, 1.0]])
print("x + 2y at", pts.tolist(), "->", evaluate_p1(sym, field, pts))

print()
print("plain-text dump of the smallest symmetric mesh:")
print(format_mesh_text(build_symmetric_mesh(1)))
