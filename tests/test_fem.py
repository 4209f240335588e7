import numpy as np
import pytest

from entropylab import fem
from entropylab.geometry import PlanarCurve
from entropylab.meshing import triangulate


@pytest.fixture(scope="module")
def ops():
    return fem.assemble(triangulate(PlanarCurve.circle(1.0, 256), 0.06))


class TestAssembly:
    def test_stiffness_annihilates_constants(self, ops):
        ones = np.ones(ops.mesh.n_vertices)
        assert np.abs(ops.K @ ones).max() < 1e-12

    def test_stiffness_symmetric_psd(self, ops):
        diff = ops.K - ops.K.T
        assert abs(diff).max() < 1e-14
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(ops.mesh.n_vertices)
            assert x @ (ops.K @ x) >= -1e-12

    def test_mass_totals_area(self, ops):
        area = ops.mesh.area()
        assert ops.M.sum() == pytest.approx(area, rel=1e-12)
        assert ops.M_lumped.sum() == pytest.approx(area, rel=1e-12)

    def test_boundary_weights_total_perimeter(self, ops):
        nb = ops.mesh.n_boundary
        per = PlanarCurve(
            ops.mesh.vertices[:nb], check_embedded=False
        ).arc_length()
        assert ops.boundary_weights.sum() == pytest.approx(per, rel=1e-12)
        assert np.all(ops.boundary_weights[nb:] == 0.0)

    def test_dirichlet_energy_of_linear(self, ops):
        # |grad(ax + by)|^2 integrates to (a^2 + b^2) * area exactly
        v = ops.mesh.vertices
        f = 0.7 * v[:, 0] - 1.3 * v[:, 1]
        energy = f @ (ops.K @ f)
        assert energy == pytest.approx((0.7**2 + 1.3**2) * ops.mesh.area(), rel=1e-12)


class TestRecovery:
    def test_gradient_exact_on_linear(self, ops):
        v = ops.mesh.vertices
        f = 2.0 * v[:, 0] + 3.0 * v[:, 1] + 1.0
        g = fem.recover_gradient(ops, f)
        assert np.allclose(g, [2.0, 3.0], atol=1e-12)

    def test_gradient_second_order_on_quadratic(self):
        errs = []
        for h in (0.08, 0.04):
            o = fem.assemble(triangulate(PlanarCurve.circle(1.0, 512), h))
            v = o.mesh.vertices
            f = v[:, 0] ** 2 + v[:, 0] * v[:, 1]
            g = fem.recover_gradient(o, f)
            exact = np.column_stack([2 * v[:, 0] + v[:, 1], v[:, 0]])
            interior = o.mesh.interior_distance_to_boundary(3 * h) > 2 * h
            errs.append(np.abs(g - exact)[interior].mean())
        assert errs[1] < 0.6 * errs[0]
