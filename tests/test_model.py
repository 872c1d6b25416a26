import numpy as np
import pytest

from oscnet import (CouplingGraph, InvalidModelError,
                    OscillatorModel, admittance_matrix, array_stiffness,
                    build_laplacian, build_mass_spring_chain,
                    commensurable_expand, commensurable_graph, normalize)

from conftest import random_model, random_system


def ones_dir(q):
    return np.full(q, 1.0 / np.sqrt(q))


class TestBuildLaplacian:
    def test_single_scalar_edge(self):
        lap = build_laplacian([(1, 2, [[1.0]])], 2, 1)
        assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_no_edges(self):
        assert np.array_equal(build_laplacian([], 3, 2), np.zeros((6, 6)))

    def test_quadratic_form_oracle(self, rng):
        # energy of the form must equal the explicit pairwise sum
        edges = []
        weights = {}
        for i, j in [(1, 2), (2, 3)]:
            f = rng.standard_normal((2, 2))
            w = f @ f.T
            edges.append((i, j, w))
            weights[(i, j)] = w
        lap = build_laplacian(edges, 3, 2)
        for _ in range(100):
            x = rng.standard_normal(6)
            parts = x.reshape(3, 2)
            expected = sum((parts[i - 1] - parts[j - 1])
                           @ w @ (parts[i - 1] - parts[j - 1])
                           for (i, j), w in weights.items())
            assert x @ lap @ x == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_annihilates_sync_subspace(self, rng):
        system = random_system(rng, q=4, n=3, connected=True, with_restorative=True)
        sync = np.kron(ones_dir(4)[:, None], np.eye(3))
        for lap in (system.lap_dissipative, system.lap_restorative):
            assert np.linalg.norm(lap - lap.T) <= 1e-10
            assert np.linalg.norm(lap @ sync) <= 1e-10 * max(1.0, np.abs(lap).max())

    def test_psd_quadratic_form(self, rng):
        system = random_system(rng, q=4, n=2, connected=True, with_restorative=True)
        for _ in range(200):
            x = rng.standard_normal(8)
            assert x @ system.lap_dissipative @ x >= -1e-10
            assert x @ system.lap_restorative @ x >= -1e-10

    def test_names_bad_edge(self):
        bad = np.array([[0.0, 1.0], [1.0, 0.0]])  # indefinite
        with pytest.raises(InvalidModelError, match=r"\(1,3\)"):
            build_laplacian([(1, 3, bad)], 3, 2)


class TestOscillatorModel:
    def test_rejects_repeated_frequencies(self):
        with pytest.raises(InvalidModelError, match="distinct"):
            OscillatorModel(np.eye(2), np.eye(2))

    def test_rejects_indefinite_stiffness(self):
        with pytest.raises(InvalidModelError, match="stiffness"):
            OscillatorModel(np.eye(2), np.diag([1.0, -2.0]))

    def test_rejects_asymmetric_mass(self):
        with pytest.raises(InvalidModelError, match="mass"):
            OscillatorModel(np.array([[1.0, 0.5], [0.0, 1.0]]), np.diag([1.0, 2.0]))


class TestNormalize:
    def test_identity_mass(self):
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        system = normalize(model, CouplingGraph(2))
        assert np.allclose(system.normalized_stiffness, np.diag([1.0, 4.0]))
        assert np.allclose(system.freqs_sq, [1.0, 4.0])
        # eigenvectors are coordinate axes up to sign
        assert np.allclose(np.abs(system.mode_shapes), np.eye(2), atol=1e-12)

    def test_scalar_mass_scaling(self):
        model = OscillatorModel(4.0 * np.eye(1), np.eye(1))
        system = normalize(model, CouplingGraph(1))
        assert system.normalized_stiffness[0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_reconstruction_oracle(self, rng):
        model = random_model(rng, 3)
        system = normalize(model, CouplingGraph(2))
        w, u = np.linalg.eigh(model.mass)
        mass_sqrt = (u * np.sqrt(w)) @ u.T
        back = mass_sqrt @ system.normalized_stiffness @ mass_sqrt
        assert np.allclose(back, model.stiffness, atol=1e-9 * np.linalg.norm(model.stiffness))

    def test_mode_shapes_diagonalize(self, rng):
        system = random_system(rng, q=2, n=4)
        v = system.mode_shapes
        assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-10
        d = v.T @ system.normalized_stiffness @ v
        assert np.allclose(d, np.diag(system.freqs_sq), atol=1e-10)

    def test_physical_shapes_are_generalized_eigenvectors(self, rng):
        system = random_system(rng, q=2, n=3)
        a = np.linalg.solve(system.model.mass, system.model.stiffness)
        for k in range(3):
            vt = system.mode_shapes_physical[:, k]
            assert np.allclose(a @ vt, system.freqs_sq[k] * vt, atol=1e-9)

    def test_dimension_mismatch(self):
        model = OscillatorModel(np.eye(1), np.array([[4.0]]))
        graph = CouplingGraph(2, dissipative=((1, 2, np.eye(2)),))
        with pytest.raises(InvalidModelError):
            normalize(model, graph)


class TestAdmittance:
    def test_uncoupled_is_purely_imaginary(self, rng):
        system = random_system(rng, q=3, n=2, connected=False,
                               with_restorative=False)
        graph = CouplingGraph(3)
        system = normalize(system.model, graph)
        gam = admittance_matrix(system, eps=0.0)
        assert np.all(gam.real == 0.0)

    def test_worked_two_oscillator(self):
        model = OscillatorModel(np.eye(1), np.array([[4.0]]))
        graph = CouplingGraph(2, dissipative=((1, 2, np.array([[1.0]])),))
        system = normalize(model, graph)
        expected = np.array([[1 + 4j, -1], [-1, 1 + 4j]])
        assert np.allclose(admittance_matrix(system, 0.7), expected, atol=1e-14)

    def test_complex_symmetric(self, rng):
        system = random_system(rng, q=3, n=2, with_restorative=True)
        gam = admittance_matrix(system, 0.3)
        assert np.array_equal(gam, gam.T)

    def test_sync_modes_are_eigenvectors(self, rng):
        system = random_system(rng, q=4, n=3, connected=True,
                               with_restorative=True)
        gam = admittance_matrix(system, 0.8)
        scale = np.abs(gam).max()
        for k in range(3):
            vec = np.kron(ones_dir(4), system.mode_shapes[:, k])
            resid = gam @ vec - 1j * system.freqs_sq[k] * vec
            assert np.linalg.norm(resid) <= 1e-9 * max(scale, 1.0)

    def test_relabeling_permutes_conformally(self, rng):
        # swapping node labels permutes the Laplacian and leaves spectra alone
        model = random_model(rng, 2)
        w12 = np.eye(2) * 0.5
        w13 = np.array([[1.0, 0.2], [0.2, 0.6]])
        g1 = CouplingGraph(3, ((1, 2, w12), (1, 3, w13)))
        g2 = CouplingGraph(3, ((1, 3, w12), (1, 2, w13)))  # swap labels 2 <-> 3
        s1 = normalize(model, g1)
        s2 = normalize(model, g2)
        perm = np.zeros((3, 3))
        perm[0, 0] = perm[1, 2] = perm[2, 1] = 1.0
        big = np.kron(perm, np.eye(2))
        assert np.allclose(big.T @ s1.lap_dissipative @ big,
                           s2.lap_dissipative, atol=1e-12)

    def test_array_stiffness_positive_definite(self, rng):
        system = random_system(rng, q=3, n=2, with_restorative=True)
        s = array_stiffness(system, 2.0)
        from oscnet import sym_eig
        vals, _ = sym_eig(s)
        assert vals[0] > 0


class TestMassSpringChain:
    def test_single_mass(self):
        model = build_mass_spring_chain([1.0], [1.0, 1.0])
        assert np.array_equal(model.mass, np.eye(1))
        assert np.array_equal(model.stiffness, np.array([[2.0]]))

    def test_two_unit_masses(self):
        model = build_mass_spring_chain([1.0, 1.0], [1.0, 1.0, 1.0])
        assert np.array_equal(model.stiffness, np.array([[2.0, -1.0], [-1.0, 2.0]]))
        system = normalize(model, CouplingGraph(1))
        assert np.allclose(system.freqs_sq, [1.0, 3.0], atol=1e-12)

    def test_three_unit_masses_spectrum(self):
        model = build_mass_spring_chain([1.0] * 3, [1.0] * 4)
        system = normalize(model, CouplingGraph(1))
        expected = np.array([2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
        assert np.allclose(system.freqs_sq, expected, atol=1e-12)

    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidModelError):
            build_mass_spring_chain([1.0, 1.0], [1.0, 1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidModelError):
            build_mass_spring_chain([1.0, -1.0], [1.0, 1.0, 1.0])


class TestCommensurable:
    def test_rank_one_expansion(self):
        scalars = np.array([[0.0, 1.0], [1.0, 0.0]])
        edges, ell = commensurable_expand(np.array([[1.0, 0.0]]), scalars)
        assert len(edges) == 1
        assert np.array_equal(edges[0].weight, np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.array_equal(ell, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_all_zero_scalars(self):
        edges, ell = commensurable_expand(np.array([[1.0, 1.0]]), np.zeros((3, 3)))
        assert edges == ()
        assert np.array_equal(ell, np.zeros((3, 3)))

    def test_rejects_negative_scalar(self):
        s = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidModelError, match="negative"):
            commensurable_expand(np.array([[1.0, 0.0]]), s)

    def test_expanded_laplacian_matches_quadratic_form(self, rng):
        c = rng.standard_normal((2, 3))
        q = 4
        s = np.zeros((q, q))
        for i in range(q):
            for j in range(i + 1, q):
                s[i, j] = s[j, i] = rng.uniform(0.0, 2.0)
        np.fill_diagonal(s, 0.0)
        edges, _ = commensurable_expand(c, s)
        lap = build_laplacian(edges, q, 3)
        base = c.T @ c
        for _ in range(50):
            x = rng.standard_normal(q * 3)
            parts = x.reshape(q, 3)
            expected = sum(s[i, j] * (parts[i] - parts[j]) @ base @ (parts[i] - parts[j])
                           for i in range(q) for j in range(i + 1, q))
            assert x @ lap @ x == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_graph_builder_consistency(self):
        c_d = np.array([[1.0, 1.0]])
        c_r = np.array([[0.5, 0.0]])
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        r = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = commensurable_graph(c_d, c_r, d, r, epsilon=0.5)
        assert graph.commensurable is not None
        assert len(graph.dissipative) == 1
        assert np.array_equal(graph.dissipative[0].weight, 2.0 * np.outer([1, 1], [1, 1]))

    def test_mismatched_edges_rejected(self):
        cc_graph = commensurable_graph(np.array([[1.0, 0.0]]),
                                       np.array([[1.0, 0.0]]),
                                       np.array([[0.0, 1.0], [1.0, 0.0]]),
                                       np.zeros((2, 2)))
        with pytest.raises(InvalidModelError, match="expansion"):
            CouplingGraph(2, (), cc_graph.restorative, 1.0,
                          commensurable=cc_graph.commensurable)


class TestCouplingGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidModelError, match="self-loop"):
            CouplingGraph(2, ((1, 1, np.eye(1)),))

    def test_rejects_wrong_order(self):
        with pytest.raises(InvalidModelError):
            CouplingGraph(2, ((2, 1, np.eye(1)),))

    def test_rejects_fractional_indices(self):
        with pytest.raises(InvalidModelError, match="integers"):
            CouplingGraph(3, ((1.7, 2.9, np.eye(1)),))

    def test_rejects_duplicate(self):
        with pytest.raises(InvalidModelError, match="twice"):
            CouplingGraph(2, ((1, 2, np.eye(1)), (1, 2, np.eye(1))))

    def test_rejects_negative_epsilon(self):
        with pytest.raises(InvalidModelError):
            CouplingGraph(2, epsilon=-0.5)

    def test_rejects_asymmetric_weight(self):
        w = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(InvalidModelError, match="symmetric"):
            CouplingGraph(2, ((1, 2, w),))
