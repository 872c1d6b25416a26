import itertools

import numpy as np
import pytest

import oscnet.criteria as criteria
from oscnet import (CouplingEdge, CouplingGraph, OscillatorModel,
                    UnsupportedConfigurationError, admittance_matrix,
                    build_report, commensurable_check, commensurable_graph,
                    complex_eig, harmonic_check, modal_transform, normalize,
                    pure_dissipative_check, sym_eig, sync_check_spectral,
                    sync_check_subspace, weak_coupling_bound)

from conftest import (assert_multiset_close, components_count,
                      observability_rank_deficient, random_edge_pairs,
                      random_model, random_psd_weight, random_system)


@pytest.fixture
def worked_system():
    """q=2, n=2, M=I, K=diag(1,4), identity damper and spring weights."""
    model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
    graph = CouplingGraph(2, dissipative=((1, 2, np.eye(2)),),
                          restorative=((1, 2, np.eye(2)),))
    return normalize(model, graph)


def scalar_system(q, damper_pairs, spring_pairs=(), freq_sq=2.0, epsilon=1.0):
    model = OscillatorModel(np.eye(1), np.array([[freq_sq]]))
    d = tuple(CouplingEdge(i, j, np.array([[1.0]])) for i, j in damper_pairs)
    r = tuple(CouplingEdge(i, j, np.array([[1.0]])) for i, j in spring_pairs)
    return normalize(model, CouplingGraph(q, d, r, epsilon))


# 3 x 2 arrays whose damper leaves node 1 (s = 6) or node 2 (s = 11) free,
# joined to the rest by springs.  Inside the weak-coupling radius they must
# synchronize, while the real part the spectral route sees is O(eps^2).
SPLIT_DAMPER_ARRAYS = {
    6: {"M": [[0.7428176726617624, 0.02040699868061229],
              [0.02040699868061229, 0.7863169717544399]],
        "K": [[1.9001503639898414, 0.13045052171716323],
              [0.13045052171716323, 1.4715200631405552]],
        "dissipative": [(2, 3, [[2.0976184139642986, -2.7519321311034286],
                                [-2.7519321311034286, 3.610347050628224]])],
        "restorative": [(1, 3, [[1.3953346174173131, 0.19731385005148444],
                                [0.19731385005148444, 0.02790209239859759]]),
                        (2, 3, [[0.6633006119604401, -0.09955744497794826],
                                [-0.09955744497794826, 0.2672827896582114]])]},
    11: {"M": [[1.382040657098118, 0.035416077777327144],
               [0.035416077777327144, 1.1760535679478505]],
         "K": [[2.8992366566880468, 0.4317838368936191],
               [0.4317838368936191, 1.839620474687313]],
         "dissipative": [(1, 3, [[0.15065157054846207, -0.2536479730877121],
                                 [-0.2536479730877121, 0.42706022922481574]])],
         "restorative": [(1, 2, [[1.2046852793697405, 0.6177348219183172],
                                 [0.6177348219183172, 0.3167601669459231]]),
                         (2, 3, [[0.8964212436232315, -0.6989228922025282],
                                 [-0.6989228922025282, 0.9030500199736113]])]},
}


def split_damper_system(s):
    doc = SPLIT_DAMPER_ARRAYS[s]
    model = OscillatorModel(np.array(doc["M"]), np.array(doc["K"]))
    graph = CouplingGraph(3, tuple((i, j, np.array(w)) for i, j, w in doc["dissipative"]),
                          tuple((i, j, np.array(w)) for i, j, w in doc["restorative"]))
    return normalize(model, graph)


def resonant_system():
    """Demo 02's rank-1 damper pair: it stops synchronizing at eps = 1 only."""
    model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
    graph = CouplingGraph(2, dissipative=((1, 2, np.ones((2, 2))),),
                          restorative=((1, 2, np.diag([2.0, 0.5])),))
    return normalize(model, graph)


class TestSpectral:
    def test_two_oscillator_damper(self):
        system = scalar_system(2, [(1, 2)], freq_sq=4.0)
        verdict = sync_check_spectral(system)
        assert verdict.synchronizes == "yes"
        assert verdict.imaginary_axis_count == 1
        assert verdict.margin == pytest.approx(2.0, abs=1e-10)

    def test_fully_decoupled(self):
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        system = normalize(model, CouplingGraph(3))
        verdict = sync_check_spectral(system)
        assert verdict.synchronizes == "no"
        assert verdict.imaginary_axis_count == 6

    def test_single_oscillator_trivially_synchronous(self):
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        system = normalize(model, CouplingGraph(1))
        assert sync_check_spectral(system).synchronizes == "yes"

    def test_sync_mode_frequencies_in_spectrum(self, rng):
        system = random_system(rng, q=3, n=3, connected=True,
                               with_restorative=True)
        vals = complex_eig(admittance_matrix(system))
        scale = max(np.abs(vals).max(), 1.0)
        for freq_sq in system.freqs_sq:
            assert np.min(np.abs(vals - 1j * freq_sq)) <= 1e-9 * scale

    def test_count_never_below_n(self, rng):
        for _ in range(10):
            system = random_system(rng)
            verdict = sync_check_spectral(system)
            assert verdict.imaginary_axis_count >= system.n


class TestSubspace:
    def test_two_oscillator_damper(self):
        system = scalar_system(2, [(1, 2)], freq_sq=4.0)
        verdict = sync_check_subspace(system)
        assert verdict.synchronizes == "yes"
        assert verdict.imaginary_axis_count == 1

    def test_no_dissipation_counts_everything(self, rng):
        model = random_model(rng, 2)
        spring = random_psd_weight(rng, 2)
        graph = CouplingGraph(3, (), ((1, 2, spring),))
        system = normalize(model, graph)
        verdict = sync_check_subspace(system)
        assert verdict.synchronizes == "no"
        assert verdict.imaginary_axis_count == 6

    def test_margin_not_applicable(self):
        system = scalar_system(2, [(1, 2)])
        assert sync_check_subspace(system).margin is None

    def test_single_oscillator_trivially_synchronous(self):
        # q = 1 leaves no motion orthogonal to synchrony
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        verdict = sync_check_subspace(normalize(model, CouplingGraph(1)))
        assert verdict.synchronizes == "yes"
        assert verdict.imaginary_axis_count == 2

    def test_ambiguous_clustering_is_reported(self):
        # a restorative perturbation of 1.5e-8 splits one eigenvalue pair by
        # 3e-8, close to any clustering gap; the damper still joins the two
        # units, so the answer is yes
        system = scalar_system(2, [(1, 2)], [(1, 2)], freq_sq=1.0,
                               epsilon=1.5e-8)
        verdict = sync_check_subspace(system)
        assert verdict.synchronizes == "yes"
        assert verdict.imaginary_axis_count == 1

    @pytest.mark.parametrize("s", sorted(SPLIT_DAMPER_ARRAYS))
    def test_inside_weak_coupling_radius(self, s):
        system = split_damper_system(s)
        bound = weak_coupling_bound(system)
        assert bound.applicable
        verdict = sync_check_subspace(system, eps=bound.radius / 2)
        assert verdict.synchronizes == "yes"
        assert verdict.imaginary_axis_count == 2

    @pytest.mark.parametrize("eps, verdict, count", [
        (1.0, "no", 3), (1.0 + 1e-6, "yes", 2), (1.0 + 1e-8, None, 2)])
    def test_near_the_resonance(self, eps, verdict, count):
        # at 1 + 1e-8 the decision is within the 10x band, but the count holds
        got = sync_check_subspace(resonant_system(), eps=eps)
        assert got.imaginary_axis_count == count
        if verdict is None:
            assert got.synchronizes != "no"
        else:
            assert got.synchronizes == verdict


def family_pairs(kind, q):
    if kind == "path":
        return [(i, i + 1) for i in range(1, q)]
    if kind == "ring":
        return sorted({(min(i, i % q + 1), max(i, i % q + 1)) for i in range(1, q + 1)})
    if kind == "star":
        return [(1, j) for j in range(2, q + 1)]
    return [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)]


def damper_families():
    """Paths, rings, stars and complete damper graphs, q = 2..6, n = 1..3,
    identity and rank-1 weights, each with and without a spring path: 240
    arrays whose symmetry gives the position coupling repeated eigenvalues."""
    for kind, q, n, rank1, springs in itertools.product(
            ("path", "ring", "star", "complete"), range(2, 7), range(1, 4),
            (False, True), (False, True)):
        model = OscillatorModel(np.eye(n), np.diag([1.0, 4.0, 9.0][:n]))
        w = np.ones((n, n)) if rank1 else np.eye(n)
        spring = np.diag([2.0, 0.5, 1.0][:n])
        dampers = tuple((i, j, w) for i, j in family_pairs(kind, q))
        spring_path = tuple((i, i + 1, spring) for i in range(1, q)) if springs else ()
        yield f"{kind} q={q} n={n} rank1={rank1} springs={springs}", model, \
            CouplingGraph(q, dampers, spring_path)


class TestStructuredFamilies:
    def test_routes_count_alike(self):
        verdicts = set()
        for name, model, graph in damper_families():
            system = normalize(model, graph)
            spectral = sync_check_spectral(system)
            subspace = sync_check_subspace(system)
            verdicts.add(subspace.synchronizes)
            if spectral.synchronizes != "indeterminate":
                assert subspace.imaginary_axis_count == spectral.imaginary_axis_count, name
        assert verdicts >= {"yes", "no"}

    def test_count_ignores_labels_and_edge_order(self):
        rng = np.random.default_rng(41)
        for name, model, graph in damper_families():
            verdict = sync_check_subspace(normalize(model, graph))
            perm = rng.permutation(graph.q) + 1

            def relabel(edges):
                return tuple((min(perm[e.i - 1], perm[e.j - 1]),
                              max(perm[e.i - 1], perm[e.j - 1]), e.weight)
                             for e in edges)
            variants = (
                CouplingGraph(graph.q, relabel(graph.dissipative),
                              relabel(graph.restorative)),
                CouplingGraph(graph.q, graph.dissipative[::-1],
                              graph.restorative[::-1]))
            for other in variants:
                got = sync_check_subspace(normalize(model, other))
                assert got.imaginary_axis_count == verdict.imaginary_axis_count, name
                assert got.synchronizes == verdict.synchronizes, name


class TestMethodAgreement:
    def test_sixty_random_instances(self):
        # full 200-instance corpus runs in the acceptance suite
        for seed in range(60):
            rng = np.random.default_rng(3000 + seed)
            system = random_system(rng)
            a = sync_check_spectral(system)
            b = sync_check_subspace(system)
            assert a.synchronizes == b.synchronizes, f"seed {seed}"
            assert a.imaginary_axis_count == b.imaginary_axis_count, f"seed {seed}"

    def test_monotone_in_dissipative_edges(self):
        for seed in range(30):
            rng = np.random.default_rng(5000 + seed)
            system = random_system(rng, q=4, n=2)
            count0 = sync_check_subspace(system).imaginary_axis_count
            pairs = {(e.i, e.j) for e in system.graph.dissipative}
            free = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)
                    if (i, j) not in pairs]
            if not free:
                continue
            extra = CouplingEdge(*free[0], random_psd_weight(rng, 2))
            graph2 = CouplingGraph(4, system.graph.dissipative + (extra,),
                                   system.graph.restorative)
            system2 = normalize(system.model, graph2)
            count1 = sync_check_subspace(system2).imaginary_axis_count
            assert count1 <= count0


class TestModalForm:
    def test_diagonal_weights_decouple_modes(self):
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        w = np.diag([0.7, 1.3])
        graph = CouplingGraph(2, ((1, 2, w),))
        mf = modal_transform(normalize(model, graph))
        assert np.allclose(mf.dissipative_blocks[0, 1], 0.0, atol=1e-12)
        assert np.allclose(mf.dissipative_blocks[1, 0], 0.0, atol=1e-12)

    def test_sync_directions_are_eigenvectors(self, rng):
        system = random_system(rng, q=3, n=2, connected=True,
                               with_restorative=True)
        mf = modal_transform(system, eps=0.6)
        ones = np.full(3, 1.0 / np.sqrt(3.0))
        for k in range(2):
            vec = np.kron(np.eye(2)[:, k], ones)
            resid = mf.admittance @ vec - 1j * system.freqs_sq[k] * vec
            assert np.linalg.norm(resid) <= 1e-9 * max(np.abs(mf.admittance).max(), 1.0)

    def test_similar_to_criterion_matrix(self, rng):
        system = random_system(rng, q=4, n=3, connected=True,
                               with_restorative=True)
        mf = modal_transform(system, eps=0.8)
        gam = admittance_matrix(system, eps=0.8)
        scale = max(np.abs(gam).max(), 1.0)
        assert_multiset_close(complex_eig(mf.admittance), complex_eig(gam),
                              1e-8 * scale)

    def test_diagonal_blocks_are_scalar_laplacians(self, rng):
        system = random_system(rng, q=4, n=3, connected=True,
                               with_restorative=True)
        mf = modal_transform(system)
        ones = np.ones(4)
        for blocks in (mf.dissipative_blocks, mf.restorative_blocks):
            for k in range(3):
                block = blocks[k, k]
                assert np.linalg.norm(block - block.T) <= 1e-10
                assert np.abs(block @ ones).max() <= 1e-10
                off = block - np.diag(np.diag(block))
                assert off.max() <= 1e-10  # off-diagonal entries nonpositive
                vals, _ = sym_eig(block)
                assert vals[0] >= -1e-10 * max(abs(vals[-1]), 1.0)

    def test_full_matrices_psd(self, rng):
        system = random_system(rng, q=3, n=2, connected=True,
                               with_restorative=True)
        mf = modal_transform(system)
        for m in (mf.dissipative, mf.restorative):
            vals, _ = sym_eig(m)
            assert vals[0] >= -1e-10 * max(abs(vals[-1]), 1.0)


def reference_gap_and_dissipation(system):
    """mu-bar and gamma-bar with plain numpy: eigh of each B_kk, clusters
    at the relative gap 1e-8, the vector 1 projected out of each cluster,
    an SVD basis of what is left, and eigvalsh of G_kk on that basis."""
    q = system.q
    ones = np.full(q, 1.0 / np.sqrt(q))
    gaps, gamma_sq = [], []
    for k in range(system.n):
        e = np.kron(np.eye(q), system.mode_shapes[:, [k]])
        g_kk = e.T @ system.lap_dissipative @ e
        vals, vecs = np.linalg.eigh(e.T @ system.lap_restorative @ e)
        cut = 1e-8 * np.abs(vals).max()
        bounds = [0] + [i for i in range(1, q) if vals[i] - vals[i - 1] > cut] + [q]
        clusters = list(zip(bounds[:-1], bounds[1:]))
        gaps.extend(np.diff([vals[a:b].mean() for a, b in clusters]))
        for a, b in clusters:
            basis = vecs[:, a:b] - np.outer(ones, ones @ vecs[:, a:b])
            left, sv, _ = np.linalg.svd(basis, full_matrices=False)
            w = left[:, sv > 1e-8]
            if w.shape[1]:
                gamma_sq.append(np.linalg.eigvalsh(w.T @ g_kk @ w)[0])
    return 0.5 * min(gaps), np.sqrt(max(min(gamma_sq), 0.0))


# Spring graphs with identity weights whose restorative blocks have repeated
# eigenvalues: q - 1 equal ones (complete graphs) or a double zero (two
# disjoint pairs).  Random dampers on a path keep every mode damped.
DEGENERATE_SPRINGS = {
    "complete-3": (3, list(itertools.combinations(range(1, 4), 2))),
    "complete-4": (4, list(itertools.combinations(range(1, 5), 2))),
    "two-pairs-4": (4, [(1, 2), (3, 4)]),
}


def degenerate_spring_graph(name):
    q, pairs = DEGENERATE_SPRINGS[name]
    rng = np.random.default_rng(sorted(DEGENERATE_SPRINGS).index(name))
    model = random_model(rng, 2)
    dampers = tuple(CouplingEdge(i, i + 1, random_psd_weight(rng, 2, rank=2))
                    for i in range(1, q))
    springs = tuple(CouplingEdge(i, j, np.eye(2)) for i, j in pairs)
    return model, CouplingGraph(q, dampers, springs)


class TestWeakCouplingBound:
    def test_worked_diagonal_instance(self, worked_system):
        bound = weak_coupling_bound(worked_system)
        assert bound.sigma_bar == pytest.approx(1.5, rel=1e-12)
        assert bound.mu_bar == pytest.approx(1.0, rel=1e-12)
        assert bound.gamma_bar == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert bound.norm_g == pytest.approx(2.0, rel=1e-12)
        assert bound.norm_b == pytest.approx(2.0, rel=1e-12)
        assert bound.radius == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert bound.applicable

    def test_worked_instance_margins(self, worked_system):
        bound = weak_coupling_bound(worked_system)
        # each combined block is (1+j) * [[1,-1],[-1,1]], spectrum {0, 2+2j}
        assert np.allclose(bound.hypothesis_margins, 2.0, atol=1e-10)

    def test_radius_formula_identity(self, worked_system):
        b = weak_coupling_bound(worked_system)
        expected = (b.gamma_bar * b.sigma_bar * b.mu_bar
                    / ((np.sqrt(b.norm_g) + 2.0 * b.gamma_bar)
                       * np.sqrt(worked_system.n - 1) * b.norm_b
                       * (b.mu_bar + b.norm_b)))
        assert b.radius == pytest.approx(expected, rel=1e-12)

    def test_gamma_zero_gives_zero_radius(self):
        # rank-1 damper touching only mode 1: second mode sees no dissipation
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        graph = CouplingGraph(2,
                              dissipative=((1, 2, np.outer([1.0, 0.0], [1.0, 0.0])),),
                              restorative=((1, 2, np.eye(2)),))
        bound = weak_coupling_bound(normalize(model, graph))
        assert bound.gamma_bar == pytest.approx(0.0, abs=1e-10)
        assert bound.radius == pytest.approx(0.0, abs=1e-10)
        assert not bound.applicable

    def test_rejects_single_mode(self):
        system = scalar_system(2, [(1, 2)], [(1, 2)])
        with pytest.raises(UnsupportedConfigurationError, match="harmonic"):
            weak_coupling_bound(system)

    def test_rejects_pure_dissipative(self, rng):
        model = random_model(rng, 2)
        graph = CouplingGraph(2, ((1, 2, np.eye(2)),))
        with pytest.raises(UnsupportedConfigurationError, match="restorative"):
            weak_coupling_bound(normalize(model, graph))

    def test_soundness_smoke(self):
        # acceptance runs the full 50-instance, 3-epsilon corpus
        hits = 0
        seed = 0
        while hits < 8 and seed < 60:
            rng = np.random.default_rng(7000 + seed)
            seed += 1
            system = random_system(rng, q=3, n=2, connected=True,
                                   with_restorative=True)
            bound = weak_coupling_bound(system)
            if not bound.applicable or bound.radius <= 0:
                continue
            hits += 1
            verdict = sync_check_spectral(system, eps=0.99 * bound.radius)
            assert verdict.synchronizes == "yes"
        assert hits == 8

    @pytest.mark.parametrize("name", sorted(DEGENERATE_SPRINGS))
    def test_matches_reference(self, name):
        system = normalize(*degenerate_spring_graph(name))
        bound = weak_coupling_bound(system)
        mu_bar, gamma_bar = reference_gap_and_dissipation(system)
        assert bound.mu_bar == pytest.approx(mu_bar, rel=1e-12)
        assert bound.gamma_bar == pytest.approx(gamma_bar, rel=1e-12)
        assert bound.gamma_bar > 0.0 and bound.status == "ok"

    @pytest.mark.parametrize("name", sorted(DEGENERATE_SPRINGS))
    def test_ignores_labels_and_edge_order(self, name):
        model, graph = degenerate_spring_graph(name)
        bound = weak_coupling_bound(normalize(model, graph))
        perm = np.random.default_rng(5).permutation(graph.q) + 1

        def relabel(edges):
            return tuple((min(perm[e.i - 1], perm[e.j - 1]),
                          max(perm[e.i - 1], perm[e.j - 1]), e.weight)
                         for e in edges)
        for other in (CouplingGraph(graph.q, relabel(graph.dissipative),
                                    relabel(graph.restorative)),
                      CouplingGraph(graph.q, graph.dissipative[::-1],
                                    graph.restorative[::-1])):
            got = weak_coupling_bound(normalize(model, other))
            for field in ("mu_bar", "gamma_bar", "radius"):
                assert getattr(got, field) == pytest.approx(
                    getattr(bound, field), rel=1e-12), field


class TestPureDissipative:
    def test_identity_weight_synchronizes(self):
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        graph = CouplingGraph(2, ((1, 2, np.eye(2)),))
        verdict = pure_dissipative_check(normalize(model, graph))
        assert verdict.synchronizes == "yes"
        assert verdict.margin == pytest.approx(2.0, abs=1e-10)

    def test_rank_one_weight_misses_second_mode(self):
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        graph = CouplingGraph(2, ((1, 2, np.outer([1.0, 0.0], [1.0, 0.0])),))
        verdict = pure_dissipative_check(normalize(model, graph))
        assert verdict.synchronizes == "no"
        assert verdict.imaginary_axis_count == 3

    def test_rejects_restorative_coupling(self, worked_system):
        with pytest.raises(UnsupportedConfigurationError):
            pure_dissipative_check(worked_system)

    def test_agrees_with_spectral(self):
        for seed in range(30):
            rng = np.random.default_rng(9000 + seed)
            system = random_system(rng, with_restorative=False)
            a = pure_dissipative_check(system)
            b = sync_check_spectral(system)
            assert a.synchronizes == b.synchronizes, f"seed {seed}"
            assert a.imaginary_axis_count == b.imaginary_axis_count, f"seed {seed}"

    def test_scaling_covariance(self, rng):
        model = random_model(rng, 2)
        w = random_psd_weight(rng, 2, rank=2)
        alpha = 3.7
        s1 = normalize(model, CouplingGraph(2, ((1, 2, w),)))
        s2 = normalize(model, CouplingGraph(2, ((1, 2, alpha * w),)))
        v1 = pure_dissipative_check(s1)
        v2 = pure_dissipative_check(s2)
        assert v2.margin == pytest.approx(alpha * v1.margin, rel=1e-9)
        assert v1.synchronizes == v2.synchronizes


class TestHarmonic:
    def test_connected_damper_path(self):
        system = scalar_system(3, [(1, 2), (2, 3)])
        verdict = harmonic_check(system)
        assert verdict.synchronizes == "yes"
        assert verdict.margin == pytest.approx(1.0, abs=1e-10)

    def test_disconnected_dampers(self):
        system = scalar_system(4, [(1, 2), (3, 4)])
        verdict = harmonic_check(system)
        assert verdict.synchronizes == "no"
        assert verdict.margin == pytest.approx(0.0, abs=1e-10)

    def test_mixed_dampers_and_springs(self):
        system = scalar_system(3, [(1, 2)], [(2, 3)])
        a = harmonic_check(system)
        b = sync_check_spectral(system)
        assert a.synchronizes == b.synchronizes == "yes"
        assert a.margin == pytest.approx(b.margin, rel=1e-9)

    def test_rejects_multimode(self, worked_system):
        with pytest.raises(UnsupportedConfigurationError):
            harmonic_check(worked_system)

    def test_connectivity_equivalence(self):
        # algebraic connectivity of the damper graph vs union-find
        for seed in range(30):
            rng = np.random.default_rng(11000 + seed)
            q = int(rng.integers(2, 7))
            pairs = random_edge_pairs(rng, q, p_edge=0.4)
            system = scalar_system(q, pairs)
            verdict = harmonic_check(system)
            connected = components_count(q, pairs) == 1
            assert (verdict.synchronizes == "yes") == connected, f"seed {seed}"


class TestCommensurable:
    def test_unobservable_mode_fails(self):
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = commensurable_graph(np.array([[1.0, 0.0]]),
                                    np.array([[1.0, 1.0]]),
                                    d, np.zeros((2, 2)))
        report = commensurable_check(normalize(model, graph))
        assert not report.observable_dissipative
        assert report.alpha[1] == pytest.approx(0.0, abs=1e-14)
        assert report.verdict.synchronizes == "no"
        assert report.verdict.diagnostic == (
            "the dissipative output matrix misses at least one mode")
        assert sync_check_spectral(normalize(model, graph)).synchronizes == "no"

    def test_observable_modes_pass(self):
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = commensurable_graph(np.array([[1.0, 1.0]]),
                                    np.array([[1.0, 1.0]]),
                                    d, np.zeros((2, 2)))
        report = commensurable_check(normalize(model, graph))
        assert report.observable_dissipative
        assert report.verdict.synchronizes == "yes"

    def test_pbh_matches_kalman_rank_oracle(self):
        agree = 0
        for seed in range(30):
            rng = np.random.default_rng(13000 + seed)
            n = int(rng.integers(2, 5))
            model = random_model(rng, n)
            c = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            if seed % 2:
                # deliberately blind the output to one mode
                system0 = normalize(model, CouplingGraph(2))
                vt = system0.mode_shapes_physical[:, int(rng.integers(0, n))]
                c = c - np.outer(c @ vt, vt) / (vt @ vt)
            d = np.array([[0.0, 1.0], [1.0, 0.0]])
            graph = commensurable_graph(c, np.abs(c) + 0.1, d, np.zeros((2, 2)))
            report = commensurable_check(normalize(model, graph))
            a = np.linalg.solve(model.mass, model.stiffness)
            deficient = observability_rank_deficient(c, a)
            assert report.observable_dissipative == (not deficient), f"seed {seed}"
            agree += 1
        assert agree == 30

    def test_mixed_case_reports_sufficiency_and_radius(self):
        model = OscillatorModel(np.eye(2), np.diag([1.0, 4.0]))
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = commensurable_graph(np.array([[1.0, 1.0]]),
                                    np.array([[1.0, -0.5]]), d, d)
        report = commensurable_check(normalize(model, graph))
        assert report.verdict is None
        assert report.weak_coupling_sufficient
        assert report.radius is not None and report.radius > 0
        assert report.scalar_margin == pytest.approx(2.0, abs=1e-9)

    def test_weak_coupling_bound_computed_once(self, monkeypatch):
        model = OscillatorModel(np.eye(3), np.diag([1.0, 4.0, 9.0]))
        ring = np.ones((3, 3)) - np.eye(3)
        graph = commensurable_graph(np.array([[1.0, 1.0, 1.0]]),
                                    np.array([[1.0, -0.5, 0.3]]), ring, ring)
        system = normalize(model, graph)
        assert commensurable_check(system).radius == weak_coupling_bound(system).radius
        assert weak_coupling_bound(system) is weak_coupling_bound(system)
        # build_report runs the bound and commensurable_check on one system:
        # one symmetric eigensolve per mode in all
        calls = []

        def spy(a):
            calls.append(np.shape(a))
            return sym_eig(a)
        monkeypatch.setattr(criteria, "sym_eig", spy)
        report = build_report(model, graph)
        assert report["commensurable"]["radius"] == report["weak_coupling"]["radius"]
        assert calls == [(2, 2)] * system.n

    def test_diagonal_blocks_factor_through_scalars(self, rng):
        # with identity mass, each diagonal modal block is alpha_k times the
        # scalar Laplacian
        n, q = 3, 4
        freqs = np.array([1.0, 2.5, 4.5])
        model = OscillatorModel(np.eye(n), np.diag(freqs))
        c = rng.standard_normal((2, n))
        s = np.zeros((q, q))
        for i in range(q):
            for j in range(i + 1, q):
                s[i, j] = s[j, i] = rng.uniform(0.2, 1.5)
        np.fill_diagonal(s, 0.0)
        graph = commensurable_graph(c, c, s, np.zeros((q, q)))
        system = normalize(model, graph)
        mf = modal_transform(system)
        report = commensurable_check(system)
        ell = system.scalar_lap_dissipative
        for k in range(n):
            assert np.allclose(mf.dissipative_blocks[k, k],
                               report.alpha[k] * ell, atol=1e-10)

    def test_requires_commensurable_data(self, worked_system):
        with pytest.raises(UnsupportedConfigurationError):
            commensurable_check(worked_system)
