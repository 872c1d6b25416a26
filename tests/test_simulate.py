import numpy as np
import pytest

from oscnet import (CouplingGraph, InvalidInputError, OscillatorModel,
                    build_laplacian, counterexample_ic, default_time_step,
                    energy, integrate, normalize, random_initial_state,
                    sync_check_subspace, sync_error)

from conftest import random_model, random_system


@pytest.fixture
def damped_pair():
    """Two units with squared frequency 4 joined by a unit damper."""
    model = OscillatorModel(np.eye(1), np.array([[4.0]]))
    graph = CouplingGraph(2, dissipative=((1, 2, np.array([[1.0]])),))
    return normalize(model, graph)


def exact_difference(t, d0, dv0):
    # difference coordinate of the damped pair: d'' + 2 d' + 4 d = 0
    w = np.sqrt(3.0)
    return np.exp(-t) * (d0 * np.cos(w * t) + (dv0 + d0) / w * np.sin(w * t))


class TestIntegrate:
    def test_sync_subspace_invariant(self, rng):
        system = random_system(rng, q=3, n=2, connected=True,
                               with_restorative=True)
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        z0 = np.tile(a, 3)
        v0 = np.tile(b, 3)
        trace = integrate(system, z0, v0, 2.0)
        assert trace.sync_error.max() <= 1e-12 * max(np.abs(trace.positions).max(), 1.0)

    def test_damped_pair_decay(self, damped_pair):
        z0 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        trace = integrate(damped_pair, z0, np.zeros(2), 5.0)
        assert trace.sync_error[-1] / trace.sync_error[0] <= 10.0 * np.exp(-5.0)

    def test_matches_closed_form(self, damped_pair):
        z0 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        v0 = np.array([0.2, -0.2])
        trace = integrate(damped_pair, z0, v0, 3.0, dt=0.01)
        diff = trace.positions[:, 0] - trace.positions[:, 1]
        ref = exact_difference(trace.times, np.sqrt(2.0), 0.4)
        assert np.abs(diff - ref).max() <= 1e-7

    def test_fourth_order_convergence(self, damped_pair):
        z0 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        errs = []
        for dt in (0.02, 0.01):
            trace = integrate(damped_pair, z0, np.zeros(2), 5.0, dt=dt)
            diff = trace.positions[-1, 0] - trace.positions[-1, 1]
            errs.append(abs(diff - exact_difference(5.0, np.sqrt(2.0), 0.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_single_oscillator_conserves_energy(self):
        model = OscillatorModel(np.eye(1), np.array([[4.0]]))
        system = normalize(model, CouplingGraph(1))
        trace = integrate(system, [1.0], [0.0], 10.0 * np.pi, dt=0.01)
        drift = np.abs(trace.energy - trace.energy[0]).max()
        assert drift <= 1e-8 * trace.energy[0]

    def test_uniform_increasing_grid(self, damped_pair):
        trace = integrate(damped_pair, [1.0, 0.0], [0.0, 0.0], 1.0, dt=0.01)
        steps = np.diff(trace.times)
        assert np.all(steps > 0)
        assert np.allclose(steps, 0.01, rtol=1e-12)
        assert trace.times[-1] >= 1.0 - 1e-12

    def test_rejects_unstable_step(self, damped_pair):
        with pytest.raises(InvalidInputError, match="stability"):
            integrate(damped_pair, [1.0, 0.0], [0.0, 0.0], 10.0, dt=2.0)

    def test_rejects_dimension_mismatch(self, damped_pair):
        with pytest.raises(InvalidInputError):
            integrate(damped_pair, [1.0], [0.0], 1.0)

    def test_rejects_short_horizon(self, damped_pair):
        with pytest.raises(InvalidInputError):
            integrate(damped_pair, [1.0, 0.0], [0.0, 0.0], 1e-4, dt=0.01)

    def test_columns_match_public_formulas(self, rng):
        system = random_system(rng, q=3, n=2, connected=True,
                               with_restorative=True)
        z0, v0 = random_initial_state(system, seed=3)
        trace = integrate(system, z0, v0, 3.0, dt=0.01)
        for k in (0, 1, 150, trace.times.size - 1):
            z, v = trace.positions[k], trace.velocities[k]
            assert trace.sync_error[k] == pytest.approx(sync_error(z, 3, 2),
                                                        rel=1e-13)
            assert trace.energy[k] == pytest.approx(energy(system, z, v),
                                                    rel=1e-13)

    @pytest.mark.parametrize("t_final", [np.inf, np.nan])
    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_rejects_nonfinite_horizon(self, damped_pair, t_final, dt):
        with pytest.raises(InvalidInputError, match="finite"):
            integrate(damped_pair, [1.0, 0.0], [0.0, 0.0], t_final, dt=dt)

    def test_x_coordinate_consistency(self, rng):
        # integrating the original coordinates and mapping by M^{1/2} agrees
        # with integrating the mass-normalized system directly
        model = random_model(rng, 2)
        w_pairs = [(1, 2), (2, 3)]
        edges = tuple((i, j, np.eye(2) * 0.5) for i, j in w_pairs)
        springs = ((1, 3, np.eye(2) * 0.3),)
        graph = CouplingGraph(3, edges, springs, epsilon=0.8)
        system = normalize(model, graph)

        w, u = np.linalg.eigh(model.mass)
        m_sqrt = (u * np.sqrt(w)) @ u.T
        m_inv = np.linalg.inv(model.mass)
        big_sqrt = np.kron(np.eye(3), m_sqrt)
        big_minv = np.kron(np.eye(3), m_inv)
        big_k = np.kron(np.eye(3), model.stiffness)
        lap_d_x = build_laplacian(graph.dissipative, 3, 2)
        lap_r_x = build_laplacian(graph.restorative, 3, 2)

        x = rng.standard_normal(6)
        xd = rng.standard_normal(6)
        dt, t_final = 0.005, 2.0
        steps = int(round(t_final / dt))

        def accel(x, xd):
            return -big_minv @ (big_k @ x + lap_d_x @ xd + 0.8 * lap_r_x @ x)

        xs = x.copy()
        vs = xd.copy()
        for _ in range(steps):
            a1 = accel(xs, vs)
            x2, v2 = xs + 0.5 * dt * vs, vs + 0.5 * dt * a1
            a2 = accel(x2, v2)
            x3, v3 = xs + 0.5 * dt * v2, vs + 0.5 * dt * a2
            a3 = accel(x3, v3)
            x4, v4 = xs + dt * v3, vs + dt * a3
            a4 = accel(x4, v4)
            xs = xs + (dt / 6.0) * (vs + 2 * v2 + 2 * v3 + v4)
            vs = vs + (dt / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)

        trace = integrate(system, big_sqrt @ x, big_sqrt @ xd, t_final, dt=dt)
        assert np.allclose(trace.positions[-1], big_sqrt @ xs, atol=1e-9)

    def test_propagator_matches_stagewise_rk4(self):
        # one precomputed propagator per call must reproduce the four-stage
        # RK4 loop step for step, on a horizon that is not a whole number of steps
        from oscnet import array_stiffness
        rng = np.random.default_rng(2024)
        system = random_system(rng, q=4, n=3, connected=True,
                               with_restorative=True)
        s, ld = array_stiffness(system), system.lap_dissipative
        z, v = random_initial_state(system, seed=11)
        dt = default_time_step(system)
        trace = integrate(system, z, v, 1999.5 * dt)

        zs, vs = [z], [v]
        for _ in range(2000):
            a1 = -(s @ z) - ld @ v
            z2, v2 = z + 0.5 * dt * v, v + 0.5 * dt * a1
            a2 = -(s @ z2) - ld @ v2
            z3, v3 = z + 0.5 * dt * v2, v + 0.5 * dt * a2
            a3 = -(s @ z3) - ld @ v3
            z4, v4 = z + dt * v3, v + dt * a3
            a4 = -(s @ z4) - ld @ v4
            z = z + (dt / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
            v = v + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            zs.append(z)
            vs.append(v)
        ref = np.hstack([np.array(zs), np.array(vs)])

        assert trace.times.size == 2001
        assert np.array_equal(trace.times, dt * np.arange(2001))
        got = np.hstack([trace.positions, trace.velocities])
        scale = np.linalg.norm(ref, axis=1).max()
        assert np.abs(got - ref).max() <= 1e-12 * scale


class TestEnergy:
    def test_zero_state(self, damped_pair):
        assert energy(damped_pair, np.zeros(2), np.zeros(2)) == 0.0

    def test_single_unit_value(self):
        model = OscillatorModel(np.eye(1), np.array([[4.0]]))
        system = normalize(model, CouplingGraph(1))
        assert energy(system, [1.0], [0.0]) == pytest.approx(2.0, abs=1e-14)

    def test_positive_for_nonzero_state(self, rng):
        system = random_system(rng, q=3, n=2, with_restorative=True)
        for _ in range(20):
            z = rng.standard_normal(6)
            v = rng.standard_normal(6)
            assert energy(system, z, v) > 0.0

    def test_monotone_along_traces(self):
        for seed in range(10):
            rng = np.random.default_rng(15000 + seed)
            system = random_system(rng, q=3, n=2)
            z0, v0 = random_initial_state(system, seed)
            trace = integrate(system, z0, v0, 3.0)
            w = trace.energy
            assert np.all(np.diff(w) <= 1e-7 * w[0]), f"seed {seed}"

    def test_dissipation_identity(self, damped_pair):
        z0 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        v0 = np.array([0.3, -0.1])
        trace = integrate(damped_pair, z0, v0, 3.0, dt=0.01)
        w = trace.energy
        v = trace.velocities
        rate = (w[2:] - w[:-2]) / (2.0 * trace.dt)
        predicted = -np.einsum("ij,jk,ik->i", v[1:-1],
                               damped_pair.lap_dissipative, v[1:-1])
        scale = max(np.abs(predicted).max(), 1.0)
        assert np.abs(rate - predicted).max() <= 5e-3 * scale


class TestCounterexample:
    def test_decoupled_pair_mode(self):
        model = OscillatorModel(np.eye(1), np.array([[1.0]]))
        system = normalize(model, CouplingGraph(2))
        mode = counterexample_ic(system)
        assert mode is not None
        assert mode.omega == pytest.approx(1.0, abs=1e-12)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(mode.shape @ expected) - 1.0) <= 1e-12

    def test_none_when_synchronizing(self, damped_pair):
        assert counterexample_ic(damped_pair) is None

    def test_mode_invariants(self):
        from oscnet import array_stiffness
        for seed in range(15):
            rng = np.random.default_rng(17000 + seed)
            system = random_system(rng)
            mode = counterexample_ic(system)
            verdict = sync_check_subspace(system)
            if verdict.synchronizes == "yes":
                assert mode is None
                continue
            assert mode is not None
            s = array_stiffness(system)
            scale = max(np.abs(s).max(), 1.0)
            assert np.linalg.norm(system.lap_dissipative @ mode.shape) <= 1e-8 * scale
            resid = s @ mode.shape - mode.omega ** 2 * mode.shape
            assert np.linalg.norm(resid) <= 1e-8 * scale
            block = mode.shape.reshape(system.q, system.n)
            assert np.linalg.norm(block - block.mean(axis=0)) > 1e-6

    def test_shape_sign_does_not_follow_the_solver(self, monkeypatch):
        # the solver may hand over either sign of each eigenvector; the
        # returned shape has its largest-magnitude entry positive either way
        import dataclasses
        from oscnet import simulate
        model = OscillatorModel(np.eye(1), np.array([[1.0]]))
        graph = CouplingGraph(3, dissipative=((1, 2, np.array([[1.0]])),))
        system = normalize(model, graph)
        mode = counterexample_ic(system)
        assert mode.shape[np.argmax(np.abs(mode.shape))] > 0
        assert np.allclose(mode.shape, np.array([-1.0, -1.0, 2.0]) / np.sqrt(6.0),
                           atol=1e-12)

        solved = simulate.subspace_analysis

        def negated(*args, **kwargs):
            analysis = solved(*args, **kwargs)
            return dataclasses.replace(analysis, basis=-analysis.basis)

        monkeypatch.setattr(simulate, "subspace_analysis", negated)
        assert np.array_equal(counterexample_ic(system).shape, mode.shape)

    def test_tied_entries_take_the_first_sign(self):
        # two damped pairs: the fastest undamped mode is (1, 1, -1, -1)/2
        # (x) the top unit mode, so four entries tie in magnitude and
        # rounding must not pick which of them is made positive
        for seed in range(10):
            model = random_model(np.random.default_rng(seed), 2)
            graph = CouplingGraph(4, ((1, 2, np.eye(2)), (3, 4, np.eye(2))))
            system = normalize(model, graph)
            phi = np.linalg.eigh(system.normalized_stiffness)[1][:, -1]
            expected = np.kron([0.5, 0.5, -0.5, -0.5], phi)
            expected *= np.sign(phi[np.argmax(np.abs(phi))])
            shape = counterexample_ic(system).shape
            assert np.abs(shape - expected).max() <= 1e-12, f"seed {seed}"

    def test_periodic_trajectory(self):
        # the certified mode returns to its initial error every period
        rng = np.random.default_rng(99)
        model = random_model(rng, 2)
        # node 3 is left uncoupled, so the array cannot synchronize
        graph = CouplingGraph(3, dissipative=((1, 2, np.eye(2)),))
        system = normalize(model, graph)
        mode = counterexample_ic(system)
        assert mode is not None
        samples = 400
        dt = mode.period / samples
        trace = integrate(system, mode.shape, np.zeros_like(mode.shape),
                          5.0 * mode.period, dt=dt)
        e0 = trace.sync_error[0]
        for m in range(1, 6):
            assert trace.sync_error[m * samples] == pytest.approx(e0, abs=1e-4)


class TestTraceExport:
    def test_csv_format_and_roundtrip(self, tmp_path, damped_pair):
        z0, v0 = random_initial_state(damped_pair, seed=7)
        trace = integrate(damped_pair, z0, v0, 0.5, dt=0.01, seed=7)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=7"
        assert lines[1] == "t,e,W,z_1,z_2,v_1,v_2"
        assert len(lines) == 2 + trace.times.size
        row = [float(tok) for tok in lines[5].split(",")]
        k = 3
        assert row[0] == trace.times[k]
        assert row[1] == trace.sync_error[k]
        assert row[2] == trace.energy[k]
        assert row[3:5] == list(trace.positions[k])
        assert row[5:7] == list(trace.velocities[k])

    def test_csv_deterministic(self, tmp_path, damped_pair):
        texts = []
        for name in ("a.csv", "b.csv"):
            z0, v0 = random_initial_state(damped_pair, seed=3)
            trace = integrate(damped_pair, z0, v0, 0.5, dt=0.01, seed=3)
            path = tmp_path / name
            trace.to_csv(path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    @staticmethod
    def reference_csv(trace):
        """The trace as a per-value ``format(x, ".17g")`` writer gives it."""
        qn = trace.positions.shape[1]
        lines = [] if trace.seed is None else [f"# seed={trace.seed}"]
        lines.append(",".join(["t", "e", "W"] + [f"z_{i + 1}" for i in range(qn)]
                              + [f"v_{i + 1}" for i in range(qn)]))
        for k in range(trace.times.size):
            row = [trace.times[k], trace.sync_error[k], trace.energy[k],
                   *trace.positions[k], *trace.velocities[k]]
            lines.append(",".join(format(float(x), ".17g") for x in row))
        return "".join(line + "\n" for line in lines).encode()

    @pytest.mark.parametrize("seed", [None, 4])
    def test_csv_matches_per_value_writer(self, tmp_path, rng, seed):
        system = random_system(rng, q=4, n=3, connected=True,
                               with_restorative=True)
        z0, v0 = random_initial_state(system, seed=4)
        z0[[0, 5]] = -0.0
        v0[2] = -0.0
        # more rows than one write block, and a partial last block
        trace = integrate(system, z0, v0, 700.5 * default_time_step(system),
                          seed=seed)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        data = path.read_bytes()
        assert data == self.reference_csv(trace)
        lines = data.decode().splitlines()
        assert (lines[0] == f"# seed={seed}") == (seed is not None)
        body = lines[1 + (seed is not None):]
        tokens = [tok for line in body for tok in line.split(",")]
        assert "-0" in body[0].split(",")
        assert all(format(float(tok), ".17g") == tok for tok in tokens)


def test_yes_verdict_decays_from_many_starts():
    # a synchronizing array damps the sync error from every initial state
    rng = np.random.default_rng(321)
    model = random_model(rng, 2)
    graph = CouplingGraph(3, dissipative=tuple(
        (i, j, np.eye(2)) for i, j in [(1, 2), (2, 3)]))
    system = normalize(model, graph)
    from oscnet import sync_check_spectral
    verdict = sync_check_spectral(system)
    assert verdict.synchronizes == "yes"
    t_final = 50.0 / abs(verdict.margin)
    dt = 10.0 * default_time_step(system)
    for seed in range(20):
        z0, v0 = random_initial_state(system, seed=seed)
        trace = integrate(system, z0, v0, t_final, dt=dt)
        assert trace.sync_error[-1] / trace.sync_error[0] <= 1e-4, f"seed {seed}"


def test_default_time_step_formula(rng):
    from oscnet import array_stiffness, sym_eig, spectral_norm
    system = random_system(rng, q=3, n=2, connected=True, with_restorative=True)
    s = array_stiffness(system)
    svals, _ = sym_eig(s)
    omega_max = np.sqrt(svals[-1]) + 2.0 * spectral_norm(system.lap_dissipative)
    assert default_time_step(system) == pytest.approx(
        min(0.01, 0.1 / omega_max), rel=1e-9)
