import json

import numpy as np
import pytest

from oscnet import ConfigError, parse_config, write_config
from oscnet.cli import build_report, dumps_json, main


@pytest.fixture
def damper_pair_config(tmp_path):
    doc = {"n": 1, "q": 2, "M": [[1.0]], "K": [[4.0]],
           "dissipative": [{"i": 1, "j": 2, "W": [[1.0]]}],
           "restorative": [], "epsilon": 1.0}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bound_example_config(tmp_path):
    doc = {"n": 2, "q": 2, "M": [[1.0, 0.0], [0.0, 1.0]],
           "K": [[1.0, 0.0], [0.0, 4.0]],
           "dissipative": [{"i": 1, "j": 2, "W": [[1.0, 0.0], [0.0, 1.0]]}],
           "restorative": [{"i": 1, "j": 2, "W": [[1.0, 0.0], [0.0, 1.0]]}],
           "epsilon": 0.05}
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_pair(self, damper_pair_config):
        model, graph = parse_config(damper_pair_config)
        assert model.n == 1
        assert graph.q == 2
        assert len(graph.dissipative) == 1

    def test_collects_all_errors(self, tmp_path):
        doc = {"n": 1, "q": 2, "M": [[1.0]], "K": [[4.0]],
               "dissipative": [{"i": 1, "j": 2, "W": [[1.0, 0.5], [0.0, 1.0]]}],
               "restorative": [{"i": 5, "j": 9, "W": [[1.0]]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as info:
            parse_config(str(path))
        text = "\n".join(info.value.problems)
        assert "(1,2)" in text and "symmetric" in text
        assert len(info.value.problems) >= 2

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"q": 2,\n  "n": oops}')
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(str(path))

    def test_requires_exactly_one_model_source(self, tmp_path):
        doc = {"n": 1, "q": 2, "M": [[1.0]], "K": [[1.0]],
               "chain": {"masses": [1.0], "springs": [1.0, 1.0]}}
        path = tmp_path / "both.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(str(path))

    def test_chain_spectrum(self, tmp_path):
        doc = {"q": 2, "chain": {"masses": [1.0, 1.0, 1.0],
                                 "springs": [1.0, 1.0, 1.0, 1.0]},
               "dissipative": [], "restorative": []}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        model, graph = parse_config(str(path))
        from oscnet import CouplingGraph, normalize
        system = normalize(model, CouplingGraph(1))
        expected = [2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
        assert np.allclose(system.freqs_sq, expected, atol=1e-12)

    def test_commensurable_config(self, tmp_path):
        doc = {"n": 2, "q": 2, "M": [[1.0, 0.0], [0.0, 1.0]],
               "K": [[1.0, 0.0], [0.0, 4.0]],
               "commensurable": {"C_d": [[1.0, 1.0]], "C_r": [[1.0, 0.0]],
                                 "d": [[0.0, 1.0], [1.0, 0.0]],
                                 "r": [[0.0, 0.5], [0.5, 0.0]]}}
        path = tmp_path / "comm.json"
        path.write_text(json.dumps(doc))
        model, graph = parse_config(str(path))
        assert graph.commensurable is not None
        assert len(graph.dissipative) == 1
        out = tmp_path / "comm_report.json"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "commensurable" in report
        assert report["commensurable"]["observable_dissipative"] is True

    def test_roundtrip_bit_for_bit(self, tmp_path, rng):
        w = rng.standard_normal((2, 2))
        doc = {"n": 2, "q": 3,
               "M": [[1.25, 0.125], [0.125, 2.5]],
               "K": [[1.0, 0.1], [0.1, 3.0]],
               "dissipative": [{"i": 1, "j": 3, "W": (w @ w.T).tolist()}],
               "restorative": [], "epsilon": 0.3141592653589793}
        first = tmp_path / "first.json"
        first.write_text(json.dumps(doc))
        model1, graph1 = parse_config(str(first))
        second = tmp_path / "second.json"
        write_config(model1, graph1, str(second))
        model2, graph2 = parse_config(str(second))
        assert np.array_equal(model1.mass, model2.mass)
        assert np.array_equal(model1.stiffness, model2.stiffness)
        assert graph1.epsilon == graph2.epsilon
        for e1, e2 in zip(graph1.dissipative, graph2.dissipative):
            assert (e1.i, e1.j) == (e2.i, e2.j)
            assert np.array_equal(e1.weight, e2.weight)


class TestJsonWriter:
    def test_seventeen_digit_floats(self):
        text = dumps_json({"x": 0.1, "y": [1.0, 2.0 / 3.0]})
        assert "0.10000000000000001" in text
        assert "0.66666666666666663" in text
        parsed = json.loads(text)
        assert parsed["x"] == 0.1
        assert parsed["y"][1] == 2.0 / 3.0

    def test_nonfinite_becomes_null(self):
        assert json.loads(dumps_json({"m": float("inf")}))["m"] is None


class TestAnalyze:
    def test_report_contents(self, damper_pair_config, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", damper_pair_config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "ok"
        assert report["model"]["q"] == 2 and report["model"]["n"] == 1
        spectral = report["verdicts"]["spectral"]
        subspace = report["verdicts"]["subspace"]
        assert spectral["synchronizes"] == "yes"
        assert spectral["margin"] == pytest.approx(2.0, abs=1e-9)
        assert subspace["synchronizes"] == "yes"
        assert subspace["imaginary_axis_count"] == spectral["imaginary_axis_count"]
        assert "harmonic" in report["verdicts"]
        assert report["tolerances"]["verdict"] == 1e-8
        assert report["tool"]["name"] == "oscnet"

    def test_deterministic_reports(self, bound_example_config, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["analyze", bound_example_config, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_exit_codes(self, tmp_path):
        assert main(["analyze", str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 1, "q": 2, "M": [[1.0]], "K": [[-4.0]],
                                   "dissipative": [], "restorative": []}))
        assert main(["analyze", str(bad)]) == 1

    def test_discrepancy_exit(self, damper_pair_config, monkeypatch, tmp_path):
        import oscnet.cli as cli_mod
        from oscnet import SyncVerdict

        def fake_subspace(system, eps=None, tol=None, rank_tol=None):
            return SyncVerdict("no", 99, None, "subspace", 1e-8, None)

        monkeypatch.setattr(cli_mod, "sync_check_subspace", fake_subspace)
        out = tmp_path / "disagree.json"
        code = main(["analyze", damper_pair_config, "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["status"] == "discrepancy"

    def test_numerical_failure_exit(self, damper_pair_config, monkeypatch):
        import oscnet.cli as cli_mod
        from oscnet import NumericalFailureError

        def boom(*args, **kwargs):
            raise NumericalFailureError("eigenvalues did not converge")

        monkeypatch.setattr(cli_mod, "sync_check_spectral", boom)
        assert main(["analyze", damper_pair_config]) == 2

    def test_lapack_failure_is_numerical_failure(self, damper_pair_config,
                                                 monkeypatch):
        import oscnet.linalg as linalg_mod
        from oscnet import NumericalFailureError, complex_eig, sym_eig

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(linalg_mod.np.linalg, "eigvals", boom)
        monkeypatch.setattr(linalg_mod.np.linalg, "eigh", boom)
        with pytest.raises(NumericalFailureError, match="complex_eig"):
            complex_eig(np.eye(2))
        with pytest.raises(NumericalFailureError, match="sym_eig"):
            sym_eig(np.eye(2))
        assert main(["analyze", damper_pair_config]) == 2

    def test_commensurable_zero_restorative_output(self, tmp_path):
        # r carries an edge but C_r = 0, so no restorative weight is nonzero:
        # the array is purely dissipative and has no weak-coupling bound
        doc = {"n": 2, "q": 3, "M": [[1.0, 0.0], [0.0, 1.0]],
               "K": [[1.0, 0.0], [0.0, 4.0]],
               "commensurable": {"C_d": [[1.0, 1.0]], "C_r": [[0.0, 0.0]],
                                 "d": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                                 "r": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}}
        cfg = tmp_path / "zero_cr.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "zero_cr_report.json"
        assert main(["analyze", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "ok"
        assert "weak_coupling" not in report
        verdicts = dict(report["verdicts"],
                        commensurable=report["commensurable"]["verdict"])
        assert set(verdicts) == {"spectral", "subspace", "pure_dissipative",
                                 "commensurable"}
        assert all(v["synchronizes"] == "yes" for v in verdicts.values())

    def test_report_invariant_methods_agree_or_flagged(self, bound_example_config):
        model, graph = parse_config(bound_example_config)
        report = build_report(model, graph)
        a = report["verdicts"]["spectral"]
        b = report["verdicts"]["subspace"]
        agree = (a["synchronizes"] == b["synchronizes"]
                 and a["imaginary_axis_count"] == b["imaginary_axis_count"])
        assert agree == (report["status"] == "ok")


class TestBound:
    def test_worked_radius(self, bound_example_config, tmp_path):
        out = tmp_path / "bound_out.json"
        assert main(["bound", bound_example_config, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["radius"] == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert doc["applicable"] is True

    def test_single_mode_refused(self, damper_pair_config):
        assert main(["bound", damper_pair_config]) == 1


class TestSimulateCommand:
    def test_deterministic_csv(self, damper_pair_config, tmp_path):
        blobs = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            code = main(["simulate", damper_pair_config, "--seed", "5",
                         "--t-final", "1.0", "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("t_final", ["inf", "nan"])
    def test_nonfinite_horizon_is_invalid_input(self, damper_pair_config,
                                                tmp_path, capsys, t_final):
        out = tmp_path / "never.csv"
        assert main(["simulate", damper_pair_config, "--t-final", t_final,
                     "--out", str(out)]) == 1
        assert "t_final must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_counterexample_on_synchronizing_array(self, damper_pair_config,
                                                   tmp_path, capsys):
        out = tmp_path / "none.csv"
        code = main(["simulate", damper_pair_config, "--counterexample",
                     "--out", str(out)])
        assert code == 0
        assert not out.exists()
        assert "no counterexample" in capsys.readouterr().err

    def test_counterexample_trace(self, tmp_path):
        doc = {"n": 1, "q": 2, "M": [[1.0]], "K": [[1.0]],
               "dissipative": [], "restorative": []}
        cfg = tmp_path / "decoupled.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "mode.csv"
        code = main(["simulate", str(cfg), "--counterexample", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,e,W,z_1,z_2,v_1,v_2"
        first = [float(tok) for tok in lines[1].split(",")]
        last = [float(tok) for tok in lines[-1].split(",")]
        assert last[1] == pytest.approx(first[1], abs=1e-4)  # periodic error

    def test_counterexample_csv_repeats_with_fixed_sign(self, tmp_path):
        # node 3 hangs free, so the array keeps the undamped mode (1, 1, -2);
        # the --seed pair is test_deterministic_csv above
        doc = {"n": 1, "q": 3, "M": [[1.0]], "K": [[1.0]],
               "dissipative": [{"i": 1, "j": 2, "W": [[1.0]]}],
               "restorative": []}
        cfg = tmp_path / "loose.json"
        cfg.write_text(json.dumps(doc))
        blobs = []
        for name in ("c1.csv", "c2.csv"):
            out = tmp_path / name
            assert main(["simulate", str(cfg), "--counterexample",
                         "--t-final", "20", "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        first = blobs[0].decode().splitlines()[1].split(",")
        z = np.array([float(tok) for tok in first[3:6]])
        # the largest-magnitude entry of the starting shape is positive
        assert np.argmax(np.abs(z)) == 2 and z[2] > 0
        assert np.allclose(z, np.array([-1.0, -1.0, 2.0]) / np.sqrt(6.0), atol=1e-12)


class TestSweep:
    def test_margins_below_radius_are_yes(self, bound_example_config, tmp_path):
        out = tmp_path / "sweep_out.csv"
        code = main(["sweep", bound_example_config, "--eps-min", "0.01",
                     "--eps-max", "1.0", "--eps-steps", "12",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps,margin,verdict"
        rows = [line.split(",") for line in lines[1:]]
        eps = [float(r[0]) for r in rows]
        assert eps == sorted(eps)
        assert len(rows) == 12
        for r in rows:
            if float(r[0]) < 1.0 / 12.0:
                assert r[2] == "yes"

    def test_rejects_bad_grid(self, bound_example_config):
        assert main(["sweep", bound_example_config, "--eps-min", "1.0",
                     "--eps-max", "0.5", "--eps-steps", "3"]) == 1
