import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ergodist import efficiency, harness
from ergodist.errors import ConfigError
from ergodist.harness import (
    DEFAULT_GRID,
    ExperimentConfig,
    cli_main,
    run_experiment,
)
from ergodist.model import DiffusionModel


def make_config(tmpdir, **overrides):
    raw = {
        "model": {"family": "ou", "params": {}},
        "estimators": ["edf", "unbiased:exp:delta=1"],
        "sim": {"T": 1.0, "dt": 0.01, "seed": 5},
        "replications": 4,
        "nu": "gauss:0,1",
        "grid": {"lo": -5.0, "hi": 5.0, "count": 11},
        "output_dir": str(tmpdir),
        "workers": 1,
    }
    raw.update(overrides)
    return raw


class TestExperimentConfig:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(make_config(tmp_path))
        cfg.validate()
        assert cfg.grid_count == 11
        assert len(cfg.grid) == 11

    def test_every_violation_listed(self, tmp_path):
        raw = make_config(
            tmp_path,
            replications=1,
            estimators=["edf", "unbiased:banana:z=1"],
            grid={"lo": 2.0, "hi": -2.0, "count": 1},
            model={"family": "nosuch", "params": {}},
        )
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        text = str(err.value)
        for needle in ("replications", "estimator", "grid", "model"):
            assert needle in text
        assert len(err.value.violations) >= 4

    def test_memory_guard(self, tmp_path):
        raw = make_config(tmp_path, sim={"T": 1e7, "dt": 1e-3, "seed": 0})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw).validate()
        assert "1e8" in str(err.value) or "exceeds" in str(err.value)

    def test_sim_faults_are_simconfig_faults(self, tmp_path):
        # T is no multiple of dt: listed next to the bad estimator, and
        # alone it stops run_experiment before output_dir is created
        raw = make_config(tmp_path, sim={"T": 1.0, "dt": 0.3, "seed": 0},
                          estimators=["unbiased:banana:z=1"])
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw).validate()
        assert [v.split(":")[0] for v in err.value.violations] == ["estimators", "sim"]
        out = tmp_path / "never"
        raw = make_config(out, sim={"T": 1.0, "dt": 0.3, "seed": 0})
        with pytest.raises(ConfigError, match="integer multiple of dt"):
            run_experiment(ExperimentConfig.from_dict(raw))
        assert not out.exists()

    def test_default_grid(self):
        assert DEFAULT_GRID == (-5.0, 5.0, 81)

    def test_workers_auto_is_usable_cpus(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(make_config(tmp_path, workers="auto"))
        assert cfg.resolved_workers() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert cfg.resolved_workers() == 3
        assert ExperimentConfig.from_dict(make_config(tmp_path, workers=2)).resolved_workers() == 2


class TestRunExperiment:
    def test_smoke_produces_reports_and_files(self, tmp_path):
        cfg = ExperimentConfig.from_dict(make_config(tmp_path, replications=2))
        result = run_experiment(cfg)
        assert set(result.reports) == {"edf", "unbiased_exp"}
        for rep in result.reports.values():
            assert math.isfinite(rep.ratio)
        files = sorted(os.listdir(tmp_path))
        assert files == ["result.json", "risk_edf.csv", "risk_unbiased_exp.csv", "timing.json"]

    def test_paired_seed_provenance(self, tmp_path):
        cfg = ExperimentConfig.from_dict(make_config(tmp_path))
        result = run_experiment(cfg)
        assert result.path_seeds["edf"] == result.path_seeds["unbiased_exp"]
        data = json.load(open(tmp_path / "result.json"))
        seeds = data["seed_provenance"]["path_seeds"]
        assert seeds["edf"] == seeds["unbiased_exp"]

    def test_byte_identical_rerun(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            cfg = ExperimentConfig.from_dict(make_config(out))
            run_experiment(cfg)
        for name in ("result.json", "risk_edf.csv", "risk_unbiased_exp.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_duplicate_estimators_get_distinct_tags(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            make_config(tmp_path, estimators=["edf", "edf"])
        )
        result = run_experiment(cfg)
        assert set(result.reports) == {"edf", "edf_2"}

    def test_workers_match_serial(self, tmp_path):
        serial = run_experiment(
            ExperimentConfig.from_dict(make_config(tmp_path / "s", workers=1))
        )
        pooled = run_experiment(
            ExperimentConfig.from_dict(make_config(tmp_path / "p", workers=2))
        )
        for tag in serial.reports:
            assert serial.reports[tag].scaled_risk == pooled.reports[tag].scaled_risk
            assert np.array_equal(serial.reports[tag].bias, pooled.reports[tag].bias)


    def test_each_replication_simulated_once(self, tmp_path, monkeypatch):
        simulated = []
        real = efficiency.stream_block
        monkeypatch.setattr(efficiency, "stream_block",
                            lambda m, cfg, seeds, consume:
                            simulated.extend(seeds) or real(m, cfg, seeds, consume))
        cfg = ExperimentConfig.from_dict(make_config(
            tmp_path, replications=5,
            estimators=["edf", "unbiased:exp:delta=1", "unbiased:poly:p=1"]))
        result = run_experiment(cfg)
        assert len(result.reports) == 3
        assert sorted(simulated) == sorted(result.path_seeds["edf"])
        assert len(set(simulated)) == 5

    def test_aborted_replications_in_result_json(self, tmp_path):
        # the Euler step dt = 0.5 throws one quartic path of 100 off (the
        # 1% abort rule lets the run finish)
        cfg = ExperimentConfig.from_dict(make_config(
            tmp_path, model={"family": "quartic", "params": {}}, estimators=["edf"],
            sim={"T": 5.0, "dt": 0.5, "seed": 0}, replications=100, nu="uniform:-2,2",
            grid={"lo": -2.5, "hi": 2.5, "count": 11}))
        result = run_experiment(cfg)
        assert result.reports["edf"].aborted == 1
        assert result.reports["edf"].replications == 99
        data = json.load(open(tmp_path / "result.json"))
        assert data["reports"]["edf"]["aborted"] == 1


# Experiments whose outputs are pinned to digests: an OU run in one worker,
# the same run with a point-mass nu whose atoms lie off the grid (so curves
# are read on a non-uniform grid), and a quartic run in two, written into
# the relative directory "byte_identity".
_PINNED = {
    "ou": {"model": {"family": "ou", "params": {"theta": 1.0, "s": 1.0}},
           "estimators": ["edf", "unbiased:exp:delta=1", "unbiased:poly:p=1"],
           "sim": {"T": 5.0, "dt": 0.01, "seed": 7}, "replications": 12,
           "nu": "gauss:0,1", "grid": {"lo": -5.0, "hi": 5.0, "count": 21}, "workers": 1},
    "ou_point": {"model": {"family": "ou", "params": {"theta": 1.0, "s": 1.0}},
                 "estimators": ["edf", "unbiased:exp:delta=1", "unbiased:poly:p=1"],
                 "sim": {"T": 5.0, "dt": 0.01, "seed": 7}, "replications": 12,
                 "nu": "point:-0.7=0.25;0.1=0.5;1.3=0.25",
                 "grid": {"lo": -5.0, "hi": 5.0, "count": 21}, "workers": 1},
    "quartic": {"model": {"family": "quartic", "params": {}},
                "estimators": ["edf", "unbiased:exp:delta=1", "unbiased:poly:p=2"],
                "sim": {"T": 5.0, "dt": 0.01, "seed": 7}, "replications": 12,
                "nu": "uniform:-2,2", "grid": {"lo": -2.5, "hi": 2.5, "count": 21},
                "workers": 2},
}
# sha256 of the files written with numpy 2.4.6 by the code whose truth
# curve, quantile starts and bound read one per-model distribution table
# (node values from the G7/K15 panel integrator, cubic Hermite between
# nodes) and whose curves are read off per-cell sums streamed in chunks of
# 512 steps, with the poly weights' h and h' formed by multiplication (no
# libm pow), and whose R is read off a cubic Hermite influence table (with
# 1/(sigma^2 f) formed as G(S) exp(-scale exponent)) and the gaussian or
# uniform bound is one G7/K15 integral of it; result.json is hashed without
# the reports' "aborted" keys, which the test checks are 0. "blocks_of_5"
# runs the replications in blocks of 5, and must give the same bytes as one
# block per worker.
_PINNED_NUMPY = "2.4.6"
_PINNED_SHA256 = {
    "ou": {
        "risk_edf.csv": "1015e34a2670b63c6b29ea8df727fca6c48ae5c98a888f5c3e4576ae37b3dfba",
        "risk_unbiased_exp.csv": "ffd1b98b2dea553fe6c1392c0aae8afbed452340da944c133e3ed90a6bf0a0a3",
        "risk_unbiased_poly.csv": "033abe4e1e6c2591584def6c21d72c266efa38f52745b380f101743c8348ce44",
        "result.json": "190ccda71196437fea76e1e005214a9b2a175a938f29f26de25375f08d255a4f",
    },
    "ou_point": {
        "risk_edf.csv": "1015e34a2670b63c6b29ea8df727fca6c48ae5c98a888f5c3e4576ae37b3dfba",
        "risk_unbiased_exp.csv": "5f330cd3cd706c74e469b252737f132ba7a71160ddabef6f4facc75455f28a03",
        "risk_unbiased_poly.csv": "5e508db7756dc435f222f035c7505f400f60ca2cf19d54c0fd77bd228b499e53",
        "result.json": "376c9cd368ec571d854f5aeec3e82e2c54413762555aa68ea94ead2e4611ffbe",
    },
    "quartic": {
        "risk_edf.csv": "a81ae522be6528b8ccfb03cadc98e8cf83a7d526736097b0fb6cfd7a6abd668f",
        "risk_unbiased_exp.csv": "c68b008553b2b56066b792f4e46a09e1109d01b5dc6dd867628d3274f01c773c",
        "risk_unbiased_poly.csv": "92ee5aabf72c528a899f85dd9c8672d28181b2f72e4a2a849b1924a117e1b361",
        "result.json": "91e611561115e84d5c55e3418bfb96fb60039c9e9a3e34c8eb55002cd389a3d6",
    },
}
# sha256 of the CSV that `simulate` writes for one OU path from x0 = 1.5
# (see test_simulate_csv_matches_pinned_digest), with numpy 2.4.6.
_PINNED_SIMULATE_SHA256 = "8b6180dfdc006563ab9c33c5a228652be691ab76b02c22a5d053526f63f97278"


class TestImport:
    def test_package_import_leaves_scipy_out(self):
        code = "import sys, ergodist; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                             check=True)
        assert out.stdout.strip() == "False"


class TestByteIdentity:
    @pytest.mark.parametrize("blocks", ["one_block", "blocks_of_5"])
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_outputs_match_pinned_digests(self, name, blocks, tmp_path, monkeypatch):
        if np.__version__ != _PINNED_NUMPY:
            pytest.skip(f"digests pinned with numpy {_PINNED_NUMPY}, running {np.__version__}")
        raw = {**_PINNED[name], "output_dir": "byte_identity"}
        if blocks == "blocks_of_5":
            real = efficiency._run_blocks

            def blocks_of_5(ctx, blocks, workers):
                reps = [r for b in blocks for r in b]
                return real(ctx, [range(a, min(a + 5, len(reps)))
                                  for a in range(0, len(reps), 5)], workers)

            monkeypatch.setattr(efficiency, "_run_blocks", blocks_of_5)
        monkeypatch.chdir(tmp_path)
        run_experiment(ExperimentConfig.from_dict(raw))
        got = {}
        for fname in _PINNED_SHA256[name]:
            blob = (tmp_path / "byte_identity" / fname).read_bytes()
            if fname == "result.json":
                data = json.loads(blob)
                for rep in data["reports"].values():
                    assert rep.pop("aborted") == 0
                blob = (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
            got[fname] = hashlib.sha256(blob).hexdigest()
        assert got == _PINNED_SHA256[name]

    def test_simulate_csv_matches_pinned_digest(self, tmp_path):
        # one Python float path: 600 burn-in steps and 4 000 steps cross
        # chunks of 512 in both phases, with the increments written too
        if np.__version__ != _PINNED_NUMPY:
            pytest.skip(f"digests pinned with numpy {_PINNED_NUMPY}, running {np.__version__}")
        out = tmp_path / "path.csv"
        rc = cli_main(["simulate", "--model", "ou:theta=2,s=0.5", "--T", "20", "--dt", "0.005",
                       "--x0", "1.5", "--burn-in", "3", "--store-wiener", "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_SIMULATE_SHA256


class TestRiskCsvFormat:
    def test_header_and_precision(self, tmp_path):
        cfg = ExperimentConfig.from_dict(make_config(tmp_path))
        run_experiment(cfg)
        blob = (tmp_path / "risk_edf.csv").read_bytes()
        lines = blob.decode().splitlines()
        assert lines[0] == "x,bias,scaled_variance,local_bound"
        assert len(lines) == 12
        # full double precision round trip
        row = lines[1].split(",")
        assert float(row[0]) == -5.0
        reparsed = [float(v) for v in lines[6].split(",")]
        assert all(math.isfinite(v) for v in reparsed)
        # crlf per the csv module default
        assert b"\r\n" in blob

    def test_17_digit_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(make_config(tmp_path))
        result = run_experiment(cfg)
        rows = list(csv.DictReader(io.StringIO((tmp_path / "risk_edf.csv").read_text())))
        rep = result.reports["edf"]
        for i, row in enumerate(rows):
            assert float(row["bias"]) == rep.bias[i]
            assert float(row["scaled_variance"]) == rep.scaled_variance[i]


class TestCli:
    def test_truth_csv_contract(self, tmp_path, ou):
        out = tmp_path / "truth.csv"
        rc = cli_main(["truth", "--model", "ou", "--grid", "-3:3:61", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,F,f"
        assert len(lines) == 62
        from ergodist.model import invariant_cdf

        row = lines[31].split(",")
        assert float(row[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(row[1]) == pytest.approx(invariant_cdf(ou, 0.0), abs=1e-12)

    def test_bound_json_positive(self, tmp_path):
        out = tmp_path / "bound.json"
        rc = cli_main(["bound", "--model", "ou", "--nu", "gauss:0,1", "--out", str(out)])
        assert rc == 0
        data = json.load(open(out))
        assert data["bound"] > 0.0

    def test_bound_grid_detail_csv(self, tmp_path):
        out = tmp_path / "b.json"
        detail = tmp_path / "lb.csv"
        rc = cli_main(["bound", "--model", "ou", "--nu", "gauss:0,1",
                       "--grid", "-2:2:5", "--csv", str(detail), "--out", str(out)])
        assert rc == 0
        lines = detail.read_text().splitlines()
        assert lines[0] == "x,local_bound"
        assert len(lines) == 6
        data = json.load(open(out))
        assert len(data["local_bound"]) == 5
        # symmetric model: detail values mirror around the center
        vals = [float(r.split(",")[1]) for r in lines[1:]]
        assert vals[0] == pytest.approx(vals[-1], rel=1e-9)

    def test_check_model_json(self, tmp_path):
        out = tmp_path / "cm.json"
        rc = cli_main(["check-model", "--model", "ou", "--out", str(out)])
        assert rc == 0
        data = json.load(open(out))
        assert data["es_ok"] and data["vs_diverges"] and data["g_finite"]

    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = cli_main(["simulate", "--model", "ou", "--T", "0.1", "--dt", "0.01",
                       "--seed", "4", "--store-wiener", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,dW"
        assert len(lines) == 12
        assert lines[-1].endswith(",")

    def test_estimate_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = cli_main(["estimate", "--model", "ou", "--estimator", "edf", "--T", "1",
                       "--dt", "0.01", "--seed", "4", "--grid", "-2:2:5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,estimate"
        assert len(lines) == 6

    def test_check_conditions_json(self, tmp_path):
        out = tmp_path / "cc.json"
        rc = cli_main(["check-conditions", "--model", "ou", "--nu", "gauss:0,1",
                       "--estimator", "unbiased:exp:delta=1", "--x", "0", "--out", str(out)])
        assert rc == 0
        data = json.load(open(out))
        assert data["influence_moment_ok"] is True
        inner = data["estimators"]["unbiased:exp:delta=1"]
        assert inner["weight_moment_ok"] is True
        assert inner["thresholds"]["0.0"]["sq_moment_ok"] is True

    def test_experiment_exit_and_files(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        json.dump(make_config(tmp_path / "out", replications=2), open(cfg_path, "w"))
        rc = cli_main(["experiment", "--config", str(cfg_path)])
        assert rc == 0
        produced = set(os.listdir(tmp_path / "out"))
        assert {"risk_edf.csv", "risk_unbiased_exp.csv", "result.json"} <= produced

    def test_unknown_flag_exits_2(self, capsys):
        rc = cli_main(["truth", "--model", "ou", "--grid", "0:1:3", "--frobnicate"])
        assert rc == 2
        assert "usage" in capsys.readouterr().err

    def test_validation_error_exits_2(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        json.dump(make_config(tmp_path, replications=0), open(cfg_path, "w"))
        assert cli_main(["experiment", "--config", str(cfg_path)]) == 2

    def test_divergent_model_exits_3(self, monkeypatch):
        rc = cli_main(["bound", "--model", "ou:theta=1,s=1", "--nu", "gauss:0,1",
                       "--grid", "0:1:2"])
        assert rc == 0  # sane baseline first
        rc = cli_main(["identity-checks", "--model", "quartic",
                       "--estimator", "unbiased:exp:delta=1", "--z-grid", "-1:1:3"])
        assert rc == 0
        # null drift: the normalizer diverges under tail doubling
        null = DiffusionModel(drift=lambda x: 0.0 * x, diffusion=lambda x: 1.0,
                              diffusion_sq=lambda x: 1.0, label="null_drift")
        monkeypatch.setattr(harness, "_model_from_arg", lambda text: null)
        rc = cli_main(["bound", "--model", "ou", "--nu", "gauss:0,1"])
        assert rc == 3

    def test_explosion_exits_4(self):
        rc = cli_main(["simulate", "--model", "quartic", "--T", "50", "--dt", "0.5",
                       "--seed", "1", "--x0", "40"])
        assert rc == 4

    def test_exploding_experiment_exits_4(self, tmp_path, capsys):
        # dt = 1.0 throws a large share of quartic paths off, past the 1% rule
        cfg_path = tmp_path / "cfg.json"
        json.dump(make_config(tmp_path, model={"family": "quartic", "params": {}},
                              estimators=["edf"], sim={"T": 10.0, "dt": 1.0, "seed": 0},
                              replications=10, nu="uniform:-2,2",
                              grid={"lo": -2.5, "hi": 2.5, "count": 11}),
                  open(cfg_path, "w"))
        assert cli_main(["experiment", "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("simulation explosion:") and len(err.splitlines()) == 1

    def test_identity_checks_json(self, tmp_path):
        out = tmp_path / "idc.json"
        rc = cli_main(["identity-checks", "--model", "ou", "--estimator",
                       "unbiased:exp:delta=1", "--x", "0", "--z-grid", "-2:2:5",
                       "--seeds", "2", "--T", "4", "--dt", "0.001", "--out", str(out)])
        assert rc == 0
        data = json.load(open(out))
        assert data["derivative_identity_max_rel"] < 1e-6
        assert data["regroup_identity_max_abs"] < 1e-9
        assert data["ode_residual_max_abs"] < 1e-3
        assert data["representation_rms"] < 0.1

    def test_regroup_identity_sees_a_wrong_primitive(self, tmp_path, monkeypatch):
        # the boundary function's primitives, shifted by 1e-6, no longer
        # integrate its closed-form derivative (z = 0, where the boundary
        # function is 0 by definition, is left off the grid)
        real = efficiency.influence_primitive
        for module in (efficiency, harness):
            monkeypatch.setattr(module, "influence_primitive",
                                lambda model, x, y: real(model, x, y) + 1e-6, raising=False)
        out = tmp_path / "idc.json"
        rc = cli_main(["identity-checks", "--model", "ou", "--estimator",
                       "unbiased:exp:delta=1", "--x", "0", "--z-grid", "-2:2:4",
                       "--out", str(out)])
        assert rc == 0
        assert json.load(open(out))["regroup_identity_max_abs"] > 1e-7
