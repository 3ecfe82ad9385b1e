import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

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

    def test_non_finite_sim_is_listed(self, tmp_path):
        raw = make_config(tmp_path, sim={"T": math.inf, "dt": 0.01, "seed": 0}, replications=1)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw).validate()
        assert err.value.violations == ["sim: horizon_T must be finite, got inf",
                                        "replications: must be >= 2, got 1"]

    def test_non_finite_model_parameter_is_listed(self, tmp_path):
        raw = json.loads(json.dumps(make_config(tmp_path, replications=1)).replace(
            '"params": {}', '"params": {"theta": Infinity}'))
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw).validate()
        assert err.value.violations == [
            "model: ornstein_uhlenbeck requires finite theta > 0 and s > 0, got theta=inf, s=1.0",
            "replications: must be >= 2, got 1"]

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

    def test_grid_hull_checked_with_the_rest(self, tmp_path):
        # the hull of -1..1 misses most of gauss:0,1; it is listed next to
        # the replications fault, in plain floats, and no directory is made
        out = tmp_path / "never"
        raw = make_config(out, replications=1, grid={"lo": -1.0, "hi": 1.0, "count": 5})
        with pytest.raises(ConfigError) as err:
            run_experiment(ExperimentConfig.from_dict(raw))
        replications, hull = err.value.violations
        assert replications.startswith("replications:")
        assert hull.startswith("grid hull [-1.0, 1.0] misses nu mass 0.3173")
        assert "np.float64" not in str(err.value)
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
# 512 steps (two sums per weight, of u = h dX + (dt/2) h' sigma^2 and of
# P u), with the poly weights' h and h' formed by multiplication (no
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
        "risk_unbiased_exp.csv": "84a1dbe65e7d18c693d9985c404c8a18b3a67fa0c209ae72fd785ba66caed14f",
        "risk_unbiased_poly.csv": "34b495f258c58933c1e15621fe66ecf82c48393cf989ebee094812d623338594",
        "result.json": "6f8db1fbebfa34807886507d2cf1ccc6718cd5e0920bb9d801fc20c884248210",
    },
    "ou_point": {
        "risk_edf.csv": "1015e34a2670b63c6b29ea8df727fca6c48ae5c98a888f5c3e4576ae37b3dfba",
        "risk_unbiased_exp.csv": "9cc075517b66b9418799be47d47171d804bfeff7d4eb4566977d813b75f9a117",
        "risk_unbiased_poly.csv": "148a5699ef55f7746075e119cae8698fab8962c461b78b9630a7a91175d57f05",
        "result.json": "183b10855d0d1aed89a146ddd21005e60c95728caf4d56ce14cd298bce26703d",
    },
    "quartic": {
        "risk_edf.csv": "a81ae522be6528b8ccfb03cadc98e8cf83a7d526736097b0fb6cfd7a6abd668f",
        "risk_unbiased_exp.csv": "9d6423fb7d7dd705dbb381875041eeb8ec46b77bf2e1c0ef39557eafd56aaf9d",
        "risk_unbiased_poly.csv": "34b4f7da9b7b38b260e81754292471db60fe30862e35c70e8af1bf9cec596f05",
        "result.json": "08259e7bfe714aa165e0bcb503260cf7ed587c23d22bda1b265b3c77ed754e8a",
    },
}
# sha256 of the CSV that `simulate` writes for one OU path from x0 = 1.5
# (see test_simulate_csv_matches_pinned_digest), with numpy 2.4.6.
_PINNED_SIMULATE_SHA256 = "8b6180dfdc006563ab9c33c5a228652be691ab76b02c22a5d053526f63f97278"
# sha256 of the CSV that `estimate` prints for one OU path's exp curve on
# 201 thresholds (see test_estimate_csv_matches_pinned_digest), with numpy
# 2.4.6.
_PINNED_ESTIMATE_SHA256 = "6644262bf17c07a61bb55078aec57aa646292bd931472e929ce36870f27cdbd2"
# sha256 of the JSON that `identity-checks` prints for each argument list
# (see test_identity_checks_json_matches_pinned_digest), with numpy 2.4.6.
_PINNED_IDENTITY_SHA256 = {
    "ou_exp": (["--model", "ou", "--estimator", "unbiased:exp:delta=1", "--seeds", "2",
                "--T", "5"],
               "b6478143adc2cf2f91645a9f5489285a8244ac2cf5323582475d56447e743491"),
    "quartic_poly": (["--model", "quartic", "--estimator", "unbiased:poly:p=2", "--x", "0.5",
                      "--x", "-1"],
                     "3fe8692964f3adb884ff7cc2a9f878fd9ca5c7e75a1a293b60f115bbd70a470a"),
}


class TestImport:
    def test_package_import_leaves_scipy_out(self):
        code = "import sys, ergodist; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                             check=True)
        assert out.stdout.strip() == "False"

    def test_two_worker_run_loads_no_multiprocessing(self, tmp_path):
        # forked block workers need os.fork and pickle alone; importing
        # multiprocessing cost 16-22 ms of each run
        code = ("import json, sys\n"
                "from ergodist.harness import ExperimentConfig, run_experiment\n"
                "run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])))\n"
                "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code,
                              json.dumps(make_config(tmp_path, workers=2))],
                             capture_output=True, text=True,
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

    def test_estimate_csv_matches_pinned_digest(self, capsys):
        # one stored Python float path of 40 000 steps, 78 chunks of 512
        # and a tail of 64, read on 201 thresholds
        if np.__version__ != _PINNED_NUMPY:
            pytest.skip(f"digests pinned with numpy {_PINNED_NUMPY}, running {np.__version__}")
        rc = cli_main(["estimate", "--model", "ou:theta=2,s=0.5", "--estimator",
                       "unbiased:exp:delta=1", "--T", "200", "--dt", "0.005", "--seed", "21",
                       "--grid", "-1.5:1.5:201"])
        assert rc == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_ESTIMATE_SHA256

    @pytest.mark.parametrize("name", sorted(_PINNED_IDENTITY_SHA256))
    def test_identity_checks_json_matches_pinned_digest(self, name, capsys):
        if np.__version__ != _PINNED_NUMPY:
            pytest.skip(f"digests pinned with numpy {_PINNED_NUMPY}, running {np.__version__}")
        args, digest = _PINNED_IDENTITY_SHA256[name]
        assert cli_main(["identity-checks", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("model,radius", [("ou", "1e300"), ("quartic", "1e100")])
    def test_check_model_at_a_huge_probe_radius(self, tmp_path, model, radius):
        # x S(x) and x^2 overflow there; the ratio is formed without them,
        # and V_S's saturation is divergence, not a warning
        out = tmp_path / "cm.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli_main(["check-model", "--model", model, "--probe-radius", radius,
                           "--out", str(out)])
        assert rc == 0 and not caught
        data = json.load(open(out))
        assert data["es_ok"] and data["vs_diverges"] and data["g_finite"]

    @pytest.mark.parametrize("radius", ["1e307", "inf"])
    def test_check_model_probe_past_the_float_range_exits_2(self, tmp_path, capsys, radius):
        # the largest probe is 2^6 times the radius; the message names the
        # largest radius whose probes are all finite
        out = tmp_path / "cm.json"
        rc = cli_main(["check-model", "--model", "ou", "--probe-radius", radius,
                       "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert repr(sys.float_info.max / 64) in capsys.readouterr().err

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

    @pytest.mark.parametrize("model", ["ou", "quartic"])
    def test_check_conditions_overflowing_tail_probe(self, model, tmp_path):
        # exp:delta=6's kernel overflows at the y = -128 tail probe
        # (inf * 0 = nan): that counts as not vanishing, with no warning
        out = tmp_path / "cc.json"
        rc = cli_main(["check-conditions", "--model", model, "--nu", "gauss:0,1",
                       "--estimator", "unbiased:exp:delta=6", "--x", "0", "--out", str(out)])
        assert rc == 0
        cell = json.load(open(out))["estimators"]["unbiased:exp:delta=6"]["thresholds"]["0.0"]
        assert cell["tail_vanishes"] is False

    def test_headline_script_quick(self, tmp_path):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                              os.path.join(root, "scripts", "run_efficiency_experiment.py"),
                              str(tmp_path), "--quick"], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        reports = json.load(open(tmp_path / "result.json"))["reports"]
        assert len(reports) == 3

    def test_compare_outputs_reads_two_json_files(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        rc = cli_main(["check-conditions", "--model", "ou", "--nu", "uniform:-2,2",
                       "--estimator", "unbiased:exp:delta=1", "--out", str(old)])
        assert rc == 0
        data = json.load(open(old))
        data["influence_moment"] *= 1.0 + 1e-9
        json.dump(data, open(new, "w"))
        script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                              "compare_outputs.py")
        run = lambda *args: subprocess.run([sys.executable, script, *map(str, args)],
                                           capture_output=True, text=True)
        out = run(old, new)
        assert out.returncode == 0
        moves = {line.split()[1]: line for line in out.stdout.splitlines()
                 if "max_rel=" in line}
        assert "max_rel=0.000e+00" in moves["estimators.unbiased:exp:delta=1.weight_moment"]
        assert "max_rel=1.000e-09" in moves["influence_moment"]
        assert "0 of 1 files byte-identical" in out.stdout
        assert "1 of 1 files byte-identical" in run(old, old).stdout
        assert run(old, tmp_path).returncode == 2

    def test_compare_outputs_reads_two_csv_files(self, tmp_path):
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        rc = cli_main(["simulate", "--model", "ou", "--T", "0.1", "--dt", "0.01",
                       "--seed", "4", "--store-wiener", "--out", str(old)])
        assert rc == 0
        rows = list(csv.reader(open(old, newline="")))
        rows[3][1] = repr(float(rows[3][1]) * (1.0 + 1e-9))
        csv.writer(open(new, "w", newline="")).writerows(rows)
        script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                              "compare_outputs.py")
        run = lambda *args: subprocess.run([sys.executable, script, *map(str, args)],
                                           capture_output=True, text=True)
        out = run(old, new)
        assert out.returncode == 0
        moves = {line.split()[1]: line for line in out.stdout.splitlines()
                 if "max_rel=" in line}
        # the last row's empty dW cell matches the other side's
        assert "n=11" in moves["dW"] and "max_rel=0.000e+00" in moves["dW"]
        assert "max_rel=0.000e+00" in moves["t"]
        assert "max_rel=1.000e-09" in moves["x"]
        assert "0 of 1 files byte-identical" in out.stdout
        assert "1 of 1 files byte-identical" in run(old, old).stdout
        (tmp_path / "other.json").write_text("{}")
        assert run(old, tmp_path / "other.json").returncode == 2

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

    @pytest.mark.parametrize("field, value", [
        ("grid", None), ("grid", [-5.0, 5.0, 11]), ("sim", None), ("workers", None),
        ("workers", 2.5), ("workers", True), ("workers", 0), ("workers", "many"),
        # fractional counts and seeds are refused, not truncated
        ("replications", 4.7), ("sim", {"T": 1.0, "dt": 0.01, "seed": 5.9}),
        ("grid", {"lo": -5.0, "hi": 5.0, "count": 11.6}), ("output_dir", None),
        ("nu", "gauss:nan,1"), ("grid", {"lo": -math.inf, "hi": 5.0, "count": 11}),
        # a dict nu takes only its kind's keys: a typo or a left-over "mass" is refused
        ("nu", {"kind": "gaussian", "sdd": 3.0}),
        ("nu", {"kind": "uniform", "a": -2.0, "b": 2.0, "mass": 1.0})])
    def test_malformed_field_exits_2(self, tmp_path, capsys, field, value):
        cfg_path = tmp_path / "exp.json"
        json.dump(make_config(tmp_path / "out", **{field: value}), open(cfg_path, "w"))
        assert cli_main(["experiment", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field}: " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_no_object_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        json.dump([make_config(tmp_path)], open(cfg_path, "w"))
        for extra in ([], ["--output-dir", str(tmp_path / "out")]):
            assert cli_main(["experiment", "--config", str(cfg_path), *extra]) == 2
            assert capsys.readouterr().err.startswith("error: invalid configuration: config:")

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

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="blocks run serially")
    def test_dead_worker_exits_4_as_a_worker_failure(self, tmp_path, capsys, monkeypatch):
        # a block worker that ends without a result is no explosion
        real = efficiency._block_errors

        def dies_after_first(ctx, reps):
            if reps.start > 0:
                os._exit(5)
            return real(ctx, reps)

        monkeypatch.setattr(efficiency, "_block_errors", dies_after_first)
        cfg_path = tmp_path / "cfg.json"
        json.dump(make_config(tmp_path, estimators=["edf"], workers=2), open(cfg_path, "w"))
        assert cli_main(["experiment", "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("worker failed: the worker for replications 2..3 ended without "
                              "a result") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("grid", ["-inf:1:3", "0:inf:3"])
    def test_non_finite_grid_exits_2(self, capsys, grid):
        assert cli_main(["bound", "--model", "ou", "--nu", "gauss:0,1", f"--grid={grid}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("args", [["--T", "inf", "--dt", "0.01"],
                                      ["--T", "1", "--dt", "0.01", "--x0", "0", "--burn-in", "inf"]],
                             ids=["T", "burn_in"])
    def test_non_finite_simulation_exits_2(self, capsys, args):
        assert cli_main(["simulate", "--model", "ou", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("nu", ["gauss:nan,1", "gauss:0,inf", "uniform:0,inf",
                                    "uniform:-inf,0", "point:nan=1", "point:0=inf"])
    def test_non_finite_nu_exits_2(self, capsys, nu):
        assert cli_main(["bound", "--model", "ou", "--nu", nu]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("model", ["ou:theta=inf", "ou:s=inf", "ou:s=nan"])
    def test_non_finite_model_exits_2(self, capsys, model):
        assert cli_main(["bound", "--model", model, "--nu", "gauss:0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [
        ["check-conditions", "--nu", "gauss:0,1", "--estimator", "unbiased:exp:delta=1"],
        ["identity-checks", "--estimator", "unbiased:exp:delta=1", "--z-grid", "-1:1:3"]],
        ids=["check_conditions", "identity_checks"])
    def test_non_finite_threshold_exits_2(self, capsys, command, x):
        assert cli_main([*command, "--model", "ou", f"--x={x}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid configuration: x: thresholds must be finite, got {x}\n"

    def test_negative_seeds_exits_2(self, capsys):
        rc = cli_main(["identity-checks", "--model", "ou", "--estimator", "unbiased:exp:delta=1",
                       "--z-grid", "-1:1:3", "--seeds", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: invalid configuration: seeds: must be >= 0, got -1\n"

    @pytest.mark.parametrize("spec", ["exp:delta=inf", "exp:delta=nan", "const:c=inf"])
    def test_non_finite_weight_exits_2(self, capsys, spec):
        rc = cli_main(["estimate", "--model", "ou", "--estimator", f"unbiased:{spec}",
                       "--T", "1", "--dt", "0.01", "--grid", "-1:1:3", "--seed", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad estimator spec") and len(err.splitlines()) == 1

    def test_unweightable_path_exits_3(self, capsys):
        # h = exp(800 u) underflows to 0 near u = -0.97, where the path goes,
        # and its primitive overflows just above; no numpy warning is printed
        rc = cli_main(["estimate", "--model", "ou", "--estimator", "unbiased:exp:delta=800",
                       "--T", "1", "--dt", "0.01", "--grid", "-1:1:3", "--seed", "3"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("finiteness condition failed: path 0 cannot be weighted")
        assert len(err.splitlines()) == 1

    def test_tail_error_exits_2(self, capsys):
        # the closed boundary derivative needs the invariant density at
        # z = -40, where it underflows
        rc = cli_main(["identity-checks", "--model", "ou", "--estimator",
                       "unbiased:exp:delta=1", "--z-grid=-40:40:3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err and "-40" in err

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
