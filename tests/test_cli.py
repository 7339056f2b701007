import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from iasec import alignment, cli, ergodic, gaussmi, model
from iasec.alignment import (
    AlignmentError,
    build_beamformers,
    build_generators,
    check_full_rank,
    stream_power,
    verify_alignment,
)
from iasec.cli import (
    CSV_COLUMNS,
    ETA_RTOL,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _confidential_tables,
    _oracle_suite,
    _record,
    _run_confidential_point,
    emit_report,
    eta_target_confidential,
    eta_target_ergodic,
    main,
    run,
    sweep,
)
from iasec.ergodic import ergodic_pass
from iasec.gaussmi import DEFAULT_RHO_GRID, mi_from_gains, receiver_gains, spectra_table
from iasec.model import NetworkRealization, PowerConfig, derive_dims, sample_network
from iasec.secrecy import confidential_rates

SEED = 16


def make_cfg(**kw):
    base = dict(scenario="confidential", K=3, m=2, seed=SEED)
    base.update(kw)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError):
            make_cfg(seed=None).validate()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "confidential", "seeds": 3})

    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            make_cfg(scenario="bistatic").validate()

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            make_cfg(m=[]).validate()

    def test_rho_grid_must_increase(self):
        with pytest.raises(ConfigError):
            make_cfg(rho_grid=[1e4, 1e3, 1e5]).validate()

    def test_grid_cap(self):
        with pytest.raises(ConfigError):
            make_cfg(K=[3, 4], m=list(range(1, 40))).validate()  # 78 points, cap 64

    def test_k_cap(self):
        with pytest.raises(ConfigError):
            make_cfg(K=6).validate()

    def test_f_cap(self):
        with pytest.raises(ConfigError):
            make_cfg(K=5, m=2).validate()  # F = 3**11 + 2**11 >> 4100

    def test_digest_stable_under_key_order(self):
        a = ExperimentConfig.from_dict({"seed": 1, "scenario": "confidential"})
        b = ExperimentConfig.from_dict({"scenario": "confidential", "seed": 1})
        assert a.digest() == b.digest()


class TestRun:
    def test_confidential_point(self, tmp_path):
        cfg = make_cfg(out=str(tmp_path))
        manifest = run(cfg)
        rec = manifest["records"][0]
        assert rec["scenario"] == "confidential"
        assert abs(rec["eta_measured"] - 0.1) / 0.1 < 0.10
        assert rec["checks_passed"] is True
        assert manifest["passed"]

    def test_run_rejects_grids(self):
        with pytest.raises(ConfigError):
            run(make_cfg(m=[2, 3]))

    def test_known_csi_point(self):
        manifest = run(make_cfg(scenario="external-known-csi", K=2, m=2, seed=4))
        rec = manifest["records"][0]
        assert rec["K"] == 2 and rec["F"] == 5
        target = eta_target_confidential(3, 2)
        assert abs(rec["eta_measured"] - target) / target < 0.10

    def test_ergodic_point(self):
        manifest = run(
            make_cfg(scenario="external-ergodic", K=3, m=1, trials=30, seed=SEED)
        )
        rec = manifest["records"][0]
        assert rec["trials"] == 30
        assert rec["detail"]["lemma5"]["passed"]
        assert rec["detail"]["checks"] == {"lemma5": True, "inequality_audit": True, "slope": True}
        for row in rec["detail"]["per_rho"]:  # Rx is never clamped
            assert row["R"] == max(row["R_raw"], 0.0) and row["Rx"] == row["Rx_raw"]
        target = eta_target_ergodic(3, 1)
        assert abs(rec["eta_measured"] - target) / target < 0.10

    def test_ergodic_manifest_lists_each_budget_subset(self, tmp_path):
        # the budget keys its sets by user bitmask; the manifest writes their members
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "external-ergodic", "K": 3, "m": 1}))
        argv = ["--config", str(cfg), "--seed", str(SEED), "--trials", "30", "--out", str(tmp_path)]
        assert main(argv + ["ergodic"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        entries = manifest["records"][0]["detail"]["lemma5"]["entries"]
        assert [e["subset"] for e in entries] == [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]


class TestSlopeCheck:
    @staticmethod
    def record(slope, target, checks=None):
        # R is R_raw clamped at zero, as the rate rules clamp it
        rows = [
            {"rho": rho, "R": max(0.0, slope * np.log2(rho)), "R_raw": slope * np.log2(rho),
             "Rx": 0.0, "clamped": slope < 0}
            for rho in DEFAULT_RHO_GRID
        ]
        cfg = make_cfg().validate()
        return _record(cfg, 3, derive_dims(3, 2), rows, None, target, None, checks or {}, {})

    @pytest.mark.parametrize(
        "slope, target, passed",
        [
            (0.1, 0.1, True),
            (0.1 * (1 - 0.9 * ETA_RTOL), 0.1, True),
            (0.1 * (1 - 1.1 * ETA_RTOL), 0.1, False),
            (0.1 * (1 + 1.1 * ETA_RTOL), 0.1, False),
            (0.0, 0.0, True),  # a zero target claims nothing
            # a negative target clamps to zero: R_raw's slope is held to it
            (-0.1 * (1 - 0.9 * ETA_RTOL), -0.1, True),
            (-0.1 * (1 + 0.9 * ETA_RTOL), -0.1, True),
            (-0.1 * (1 - 1.1 * ETA_RTOL), -0.1, False),
            (-0.1 * (1 + 1.1 * ETA_RTOL), -0.1, False),
        ],
    )
    def test_slope_is_held_to_its_target(self, slope, target, passed):
        rec = self.record(slope, target)
        assert rec["eta_measured"] == pytest.approx(max(slope, 0.0), rel=1e-12, abs=1e-15)
        assert rec["eta_target"] == max(target, 0.0)
        assert rec["checks_passed"] is passed
        # a record with no other check and a zero target evaluated nothing
        name = "slope" if target > 0 else "slope_raw"
        want = {"slope": passed if target > 0 else None}
        if target < 0:
            want["slope_raw"] = passed
        assert rec["detail"]["checks"] == want
        assert rec["detail"]["vacuous"] is (target == 0)
        assert rec["detail"]["failed_checks"] == ([] if passed else [name])

    def test_a_passing_slope_keeps_a_failed_check(self):
        rec = self.record(0.1, 0.1, checks={"decodability": np.False_, "region": True})
        assert rec["checks_passed"] is False
        assert rec["detail"]["checks"] == {"decodability": False, "region": True, "slope": True}
        assert rec["detail"]["failed_checks"] == ["decodability"]
        assert rec["detail"]["vacuous"] is False


class TestConfidentialTables:
    # per receiver: I(X_i;Y_i), I(X_S;Y_i|X_rest) for each nonempty S of the
    # K-1 others (the S = all-others entry is the cross term) and the
    # inflated-power leakage bound, each one difference of two table log-dets,
    # taken once for the whole grid: every call carries every grid rho, and
    # one call covers all of a receiver's subsets
    @pytest.mark.parametrize("K, m, distinct", [(3, 2, 15), (4, 1, 36)])
    def test_each_mutual_information_evaluated_once_per_rho(self, monkeypatch, K, m, distinct):
        net = sample_network(derive_dims(K, m), SEED)
        aset = build_beamformers(net, build_generators(net))
        mi_bits = gaussmi._mi_bits
        for points in (5, 7):
            calls = []

            def counted(*args, **kwargs):
                calls.append(args)
                return mi_bits(*args, **kwargs)

            monkeypatch.setattr(gaussmi, "_mi_bits", counted)
            cfg = make_cfg(K=K, m=m, rho_grid=list(np.logspace(4, 12, points))).validate()
            _confidential_tables(net, spectra_table(net, aset), cfg)
            assert all(np.shape(a)[0] == points for args in calls for a in args)
            assert sum(np.size(top) for top, _ in calls) == distinct * points

    # one SVD per receiver and set: {i}, the others, all users, S u {i} for
    # each proper nonempty S of the others, and the inflated all-users set;
    # the rho grid only changes the loads the spectra are read at
    @pytest.mark.parametrize("points", [5, 7])
    @pytest.mark.parametrize("K, m, svds", [(3, 2, 18), (4, 1, 40)])
    def test_one_svd_per_receiver_set_for_any_grid(self, monkeypatch, K, m, svds, points):
        net = sample_network(derive_dims(K, m), SEED)
        aset = build_beamformers(net, build_generators(net))
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cfg = make_cfg(K=K, m=m, rho_grid=list(np.logspace(4, 12, points))).validate()
        _confidential_tables(net, spectra_table(net, aset), cfg)
        assert len(calls) == svds

    @pytest.mark.parametrize("K, m", [(3, 2), (4, 1)])
    def test_subset_terms_match_mi_from_gains(self, K, m):
        net = sample_network(derive_dims(K, m), SEED)
        aset = build_beamformers(net, build_generators(net))
        loads = np.array([PowerConfig(rho=rho).effective for rho in DEFAULT_RHO_GRID])
        rates = confidential_rates(net, spectra_table(net, aset), loads)
        for g, rho in enumerate(DEFAULT_RHO_GRID):
            powers = stream_power(aset, PowerConfig(rho=rho))
            for i, masks in enumerate(rates.subset_masks.tolist()):
                for j, mask in enumerate(masks):
                    sub = [k for k in range(K) if mask >> k & 1]
                    rest = set(range(K)) - {i, *sub}
                    ref = mi_from_gains(receiver_gains(net, aset, i), powers, sub, rest).bits
                    assert abs(rates.subset_bits[i, j, g] - ref) <= 1e-12 * ref


class TestSpectraTakenOnce:
    # the verification reads spectra the rates read, so it adds no SVD

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        svd, shapes = np.linalg.svd, []

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return shapes

    def test_confidential_point(self, svd_shapes):
        # per receiver, the table's 2^(K-1) + 2 sets; the verification's
        # others' and all-users spectra are two of them
        record = _run_confidential_point(make_cfg().validate(), 3, 2)
        assert record["detail"]["attempts"] == 0 and record["detail"]["alignment"]["passed"]
        assert len(svd_shapes) == 3 * (2 ** (3 - 1) + 2)

    def test_ergodic_chunk(self, svd_shapes):
        # one chunk of 30 blocks: 2K receiver spectra (the verification's),
        # 2^K - 1 eavesdropper sets and the inflated set, one stacked call each
        dims = derive_dims(3, 2)
        pass_ = ergodic_pass(dims, np.subtract(DEFAULT_RHO_GRID, 1.0), 30, SEED)
        assert pass_.resampled_blocks == []
        assert len(svd_shapes) == 2 * 3 + 2**3
        assert all(shape[0] == 30 for shape in svd_shapes)


class TestSweep:
    def test_records_in_grid_order_with_rising_eta(self):
        manifest = sweep(make_cfg(m=[3, 2]))
        ms = [r["m"] for r in manifest["records"]]
        assert ms == [2, 3]
        etas = [r["eta_measured"] for r in manifest["records"]]
        assert etas[1] > etas[0]


class TestEmitReport:
    def test_csv_schema(self, tmp_path):
        manifest = run(make_cfg(out=str(tmp_path)))
        emit_report(manifest, tmp_path)
        header = (tmp_path / "records.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_empty_manifest_yields_header_only(self, tmp_path):
        manifest = {
            "records": [],
            "scenario": "confidential",
            "seed": 0,
            "config_hash": "0" * 64,
            "passed": True,
            "checks": {},
        }
        emit_report(manifest, tmp_path)
        assert (tmp_path / "records.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_reference_series_present(self, tmp_path):
        manifest = run(make_cfg(out=str(tmp_path)))
        emit_report(manifest, tmp_path)
        eta = (tmp_path / "plot_eta_vs_m.csv").read_text().splitlines()
        assert eta[0] == "K,m,eta_measured,eta_target,eta_asymptote"
        assert eta[1].endswith("0.25")
        delta = (tmp_path / "plot_delta_vs_rho.csv").read_text().splitlines()
        assert delta[0] == "K,m,log2_rho,delta_hat,delta_reference"


class TestMainEntry:
    def test_missing_seed_is_config_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "rates"]) == 2

    @pytest.mark.parametrize(
        "fields",
        [
            {"rho_grid": [10, 100, 1000]},  # spans 2 decades
            {"epsilon_margin": 20000},  # above rho_grid[0] = 1e4
            {"epsilon_margin": 0},
            {"m": 0},
            {"seed": 1.5},
            {"seed": True},
            {"K": 3.7},
            {"m": [1, 2.5]},
            {"trials": 2.5},
            {"workers": True},
            {"rho_grid": 5},
            {"epsilon_margin": "1"},
            {"epsilon_margin": True},
            {"tol": "x"},
            {"tol": -1},
            {"rho_grid": [1e4, float("nan"), 1e8, 1e12]},
            {"workers": 17},
        ],
        ids=[
            "grid-2-decades", "eps-above-grid", "eps-zero", "m-zero", "seed-float",
            "seed-bool", "K-float", "m-list-float", "trials-float", "workers-bool",
            "grid-scalar", "eps-string", "eps-bool", "tol-string", "tol-negative",
            "grid-nan", "workers-above-cap",
        ],
    )
    def test_bad_config_exits_two_without_records(self, tmp_path, fields):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"K": 3, "m": 1, "seed": SEED, **fields}))
        for command in ("rates", "dof-sweep", "ergodic", "audit", "align-verify"):
            out = tmp_path / command
            assert main(["--config", str(p), "--out", str(out), command]) == 2, command
            assert not (out / "records.csv").exists()

    def test_workers_is_an_unknown_field(self, tmp_path, capsys):
        # the Monte Carlo pass runs in trial order on one thread; there is no knob
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"K": 3, "m": 1, "seed": SEED, "workers": 1}))
        assert main(["--config", str(p), "--out", str(tmp_path / "o"), "ergodic"]) == 2
        assert "unknown config fields: ['workers']" in capsys.readouterr().err
        assert not (tmp_path / "o" / "records.csv").exists()

    def test_rates_roundtrip(self, tmp_path):
        code = main(["--seed", str(SEED), "--out", str(tmp_path), "rates"])
        assert code == 0
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "records.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--seed", str(SEED), "--out", str(a), "rates"]) == 0
        assert main(["--seed", str(SEED), "--out", str(b), "rates"]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_audit_command(self, tmp_path):
        code = main(
            ["--seed", str(SEED), "--out", str(tmp_path), "--trials", "30", "audit"]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["checks"] and all(manifest["checks"].values())

    def test_align_verify_command(self, tmp_path):
        manifests = {}
        for command in ("align-verify", "audit"):
            out = tmp_path / command
            assert main(["--seed", str(SEED), "--out", str(out), "--trials", "20", command]) == 0
            manifests[command] = json.loads((out / "manifest.json").read_text())
        verify, full = manifests["align-verify"], manifests["audit"]
        # align-verify is the audit's alignment suite alone, under the audit's names
        assert verify["checks"] == {
            name: full["checks"][name] for name in ("K3_m2_alignment", "K3_m2_lemma2")
        }
        detail = verify["audit_details"]["K3_m2"]
        assert set(detail) == {
            "alignment",
            "lemma2_trials",
            "lemma2_failures",
            "lemma2_failing_trials",
            "lemma2_exact_links",
        }
        assert detail == {key: full["audit_details"]["K3_m2"][key] for key in detail}

    def test_a_seed_network_that_divides_by_zero_is_a_finding(self, monkeypatch, tmp_path):
        # a zero on the cross link (1, 0) divides by zero while the seed
        # network's generators are formed: it reads zeroed beams, so the
        # alignment fails with rank-0 receivers, Lemma 2 still runs, exit 1
        sample = model.sample_gains

        def planted(dims, seeds, block_index=0):
            gains = sample(dims, seeds, block_index)
            gains[:, 1, 0, 0] = 0.0
            return gains

        monkeypatch.setattr(model, "sample_gains", planted)
        monkeypatch.setattr(cli, "sample_gains", planted)
        argv = ["--seed", str(SEED), "--out", str(tmp_path), "--trials", "5", "align-verify"]
        assert main(argv) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failed_points"] == [] and not manifest["passed"]
        assert manifest["checks"] == {"K3_m2_alignment": False, "K3_m2_lemma2": True}
        detail = manifest["audit_details"]["K3_m2"]
        assert detail["lemma2_trials"] == 5 and detail["lemma2_failures"] == 0
        for r in detail["alignment"]["receivers"]:
            assert (r["interference_dim"], r["concat_rank"]) == (0, 0)

    def test_tight_tolerance_reported_not_crashed(self, monkeypatch, tmp_path):
        # under a floor of 1e-20 the containment (near 1e-16) counts as a rank:
        # align-verify reports the failed verification as a finding, exit 1
        monkeypatch.setattr(alignment, "RANK_FLOOR", 1e-20)
        code = main(
            ["--seed", str(SEED), "--out", str(tmp_path), "--trials", "5", "align-verify"]
        )
        assert code == 1
        checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
        assert checks == {"K3_m2_alignment": False, "K3_m2_lemma2": True}

    def test_audit_keeps_a_failed_points_completed_checks(self, monkeypatch, tmp_path):
        # under the same floor the Monte Carlo suite runs out of draws; the
        # alignment and oracle suites ran before it, and their checks and
        # details stay on the point's failure entry and in the summary
        monkeypatch.setattr(alignment, "RANK_FLOOR", 1e-20)
        code = main(["--seed", str(SEED), "--out", str(tmp_path), "--trials", "5", "audit"])
        assert code == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        [failed] = manifest["failed_points"]
        assert (failed["K"], failed["m"]) == (3, 2) and manifest["checks"] == {}
        oracles = ("chain_rule", "schur", "monotonicity", "lemma3_instances", "scalar_slope")
        assert failed["checks"] == {
            "K3_m2_alignment": False,
            "K3_m2_lemma2": True,
            **{f"K3_m2_oracle_{name}": True for name in oracles},
        }
        assert manifest["audit_details"] == {}
        details = failed["details"]
        assert details["alignment"]["passed"] is False
        assert (details["lemma2_trials"], details["lemma2_failures"]) == (5, 0)
        assert details["oracle_instances"] == 5 and "mc_trials" not in details
        header, _, point, *checks = (tmp_path / "summary.txt").read_text().splitlines()
        assert header.startswith(f"seed: {SEED}  config: ")  # an audit runs no scenario
        assert point.startswith("  K=3 m=2 FAILED: ")
        assert checks == [
            f"    check {name}: {'pass' if ok else 'FAIL'}" for name, ok in failed["checks"].items()
        ]  # in suite order, as the manifest keeps them

    def test_report_reproduces_an_audit_byte_for_byte(self, tmp_path):
        # the manifest keeps its keys in insertion order, so the re-emitted
        # summary lists the checks in suite order, as the run did
        run_dir, report_dir = tmp_path / "run", tmp_path / "report"
        code = main(["--seed", str(SEED), "--out", str(run_dir), "--trials", "30", "audit"])
        assert main(["--out", str(report_dir), "report", str(run_dir / "manifest.json")]) == code
        written = sorted(path.name for path in report_dir.iterdir())
        assert written == sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")
        assert "summary.txt" in written and "records.csv" in written
        for name in written:
            assert (report_dir / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_report_command(self, tmp_path):
        assert main(["--seed", str(SEED), "--out", str(tmp_path), "rates"]) == 0
        (tmp_path / "records.csv").unlink()
        code = main(["report", str(tmp_path / "manifest.json")])
        assert code == 0
        assert (tmp_path / "records.csv").exists()

    def test_unattainable_tolerance_is_numerical_error(self, monkeypatch, tmp_path):
        # the containment sigma_{d+1} / sigma_1 sits near 1e-16, above a
        # floor of 1e-20, so alignment keeps failing through the retry budget
        monkeypatch.setattr(alignment, "RANK_FLOOR", 1e-20)
        assert main(["--seed", str(SEED), "--out", str(tmp_path), "rates"]) == 3

    def test_unattainable_tolerance_fails_the_ergodic_point(self, monkeypatch, tmp_path):
        # every block is verified at the floor, so no draw of block 0 aligns
        monkeypatch.setattr(alignment, "RANK_FLOOR", 1e-20)
        argv = ["--seed", str(SEED), "--trials", "30", "--out", str(tmp_path)]
        assert main(argv + ["ergodic"]) == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        [failed] = manifest["failed_points"]
        assert (failed["K"], failed["m"]) == (3, 2)
        assert "retry budget" in failed["error"]
        assert not manifest["passed"]

    def test_tol_is_an_unknown_field(self, tmp_path, capsys):
        # the float64 rank floor is the whole alignment rule; there is no ceiling to set
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"K": 3, "m": 1, "seed": SEED, "tol": 1e-8}))
        assert main(["--config", str(p), "--out", str(tmp_path / "o"), "rates"]) == 2
        assert "unknown config fields: ['tol']" in capsys.readouterr().err
        assert not (tmp_path / "o" / "records.csv").exists()

    def test_tol_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", str(SEED), "--out", str(tmp_path), "--tol", "1e-8", "rates"])
        assert exc.value.code == 2
        assert not (tmp_path / "records.csv").exists()

    def test_confidential_point_passes_on_a_later_draw(self, monkeypatch, tmp_path):
        # the first verification (draw 0) fails, so the point runs on draw 1,
        # the network sampled at block index 1
        passes, calls = alignment._passes, []

        def fail_first(*args):
            ok = passes(*args)
            calls.append(len(ok))
            return ok & (len(calls) > 1)

        monkeypatch.setattr(alignment, "_passes", fail_first)
        assert main(["--seed", str(SEED), "--out", str(tmp_path), "rates"]) == 0
        [record] = json.loads((tmp_path / "manifest.json").read_text())["records"]
        assert record["detail"]["attempts"] == 1
        cfg = make_cfg().validate()
        net = sample_network(derive_dims(3, 2), SEED, block_index=1)
        aset = build_beamformers(net, build_generators(net), verify=False)
        rows, _, checks = _confidential_tables(net, spectra_table(net, aset), cfg)
        assert record["detail"]["per_rho"] == rows
        assert record["detail"]["checks"] == {**checks, "slope": True}
        assert record["detail"]["alignment"] == verify_alignment(net, aset).as_dict()

    def test_sweep_keeps_the_points_before_a_failed_one(self, tmp_path):
        # every m=30 draw fails verification (all-users rank short of F=61)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"K": 3, "m": [2, 30], "seed": SEED}))
        out = tmp_path / "o"
        assert main(["--config", str(p), "--out", str(out), "dof-sweep"]) == 3
        rows = (out / "records.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("confidential,3,2,")
        manifest = json.loads((out / "manifest.json").read_text())
        [failed] = manifest["failed_points"]
        assert (failed["K"], failed["m"]) == (3, 30)
        assert "retry budget" in failed["error"]
        assert "weakest signal" in failed["error"] and "below the float64 floor" in failed["error"]
        assert not manifest["passed"]
        assert "K=3 m=30 FAILED" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize(
        "fields",
        [{"scenario": "external-known-csi", "K": 3, "m": 2}, {"K": 4, "m": 2}],
        ids=["known-csi-K3-m2", "confidential-K4-m2"],
    )
    def test_seed_4_aligns_on_its_first_draw(self, tmp_path, fields):
        # both align on draw 0 with containments near 3e-16 (F=275); a rank
        # tolerance of 1e-10 * max(shape) * sigma_1 would count some of the
        # smallest singular values of every draw as zero and exit 3
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**fields, "seed": 4}))
        assert main(["--config", str(p), "--out", str(tmp_path / "o"), "rates"]) == 0
        [record] = json.loads((tmp_path / "o" / "manifest.json").read_text())["records"]
        assert record["detail"]["attempts"] == 0
        assert record["detail"]["alignment"]["passed"]

    def test_a_record_short_of_its_slope_fails_its_checks(self, tmp_path):
        # K=3, m=18 aligns on draw 2, whose weakest signal directions
        # (sigma_F^2 near 1e-18 against sigma_1^2 near 50) carry no rate on
        # the grid: R's slope is 0.175 against a target of 0.230, so the run
        # exits 1 instead of writing a record that passes 24% short
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"K": 3, "m": 18, "seed": SEED}))
        code = main(["--config", str(p), "--out", str(tmp_path / "o"), "rates"])
        [record] = json.loads((tmp_path / "o" / "manifest.json").read_text())["records"]
        eta, target = record["eta_measured"], record["eta_target"]
        assert code == 1 and abs(eta - target) > ETA_RTOL * target
        assert not record["checks_passed"] and record["detail"]["failed_checks"] == ["slope"]
        assert record["detail"]["alignment"]["passed"] and record["detail"]["attempts"] == 2
        assert "checks False (failed: slope)" in (tmp_path / "o" / "summary.txt").read_text()

    def test_a_point_clamped_everywhere_is_held_by_its_raw_slope(self, tmp_path):
        # K=4, m=1: the confidential target is negative and R_raw < 0 at every
        # grid rho, so R and its clamped target claim nothing; R_raw's slope is
        # held to the unclamped target instead, and the record is not vacuous
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"K": 4, "m": 1, "seed": SEED}))
        assert main(["--config", str(p), "--out", str(tmp_path / "o"), "rates"]) == 0
        [record] = json.loads((tmp_path / "o" / "manifest.json").read_text())["records"]
        detail = record["detail"]
        assert eta_target_confidential(4, 1) < 0 and record["eta_target"] == 0.0
        assert detail["checks"] == {
            "decodability": None, "region": None, "slope": None, "slope_raw": True,
        }
        assert not detail["vacuous"] and detail["failed_checks"] == [] and record["checks_passed"]
        for row in detail["per_rho"]:
            assert row["clamped"] and row["R"] == 0.0 and row["R_raw"] < 0
            assert row["Rx"] == max(row["Rx_raw"], 0.0)
        summary = (tmp_path / "o" / "summary.txt").read_text()
        assert "checks True" in summary and "vacuous" not in summary

    def test_audit_keeps_the_points_before_a_failed_one(self, tmp_path):
        # block 0 of the m=30 Monte Carlo fails verification on every draw
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"K": 3, "m": [1, 30]}))
        out = tmp_path / "o"
        argv = ["--config", str(p), "--seed", str(SEED), "--trials", "30", "--out", str(out)]
        assert main(argv + ["audit"]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        [failed] = manifest["failed_points"]
        assert (failed["K"], failed["m"]) == (3, 30)
        assert failed["error"].startswith("block 0: degenerate beyond retry budget")
        assert manifest["checks"] and all(name.startswith("K3_m1_") for name in manifest["checks"])
        assert list(manifest["audit_details"]) == ["K3_m1"]
        assert not manifest["passed"]
        summary = (out / "summary.txt").read_text()
        assert "K=3 m=30 FAILED" in summary and "check K3_m1_lemma3: pass" in summary

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["--seed", str(SEED), "--out", str(tmp_path), "rates"]) == 0
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__ and env["blas"]
        assert env["OPENBLAS_NUM_THREADS"] == "2" and env["OMP_NUM_THREADS"] is None
        # the count OpenBLAS reports, restored after every single-thread SVD
        blas = gaussmi._openblas()
        assert env["blas_threads"] == (None if blas is None else blas.get())
        assert env["blas_single_thread_below_rows"] == 512

    def test_report_failed_manifest_exits_one(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "records": [],
                    "scenario": "confidential",
                    "seed": 0,
                    "config_hash": "0" * 64,
                    "passed": False,
                    "checks": {},
                }
            )
        )
        assert main(["report", str(path)]) == 1

    def test_audit_grid(self, tmp_path):
        cfg = {"K": 3, "m": [1, 2], "seed": SEED, "trials": 20}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = main(["--config", str(p), "--out", str(tmp_path / "o"), "audit"])
        assert code == 0
        details = json.loads((tmp_path / "o" / "manifest.json").read_text())["audit_details"]
        for tag in ("K3_m1", "K3_m2"):
            # every redraw is rank-audited; the Monte Carlo runs its 30-block floor
            assert details[tag]["lemma2_trials"] == 20
            assert details[tag]["mc_trials"] == 30
            assert details[tag]["oracle_instances"] == 20


class TestOracleSuite:
    @staticmethod
    def per_instance_worst(cfg, K, m, instances):
        # reference: one network and one per-network build per instance
        dims = derive_dims(K, m)
        seeds = model._stream_seeds(cfg.seed, model._TAG_AUDIT_SEED, np.arange(instances))
        power = PowerConfig(rho=1e4, epsilon_margin=cfg.epsilon_margin)
        worst_chain = worst_schur = 0.0
        for links in model.sample_gains(dims, seeds):
            net = NetworkRealization(dims, links)
            aset = build_beamformers(net, build_generators(net), verify=False)
            powers = stream_power(aset, power)
            gains = receiver_gains(net, aset, 0)
            both = mi_from_gains(gains, powers, {1, 2}).bits
            first = mi_from_gains(gains, powers, {1}).bits
            second = mi_from_gains(gains, powers, {2}, conditioned={1}).bits
            worst_chain = max(worst_chain, abs(both - (first + second)) / both)
            worst_schur = max(worst_schur, abs(both - gaussmi.mi_schur(gains, powers, {1, 2})) / both)
        return worst_chain, worst_schur

    # K=4, m=1: one chunk of 5 instances, and chunks of 11, the last holds 1
    @pytest.mark.parametrize("K,m,trials", [(3, 2, 40), (4, 1, 5), (4, 1, 12)])
    def test_chunked_builds_match_per_instance_builds(self, K, m, trials):
        cfg = make_cfg(K=K, m=m)
        checks, details = _oracle_suite(cfg, K, m, trials)
        assert all(checks.values()) and details["oracle_instances"] == trials
        worst = (details["worst_chain_rel"], details["worst_schur_rel"])
        assert worst == self.per_instance_worst(cfg, K, m, trials)

    def test_first_unbuilt_instance_raises_its_own_error(self, monkeypatch):
        # instances 3 and 5 divide by zero while their generators are formed
        sample = model.sample_gains

        def patched(dims, seeds, block_index=0):
            gains = sample(dims, seeds, block_index)
            gains[3, 1, 0, 0] = gains[5, 0, 2, 1] = 0.0
            return gains

        monkeypatch.setattr(alignment, "sample_gains", patched)
        with pytest.raises(AlignmentError) as raised:
            _oracle_suite(make_cfg(), 3, 2, 10)
        assert str(raised.value) == "oracle instance 3: zero diagonal entry in its construction"


class TestOneChunkRule:
    @pytest.mark.parametrize("K, m", [(3, 1), (4, 1)])
    def test_every_stacked_pass_samples_seven_networks_per_chunk(self, monkeypatch, K, m):
        # one rule sizes every chunk: at 7 networks' bytes the Lemma 2 audit,
        # the oracles and the ergodic pass each draw 15 networks as 7, 7 and 1
        dims = derive_dims(K, m)
        monkeypatch.setattr(alignment, "_CHUNK_BYTES", 7 * alignment._network_bytes(dims))
        sample, rows = model.sample_gains, []

        def counted(dims, seeds, block_index=0):
            rows.append(len(seeds))
            return sample(dims, seeds, block_index)

        monkeypatch.setattr(alignment, "sample_gains", counted)
        monkeypatch.setattr(ergodic, "sample_gains", counted)
        loads = np.subtract(DEFAULT_RHO_GRID, 1.0)
        passes = {
            "lemma2": lambda: check_full_rank(dims, 15, SEED),
            "oracles": lambda: _oracle_suite(make_cfg(K=K, m=m), K, m, 15),
            "ergodic": lambda: ergodic_pass(dims, loads, 15, SEED),
        }
        for name, run_pass in passes.items():
            rows.clear()
            run_pass()
            assert rows == [7, 7, 1], name


class TestReadme:
    README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def test_schema_table_lists_the_config_fields(self):
        section = self.README.split("## Configuration schema")[1].split("\n## ")[0]
        listed = re.findall(r"^\| `(\w+)` ", section, flags=re.MULTILINE)
        assert listed == [f.name for f in fields(ExperimentConfig)]

    def test_flag_sentence_lists_the_global_options(self):
        sentence = self.README.split("Command-line flags")[1].split("apply to")[0]
        options = [
            opt for action in _build_parser()._actions for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        ]
        assert re.findall(r"--[\w-]+", sentence) == options
