"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every quantity here is deterministic given the pinned seeds; the seeds
are ordinary draws (29 of 30 scanned master seeds satisfy every tolerance
below), pinned only so the suite is reproducible.
"""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import iasec
from iasec import alignment
from iasec.alignment import (
    build_beamformers,
    build_generators,
    check_full_rank,
    numerical_rank,
    stream_power,
    verify_alignment,
)
from iasec.cli import CSV_COLUMNS, ExperimentConfig, main, run
from iasec.ergodic import (
    eavesdropper_budget_check,
    ergodic_pass,
    ergodic_rates,
    mi_inequality_audit,
)
from iasec.gaussmi import (
    DEFAULT_RHO_GRID,
    estimate_slope,
    mi_from_gains,
    mi_schur,
    receiver_gains,
    spectra_table,
)
from iasec.model import PowerConfig, derive_dims, sample_network
from iasec.secrecy import (
    confidential_rates,
    decodability_check,
    equivocation_deficit,
    randomization_region_check,
)

SEED = 16
GRID = DEFAULT_RHO_GRID


def aligned(K, m, seed=SEED):
    net = sample_network(derive_dims(K, m), seed)
    aset = build_beamformers(net, build_generators(net))
    return net, aset


def rate_slope(net, aset, grid=GRID):
    loads = np.array([PowerConfig(rho=rho).effective for rho in grid])
    curve = confidential_rates(net, spectra_table(net, aset), loads)
    return estimate_slope(curve.R, grid).slope, curve


def test_criterion_1_alignment_exactness():
    for K, m in [(3, 1), (3, 2), (3, 3), (4, 1)]:
        dims = derive_dims(K, m)
        for trial in range(100):
            net = sample_network(dims, 1000 + trial)
            aset = build_beamformers(net, build_generators(net), verify=False)
            report = verify_alignment(net, aset)
            for rx in report.receivers:
                own = aset.apply(net.gains[rx.receiver])[rx.receiver]
                assert rx.interference_dim == dims.F - dims.streams[rx.receiver]
                assert numerical_rank(own) == dims.streams[rx.receiver]
                assert rx.concat_rank == dims.F
            assert report.worst_containment < 1e-8
    print("PASS criterion 1: alignment exactness on 100 realizations x 4 configs")


def test_criterion_2_full_rank_audit():
    for m in (1, 2):
        audit = check_full_rank(derive_dims(3, m), trials=1000, seed=777)
        assert audit.failures == 0, audit.failing_trials
    print("PASS criterion 2: 1000-trial full-rank audit, zero failures at m=1,2")


def test_criterion_3_slope_limits():
    for m in (1, 2, 3):
        net, aset = aligned(3, m)
        dims = net.dims
        for i in range(3):
            gains = receiver_gains(net, aset, i)

            def own(rho, i=i, gains=gains):
                p = stream_power(aset, PowerConfig(rho=rho))
                return mi_from_gains(gains, p, {i}).bits

            def cross(rho, i=i, gains=gains):
                p = stream_power(aset, PowerConfig(rho=rho))
                others = {k for k in range(3) if k != i}
                return mi_from_gains(gains, p, others).bits

            own_slope = estimate_slope([own(rho) for rho in GRID], GRID).slope
            cross_slope = estimate_slope([cross(rho) for rho in GRID], GRID).slope
            assert abs(own_slope - dims.streams[i]) / dims.streams[i] < 0.02
            target = dims.F - dims.streams[i]
            assert abs(cross_slope - target) / target < 0.02
    print("PASS criterion 3: own/cross MI slopes within 2% of m_i and F - m_i")


def test_criterion_4_confidential_rate_prelimit():
    targets = {2: 0.1, 3: 1 / 7, 4: 1 / 6}
    measured = {}
    for m, target in targets.items():
        net, aset = aligned(3, m)
        slope, curve = rate_slope(net, aset)
        assert abs(slope - target) / target < 0.10, (m, slope, target)
        measured[m] = slope
        assert decodability_check(curve)[1].all(), m
        assert randomization_region_check(curve)[1].all(), m
    assert measured[2] < measured[3] < measured[4] < 0.25
    print(
        "PASS criterion 4: R slopes "
        + ", ".join(f"m={m}: {v:.4f}" for m, v in measured.items())
        + " within 10% of (m-1)/(2(2m+1)), trending to 1/4; all checks pass"
    )


def test_criterion_5_equivocation_deficit():
    values = {}
    for m in (3, 4, 5):
        _, curve = rate_slope(*aligned(3, m))
        report = equivocation_deficit(curve, GRID)
        target = 1 / (m - 1)
        assert not report.degenerate
        assert abs(report.delta_hat - target) / target < 0.15, (m, report.delta_hat)
        pointwise = report.pointwise[np.array(GRID) >= 1e6]
        usable = pointwise[~np.isnan(pointwise)].tolist()
        assert all(b <= a + 1e-9 for a, b in zip(usable, usable[1:]))
        values[m] = report.delta_hat
    assert values[3] >= values[4] >= values[5]
    print(
        "PASS criterion 5: delta_hat "
        + ", ".join(f"m={m}: {v:.4f}" for m, v in values.items())
        + " within 15% of 1/(m-1), nonincreasing in m"
    )


def test_criterion_6_ergodic_rate_prelimit():
    measured = {}
    for m in (1, 2, 3):
        dims = derive_dims(3, m)
        target = m / (3 * (2 * m + 1))
        pass_ = ergodic_pass(dims, np.subtract(GRID, 1.0), 200, SEED)
        slope = estimate_slope(ergodic_rates(pass_).R, GRID).slope
        assert abs(slope - target) / target < 0.10, (m, slope, target)
        measured[m] = slope
        budget = eavesdropper_budget_check(pass_)
        assert budget.passed
        ineq = mi_inequality_audit(pass_)
        assert ineq.lemma3_violations == 0
        assert ineq.lemma4_passed
    assert measured[1] < measured[2] < measured[3] < 1 / 6
    print(
        "PASS criterion 6: ergodic R slopes "
        + ", ".join(f"m={m}: {v:.4f}" for m, v in measured.items())
        + " within 10% of (K-2)m^M/(KF), trending to 1/6; lemmas 3-5 hold"
    )


def test_criterion_7_known_csi_augmentation():
    measured = {}
    for m in (2, 3):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "external-known-csi", "K": 2, "m": m, "seed": 4}
        )
        manifest = run(cfg)
        rec = manifest["records"][0]
        target = (m - 1) / (2 * (2 * m + 1))
        assert abs(rec["eta_measured"] - target) / target < 0.10
        assert rec["checks_passed"]
        measured[m] = rec["eta_measured"]
    assert measured[2] < measured[3] < 0.25
    print(
        "PASS criterion 7: augmented 2-user eta "
        + ", ".join(f"m={m}: {v:.4f}" for m, v in measured.items())
        + " within 10% of the 3-user confidential prelimit, trending to 1/4"
    )


def test_criterion_8_mi_engine_oracles():
    dims = derive_dims(3, 2)
    worst_chain = worst_schur = 0.0
    for trial in range(100):
        net = sample_network(dims, 2000 + trial)
        aset = build_beamformers(net, build_generators(net), verify=False)
        p = stream_power(aset, PowerConfig(rho=1e6))
        gains = receiver_gains(net, aset, 0)
        both = mi_from_gains(gains, p, {1, 2}).bits
        first = mi_from_gains(gains, p, {1}).bits
        rest = mi_from_gains(gains, p, {2}, conditioned={1}).bits
        worst_chain = max(worst_chain, abs(both - (first + rest)) / both)
        worst_schur = max(worst_schur, abs(both - mi_schur(gains, p, {1, 2})) / both)
        assert both >= first - 1e-12  # monotone in the signal set
        conditioned = mi_from_gains(gains, p, {1}, conditioned={2}).bits
        assert conditioned >= first - 1e-9 * max(1.0, first)  # per-instance lemma 3
    assert worst_chain < 1e-9
    assert worst_schur < 1e-9
    scalar = estimate_slope([math.log2(1 + r) for r in GRID], GRID)
    assert abs(scalar.slope - 1.0) < 1e-3
    print(
        f"PASS criterion 8: chain rule {worst_chain:.1e}, Schur {worst_schur:.1e} "
        "(<= 1e-9 rel over 100 instances); scalar slope within 1e-3; monotone"
    )


def test_criterion_9_reproducibility(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", str(SEED), "--out", str(a), "rates"]) == 0
    assert main(["--seed", str(SEED), "--out", str(b), "rates"]) == 0
    assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    # the ergodic pass reduces its blocks in trial order: two runs at once in
    # one process, and a run that takes its blocks one at a time, agree
    cfg = tmp_path / "ergodic.json"
    cfg.write_text(json.dumps({"K": 3, "m": 1, "trials": 30, "seed": SEED}))
    outs = [tmp_path / name for name in ("c", "d", "one_block_chunks")]
    codes = {}

    def run_ergodic(out):
        codes[out] = main(["--config", str(cfg), "--out", str(out), "ergodic"])

    threads = [threading.Thread(target=run_ergodic, args=(out,)) for out in outs[:2]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    monkeypatch.setattr(alignment, "_CHUNK_BYTES", alignment._network_bytes(derive_dims(3, 1)))
    run_ergodic(outs[2])
    assert list(codes.values()) == [0, 0, 0]
    for name in ("records.csv", "ergodic_details.csv"):
        assert len({(out / name).read_bytes() for out in outs}) == 1, name
    lines = (outs[0] / "records.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)  # schema stable across scenarios
    eta = (outs[0] / "plot_eta_vs_m.csv").read_text().splitlines()
    assert eta[1].endswith(repr(1 / 6))  # ergodic asymptote reference series
    print(
        "PASS criterion 9: byte-identical records on rerun, for two concurrent runs "
        "and with one-block chunks"
    )


def test_criterion_9_records_do_not_depend_on_blas_threads(tmp_path):
    """K=4, m=[1, 2] (F = 33 and 275) at 1 and 2 OpenBLAS threads, each in a fresh interpreter.

    Every SVD below 512 rows runs on one thread whatever the environment
    sets, so at F < 512 the tolerance between thread counts is zero:
    `records.csv` is byte-identical, and the manifest differs only in its
    timings, environment, output path and config hash.
    """
    cfg = tmp_path / "k4.json"
    cfg.write_text(json.dumps({"scenario": "confidential", "K": 4, "m": [1, 2]}))
    src = str(Path(iasec.__file__).resolve().parents[1])
    manifests, records = [], set()
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
        argv = ["--config", str(cfg), "--seed", str(SEED), "--out", str(out), "dof-sweep"]
        proc = subprocess.run(
            [sys.executable, "-m", "iasec.cli", *argv], env=env, capture_output=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr.decode()
        records.add((out / "records.csv").read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"]["OPENBLAS_NUM_THREADS"] == str(threads)
        for key in ("timings", "environment", "config_hash"):
            del manifest[key]
        del manifest["config"]["out"]
        manifests.append(manifest)
    assert len(records) == 1
    assert manifests[0] == manifests[1]
    print("PASS criterion 9: byte-identical K=4 records at 1 and 2 BLAS threads")
