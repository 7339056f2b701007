"""Reproducible experiment driver: config, sweeps, audits, reports.

Every emitted number is a pure function of (config, master seed). Manifests
echo the config with a hash; the records CSV keeps one fixed column set
across scenarios so downstream tooling never has to branch on shape.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import (
    AlignmentError,
    align_first_valid,
    build_beamformers,
    build_generators,
    check_full_rank,
    stream_power,
    verify_alignment,
)
from .ergodic import (
    augment_with_virtual_user,
    eavesdropper_budget_check,
    ergodic_pass,
    ergodic_rates,
    mi_inequality_audit,
)
from .gaussmi import (
    DEFAULT_RHO_GRID,
    NumericalError,
    estimate_slope,
    mi_from_gains,
    mi_schur,
    receiver_gains,
    spectra_table,
)
from .model import PowerConfig, derive_dims, sample_network, sub_rng
from .secrecy import (
    confidential_rates,
    decodability_check,
    equivocation_deficit,
    randomization_region_check,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run",
    "sweep",
    "audit",
    "emit_report",
    "main",
]

SCENARIOS = ("confidential", "external-known-csi", "external-ergodic")

CSV_COLUMNS = [
    "scenario",
    "K",
    "m",
    "M",
    "F",
    "rho",
    "trials",
    "seed",
    "R_bits_per_slot",
    "Rx_bits_per_slot",
    "eta_measured",
    "eta_target",
    "delta_hat",
    "clamped",
    "checks_passed",
]

ERGODIC_DETAIL_COLUMNS = [
    "K",
    "m",
    "rho",
    "trials",
    "R",
    "Rx",
    "slope_R",
    "ci_low",
    "ci_high",
    "lemma4_pass",
    "lemma5_pass",
]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

_RETRY_BUDGET = 3
_TAG_AUDIT_SEED = 23


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _listed(value):
    """A grid setting as a list: a list or tuple as given, a scalar as one point."""
    return list(value) if isinstance(value, (list, tuple)) else [value]


@dataclass
class ExperimentConfig:
    scenario: str = "confidential"
    K: object = 3
    m: object = 2
    rho_grid: tuple = DEFAULT_RHO_GRID
    trials: int | None = None
    seed: int | None = None
    epsilon_margin: float = 1.0
    tol: float = 1e-8
    out: str = "results"
    workers: int = 1
    grid_cap: int = 64
    k_cap: int = 5
    f_cap: int = 4100

    @staticmethod
    def from_file(path):
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return ExperimentConfig.from_dict(data)

    @staticmethod
    def from_dict(data):
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return ExperimentConfig(**data)

    def override(self, seed=None, out=None, trials=None, tol=None):
        if seed is not None:
            self.seed = seed
        if out is not None:
            self.out = out
        if trials is not None:
            self.trials = trials
        if tol is not None:
            self.tol = tol
        return self

    def k_list(self):
        return [int(k) for k in _listed(self.K)]

    def m_list(self):
        return [int(v) for v in _listed(self.m)]

    def effective_trials(self, default):
        return int(self.trials) if self.trials is not None else default

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.seed is None:
            raise ConfigError("a master seed is mandatory (no wall-clock seeding)")
        whole, real = int, (int, float)
        typed = {
            "seed": ([self.seed], whole),
            "K": (_listed(self.K), whole),
            "m": (_listed(self.m), whole),
            "trials": ([] if self.trials is None else [self.trials], whole),
            "workers": ([self.workers], whole),
            "rho_grid": (_listed(self.rho_grid), real),
            "epsilon_margin": ([self.epsilon_margin], real),
            "tol": ([self.tol], real),
        }
        for name, (values, types) in typed.items():
            if not all(isinstance(v, types) and not isinstance(v, bool) for v in values):
                kind = "an integer" if types is whole else "a number"
                raise ConfigError(f"{name} must be {kind}, got {getattr(self, name)!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in a u64")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        grid = tuple(float(r) for r in _listed(self.rho_grid))
        if len(grid) < 3 or not all(a < b < math.inf for a, b in zip(grid, grid[1:])):
            raise ConfigError("rho_grid must be finite and strictly increasing with >= 3 points")
        if not 0 < self.epsilon_margin < grid[0]:
            raise ConfigError(
                f"need 0 < epsilon_margin < rho_grid[0], got {self.epsilon_margin} and {grid[0]}"
            )
        if grid[-1] / grid[0] < 1e4:
            raise ConfigError("rho_grid must span at least 4 decades")
        ks, ms = self.k_list(), self.m_list()
        if not ks or not ms:
            raise ConfigError("K and m grids must be nonempty")
        if len(ks) * len(ms) > self.grid_cap:
            raise ConfigError(f"grid size {len(ks) * len(ms)} exceeds cap {self.grid_cap}")
        for K in ks:
            k_eff = K + 1 if self.scenario == "external-known-csi" else K
            if k_eff < 3:
                raise ConfigError(f"K={K}: pipeline needs at least 3 aligned users")
            if K > self.k_cap:
                raise ConfigError(f"K={K} exceeds cap {self.k_cap}")
            for m in ms:
                try:
                    dims = derive_dims(k_eff, m)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
                if dims.F > self.f_cap:
                    raise ConfigError(f"(K={K}, m={m}) gives F={dims.F} > cap {self.f_cap}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.trials is not None:
            if self.trials < 1:
                raise ConfigError("trials must be >= 1")
            if self.scenario == "external-ergodic" and self.trials < 30:
                raise ConfigError("ergodic estimates need at least 30 trials")
        self.rho_grid = grid
        return self

    def as_dict(self):
        d = asdict(self)
        d["rho_grid"] = list(self.rho_grid)
        return d

    def digest(self):
        canon = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


def eta_target_confidential(K, m):
    """Prelimit secrecy-rate slope implied by the per-term slope limits."""
    dims = derive_dims(K, m)
    return ((K - 1) * m**dims.M - (m + 1) ** dims.M) / ((K - 1) * dims.F)


def eta_target_ergodic(K, m):
    dims = derive_dims(K, m)
    return (K - 2) * m**dims.M / (K * dims.F)


def eta_asymptote(scenario, K):
    if scenario == "confidential":
        return (K - 2) / (2 * K - 2)
    if scenario == "external-known-csi":
        return (K - 1) / (2 * K)
    return (K - 2) / (2 * K)


def _confidential_tables(net, aset, cfg):
    """Rates, checks, and the deficit report across the rho grid.

    Decodability of the clamped zero-R assignment is not covered by the rate
    rule's guarantee, so clamped grid points are reported but excluded from
    the hard-check aggregate.
    """
    rows = []
    curve = {}
    all_checks = True
    spectra = spectra_table(net, aset)
    for rho in cfg.rho_grid:
        load = PowerConfig(rho=rho, epsilon_margin=cfg.epsilon_margin).effective
        rates = confidential_rates(net, spectra, load)
        curve[rho] = rates
        dec = decodability_check(rates)
        reg = randomization_region_check(rates)
        if not rates.clamped:
            all_checks = all_checks and dec.passed and reg.passed
        rows.append(
            {
                "rho": rho,
                "R": rates.R,
                "Rx": rates.Rx,
                "clamped": rates.clamped,
                "decodable": dec.passed,
                "region_ok": reg.passed,
                "worst_slack": dec.worst_slack,
            }
        )
    by_rho = {row["rho"]: row["R"] for row in rows}
    fit = estimate_slope(lambda r: by_rho[r], cfg.rho_grid)
    deficit = equivocation_deficit(curve)
    return rows, fit, deficit, all_checks


def _record(scenario, K, dims, seed, rho, trials, R, Rx, eta_measured, eta_target,
            delta_hat, clamped, checks_passed, detail):
    return {
        "scenario": scenario,
        "K": K,
        "m": dims.m,
        "M": dims.M,
        "F": dims.F,
        "rho": rho,
        "trials": trials,
        "seed": seed,
        "R_bits_per_slot": R,
        "Rx_bits_per_slot": Rx,
        "eta_measured": eta_measured,
        "eta_target": eta_target,
        "delta_hat": delta_hat,
        "clamped": clamped,
        "checks_passed": checks_passed,
        "detail": detail,
    }


def _draw_confidential(dims, seed, attempt):
    return sample_network(dims, seed, block_index=attempt)


def _draw_known_csi(dims, seed, attempt):
    """A network sampled with its eavesdropper row, which becomes the last receiver."""
    net = sample_network(dims, seed, with_eavesdropper=True, block_index=attempt)
    return augment_with_virtual_user(dims, net)


def _run_confidential_point(cfg, K, m, scenario="confidential", draw=_draw_confidential):
    """One point of the confidential pipeline.

    The known-CSI scenario runs it on K+1 aligned users: `_draw_known_csi`
    folds the eavesdropper in as a virtual user, and the record keeps the K
    real users.
    """
    aligned_K = K + 1 if scenario == "external-known-csi" else K
    dims = derive_dims(aligned_K, m)
    try:
        net, aset, report, attempts = align_first_valid(
            lambda attempt: draw(dims, cfg.seed, attempt), _RETRY_BUDGET, residual_tol=cfg.tol
        )
    except AlignmentError as exc:
        raise NumericalError(str(exc)) from exc
    rows, fit, deficit, checks = _confidential_tables(net, aset, cfg)
    top = rows[-1]
    delta = deficit.delta_hat if not deficit.degenerate else None
    detail = {
        "per_rho": rows,
        "slope_residual": fit.residual,
        "alignment": report.as_dict(),
        "attempts": attempts,
        "delta_points": [
            {"rho": p.rho, "delta_hat": None if p.degenerate else p.delta_hat}
            for p in deficit.points
        ],
        "delta_slope_parts": {"num": deficit.num_slope, "den": deficit.den_slope},
        "eta_asymptote": eta_asymptote(scenario, K),
    }
    if aligned_K != K:
        detail["augmented_K"] = aligned_K
    return _record(
        scenario, K, dims, cfg.seed, top["rho"], None, top["R"], top["Rx"],
        fit.slope, max(0.0, eta_target_confidential(aligned_K, m)), delta, top["clamped"],
        checks, detail,
    )


def _run_ergodic_point(cfg, K, m):
    dims = derive_dims(K, m)
    trials = cfg.effective_trials(200)
    powers = [PowerConfig(rho=rho, epsilon_margin=cfg.epsilon_margin) for rho in cfg.rho_grid]
    pass_ = ergodic_pass(dims, powers, trials, cfg.seed, workers=cfg.workers)
    rows = []
    for rho in cfg.rho_grid:
        est = ergodic_rates(pass_, rho)
        rows.append(
            {
                "rho": rho,
                "R": est.R,
                "Rx": est.Rx,
                "clamped": est.clamped,
                "ci_low": est.R_ci[0],
                "ci_high": est.R_ci[1],
            }
        )
    by_rho = {row["rho"]: row["R"] for row in rows}
    fit = estimate_slope(lambda r: by_rho[r], cfg.rho_grid)
    budget = eavesdropper_budget_check(pass_, rows[-1]["Rx"])
    checks = budget.passed
    if K <= 4:  # disjoint-pair enumeration is exhaustive only up to K=4
        ineq = mi_inequality_audit(pass_)
        checks = checks and ineq.passed
        lemma3_violations = ineq.lemma3_violations
        lemma4_passed = ineq.lemma4_passed
        symmetry_passed = ineq.symmetry_passed
    else:
        lemma3_violations = None
        lemma4_passed = None
        symmetry_passed = None
    top = rows[-1]
    detail = {
        "per_rho": rows,
        "slope_residual": fit.residual,
        "lemma5": {
            "passed": budget.passed,
            "entries": [
                {"subset": list(s), "lhs": lhs, "rhs": rhs, "ci_half": h, "slack": sl}
                for s, lhs, rhs, h, sl in budget.entries
            ],
        },
        "lemma3_violations": lemma3_violations,
        "lemma4_passed": lemma4_passed,
        "symmetry_passed": symmetry_passed,
        "eta_asymptote": eta_asymptote("external-ergodic", K),
        "slope_R": fit.slope,
        "resampled_blocks": pass_.resampled_blocks,
    }
    return _record(
        "external-ergodic", K, dims, cfg.seed, top["rho"], trials, top["R"], top["Rx"],
        fit.slope, eta_target_ergodic(K, m), None, top["clamped"], checks, detail,
    )


_POINT_RUNNERS = {
    "confidential": _run_confidential_point,
    "external-known-csi": functools.partial(
        _run_confidential_point, scenario="external-known-csi", draw=_draw_known_csi
    ),
    "external-ergodic": _run_ergodic_point,
}


def _manifest(cfg, records, checks, timings):
    passed = all(r["checks_passed"] for r in records) and all(checks.values())
    return {
        "artifact_version": __version__,
        "config": cfg.as_dict(),
        "config_hash": cfg.digest(),
        "seed": cfg.seed,
        "scenario": cfg.scenario,
        "records": records,
        "checks": checks,
        "timings": timings,
        "passed": passed,
    }


def run(cfg):
    """Execute the scenario pipeline for a single (K, m) point."""
    cfg.validate()
    if len(cfg.k_list()) != 1 or len(cfg.m_list()) != 1:
        raise ConfigError("run expects scalar K and m; use sweep for grids")
    t0 = time.perf_counter()
    record = _POINT_RUNNERS[cfg.scenario](cfg, cfg.k_list()[0], cfg.m_list()[0])
    return _manifest(cfg, [record], {}, {"run_s": time.perf_counter() - t0})


def sweep(cfg):
    """One record per (K, m) grid point, in lexicographic order."""
    cfg.validate()
    t0 = time.perf_counter()
    records = []
    for K in sorted(cfg.k_list()):
        for m in sorted(cfg.m_list()):
            records.append(_POINT_RUNNERS[cfg.scenario](cfg, K, m))
    return _manifest(cfg, records, {}, {"sweep_s": time.perf_counter() - t0})


def _oracle_suite(cfg, K, m, instances):
    """Chain-rule, Schur, monotonicity, and scalar-slope identities."""
    dims = derive_dims(K, m)
    worst_chain = 0.0
    worst_schur = 0.0
    mono_ok = True
    lemma3_ok = True
    rho = 1e4
    for t in range(instances):
        inst_seed = sub_rng(cfg.seed, _TAG_AUDIT_SEED, t).integers(0, 2**63)
        net = sample_network(dims, inst_seed)
        aset = build_beamformers(net, build_generators(net), verify=False)
        powers = stream_power(aset, PowerConfig(rho=rho, epsilon_margin=cfg.epsilon_margin))
        gains = receiver_gains(net, aset, 0)
        both = mi_from_gains(gains, powers, {1, 2}).bits
        first = mi_from_gains(gains, powers, {1}).bits
        second = mi_from_gains(gains, powers, {2}, conditioned={1}).bits
        worst_chain = max(worst_chain, abs(both - (first + second)) / both)
        schur = mi_schur(gains, powers, {1, 2})
        worst_schur = max(worst_schur, abs(both - schur) / both)
        if first > both + 1e-9 * both:
            mono_ok = False
        conditioned = mi_from_gains(gains, powers, {1}, conditioned={2}).bits
        if first > conditioned + 1e-9 * max(1.0, first):
            lemma3_ok = False
    scalar = estimate_slope(lambda r: math.log2(1.0 + r), cfg.rho_grid)
    return {
        "oracle_chain_rule": worst_chain < 1e-9,
        "oracle_schur": worst_schur < 1e-9,
        "oracle_monotonicity": mono_ok,
        "oracle_lemma3_instances": lemma3_ok,
        "oracle_scalar_slope": abs(scalar.slope - 1.0) < 1e-3,
    }, {"worst_chain_rel": worst_chain, "worst_schur_rel": worst_schur}


def _alignment_audit(cfg, dims, trials):
    """Verification and full-rank audit of the point sampled at the master seed.

    The beamformers are built unverified: a failure is a finding, never an
    exception.
    """
    net = sample_network(dims, cfg.seed)
    aset = build_beamformers(net, build_generators(net), verify=False)
    report = verify_alignment(net, aset, residual_tol=cfg.tol)
    return report, check_full_rank(dims, trials, cfg.seed)


def audit(cfg):
    """Lemma and oracle audit suite over the configured (K, m) grid."""
    cfg.validate()
    t0 = time.perf_counter()
    trials = cfg.effective_trials(100)
    checks = {}
    details = {}
    for K in sorted(cfg.k_list()):
        for m in sorted(cfg.m_list()):
            tag = f"K{K}_m{m}"
            dims = derive_dims(K, m)
            report, rank_audit = _alignment_audit(cfg, dims, trials)
            oracle_instances = min(trials, 100)
            oracle_checks, oracle_detail = _oracle_suite(cfg, K, m, oracle_instances)
            checks[f"{tag}_alignment"] = report.passed
            checks[f"{tag}_lemma2"] = rank_audit.passed
            for name, ok in oracle_checks.items():
                checks[f"{tag}_{name}"] = ok
            # the Monte Carlo audit runs at K <= 4 only, on at most 100 blocks
            # whatever `trials` says
            mc_trials = max(30, min(trials, 100)) if K <= 4 else 0
            detail = {
                "alignment": report.as_dict(),
                "lemma2_trials": rank_audit.trials,
                "lemma2_failures": rank_audit.failures,
                "lemma2_failing_trials": rank_audit.failing_trials,
                "mc_trials": mc_trials,
                "oracle_instances": oracle_instances,
                **oracle_detail,
            }
            if K <= 4:
                power = PowerConfig(rho=cfg.rho_grid[-1], epsilon_margin=cfg.epsilon_margin)
                pass_ = ergodic_pass(dims, [power], mc_trials, cfg.seed, workers=cfg.workers)
                budget = eavesdropper_budget_check(pass_, ergodic_rates(pass_, power.rho).Rx)
                ineq = mi_inequality_audit(pass_)
                checks[f"{tag}_lemma3"] = ineq.lemma3_violations == 0
                checks[f"{tag}_lemma4"] = ineq.lemma4_passed
                checks[f"{tag}_lemma5"] = budget.passed
                checks[f"{tag}_symmetry"] = ineq.symmetry_passed
                detail["lemma3_violations"] = ineq.lemma3_violations
            details[tag] = detail
    manifest = _manifest(cfg, [], checks, {"audit_s": time.perf_counter() - t0})
    manifest["audit_details"] = details
    return manifest


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return ""
        return repr(value)
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(c)) for c in columns])


def emit_report(manifest, out_dir):
    """Write records.csv, plot-data files, and a human-readable summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = manifest["records"]
    written = []

    records_path = out / "records.csv"
    _write_csv(records_path, CSV_COLUMNS, records)
    written.append(records_path)

    eta_rows = [
        {
            "K": r["K"],
            "m": r["m"],
            "eta_measured": r["eta_measured"],
            "eta_target": r["eta_target"],
            "eta_asymptote": r["detail"].get("eta_asymptote"),
        }
        for r in records
    ]
    eta_path = out / "plot_eta_vs_m.csv"
    _write_csv(eta_path, ["K", "m", "eta_measured", "eta_target", "eta_asymptote"], eta_rows)
    written.append(eta_path)

    delta_rows = []
    for r in records:
        for point in r["detail"].get("delta_points", []):
            delta_rows.append(
                {
                    "K": r["K"],
                    "m": r["m"],
                    "log2_rho": math.log2(point["rho"]),
                    "delta_hat": point["delta_hat"],
                    "delta_reference": 0.0,
                }
            )
    if delta_rows:
        delta_path = out / "plot_delta_vs_rho.csv"
        _write_csv(
            delta_path, ["K", "m", "log2_rho", "delta_hat", "delta_reference"], delta_rows
        )
        written.append(delta_path)

    ergodic_rows = []
    for r in records:
        if r["scenario"] != "external-ergodic":
            continue
        for row in r["detail"]["per_rho"]:
            ergodic_rows.append(
                {
                    "K": r["K"],
                    "m": r["m"],
                    "rho": row["rho"],
                    "trials": r["trials"],
                    "R": row["R"],
                    "Rx": row["Rx"],
                    "slope_R": r["detail"]["slope_R"],
                    "ci_low": row["ci_low"],
                    "ci_high": row["ci_high"],
                    "lemma4_pass": r["detail"]["lemma4_passed"],
                    "lemma5_pass": r["detail"]["lemma5"]["passed"],
                }
            )
    if ergodic_rows:
        erg_path = out / "ergodic_details.csv"
        _write_csv(erg_path, ERGODIC_DETAIL_COLUMNS, ergodic_rows)
        written.append(erg_path)

    lines = [
        f"scenario: {manifest['scenario']}  seed: {manifest['seed']}  "
        f"config: {manifest['config_hash'][:12]}",
        f"records: {len(records)}  passed: {manifest['passed']}",
    ]
    for r in records:
        lines.append(
            f"  K={r['K']} m={r['m']} F={r['F']}: eta {_fmt_cell(r['eta_measured'])}"
            f" (target {_fmt_cell(r['eta_target'])},"
            f" asymptote {_fmt_cell(r['detail'].get('eta_asymptote'))})"
            f" R {_fmt_cell(r['R_bits_per_slot'])} Rx {_fmt_cell(r['Rx_bits_per_slot'])}"
            f" at rho {_fmt_cell(r['rho'])}"
            f" delta_hat {_fmt_cell(r['delta_hat'])} checks {r['checks_passed']}"
        )
    for name, ok in manifest.get("checks", {}).items():
        lines.append(f"  check {name}: {'pass' if ok else 'FAIL'}")
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    written.append(summary_path)
    return written


def _write_manifest(manifest, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2, default=_json_default))
    return path


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="iasec",
        description="Interference-alignment secrecy laboratory (batch experiment driver)",
    )
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="master seed (u64), overrides config")
    parser.add_argument("--out", help="output directory, overrides config")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials, overrides config")
    parser.add_argument("--tol", type=float, help="alignment residual tolerance override")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("align-verify", help="sample, align, verify, and rank-audit one point")
    sub.add_parser("rates", help="single-point rate pipeline for the configured scenario")
    sub.add_parser("dof-sweep", help="sweep the (K, m) grid and tabulate measured DoF")
    sub.add_parser("ergodic", help="ergodic external-eavesdropper pipeline")
    sub.add_parser("audit", help="lemma and oracle audit suite")
    rep = sub.add_parser("report", help="re-emit CSV/plot data from a saved manifest")
    rep.add_argument("manifest", nargs="?", help="path to manifest.json (default: <out>/manifest.json)")
    return parser


def _load_config(args):
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    cfg.override(seed=args.seed, out=args.out, trials=args.trials, tol=args.tol)
    return cfg


def _align_verify(cfg):
    cfg.validate()
    t0 = time.perf_counter()
    trials = cfg.effective_trials(100)
    checks = {}
    details = {}
    for K in sorted(cfg.k_list()):
        for m in sorted(cfg.m_list()):
            report, rank_audit = _alignment_audit(cfg, derive_dims(K, m), trials)
            checks[f"K{K}_m{m}_alignment"] = report.passed
            checks[f"K{K}_m{m}_full_rank"] = rank_audit.passed
            details[f"K{K}_m{m}"] = {
                "alignment": report.as_dict(),
                "rank_failures": rank_audit.failures,
            }
    manifest = _manifest(cfg, [], checks, {"align_verify_s": time.perf_counter() - t0})
    manifest["audit_details"] = details
    return manifest


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            out = args.out or (args.manifest and str(Path(args.manifest).parent)) or "results"
            path = args.manifest or str(Path(out) / "manifest.json")
            try:
                manifest = json.loads(Path(path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
            emit_report(manifest, out)
            return EXIT_OK if manifest.get("passed", False) else EXIT_CHECK_FAILURE

        cfg = _load_config(args)
        if args.command == "align-verify":
            manifest = _align_verify(cfg)
        elif args.command == "rates":
            manifest = run(cfg)
        elif args.command == "dof-sweep":
            manifest = sweep(cfg)
        elif args.command == "ergodic":
            cfg.scenario = "external-ergodic"
            manifest = sweep(cfg)
        elif args.command == "audit":
            manifest = audit(cfg)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command}")
        _write_manifest(manifest, cfg.out)
        emit_report(manifest, cfg.out)
        return EXIT_OK if manifest["passed"] else EXIT_CHECK_FAILURE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (NumericalError, AlignmentError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
