"""Reproducible experiment driver: config, sweeps, audits, reports.

Every emitted number is a pure function of (config, master seed). Manifests
echo the config with a hash; the records CSV keeps one fixed column set
across scenarios so downstream tooling never has to branch on shape.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import (
    AlignmentError,
    AlignmentSet,
    _align_stack,
    _report,
    _stacks,
    align_first_valid,
    check_full_rank,
    stream_power,
)
from .ergodic import (
    MAX_AUDIT_USERS,
    eavesdropper_budget_check,
    ergodic_pass,
    ergodic_rates,
    mi_inequality_audit,
)
from .gaussmi import (
    DEFAULT_RHO_GRID,
    NumericalError,
    _SINGLE_THREAD_ROWS,
    _members,
    _openblas,
    estimate_slope,
    mi_from_gains,
    mi_schur,
    spectra_table,
)
from .model import (
    _TAG_AUDIT_SEED,
    NetworkRealization,
    PowerConfig,
    _stream_seeds,
    derive_dims,
    sample_eavesdropper_block,
    sample_gains,
    sample_network,
)
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
    "scenario", "K", "m", "M", "F", "rho", "trials", "seed", "R_bits_per_slot",
    "Rx_bits_per_slot", "eta_measured", "eta_target", "delta_hat", "clamped", "checks_passed",
]

ETA_COLUMNS = ["K", "m", "eta_measured", "eta_target", "eta_asymptote"]

# A record's fitted slope may miss a positive target by this fraction of it,
# the margin the acceptance criteria hold every measured slope to
ETA_RTOL = 0.10

DELTA_COLUMNS = ["K", "m", "log2_rho", "delta_hat", "delta_reference"]

ERGODIC_DETAIL_COLUMNS = [
    "K", "m", "rho", "trials", "R", "Rx", "slope_R", "ci_low", "ci_high", "lemma4_pass", "lemma5_pass",
]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

# what a grid point raises when its draws or numerics fail: exit code 3
_NUMERICAL_ERRORS = (NumericalError, AlignmentError, np.linalg.LinAlgError)

_RETRY_BUDGET = 3

# Size guards: at most this many (K, m) points, K users and F symbol
# extensions (every point takes dense F-row SVDs).
_GRID_CAP = 64
_K_CAP = 5
_F_CAP = 4100


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
    out: str = "results"

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

    def override(self, seed=None, out=None, trials=None):
        for name, value in {"seed": seed, "out": out, "trials": trials}.items():
            if value is not None:
                setattr(self, name, value)
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
            "rho_grid": (_listed(self.rho_grid), real),
            "epsilon_margin": ([self.epsilon_margin], real),
        }
        for name, (values, types) in typed.items():
            if not all(isinstance(v, types) and not isinstance(v, bool) for v in values):
                kind = "an integer" if types is whole else "a number"
                raise ConfigError(f"{name} must be {kind}, got {getattr(self, name)!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in a u64")
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
        if len(ks) * len(ms) > _GRID_CAP:
            raise ConfigError(f"grid size {len(ks) * len(ms)} exceeds cap {_GRID_CAP}")
        for K in ks:
            k_eff = K + 1 if self.scenario == "external-known-csi" else K
            if k_eff < 3:
                raise ConfigError(f"K={K}: pipeline needs at least 3 aligned users")
            if K > _K_CAP:
                raise ConfigError(f"K={K} exceeds cap {_K_CAP}")
            for m in ms:
                try:
                    dims = derive_dims(k_eff, m)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
                if dims.F > _F_CAP:
                    raise ConfigError(f"(K={K}, m={m}) gives F={dims.F} > cap {_F_CAP}")
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


def _rows(**columns):
    """Per-rho rows from curves over the grid: one dict of plain values per grid point."""
    lists = {name: np.asarray(values).tolist() for name, values in columns.items()}
    return [dict(zip(lists, row)) for row in zip(*lists.values())]


def _confidential_tables(net, spectra, cfg):
    """Per-rho rows, the deficit report and the named hard checks across the rho grid.

    `spectra` is the point's `spectra_table`; the rate rule reads it once,
    at every grid load rho - eps. Decodability of the clamped zero-R
    assignment is not covered by the rate rule's guarantee, so clamped grid
    points are reported but excluded from the checks, which read None (not
    evaluated) when every grid point is clamped.
    """
    rates = confidential_rates(net, spectra, np.subtract(cfg.rho_grid, cfg.epsilon_margin))
    slack, decodable = decodability_check(rates)
    _, region_ok = randomization_region_check(rates)
    live = ~rates.clamped
    checks = {
        name: bool(ok[live].all()) if live.any() else None
        for name, ok in (("decodability", decodable), ("region", region_ok))
    }
    rows = _rows(
        rho=cfg.rho_grid, R=rates.R, Rx=rates.Rx, R_raw=rates.R_raw, Rx_raw=rates.Rx_raw,
        clamped=rates.clamped, decodable=decodable, region_ok=region_ok,
        worst_slack=slack.min(axis=0),
    )
    return rows, equivocation_deficit(rates, cfg.rho_grid), checks


def _record(cfg, K, dims, rows, trials, target, delta_hat, checks, detail):
    """One grid point's record, read at the top rho; eta_measured is R's slope over the rows.

    `target` is the analytic slope, and the record's `eta_target` is it
    clamped at zero. `checks` names the point's hard checks: True, False, or
    None when not evaluated. The record adds `slope`: a slope that misses a
    positive target by more than ETA_RTOL of it fails, and a zero target
    claims nothing. Where the clamp lifts a negative target, R is clamped
    too, so the record adds `slope_raw`: R_raw's fitted slope must land
    within ETA_RTOL of the target's magnitude. A record whose checks all
    read None is vacuous.
    """
    eta_target = max(0.0, target)
    fit = estimate_slope([row["R"] for row in rows], cfg.rho_grid)
    slope = abs(fit.slope - eta_target) <= ETA_RTOL * eta_target if eta_target > 0 else None
    checks = {name: None if ok is None else bool(ok) for name, ok in checks.items()}
    checks["slope"] = slope
    if target < 0:
        raw = estimate_slope([row["R_raw"] for row in rows], cfg.rho_grid)
        checks["slope_raw"] = bool(abs(raw.slope - target) <= -ETA_RTOL * target)
    failed = [name for name, ok in checks.items() if ok is False]
    top = rows[-1]
    return {
        "scenario": cfg.scenario,
        "K": K,
        "m": dims.m,
        "M": dims.M,
        "F": dims.F,
        "rho": top["rho"],
        "trials": trials,
        "seed": cfg.seed,
        "R_bits_per_slot": top["R"],
        "Rx_bits_per_slot": top["Rx"],
        "eta_measured": fit.slope,
        "eta_target": eta_target,
        "delta_hat": delta_hat,
        "clamped": top["clamped"],
        "checks_passed": not failed,
        "detail": {
            "per_rho": rows,
            "checks": checks,
            "failed_checks": failed,
            "vacuous": all(ok is None for ok in checks.values()),
            "slope_residual": fit.residual,
            "eta_asymptote": eta_asymptote(cfg.scenario, K),
            **detail,
        },
    }


def _run_confidential_point(cfg, K, m):
    """One point of the confidential pipeline.

    The known-CSI scenario runs it on K+1 aligned users: each draw routes the
    eavesdropper row into the last receiver's links from the real users, a
    virtual last user, and the record keeps the K real users.
    """
    known_csi = cfg.scenario == "external-known-csi"
    aligned_K = K + 1 if known_csi else K
    dims = derive_dims(aligned_K, m)

    def draw(attempt, rows):
        gains = sample_network(dims, cfg.seed, block_index=attempt).gains[None]
        if known_csi:  # the last receiver listens through the eavesdropper row
            gains[0, -1, :-1] = sample_eavesdropper_block(dims, cfg.seed, attempt)[:-1]
        return gains

    gains, aset, spectra, drawn = align_first_valid(
        draw, 1, m, _RETRY_BUDGET, lambda row: "alignment failed"
    )
    net = NetworkRealization(dims=dims, gains=gains[0])
    verified = [(others[0], everyone[0]) for others, everyone in spectra]
    rows, deficit, checks = _confidential_tables(net, spectra_table(net, aset[0], verified), cfg)
    detail = {
        "alignment": _report(dims.streams, spectra).as_dict(),
        "attempts": int(drawn[0]),
        "delta_points": _rows(
            rho=cfg.rho_grid,
            delta_hat=np.where(np.isnan(deficit.pointwise), None, deficit.pointwise),
        ),
        "delta_slope_parts": {"num": deficit.num_slope, "den": deficit.den_slope},
    }
    if known_csi:
        detail["augmented_K"] = aligned_K
    delta = deficit.delta_hat if not deficit.degenerate else None
    target = eta_target_confidential(aligned_K, m)
    return _record(cfg, K, dims, rows, None, target, delta, checks, detail)


def _run_ergodic_point(cfg, K, m):
    dims = derive_dims(K, m)
    trials = cfg.effective_trials(200)
    pass_ = ergodic_pass(dims, np.subtract(cfg.rho_grid, cfg.epsilon_margin), trials, cfg.seed)
    est = ergodic_rates(pass_)
    rows = _rows(
        rho=cfg.rho_grid, R=est.R, Rx=est.Rx, R_raw=est.R_raw,
        Rx_raw=est.Rx,  # Rx is never clamped
        clamped=est.clamped, ci_low=est.R_ci[0], ci_high=est.R_ci[1],
    )
    budget = eavesdropper_budget_check(pass_)
    # disjoint-pair enumeration is exhaustive only up to MAX_AUDIT_USERS
    ineq = mi_inequality_audit(pass_) if K <= MAX_AUDIT_USERS else None
    checks = {"lemma5": budget.passed, "inequality_audit": getattr(ineq, "passed", None)}
    detail = {
        "lemma5": {
            "passed": budget.passed,
            "entries": [
                {"subset": _members(s), "lhs": lhs, "rhs": rhs, "ci_half": h, "slack": sl}
                for s, lhs, rhs, h, sl in budget.entries
            ],
        },
        "lemma3_violations": getattr(ineq, "lemma3_violations", None),
        "lemma4_passed": getattr(ineq, "lemma4_passed", None),
        "symmetry_passed": getattr(ineq, "symmetry_passed", None),
        "resampled_blocks": pass_.resampled_blocks,
    }
    record = _record(cfg, K, dims, rows, trials, eta_target_ergodic(K, m), None, checks, detail)
    record["detail"]["slope_R"] = record["eta_measured"]
    return record


def _environment():
    """What the numbers depend on besides the config: numpy, its BLAS and the BLAS threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    openblas = _openblas()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None if openblas is None else openblas.threads,
        **{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_single_thread_below_rows": _SINGLE_THREAD_ROWS,
    }


def _manifest(cfg, records, checks, failed, t0):
    """The run's manifest; a failed point fails it."""
    return {
        "artifact_version": __version__,
        "config": cfg.as_dict(),
        "config_hash": cfg.digest(),
        "seed": cfg.seed,
        "scenario": cfg.scenario,
        "environment": _environment(),
        "records": records,
        "checks": checks,
        "failed_points": failed,
        "timings": {"wall_s": time.perf_counter() - t0},
        "passed": not failed
        and all(r["checks_passed"] for r in records)
        and all(checks.values()),
    }


def _grid(cfg):
    """Validate the config and return its (K, m) points in lexicographic order."""
    cfg.validate()
    return [(K, m) for K in sorted(cfg.k_list()) for m in sorted(cfg.m_list())]


def _each_point(cfg, runner):
    """`runner(K, m)` at every grid point, in order: the (K, m, result) of each and the failures.

    A point that fails alignment or its numerics is listed among the
    failures, with its error and whatever the runner attached to the error
    as `completed`, and does not stop the loop.
    """
    done, failed = [], []
    for K, m in _grid(cfg):
        try:
            done.append((K, m, runner(K, m)))
        except _NUMERICAL_ERRORS as exc:
            failed.append({"K": K, "m": m, "error": str(exc), **getattr(exc, "completed", {})})
    return done, failed


def run(cfg):
    """Execute the scenario pipeline for a single (K, m) point."""
    if len(_grid(cfg)) != 1:
        raise ConfigError("run expects scalar K and m; use sweep for grids")
    return sweep(cfg)


def sweep(cfg):
    """One record per (K, m) grid point, in lexicographic order.

    A point that fails alignment or its numerics is listed in the manifest's
    `failed_points`, fails the manifest, and does not stop the sweep.
    """
    t0 = time.perf_counter()
    runner = _run_ergodic_point if cfg.scenario == "external-ergodic" else _run_confidential_point
    done, failed = _each_point(cfg, lambda K, m: runner(cfg, K, m))
    return _manifest(cfg, [record for _, _, record in done], {}, failed, t0)


def _alignment_suite(cfg, K, m, trials):
    """Verification of the point sampled at the master seed, and the Lemma 2 full-rank audit.

    The pipeline's kernel verifies the seed network as a stack of one: a failure is
    a finding, never an exception, and a zero divisor reads zeroed beams (rank-0 receivers).
    """
    dims = derive_dims(K, m)
    _, _, spectra = _align_stack(sample_gains(dims, [cfg.seed]), m)
    report = _report(dims.streams, spectra)
    rank_audit = check_full_rank(dims, trials, cfg.seed)
    return {"alignment": report.passed, "lemma2": rank_audit.passed}, {
        "alignment": report.as_dict(),
        "lemma2_trials": rank_audit.trials,
        "lemma2_failures": rank_audit.failures,
        "lemma2_failing_trials": rank_audit.failing_trials,
        "lemma2_exact_links": rank_audit.exact_links,
    }


def _oracle_suite(cfg, K, m, trials):
    """Chain-rule, Schur, monotonicity, and scalar-slope identities on min(trials, 100) instances.

    The instances come from `_stacks` a chunk at a time; the first that does
    not build raises AlignmentError, naming its index.
    """
    instances = min(trials, 100)
    dims = derive_dims(K, m)
    worst_chain = 0.0
    worst_schur = 0.0
    mono_ok = True
    lemma3_ok = True
    power = PowerConfig(rho=1e4, epsilon_margin=cfg.epsilon_margin)
    seeds = _stream_seeds(cfg.seed, _TAG_AUDIT_SEED, np.arange(instances))
    for start, links, beams, built in _stacks(dims, seeds):
        if not built.all():
            j = start + int(np.argmin(built))
            raise AlignmentError(f"oracle instance {j}: zero diagonal entry in its construction")
        # every instance of the chunk at once: one stacked call per MI
        aset = AlignmentSet(beams)
        powers = stream_power(aset, power)
        gains = aset.apply(links[:, 0])
        both = mi_from_gains(gains, powers, {1, 2}).bits
        first = mi_from_gains(gains, powers, {1}).bits
        second = mi_from_gains(gains, powers, {2}, conditioned={1}).bits
        worst_chain = max(worst_chain, float(np.max(abs(both - (first + second)) / both)))
        schur = mi_schur(gains, powers, {1, 2})
        worst_schur = max(worst_schur, float(np.max(abs(both - schur) / both)))
        mono_ok &= not (first > both + 1e-9 * both).any()
        conditioned = mi_from_gains(gains, powers, {1}, conditioned={2}).bits
        lemma3_ok &= not (first > conditioned + 1e-9 * np.fmax(1.0, first)).any()
    scalar = estimate_slope(np.log2(np.add(cfg.rho_grid, 1.0)), cfg.rho_grid)
    return {
        "oracle_chain_rule": worst_chain < 1e-9,
        "oracle_schur": worst_schur < 1e-9,
        "oracle_monotonicity": mono_ok,
        "oracle_lemma3_instances": lemma3_ok,
        "oracle_scalar_slope": abs(scalar.slope - 1.0) < 1e-3,
    }, {
        "oracle_instances": instances,
        "worst_chain_rel": worst_chain,
        "worst_schur_rel": worst_schur,
    }


def _monte_carlo_suite(cfg, K, m, trials):
    """Lemmas 3-5 and user symmetry at the top rho, on max(30, min(trials, 100)) fading blocks.

    Disjoint-pair enumeration is exhaustive only up to `MAX_AUDIT_USERS`, so
    larger K runs no blocks.
    """
    if K > MAX_AUDIT_USERS:
        return {}, {"mc_trials": 0}
    mc_trials = max(30, min(trials, 100))
    top_load = np.subtract(cfg.rho_grid[-1:], cfg.epsilon_margin)
    pass_ = ergodic_pass(derive_dims(K, m), top_load, mc_trials, cfg.seed)
    budget = eavesdropper_budget_check(pass_)
    ineq = mi_inequality_audit(pass_)
    return {
        "lemma3": ineq.lemma3_violations == 0,
        "lemma4": ineq.lemma4_passed,
        "lemma5": budget.passed,
        "symmetry": ineq.symmetry_passed,
    }, {"mc_trials": mc_trials, "lemma3_violations": ineq.lemma3_violations}


def _check_grid(cfg, suites):
    """Run every suite at each grid point: checks keyed K{K}_m{m}_{name}, details per point.

    A point where a suite fails its numerics is listed in `failed_points`
    with the checks and details of the suites that completed before it,
    which stay out of the manifest's `checks` and `audit_details`; the other
    points still run.
    """
    t0 = time.perf_counter()

    def point(K, m):
        checks, details = {}, {}
        try:
            for suite in suites:
                suite_checks, detail = suite(cfg, K, m, cfg.effective_trials(100))
                checks.update((f"K{K}_m{m}_{name}", ok) for name, ok in suite_checks.items())
                details.update(detail)
        except _NUMERICAL_ERRORS as exc:
            exc.completed = {"checks": checks, "details": details}
            raise
        return checks, details

    done, failed = _each_point(cfg, point)
    checks = {name: ok for _, _, (point_checks, _) in done for name, ok in point_checks.items()}
    manifest = _manifest(cfg, [], checks, failed, t0)
    manifest["audit_details"] = {f"K{K}_m{m}": details for K, m, (_, details) in done}
    return manifest


def audit(cfg):
    """Lemma and oracle audit suite over the configured (K, m) grid."""
    return _check_grid(cfg, (_alignment_suite, _oracle_suite, _monte_carlo_suite))


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
    """Write records.csv, plot-data files, and a human-readable summary.

    records.csv and plot_eta_vs_m.csv are always written; the delta and
    ergodic tables only when they have rows.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = manifest["records"]
    eta_rows = [{**r, "eta_asymptote": r["detail"].get("eta_asymptote")} for r in records]
    delta_rows = [
        {
            "K": r["K"],
            "m": r["m"],
            "log2_rho": math.log2(point["rho"]),
            "delta_hat": point["delta_hat"],
            "delta_reference": 0.0,
        }
        for r in records
        for point in r["detail"].get("delta_points", [])
    ]
    ergodic_rows = [
        {
            **row,
            "K": r["K"],
            "m": r["m"],
            "trials": r["trials"],
            "slope_R": r["detail"]["slope_R"],
            "lemma4_pass": r["detail"]["lemma4_passed"],
            "lemma5_pass": r["detail"]["lemma5"]["passed"],
        }
        for r in records
        if r["scenario"] == "external-ergodic"
        for row in r["detail"]["per_rho"]
    ]
    tables = [
        ("records.csv", CSV_COLUMNS, records, True),
        ("plot_eta_vs_m.csv", ETA_COLUMNS, eta_rows, True),
        ("plot_delta_vs_rho.csv", DELTA_COLUMNS, delta_rows, False),
        ("ergodic_details.csv", ERGODIC_DETAIL_COLUMNS, ergodic_rows, False),
    ]
    written = []
    for name, columns, rows, always in tables:
        if always or rows:
            path = out / name
            _write_csv(path, columns, rows)
            written.append(path)

    # an audit's scenario field is the config's default, which it never runs
    scenario = "" if "audit_details" in manifest else f"scenario: {manifest['scenario']}  "
    lines = [
        f"{scenario}seed: {manifest['seed']}  config: {manifest['config_hash'][:12]}",
        f"records: {len(records)}  passed: {manifest['passed']}",
    ]
    for r in records:
        failed, vacuous = r["detail"].get("failed_checks"), r["detail"].get("vacuous")
        verdict = f" (failed: {', '.join(failed)})" if failed else " (vacuous)" if vacuous else ""
        lines.append(
            f"  K={r['K']} m={r['m']} F={r['F']}: eta {_fmt_cell(r['eta_measured'])}"
            f" (target {_fmt_cell(r['eta_target'])},"
            f" asymptote {_fmt_cell(r['detail'].get('eta_asymptote'))})"
            f" R {_fmt_cell(r['R_bits_per_slot'])} Rx {_fmt_cell(r['Rx_bits_per_slot'])}"
            f" at rho {_fmt_cell(r['rho'])}"
            f" delta_hat {_fmt_cell(r['delta_hat'])} checks {r['checks_passed']}{verdict}"
        )

    def check_lines(checks, indent):
        return [f"{indent}check {name}: {'pass' if ok else 'FAIL'}" for name, ok in checks.items()]

    for point in manifest.get("failed_points", []):
        lines.append(f"  K={point['K']} m={point['m']} FAILED: {point['error']}")
        lines += check_lines(point.get("checks", {}), "    ")  # the suites that completed
    lines += check_lines(manifest.get("checks", {}), "  ")
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    written.append(summary_path)
    return written


def _write_manifest(manifest, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=_json_default))
    return path


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars and arrays
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
    trials = ("Monte Carlo trials, overrides config; audit caps its Monte Carlo blocks"
              " and oracle networks at 100")
    parser.add_argument("--trials", type=int, help=trials)
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
    cfg.override(seed=args.seed, out=args.out, trials=args.trials)
    return cfg


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
            manifest = _check_grid(cfg, (_alignment_suite,))
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
        for point in manifest["failed_points"]:
            print(f"numerical error at K={point['K']} m={point['m']}: {point['error']}",
                  file=sys.stderr)
        if manifest["failed_points"]:
            return EXIT_NUMERICAL_ERROR
        return EXIT_OK if manifest["passed"] else EXIT_CHECK_FAILURE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
