"""iasec benchmark: CLI workloads timed end to end, plus a traced per-module run.

    python3 perfbench/run.py --workload static-K4 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is one `iasec` CLI invocation at master seed 16. A run is a
closed loop with one client: every invocation is a fresh interpreter started
only after the previous one has ended, with workers=1 and at most two BLAS
threads. With `--trace 0` the run reports the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it makes one untraced and one traced
invocation plus the precision probe, and reports the per-layer metrics.
Every invocation's outputs are compared with the reference outputs in
reference.json. The last line of stdout is one JSON object; `--workload all`
runs every workload both ways and exits nonzero if any output check failed.
See README.md.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# Why each workload is here: see README.md. Sizes and the master seed are fixed.
WORKLOADS = {
    "static-K4": {
        "command": "dof-sweep",
        "config": {"scenario": "confidential", "K": 4, "m": [1, 2]},
        "trials": None,
    },
    "ergodic-K3": {
        "command": "ergodic",
        "config": {"scenario": "external-ergodic", "K": 3, "m": 2},
        "trials": 1000,
    },
    "audit-K3K4": {
        "command": "audit",
        "config": {"K": [3, 4], "m": 1},
        "trials": 1000,
    },
}

# The program's run time depends on its master seed (static-K4 takes 8-13 s
# at seeds 20, 22, 24 and 25 but 17-22 s at 16-19, 21 and 23), far beyond
# run-to-run noise. So every run gives the program one master seed, and the
# benchmark's --seed changes nothing the program sees. Claims tuned on seed 16
# are confirmed on the held-out seed with --workload-seed 61.
WORKLOAD_SEED = 16
HELD_OUT_SEED = 61
RECORDED_SEEDS = (16, 17, 18, 19, 20, 21, 22, 23, 24, 25, HELD_OUT_SEED)

SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing files, a failed probe)."""


def blas_threads():
    return min(2, len(os.sched_getaffinity(0)))


def child(mode, spec, timeout=CHILD_TIMEOUT_S):
    """Run perfbench/child.py in a fresh interpreter; (parsed JSON or None, wall s, stderr)."""
    threads = str(blas_threads())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    cmd = [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return None, time.perf_counter() - t0, f"timed out after {exc.timeout} s"
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, elapsed, proc.stderr
    return json.loads(lines[-1]), elapsed, proc.stderr


class Workload:
    """Files and argv of one workload at one master seed."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.spec = WORKLOADS[name]
        self.dir = WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.spec["config"]))
        self.out = self.dir / "out"

    def argv(self):
        argv = ["--config", str(self.config), "--seed", str(self.seed), "--out", str(self.out)]
        if self.spec["trials"] is not None:
            argv += ["--trials", str(self.spec["trials"])]
        return argv + [self.spec["command"]]

    def setup_spec(self):
        return {"config": str(self.config), "seed": self.seed, "trials": self.spec["trials"]}

    def points(self):
        ks, ms = self.spec["config"]["K"], self.spec["config"]["m"]
        ks = ks if isinstance(ks, list) else [ks]
        ms = ms if isinstance(ms, list) else [ms]
        return [(k, m) for k in ks for m in ms]


# ---------------------------------------------------------------- outputs

def read_outputs(out_dir, exit_code):
    """The outputs the reference check compares, read from one invocation's files."""
    raw = (out_dir / "records.csv").read_bytes()
    records = [
        {col: _cell(value) for col, value in row.items()}
        for row in csv.DictReader(io.StringIO(raw.decode()))
    ]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    verdicts = {"passed": manifest["passed"]}
    counts = {}
    for name, ok in manifest.get("checks", {}).items():
        verdicts[f"check.{name}"] = ok
    for j, rec in enumerate(manifest["records"]):
        detail = rec["detail"]
        verdicts[f"record{j}.checks_passed"] = rec["checks_passed"]
        verdicts[f"record{j}.clamped"] = rec["clamped"]
        for key in ("lemma4_passed", "symmetry_passed"):
            if detail.get(key) is not None:
                verdicts[f"record{j}.{key}"] = detail[key]
        if "lemma5" in detail:
            verdicts[f"record{j}.lemma5_passed"] = detail["lemma5"]["passed"]
        if detail.get("lemma3_violations") is not None:
            counts[f"record{j}.lemma3_violations"] = detail["lemma3_violations"]
    for tag, detail in manifest.get("audit_details", {}).items():
        for key in ("lemma2_failures", "lemma3_violations"):
            if key in detail:
                counts[f"{tag}.{key}"] = detail[key]
    checks = [r["checks_passed"] for r in manifest["records"]] + list(
        manifest.get("checks", {}).values()
    )
    return {
        "exit_code": exit_code,
        "records": records,
        "verdicts": verdicts,
        "counts": counts,
        "records_sha256": hashlib.sha256(raw).hexdigest(),
        "checks_failed": sum(1 for ok in checks if not ok),
        "checks_evaluated": len(checks),
    }


def _cell(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def compare(got, ref, tol):
    """Differences between one invocation's outputs and the reference, as text."""
    problems = []
    if got["exit_code"] != ref["exit_code"]:
        problems.append(f"exit code {got['exit_code']} != {ref['exit_code']}")
    for kind in ("verdicts", "counts"):
        for name, want in ref[kind].items():
            have = got[kind].get(name, "absent")
            if have != want:
                problems.append(f"{name}: {have} != {want}")
    if len(got["records"]) != len(ref["records"]):
        problems.append(f"{len(got['records'])} records != {len(ref['records'])}")
    for j, (have_row, want_row) in enumerate(zip(got["records"], ref["records"])):
        for col, want in want_row.items():
            have = have_row.get(col, "absent")
            if isinstance(want, float) and isinstance(have, float):
                if not math.isclose(have, want, rel_tol=tol["rtol"], abs_tol=tol["atol"]):
                    problems.append(f"record{j}.{col}: {have!r} != {want!r}")
            elif have != want:
                problems.append(f"record{j}.{col}: {have!r} != {want!r}")
    return problems


def invoke(workload, traced=False):
    """One invocation; returns its timings, outputs and reference verdict."""
    shutil.rmtree(workload.out, ignore_errors=True)
    spec = {"argv": workload.argv(), "spans_csv": str(workload.dir / "spans.csv")}
    result, _, stderr = child("trace" if traced else "invoke", spec)
    if result is None or result["exception"] or result["rc"] not in (0, 1):
        detail = ((result or {}).get("exception") or stderr or "no output").strip()
        return {"crashed": True, "problems": detail.splitlines()[-1:]}
    try:
        result["outputs"] = read_outputs(workload.out, result["rc"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"crashed": True, "problems": [f"unreadable outputs: {exc!r}"]}
    return result


def check(run, workload, reference):
    """Mark a finished invocation correct or not against the stored reference."""
    if run.get("crashed"):
        return run
    ref = reference["workloads"][workload.name].get(str(workload.seed))
    if ref is None:
        raise BenchError(f"no reference outputs for {workload.name} at seed {workload.seed}")
    run["problems"] = compare(run["outputs"], ref, reference["tolerance"])
    run["sha_matches_reference"] = run["outputs"]["records_sha256"] == ref["records_sha256"]
    return run


# ---------------------------------------------------------------- runs

def measure_setup(workload, spawns):
    """Fresh interpreter to iasec imported and config validated, `spawns` times."""
    times, machine = [], None
    for _ in range(spawns + 1):  # the first spawn warms the file cache
        result, elapsed, stderr = child("setup", workload.setup_spec())
        if result is None:
            raise BenchError(f"set-up failed: {stderr.strip()[-500:]}")
        if machine is None:
            machine = result["machine"]
        else:
            times.append(elapsed)
    return times, machine


def timed_run(workload, seconds, reference):
    """Closed loop: back-to-back invocations while the next is predicted to fit."""
    runs = []
    t0 = time.perf_counter()
    while True:
        run = invoke(workload)
        runs.append(check(run, workload, reference))
        durations = [r["wall_s"] for r in runs if not r.get("crashed")]
        elapsed = time.perf_counter() - t0
        expected = statistics.median(durations) if durations else seconds
        if elapsed + expected > seconds:
            return runs


def traced_run(workload, reference):
    plain = check(invoke(workload), workload, reference)
    traced = check(invoke(workload, traced=True), workload, reference)
    result, _, stderr = child("probe", {"seed": workload.seed, "points": workload.points()})
    if result is None:
        raise BenchError(f"precision probe failed: {stderr.strip()[-500:]}")
    return plain, traced, result


def end_to_end_metrics(runs, setup_times):
    ok = [r for r in runs if not r.get("crashed")]
    values = {"setup_s": statistics.median(setup_times)}
    if ok:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in ok)
    return values


def per_layer_metrics(plain, traced, probe):
    """Flatten the traced invocation's summary into named per-layer numbers."""
    values = {}
    if traced.get("crashed"):
        return values
    never_called = {"calls": 0, "s": 0.0, "self_s": 0.0}
    rows = {name: traced["functions"].get(name, never_called) for name in traced["wrapped"]}
    rows.update(traced["mi_by_F"])
    for name, row in rows.items():
        for key in ("calls", "s", "self_s"):
            values[f"{name}.{key}"] = row[key]
    values.update(traced["counters"])
    all_rows = traced["functions"].values()
    values["cli.self_s"] = sum(
        row["self_s"] for name, row in traced["functions"].items() if name.startswith("cli.")
    )
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.unaccounted_s"] = traced["wall_s"] - sum(row["self_s"] for row in all_rows)
    values["trace.spans"] = traced["spans"]
    if not plain.get("crashed"):
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["gaussmi.mi_rel_err_max"] = probe["max"]
    values["gaussmi.mi_rel_err_top_rho"] = probe["top"]
    return values


def select(values, declared):
    """Declared metrics in BENCHMARK.json order; F buckets never hit read 0."""
    metrics, absent = {}, []
    for m in declared:
        name = m["name"]
        if name not in values and name.startswith("gaussmi.mi_from_gains.F"):
            if "gaussmi.mi_from_gains.calls" in values:
                values[name] = 0 if name.endswith(".calls") else 0.0
        if name in values:
            metrics[name] = {"value": values[name], "unit": m["unit"]}
        else:
            absent.append(name)
    return metrics, absent


def machine_info(machine, workload, driver_seed, runs):
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        **machine,
        "workload_seed": workload.seed,
        "driver_seed": driver_seed,
        "invocations": runs,
    }


def _print_invocations(runs, label):
    for i, r in enumerate(runs):
        if r.get("crashed"):
            print(f"  {label}[{i}] CRASHED: {r['problems']}")
            continue
        out = r["outputs"]
        status = "ok" if not r["problems"] else f"MISMATCH ({len(r['problems'])})"
        print(
            f"  {label}[{i}] rc={r['rc']} wall={r['wall_s']:.3f}s cpu={r['cpu_s']:.3f}s"
            f" rss={r['peak_rss_mb']:.1f}MiB checks_failed={out['checks_failed']}"
            f"/{out['checks_evaluated']} records.csv sha256={out['records_sha256']}"
            f"{'' if r['sha_matches_reference'] else ' (differs from reference)'} {status}"
        )
        for p in r["problems"][:10]:
            print(f"      {p}")


def _print_metrics(metrics, absent):
    for name, m in metrics.items():
        v = m["value"]
        text = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"  {name:<48} {text:>14} {m['unit']}")
    for name in absent:
        print(f"  {name:<48} {'absent':>14}")


def _print_layers(traced, probe):
    print("  traced spans by self time (function, calls, inclusive s, self s):")
    rows = sorted(traced["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows + sorted(traced["mi_by_F"].items()):
        errors = f" errors={row['errors']}" if row["errors"] else ""
        print(f"    {name:<44} {row['calls']:>8} {row['s']:>10.4f} {row['self_s']:>10.4f}{errors}")
    for name, value in traced["counters"].items():
        print(f"    {name:<44} {value}")
    print(f"    precision probe: max {probe['max']:.3e} at {probe['where_max']};"
          f" top rho {probe['top']:.3e} at {probe['where_top']};"
          f" {probe['terms']} terms in {probe['probe_s']:.1f}s")


def run_workload(name, driver_seed, seconds, trace, master_seed, declared, reference):
    """One benchmark run; returns the result object printed as the last line."""
    workload = Workload(name, master_seed)
    print(f"== {name} seed={workload.seed} trace={trace}")
    if trace:
        setup_times, machine = measure_setup(workload, 0)
        plain, traced, probe = traced_run(workload, reference)
        runs = [plain, traced]
        _print_invocations([plain], "untraced")
        _print_invocations([traced], "traced")
        if not traced.get("crashed"):
            _print_layers(traced, probe)
        values = per_layer_metrics(plain, traced, probe)
        wanted = declared["per_layer"]
    else:
        setup_times, machine = measure_setup(workload, SETUP_SPAWNS)
        runs = timed_run(workload, seconds, reference)
        _print_invocations(runs, "run")
        values = end_to_end_metrics(runs, setup_times)
        wanted = declared["end_to_end"]
    failed = sum(1 for r in runs if r.get("crashed") or r["problems"])
    values["fail_rate"] = failed / len(runs)
    print(f"  fail_rate {values['fail_rate']:.3f} ({failed} of {len(runs)} invocations"
          f" crashed or differ from the reference)")
    checked = next((r["outputs"] for r in runs if not r.get("crashed")), None)
    if checked is not None:
        values["checks_failed_frac"] = checked["checks_failed"] / max(1, checked["checks_evaluated"])
        print(f"  checks_failed_frac {values['checks_failed_frac']:.4f} ({checked['checks_failed']}"
              f" of {checked['checks_evaluated']} hard checks failed)")
    metrics, absent = select(values, wanted)
    info = machine_info(machine, workload, driver_seed, len(runs))
    print(f"  machine: {json.dumps(info)}")
    _print_metrics(metrics, absent)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "trace": trace, "machine": info, "setup_s": setup_times,
              "values": values, "absent": absent, **result}
    path = results_dir / f"{name}-seed{workload.seed}-trace{trace}-{int(time.time())}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return result


def _check_layout():
    missing = [p for p in (ROOT / "src" / "iasec" / "cli.py", BENCHMARK, REFERENCE)
               if not p.is_file()]
    if missing:
        raise BenchError("missing " + ", ".join(str(p.relative_to(ROOT)) for p in missing)
                         + "; run from the root of an iasec checkout")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="the run's seed, recorded; the program's inputs do not depend on it")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=WORKLOAD_SEED,
                        choices=RECORDED_SEEDS, metavar="SEED",
                        help=f"master seed given to iasec (default {WORKLOAD_SEED};"
                             f" {HELD_OUT_SEED} is held out)")
    args = parser.parse_args(argv)
    try:
        _check_layout()
        declared = json.loads(BENCHMARK.read_text())
        reference = json.loads(REFERENCE.read_text())
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  args.workload_seed, declared, reference)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(name, args.seed, args.seconds, trace,
                                      args.workload_seed, declared, reference)
                total["correct"] &= result["correct"]
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                for metric, m in result["metrics"].items():
                    total["metrics"][f"{name}/{metric}"] = m
        print(json.dumps(total))
        return 0 if total["correct"] else 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
