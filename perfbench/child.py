"""One measured step in a fresh interpreter; prints one JSON line on stdout.

    python3 perfbench/child.py MODE SPEC_JSON

MODE is one of:
  setup   import iasec and validate the workload config (what set-up costs)
  invoke  one iasec CLI invocation, timed from after import
  trace   the same invocation with every public function wrapped in spans
  probe   the 60-digit precision probe on the workload's networks
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _setup(spec):
    from iasec.cli import ExperimentConfig

    cfg = ExperimentConfig.from_file(spec["config"])
    cfg.override(seed=spec["seed"], trials=spec.get("trials"))
    cfg.validate()
    return {"machine": _machine()}


def _invoke(spec, tracer=None):
    import iasec
    from iasec import cli

    installed = tracer.install(iasec) if tracer is not None else None
    result = {"rc": None, "exception": None}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result["rc"] = cli.main(spec["argv"])
    except Exception:  # a crash is a measured outcome, reported to the parent
        result["exception"] = traceback.format_exc(limit=-3)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["wrapped"] = installed
        result["spans"] = len(tracer.spans)
        result["functions"], result["mi_by_F"] = tracer.summary()
        result["counters"] = tracer.counters()
        tracer.write(spec["spans_csv"])
    return result


def _trace(spec):
    from tracer import Tracer

    return _invoke(spec, Tracer())


def _probe(spec):
    from probe import probe

    t0 = time.perf_counter()
    result = probe(spec["seed"], spec["points"])
    result["probe_s"] = time.perf_counter() - t0
    return result


MODES = {"setup": _setup, "invoke": _invoke, "trace": _trace, "probe": _probe}


if __name__ == "__main__":
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(MODES[mode](spec)))
