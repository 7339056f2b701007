"""Spans around the public functions of the iasec modules, recorded from outside.

The package binds names with ``from .x import y``, so a function is reachable
through every module that imported it. `Tracer.install` replaces each such
binding with one wrapper per function, so a call is seen whichever module
made it. Spans are kept in memory as lists and summarised (or written out)
when the traced invocation has ended.
"""

import csv
import functools
import hashlib
import importlib
import inspect
import time

import numpy as np

LAYERS = ("model", "alignment", "gaussmi", "secrecy", "ergodic", "cli")

# span fields
NAME, PARENT, START, END, ERROR, TAG = range(6)


def _mi_tag(a):
    """F bucket and a digest of the exact inputs of one mi_from_gains call."""
    gains = a["gains"]
    h = hashlib.sha1()
    for g in gains:
        g = np.ascontiguousarray(g)
        h.update(repr(g.shape).encode())
        h.update(g.data)
    h.update(np.ascontiguousarray(a["powers"], dtype=float).data)
    h.update(repr((sorted(a["signal"]), sorted(a.get("conditioned", ())))).encode())
    return gains[0].shape[0], h.digest()


def _block_tag(a):
    """Identity of a fading block: (dims, seed, block index, ordering)."""
    perm = a.get("perm")
    return (a["dims"], int(a["seed"]), int(a["block_index"]),
            None if perm is None else tuple(perm))


# Work done before a span opens, on the call's arguments by name; it is timed
# as a `trace.hook` span so that instrumentation cost never lands in a
# layer's self time. A call whose arguments no longer fit gets no tag.
_HOOKS = {
    "gaussmi.mi_from_gains": _mi_tag,
    "ergodic.block_network": _block_tag,
}


def _row():
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx, error=None):
        end = time.perf_counter()
        span = self.spans[idx]
        span[END] = end
        span[ERROR] = error
        self._stack.pop()

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            tag = None
            if hook is not None:
                h = self._open("trace.hook")
                try:
                    tag = hook(signature.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError):
                    pass
                self._close(h)
            idx = self._open(name)
            self.spans[idx][TAG] = tag
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, type(exc).__name__)
                raise
            self._close(idx)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, package):
        """Wrap every public function of each layer, at every module binding it.

        Public means listed in the module's ``__all__`` (or, without one, not
        starting with an underscore) and defined in that module.
        """
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
            except ImportError:  # a layer that no longer exists is reported absent
                pass
        wrappers = {}
        for layer, mod in modules.items():
            public = getattr(mod, "__all__", [a for a in vars(mod) if not a.startswith("_")])
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        return sorted(f"{fn.__module__.split('.')[-1]}.{fn.__name__}" for fn in wrappers)

    def summary(self):
        """Calls, inclusive seconds and self seconds per function, and per F bucket.

        A span's self time is its duration minus the durations of its direct
        children, so the self times of all spans sum to the root span.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        functions, by_f = {}, {}
        for idx, span in enumerate(self.spans):
            dur = span[END] - span[START]
            rows = [functions.setdefault(span[NAME], _row())]
            if span[NAME] == "gaussmi.mi_from_gains" and span[TAG]:
                rows.append(by_f.setdefault(f"gaussmi.mi_from_gains.F{span[TAG][0]}", _row()))
            for row in rows:
                row["calls"] += 1
                row["s"] += dur
                row["self_s"] += dur - child_time[idx]
                if span[ERROR]:
                    row["errors"][span[ERROR]] = row["errors"].get(span[ERROR], 0) + 1
        return functions, by_f

    def counters(self):
        """Waste ratios measured where the work happens."""
        mi_calls = 0
        digests = set()
        blocks = set()
        block_calls = 0
        builds = build_failures = rebuilds = 0
        for span in self.spans:
            name = span[NAME]
            if name == "gaussmi.mi_from_gains" and span[TAG]:
                mi_calls += 1
                digests.add(span[TAG][1])
            elif name == "ergodic.block_network" and span[TAG]:
                block_calls += 1
                blocks.add(span[TAG])
            elif name == "alignment.build_beamformers":
                builds += 1
                if span[ERROR] == "AlignmentError":
                    build_failures += 1
                parent = span[PARENT]
                if parent >= 0 and self.spans[parent][NAME] == "alignment.check_full_rank":
                    rebuilds += 1
        mi_distinct = len(digests)
        return {
            "gaussmi.mi_distinct": mi_distinct,
            "gaussmi.mi_distinct_ratio": mi_distinct / mi_calls if mi_calls else 0.0,
            "ergodic.distinct_blocks": len(blocks),
            "ergodic.block_builds_per_trial": block_calls / len(blocks) if blocks else 0.0,
            "alignment.build_failures": build_failures,
            "alignment.build_fail_ratio": build_failures / builds if builds else 0.0,
            "alignment.check_full_rank.rebuilds": rebuilds,
        }

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span", "name", "parent", "start_s", "end_s", "error"])
            t0 = self.spans[0][START] if self.spans else 0.0
            for idx, span in enumerate(self.spans):
                out.writerow(
                    [idx, span[NAME], span[PARENT], f"{span[START] - t0:.9f}",
                     f"{span[END] - t0:.9f}", span[ERROR] or ""]
                )
