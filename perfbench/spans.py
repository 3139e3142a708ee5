"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install()`` replaces each layer's public functions, and a few
methods, with wrappers that record one span per call: name, start, end,
parent span and request id.  A name is replaced wherever a caller looks it up,
so ``algebra.ep_zip`` (imported by name from ``coeffseq``) is wrapped as well
as ``coeffseq.ep_zip``.  Spans stay in flat arrays in memory and are written
out once, at the end of the run.  Nothing under ``src/`` is edited.

A layer is a module of ``hadalg``; ``errors`` does no work and has none.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "serialize", "coeffseq", "algebra", "matalg", "ideals", "weights")

# methods that are layer work but are not module-level functions
METHODS = {
    "coeffseq": {"EPSeq": ("__post_init__",)},        # construction, canonical form
    "weights": {"Weight": ("log_p", "p_eval", "tail_bound")},
    "matalg": {"MatElement": ("shape_window", "U", "ustack")},
}
# private names another layer calls directly
CROSS_CALLS = {"matalg": ("_apply_factors",)}


class _JsonProxy:
    """Stands in for the ``json`` module inside ``hadalg.cli``."""

    def __init__(self, real, loads, dumps):
        self._real, self.loads, self.dumps = real, loads, dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self, package: str = "hadalg"):
        self.modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        self.namespaces = [m for name, m in sys.modules.items()
                           if name == package or name.startswith(package + ".")]
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.is_call: list[bool] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name_id = array("i")
        self.req = array("i")
        self.stack = [-1]
        self.active = [0] * len(LAYERS)
        self.request = -1
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()      # (name, exception type) -> count
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _register(self, name: str, call: bool = True) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(name.split(".")[0]))
        self.is_call.append(call)
        return len(self.names) - 1

    def _span(self, fn, name: str, before=None, after=None, call: bool = True):
        nid = self._register(name, call)
        layer = self.layer_of[nid]
        start, end, parent, name_id, req = (self.start, self.end, self.parent,
                                            self.name_id, self.req)
        stack, active, raised, clock = self.stack, self.active, self.raised, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            parent.append(stack[-1])
            name_id.append(nid)
            req.append(tracer.request)
            end.append(0.0)
            stack.append(idx)
            active[layer] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                raised[name, type(exc).__name__] += 1
                raise
            else:
                end[idx] = clock()
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                active[layer] -= 1

        return wrapper

    # -- per-layer counters --------------------------------------------------

    def _window_rows(self, args, result):
        self.counts["coeffseq.window_positions"] += result[0] + result[1]

    def _canon_in(self, args):
        s = args[0]
        self.counts["coeffseq.epseq_built"] += 1
        self.counts["coeffseq.canon_in"] += len(s.prefix) + len(s.cycle)

    def _canon_out(self, args, result):
        s = args[0]
        self.counts["coeffseq.canon_out"] += len(s.prefix) + len(s.cycle)

    def _mat_positions(self, args):
        if self.active[LAYERS.index("matalg")]:
            return              # count each outermost public call once
        cls = self.modules["matalg"].MatElement
        seqs = [e.u for a in args if isinstance(a, cls)
                for row in a.entries for e in row]
        if seqs and all(hasattr(u, "cycle") for u in seqs):
            self.counts["matalg.positions"] += (
                max(len(u.prefix) for u in seqs)
                + math.lcm(*(len(u.cycle) for u in seqs)))

    # -- patching -------------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for ns in self.namespaces:
            for key, val in list(vars(ns).items()):
                if val is original:
                    self._undo.append((ns, key, val))
                    setattr(ns, key, wrapper)

    def _patch_attr(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def install(self) -> None:
        hooks = {"coeffseq.joint_values": (None, self._window_rows),
                 "coeffseq.EPSeq.__post_init__": (self._canon_in, self._canon_out)}
        for layer, mod in self.modules.items():
            names = [k for k, v in vars(mod).items()
                     if inspect.isfunction(v) and v.__module__ == mod.__name__
                     and not k.startswith("_")]
            for key in names + list(CROSS_CALLS.get(layer, ())):
                name = f"{layer}.{key}"
                before, after = hooks.get(name, (None, None))
                if layer == "matalg":
                    before = self._mat_positions
                fn = vars(mod)[key]
                self._replace(fn, self._span(fn, name, before, after))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = vars(mod)[cls_name]
                for key in methods:
                    name = f"{layer}.{cls_name}.{key}"
                    before, after = hooks.get(name, (None, None))
                    self._patch_attr(cls, key, self._span(cls.__dict__[key], name,
                                                          before, after))
        # rule evaluations of generated sequences, counted under ideals spans
        genseq = self.modules["coeffseq"].GenSeq
        value = genseq.__dict__["value"]
        ideals, active, counts = LAYERS.index("ideals"), self.active, self.counts

        def counted(s, n):
            if active[ideals]:
                counts["ideals.rule_evals"] += 1
            return value(s, n)

        self._patch_attr(genseq, "value", counted)
        cli = self.modules["cli"]
        real = cli.json
        proxy = _JsonProxy(real,
                           self._span(real.loads, "cli.json.loads", call=False),
                           self._span(real.dumps, "cli.json.dumps", call=False))
        self._patch_attr(cli, "json", proxy)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span to a numpy .npz file."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 request=np.frombuffer(self.req, dtype=np.int32))

    def metrics(self, requests: int, wall: float, counts: Counter,
                raised: Counter) -> dict[str, float]:
        """Per-request layer figures over spans of requests < ``requests``.

        ``counts`` and ``raised`` are the counters as they stood when request
        ``requests - 1`` ended.
        """
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int32)
        keep = np.frombuffer(self.req, dtype=np.int32) < requests
        start = np.frombuffer(self.start)[keep]
        dur = np.frombuffer(self.end)[keep] - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        # parents of kept spans are kept spans; renumber them
        new_index = np.cumsum(keep) - 1
        parent = parent[keep]
        has_parent = parent >= 0
        parent = np.where(has_parent, new_index[np.maximum(parent, 0)], -1)
        nid = nid[keep]
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        if len(self_time) and self_time.min() < -1e-7:
            raise RuntimeError("a child span outlasts its parent")
        layer = np.array(self.layer_of, dtype=np.int64)[nid] if len(nid) else nid
        layer_self = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        top = float(dur[~has_parent].sum())
        bench_self = wall - top
        if abs(layer_self.sum() + bench_self - wall) > 1e-6 * max(wall, 1.0):
            raise RuntimeError("layer self times do not add up to the wall time")

        ids = {n: i for i, n in enumerate(self.names)}
        per = 1.0 / requests
        out: dict[str, float] = {}
        calls = np.bincount(nid, minlength=len(self.names))
        is_call = np.array(self.is_call, dtype=bool)
        layer_of = np.array(self.layer_of)

        def name_sum(values, *wanted):
            return float(np.sum(values[np.isin(nid, [ids[n] for n in wanted if n in ids])]))

        def raised_by(prefix, exc=None):
            return sum(v for (n, e), v in raised.items()
                       if n.startswith(prefix) and (exc is None or e == exc))

        for i, lay in enumerate(LAYERS):
            out[f"{lay}.self_s"] = float(layer_self[i]) * per
            out[f"{lay}.calls"] = float(calls[(layer_of == i) & is_call].sum()) * per
            out[f"{lay}.raised"] = raised_by(lay + ".") * per
        ones = np.ones(len(nid))
        out["cli.json_s"] = name_sum(self_time, "cli.json.loads", "cli.json.dumps") * per
        out["coeffseq.window_positions"] = counts["coeffseq.window_positions"] * per
        out["coeffseq.epseq_built"] = counts["coeffseq.epseq_built"] * per
        out["coeffseq.canon_ratio"] = (counts["coeffseq.canon_out"]
                                       / max(counts["coeffseq.canon_in"], 1))
        out["algebra.star.calls"] = name_sum(ones, "algebra.star") * per
        out["matalg.positions"] = counts["matalg.positions"] * per
        out["matalg.mat_log.self_s"] = name_sum(self_time, "matalg.mat_log") * per
        sl_spans = np.flatnonzero(nid == ids["matalg.sl_factor"])
        with_log = np.unique(parent[(nid == ids["matalg.mat_log"]) & has_parent])
        out["matalg.sl_factor.calls"] = len(sl_spans) * per
        out["matalg.sl_fallback_ratio"] = (len(np.intersect1d(sl_spans, with_log))
                                           / max(len(sl_spans), 1))
        out["ideals.rule_evals"] = counts["ideals.rule_evals"] * per
        tb = name_sum(ones, "weights.Weight.tail_bound")
        out["weights.tail_bound.calls"] = tb * per
        out["weights.bound_miss_ratio"] = (
            raised_by("weights.Weight.tail_bound", "BoundUnavailable") / max(tb, 1.0))
        out["bench.self_s"] = bench_self * per
        return out
