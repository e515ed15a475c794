"""In-memory span tracer that wraps the public functions of `dividend_opt`.

The tracer replaces a public function by a wrapper in every `dividend_opt`
module namespace that binds the same object, so calls between library
modules (for example `tables.locate_barrier` -> `scale.solve_scale`) are
seen as well as calls from the benchmark.  Methods are wrapped on their
class.  `uninstall` puts every original back.

A span is `[name, start, end, parent]`, `parent` being the index of the
enclosing span or -1.  Spans opened on a thread with no open span of its
own (the worker threads of `tables.run_sweep`) take the innermost open
span of the installing thread as their parent.  Counts and summed
quantities are recorded at the same wrappers.  Everything stays in memory
until the caller asks for the metrics or writes the spans out.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "model", "tables", "scale", "barrier", "hjb", "grid",
          "simulate", "flow")


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def _add_nodes(tracer, args, kwargs, result):
    tracer.add("scale.nodes", result.W.n)


def _add_csv_bytes(tracer, args, kwargs, result):
    tracer.add("grid.csv_bytes", len(result.encode("utf-8")))


def _add_paths(tracer, args, kwargs, result):
    tracer.add("simulate.paths", result.paths_used)


# (module, class or None, attribute, span name, hook after a successful call,
#  whether to keep the call's arguments for the replay probes)
TARGETS = (
    ("dividend_opt.cli", None, "main", _cli_name, None, False),
    ("dividend_opt.model", None, "params_from_json", "model.parse", None, False),
    ("dividend_opt.model", None, "params_from_dict", "model.parse", None, False),
    ("dividend_opt.model", None, "validate_model", "model.validate", None, False),
    ("dividend_opt.model", None, "omega_eval", "model.omega", None, False),
    ("dividend_opt.tables", None, "run_sweep", "tables.run_sweep", None, True),
    ("dividend_opt.tables", None, "locate_barrier", "tables.locate_barrier",
     None, False),
    ("dividend_opt.scale", None, "solve_scale", "scale.solve", _add_nodes, True),
    ("dividend_opt.barrier", None, "find_barrier", "barrier.find", None, False),
    ("dividend_opt.barrier", None, "h_eval", "barrier.h_eval", None, False),
    ("dividend_opt.hjb", None, "verify_optimality", "hjb.verify", None, False),
    ("dividend_opt.grid", "GridFunction", "to_csv_string", "grid.csv_write",
     _add_csv_bytes, False),
    ("dividend_opt.grid", "GridFunction", "from_csv", "grid.csv_read", None, False),
    ("dividend_opt.simulate", None, "simulate_value", "simulate.value",
     _add_paths, False),
    ("dividend_opt.simulate", None, "simulate_gerber_shiu", "simulate.gerber",
     _add_paths, False),
    ("dividend_opt.flow", "FlowSolver", "forward", "flow.forward", None, False),
    ("dividend_opt.flow", "FlowSolver", "hit_time", "flow.hit", None, False),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = Counter()
        self.calls = {}  # span name -> [(args, kwargs)] for the replay probes
        self._lock = threading.Lock()
        self._stacks = {}
        self._owner = None
        self._restore = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount):
        with self._lock:
            self.totals[key] += amount

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        owner = self._stacks.get(self._owner)
        return owner[-1] if owner else -1

    def _wrap(self, fn, name, hook, keep_args):
        tracer = self
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = fixed or name(args, kwargs)
            stack = tracer._stack()
            span = [span_name, 0.0, 0.0, tracer._parent(stack)]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
                if keep_args:
                    tracer.calls.setdefault(span_name, []).append((args, kwargs))
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target; the calling thread owns orphan worker spans."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._owner = threading.get_ident()
        package = [m for n, m in sys.modules.items()
                   if n == "dividend_opt" or n.startswith("dividend_opt.")]
        for module_name, cls_name, attr, name, hook, keep in TARGETS:
            module = sys.modules[module_name]
            if cls_name is not None:
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, name, hook, keep))
                else:
                    wrapped = self._wrap(raw, name, hook, keep)
                setattr(cls, attr, wrapped)
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, hook, keep)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- analysis ----------------------------------------------------------

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def _outermost(self, names):
        """Spans named in `names` that have no ancestor named in `names`."""
        out = []
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(span)
        return out

    def seconds(self, *names) -> float:
        """Wall time inside the named spans, nested repeats counted once."""
        return sum(s[2] - s[1] for s in self._outermost(set(names)))

    def self_seconds(self) -> dict:
        """Per layer: span durations minus the union of their child spans."""
        children = [[] for _ in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = dict.fromkeys(LAYERS, 0.0)
        for span, kids in zip(self.spans, children):
            start, end = span[1], span[2]
            covered, reach = 0.0, start
            for lo, hi in sorted(kids):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span[0].split(".", 1)[0]] += (end - start) - covered
        return out

    def children_named(self, parent_name: str, child_name: str) -> int:
        return sum(1 for s in self.spans
                   if s[0] == child_name and s[3] >= 0
                   and self.spans[s[3]][0] == parent_name)

    def to_records(self) -> list:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                for s in self.spans]
