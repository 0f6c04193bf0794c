"""Spans and counts for the traced run, recorded from outside the program.

``Tracer.install`` wraps public functions of ``discordkit`` (and the two
NumPy eigensolvers it calls) and rebinds every module-level name that refers
to them: callers such as ``verify`` import ``eof_upper`` and
``partial_trace`` by name, and ``verify.RELATIONS`` holds the checks in a
dict, so patching only the defining module would undercount.  ``audit``
reports any reference the rebinding missed.

A span is ``(name, start_ns, end_ns, parent, item, extra)``; spans stay in
memory and are written out once, at the end of the run.  Every per-layer
metric is computed from the spans, so counts are taken where the work
happens.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

RELATION_NAMES = (
    "eq5", "koashi_winter", "monogamy", "eq8", "thm1", "cor1",
    "lindblad", "eq12", "thm2", "cor2", "thm3", "kw_pointwise",
)

# (module, attribute, span name)
TARGETS = (
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("discordkit.correlations", "minimize_over_measurements", "correlations.optimize"),
    ("discordkit.correlations", "min_conditional_entropy", "correlations.min_conditional_entropy"),
    ("discordkit.measurement", "unitary_from_params", "measurement.unitary_from_params"),
    ("discordkit.measurement", "dephase", "measurement.dephase"),
    ("discordkit.entanglement", "eof_upper", "entanglement.eof_upper"),
    ("discordkit.entanglement", "eof_2qubit", "entanglement.eof_2qubit"),
    ("discordkit.qstate", "validate", "qstate.validate"),
    ("discordkit.qstate", "partial_trace", "qstate.partial_trace"),
    ("discordkit.qstate", "von_neumann_entropy", "qstate.von_neumann_entropy"),
    ("discordkit.verify", "run_suite", "verify.run_suite"),
    ("discordkit.cli", "main", "cli.main"),
)

# The runner's reference-kernel readings inside items; their time is taken
# out of every enclosing span.
REFERENCE_SPAN = "bench.reference"

# Names whose call counts must repeat exactly for a given seed.
COUNTED = tuple(name for _m, _a, name in TARGETS) + ("correlations.objective",)


def _state_key(state, *rest) -> str:
    h = hashlib.sha1(np.ascontiguousarray(state.matrix).tobytes())
    h.update(repr((state.dims,) + rest).encode())
    return h.hexdigest()


def _extra_eigvalsh(args, kwargs, result):
    return math.prod(np.shape(args[0] if args else kwargs["a"])[:-2])


def _extra_eof_upper(args, kwargs, result):
    partition = args[1] if len(args) > 1 else kwargs.get("partition")
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return (_state_key(args[0], partition, cfg), result.crosscheck_gap)


def _extra_min_cond(args, kwargs, result):
    measured = args[1] if len(args) > 1 else kwargs["measured"]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return _state_key(args[0], measured, cfg)


EXTRAS = {
    "linalg.eigvalsh": _extra_eigvalsh,
    "entanglement.eof_upper": _extra_eof_upper,
    "correlations.min_conditional_entropy": _extra_min_cond,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.item = -1
        self._bindings: list = []  # (namespace, key, original) to restore

    # -- recording -----------------------------------------------------
    def _wrap(self, fn, name):
        extra_fn = EXTRAS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "correlations.optimize":
                args = (self._wrap(args[0], "correlations.objective"),) + args[1:]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                extra = extra_fn(args, kwargs, result) if extra_fn and result is not None else None
                spans[idx] = (name, t0, t1, parent, self.item, extra)

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around benchmark code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.item, None)

    def reference_span(self):
        return self.span(REFERENCE_SPAN)

    # -- rebinding -----------------------------------------------------
    @staticmethod
    def _namespaces():
        """Module namespaces and module-level dicts that may hold a target."""
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "numpy.linalg" or k == "discordkit"
                                      or k.startswith("discordkit.") or k == "workloads")]
        spaces = []
        for m in mods:
            ns = vars(m)
            spaces.append(ns)
            spaces.extend(v for v in ns.values() if isinstance(v, dict) and v is not ns)
        return spaces

    def install(self):
        import discordkit.verify as verify

        originals = {}
        for modname, attr, name in TARGETS:
            fn = getattr(sys.modules[modname], attr)
            originals[id(fn)] = (fn, self._wrap(fn, name))
        for rel, fn in verify.RELATIONS.items():
            originals[id(fn)] = (fn, self._wrap(fn, f"verify.{rel}"))
        for ns in self._namespaces():
            for key, value in list(ns.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((ns, key, value))
                    ns[key] = hit[1]
        self._originals = originals

    def uninstall(self):
        for ns, key, value in reversed(self._bindings):
            ns[key] = value
        self._bindings.clear()

    def audit(self) -> list:
        """Module-level references to a target that the rebinding missed."""
        missed = []
        originals = {i for i, (fn, _w) in self._originals.items()}
        for modname, m in list(sys.modules.items()):
            if m is None or not (modname == "discordkit" or modname.startswith("discordkit.")):
                continue
            for key, value in vars(m).items():
                if id(value) in originals:
                    missed.append(f"{modname}.{key}")
                defaults = getattr(value, "__defaults__", None) or ()
                if any(id(d) in originals for d in defaults):
                    missed.append(f"{modname}.{key} (default argument)")
        return missed

    # -- results -------------------------------------------------------
    def counts_by_item(self) -> dict:
        """{item: {name: [calls, matrices]}} for the exactly repeating counts."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for name, _t0, _t1, _parent, item, extra in self.spans:
            if name in COUNTED and item >= 0:
                slot = out[item][name]
                slot[0] += 1
                if name == "linalg.eigvalsh":
                    slot[1] += extra or 0
        return {item: {k: list(v) for k, v in d.items()} for item, d in out.items()}

    def layer_metrics(self) -> dict:
        spans = self.spans
        dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
        # A parent's index is below its children's: walk backwards to take
        # reference-kernel time out of every enclosing span.
        ref_in = np.zeros(len(spans), dtype=np.int64)
        for i in range(len(spans) - 1, -1, -1):
            if spans[i][0] == REFERENCE_SPAN:
                ref_in[i] = dur[i]
            if spans[i][3] >= 0:
                ref_in[spans[i][3]] += ref_in[i]
        dur -= ref_in
        child = np.zeros(len(spans), dtype=np.int64)
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        keys: dict = defaultdict(set)
        matrices = 0
        gap_max = 0.0
        for i, (name, _t0, _t1, _parent, item, extra) in enumerate(spans):
            if (item < 0 and name != "states.generate") or name == REFERENCE_SPAN:
                continue
            calls[name] += 1
            total_ns[name] += int(dur[i])
            self_ns[name] += int(dur[i] - child[i])
            if extra is None:
                continue
            if name == "linalg.eigvalsh":
                matrices += extra
            elif name == "entanglement.eof_upper":
                keys[name].add(extra[0])
                if extra[1] is not None:
                    gap_max = max(gap_max, extra[1])
            elif name == "correlations.min_conditional_entropy":
                keys[name].add(extra)

        def s(name):
            return total_ns[name] / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "linalg.eigvalsh.calls": calls["linalg.eigvalsh"],
            "linalg.eigvalsh.matrices": matrices,
            "linalg.eigvalsh.s": s("linalg.eigvalsh"),
            "linalg.eigh.calls": calls["linalg.eigh"],
            "linalg.eigh.s": s("linalg.eigh"),
            "correlations.optimize.calls": calls["correlations.optimize"],
            "correlations.optimize.s": s("correlations.optimize"),
            "correlations.optimize.self_s": self_ns["correlations.optimize"] / 1e9,
            "correlations.objective.evals": calls["correlations.objective"],
            "correlations.objective.s": s("correlations.objective"),
            "correlations.objective.evals_per_opt": ratio(
                calls["correlations.objective"], calls["correlations.optimize"]),
            "measurement.unitary_from_params.calls": calls["measurement.unitary_from_params"],
            "measurement.unitary_from_params.s": s("measurement.unitary_from_params"),
            "entanglement.eof_upper.calls": calls["entanglement.eof_upper"],
            "entanglement.eof_upper.s": s("entanglement.eof_upper"),
            "entanglement.eof_upper.distinct": len(keys["entanglement.eof_upper"]),
            "entanglement.eof_upper.useful_ratio": ratio(
                len(keys["entanglement.eof_upper"]), calls["entanglement.eof_upper"]),
            "entanglement.eof_2qubit.calls": calls["entanglement.eof_2qubit"],
            "entanglement.eof_2qubit.s": s("entanglement.eof_2qubit"),
            "entanglement.roof_gap.max": gap_max,
            "correlations.min_conditional_entropy.calls": calls["correlations.min_conditional_entropy"],
            "correlations.min_conditional_entropy.distinct": len(keys["correlations.min_conditional_entropy"]),
            "correlations.min_conditional_entropy.useful_ratio": ratio(
                len(keys["correlations.min_conditional_entropy"]),
                calls["correlations.min_conditional_entropy"]),
            "measurement.dephase.calls": calls["measurement.dephase"],
            "measurement.dephase.s": s("measurement.dephase"),
        }
        for fn in ("validate", "partial_trace", "von_neumann_entropy"):
            m[f"qstate.{fn}.calls"] = calls[f"qstate.{fn}"]
            m[f"qstate.{fn}.s"] = s(f"qstate.{fn}")
        for rel in RELATION_NAMES:
            m[f"verify.{rel}.s"] = s(f"verify.{rel}")
        m["verify.self_s"] = self_ns["verify.run_suite"] / 1e9
        m["cli.main.s"] = s("cli.main")
        m["cli.main.self_s"] = self_ns["cli.main"] / 1e9
        m["states.generate.s"] = s("states.generate")
        return m

    def write(self, path: str):
        """Write the spans as JSON lines; extras are omitted."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, item, _extra in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "item": item}) + "\n")
