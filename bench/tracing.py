"""Spans and counters around the public functions of each package module.

Nothing under ``src/`` is changed: ``Tracer.install`` replaces each traced
name in the namespace of the module that looks it up at call time (for
example ``relaxations.solve_sdp`` and ``penalty.solve_sdp`` separately) and
``remove`` puts the originals back.  Coarse calls record a span with a parent
id; the PSD projections, called ~10^5 times per DNN solve, only bump a
counter and accumulate time.
"""

import time
from collections import defaultdict

from maxcut_bridge import bounds, penalty, relaxations, sdp

# (module, attribute looked up there, span name)
SPANNED = (
    (relaxations, "compute_bounds", "relaxations.compute_bounds"),
    (relaxations, "shor_maxcut", "relaxations.shor_maxcut"),
    (relaxations, "lasserre1", "relaxations.lasserre1"),
    (relaxations, "lp_box", "relaxations.lp_box"),
    (relaxations, "convex_quadratic_relaxation", "relaxations.convex_quadratic"),
    (relaxations, "copositive_dnn", "relaxations.copositive_dnn"),
    (relaxations, "solve_lp", "relaxations.solve_lp"),
    (relaxations, "solve_sdp", "sdp.solve_sdp"),
    (relaxations, "certified_diag_bound", "sdp.certified_diag_bound"),
    (relaxations, "brute_force", "instances.brute_force"),
    (relaxations, "homogenize", "reduction.homogenize"),
    (relaxations, "to_zero_one", "model.to_zero_one"),
    (penalty, "rho", "penalty.rho"),
    (penalty, "solve_sdp", "sdp.solve_sdp"),
    (penalty, "certified_diag_bound", "sdp.certified_diag_bound"),
    (bounds, "gw_round", "bounds.gw_round"),
    (bounds, "certify", "bounds.certify"),
)
COUNTED = (
    (sdp, "project_psd", "sdp.project_psd"),
    (sdp, "project_psd_nonneg", "sdp.project_psd_nonneg"),
)


class Tracer:
    """In-memory spans, per-name call counters and per-SDP solve records."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock      # seconds; may leave out time spent elsewhere
        self.spans = []          # dicts: id, parent, trace, name, start, end
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.solves = []         # dicts read from each returned SdpSolution
        self._stack = []
        self._trace = None
        self._saved = []

    def begin(self, trace: str):
        """Start a request: later spans carry this trace id until the next call."""
        self._trace = trace

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = {"id": sid, "parent": self._stack[-1] if self._stack else None,
                    "trace": self._trace, "name": name}
            self.spans.append(span)
            self._stack.append(sid)
            projections = self.calls["sdp.project_psd"]
            span["start"] = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self._clock()
                self._stack.pop()
            if isinstance(result, sdp.SdpSolution):
                self.solves.append({
                    "span": sid, "cone": args[0].cone.value, "dim": args[0].dim,
                    "iterations": result.iterations, "status": result.status.value,
                    "psd_projections": self.calls["sdp.project_psd"] - projections,
                    "primal_residual": result.primal_residual,
                    "dual_residual": result.dual_residual, "sigma": result.sigma,
                })
            return result
        return wrapper

    def _counted(self, name, fn):
        calls, seconds, clock = self.calls, self.seconds, self._clock

        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t
                calls[name] += 1
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for targets, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, attr, name in targets:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrap(name, fn))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_seconds(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def total_seconds(self) -> dict:
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out
