"""Span tracer that wraps the library's functions from outside.

Each wrapped call records one span (name, start, end, parent span, point
id, count, value) in flat arrays; the spans stay in memory until the run
writes them out.  A layer's self time is its span time minus the time of
its child spans, so the self times of all spans under one root add up to
that root's duration.

Functions are wrapped at the name each caller resolves (for instance
``evolve.rotated_integral``, which is what ``evolve.wavefunction_result``
looks up), kernels through ``dataclasses.replace(kernel, gtilde=...)`` and
signals through ``dataclasses.replace(signal, eval=...)``.  Nothing in the
library changes; ``uninstall`` restores every patched name.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from array import array

import numpy as np

# span name -> the per-layer time metric its self time is charged to
SELF_METRIC = {
    "bench.op": "bench.self_s",
    "bench.eps_integrand": "bench.self_s",
    "evolve.wavefield": "evolve.self_s",
    "evolve.supershift_experiment": "evolve.self_s",
    "evolve.wavefunction_result": "evolve.self_s",
    "evolve.integrand": "evolve.self_s",
    "contour_quad.rotated_integral": "contour_quad.quad_self_s",
    "contour_quad.truncation_radius": "contour_quad.radius_s",
    "contour_quad.epsilon_regularized_integral": "contour_quad.eps_s",
    "special_fn.erfcx": "special_fn.erfcx_s",
    "special_fn.pt_weighted_term": "special_fn.pt_term_s",
    "special_fn.assoc_legendre_tanh": "special_fn.legendre_s",
    "greens.gtilde": "greens.gtilde_s",
    "initial_data.signal": "initial_data.signal_s",
    "initial_data.superosc_value": "initial_data.signal_s",
    "initial_data.superosc_coefficients": "initial_data.coeffs_s",
    "initial_data.weighted_sup_distance": "initial_data.metric_s",
    "cli.output": "cli.output_s",
}


def _size(x) -> int:
    return int(np.size(x))


class NullTracer:
    """Stands in for Tracer in untraced operations."""

    def kernel(self, k):
        return k

    def signal(self, s):
        return s

    def wrap(self, name, fn, count=None):
        return fn


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.point = array("i")
        self.n = array("q")
        self.v = array("d")
        self._stack: list[int] = []
        self._point = -1
        self._points = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._name_index(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.point.append(self._point)
        self.n.append(0)
        self.v.append(math.nan)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int, n: int = 0, v: float = math.nan):
        self.end[sid] = self.clock()
        self.n[sid] = n
        self.v[sid] = v
        self._stack.pop()

    def wrap(self, name: str, fn, count=None, new_point: bool = False):
        """Span around every call of fn; count(args, result) -> (n, v).

        The same bookkeeping as open/close, inlined: the wrapper runs once
        per erfcx call in the radius bisection, so its cost is most of the
        tracing overhead.
        """
        idx = self._name_index(name)
        clock, stack = self.clock, self._stack
        a_name, a_parent, a_point = self.name, self.parent, self.point
        a_n, a_v, a_start, a_end = self.n, self.v, self.start, self.end
        nan = math.nan

        def traced(*args, **kwargs):
            prev = self._point
            if new_point:
                self._point = self._points
                self._points += 1
            sid = len(a_start)
            a_name.append(idx)
            a_parent.append(stack[-1] if stack else -1)
            a_point.append(self._point)
            a_n.append(0)
            a_v.append(nan)
            a_end.append(nan)
            stack.append(sid)
            a_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                a_end[sid] = clock()
                stack.pop()
                self._point = prev
            if count is not None:
                a_n[sid], a_v[sid] = count(args, out)
            return out

        return traced

    def kernel(self, k):
        return dataclasses.replace(
            k, gtilde=self.wrap("greens.gtilde", k.gtilde, lambda a, r: (_size(a[2]), math.nan))
        )

    def signal(self, s):
        return dataclasses.replace(
            s, eval=self.wrap("initial_data.signal", s.eval, lambda a, r: (_size(a[0]), math.nan))
        )

    # -- patching the library ----------------------------------------------

    def _patch(self, module, attr, fn):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def install(self):
        """Patch the library's modules; ``uninstall`` undoes it."""
        from supershift_lab import cli, contour_quad as cq, evolve as ev, greens as gr
        from supershift_lab import initial_data as idm, special_fn as sf

        erf_count = lambda a, r: (_size(a[0]), math.nan)
        for mod in (sf, cq, gr):
            self._patch(mod, "erfcx", self.wrap("special_fn.erfcx", sf.erfcx, erf_count))
        self._patch(gr, "pt_weighted_term", self.wrap("special_fn.pt_weighted_term", gr.pt_weighted_term))
        self._patch(gr, "assoc_legendre_tanh", self.wrap("special_fn.assoc_legendre_tanh", gr.assoc_legendre_tanh))
        self._patch(gr, "solve_electric", self.wrap("ode_coeff.solve", gr.solve_electric))
        self._patch(gr, "solve_harmonic", self.wrap("ode_coeff.solve", gr.solve_harmonic))
        self._patch(gr, "make_kernel", self.wrap("greens.make_kernel", gr.make_kernel))
        self._patch(
            cq,
            "truncation_radius",
            self.wrap("contour_quad.truncation_radius", cq.truncation_radius, lambda a, r: (0, r)),
        )
        self._patch(
            cq,
            "epsilon_regularized_integral",
            self.wrap("contour_quad.epsilon_regularized_integral", cq.epsilon_regularized_integral, new_point=True),
        )
        self._patch(
            ev,
            "rotated_integral",
            self.wrap(
                "contour_quad.rotated_integral",
                ev.rotated_integral,
                lambda a, r: (r.panels_used, r.truncation_radius),
            ),
        )
        self._patch(
            ev,
            "wavefunction_result",
            self.wrap("evolve.wavefunction_result", ev.wavefunction_result, new_point=True),
        )
        integrand = ev._integrand

        def traced_integrand(*args):
            f = integrand(*args)
            return dataclasses.replace(
                f, eval=self.wrap("evolve.integrand", f.eval, lambda a, r: (_size(a[0]), math.nan))
            )

        self._patch(ev, "_integrand", traced_integrand)
        self._patch(ev, "wavefield", self.wrap("evolve.wavefield", ev.wavefield))
        self._patch(ev, "supershift_experiment", self.wrap("evolve.supershift_experiment", ev.supershift_experiment))
        # signals that supershift_experiment builds itself
        for ctor in ("plane_wave", "superosc_signal"):
            orig = getattr(ev, ctor)
            self._patch(ev, ctor, lambda *a, _orig=orig, **k: self.signal(_orig(*a, **k)))
        self._patch(idm, "superosc_value", self.wrap("initial_data.superosc_value", idm.superosc_value))
        self._patch(
            idm,
            "superosc_coefficients",
            self.wrap("initial_data.superosc_coefficients", idm.superosc_coefficients),
        )
        self._patch(
            idm,
            "weighted_sup_distance",
            self.wrap("initial_data.weighted_sup_distance", idm.weighted_sup_distance),
        )
        self._patch(cli, "field_csv", self.wrap("cli.output", cli.field_csv, lambda a, r: (len(r), math.nan)))
        self._patch(
            cli,
            "emit_plotdata",
            self.wrap("cli.output", cli.emit_plotdata, lambda a, r: (os.path.getsize(a[1]), math.nan)),
        )

    def uninstall(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "point": np.frombuffer(self.point, dtype=np.int32).copy(),
            "n": np.frombuffer(self.n, dtype=np.int64).copy(),
            "v": np.frombuffer(self.v, dtype=np.float64).copy(),
        }

    def save(self, path: str):
        np.savez(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def roots(parent) -> np.ndarray:
    """Index of each span's root span (parents always precede children)."""
    parent = np.asarray(parent)
    root = np.where(parent >= 0, parent, np.arange(len(parent)))
    while True:
        nxt = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(nxt, root):
            return root
        root = nxt


def derived_panels(sp: dict) -> list[tuple[int, int]]:
    """(panels derived from integrand node counts, panels_used) per rotated span.

    The first integrand batch of a rotated integral evaluates the seeded
    panels, each refinement round the two halves of every bisected panel,
    at 15 + 7 nodes per panel; bisection adds one panel per split.
    """
    names = list(sp["names"])
    if "contour_quad.rotated_integral" not in names or "evolve.integrand" not in names:
        return []
    rot = names.index("contour_quad.rotated_integral")
    itg = names.index("evolve.integrand")
    batches: dict[int, list[int]] = {}
    for i in np.flatnonzero(sp["name"] == itg):
        batches.setdefault(int(sp["parent"][i]), []).append(int(sp["n"][i]))
    out = []
    for i in np.flatnonzero(sp["name"] == rot):
        b = batches.get(int(i), [])
        derived = b[0] // 22 + sum(x // 44 for x in b[1:]) if b else 0
        out.append((derived, int(sp["n"][i])))
    return out


def layer_metrics(sp: dict, ops: int) -> dict:
    """Per-layer metrics: op-phase times and counts per traced operation,
    per-point averages over the rotated integrals, set-up times per set-up."""
    names = list(sp["names"])
    name, parent, n, v = sp["name"], sp["parent"], sp["n"], sp["v"]
    selft = self_times(sp["start"], sp["end"], parent)
    dur = sp["end"] - sp["start"]
    root_name = np.array([names[i] for i in name[roots(parent)]]) if len(name) else np.array([])
    in_op = root_name == "bench.op"
    in_setup = root_name == "bench.setup"

    def mask(span):
        return name == names.index(span) if span in names else np.zeros(len(name), bool)

    def parent_is(span):
        if span not in names:
            return np.zeros(len(name), bool)
        return (parent >= 0) & (name[np.maximum(parent, 0)] == names.index(span))

    m = {key: 0.0 for key in set(SELF_METRIC.values())}
    for span, key in SELF_METRIC.items():
        m[key] += float(selft[mask(span) & in_op].sum()) / ops
    unmapped = sorted({names[i] for i in name[in_op]} - set(SELF_METRIC))

    solve = mask("ode_coeff.solve") & in_setup
    build = mask("greens.make_kernel") & in_setup
    setups = max(1, int((mask("bench.setup")).sum()))
    m["ode_coeff.solve_s"] = float(dur[solve].sum()) / setups
    m["greens.build_s"] = float(dur[build].sum() - dur[solve].sum()) / setups

    rot = mask("contour_quad.rotated_integral") & in_op
    n_rot = int(rot.sum())
    per_point = lambda total: total / n_rot if n_rot else 0.0
    itg = mask("evolve.integrand") & in_op
    eps_itg = mask("bench.eps_integrand") & in_op
    erf = mask("special_fn.erfcx") & in_op
    cli = mask("cli.output") & in_op
    m["contour_quad.radius_calls"] = int(mask("contour_quad.truncation_radius")[in_op].sum()) / ops
    m["contour_quad.radius_mean"] = float(v[rot].mean()) if n_rot else 0.0
    m["contour_quad.panels_per_point"] = per_point(float(n[rot].sum()))
    m["contour_quad.nodes_per_point"] = per_point(float(n[itg].sum()))
    gt_rot = int((mask("greens.gtilde") & parent_is("evolve.integrand") & in_op).sum())
    m["contour_quad.rounds_per_point"] = per_point(float(gt_rot - n_rot))
    m["contour_quad.eps_nodes"] = float(n[eps_itg].sum()) / ops
    m["contour_quad.eps_batches"] = int(eps_itg.sum()) / ops
    m["special_fn.erfcx_calls"] = int(erf.sum()) / ops
    m["special_fn.erfcx_points"] = float(n[erf].sum()) / ops
    m["greens.gtilde_calls"] = int((mask("greens.gtilde") & in_op).sum()) / ops
    m["initial_data.signal_nodes"] = float(n[mask("initial_data.signal") & in_op].sum()) / ops
    m["initial_data.superosc_value_calls"] = int((mask("initial_data.superosc_value") & in_op).sum()) / ops
    m["evolve.points"] = int((mask("evolve.wavefunction_result") & in_op).sum()) / ops
    m["cli.output_bytes"] = float(n[cli].sum()) / ops
    m["trace.spans"] = int(in_op.sum()) / ops
    m["trace.wall_s"] = float(dur[mask("bench.op")].sum()) / ops
    return {"metrics": m, "unmapped": unmapped}
