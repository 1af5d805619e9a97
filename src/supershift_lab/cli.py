"""Declarative experiment runner.

One experiment per invocation: parse a JSON config (or inline flags),
build the kernel and initial signal, run the requested pipeline, and
write CSV / JSON / gnuplot outputs atomically.  Exit codes: 0 success,
1 usage or config error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import os
import sys
import tempfile
import time
from bisect import bisect_right

import numpy as np

from .errors import SupershiftError
from .evolve import (
    WaveField,
    initial_limit_check,
    schrodinger_residual_field,
    supershift_experiment,
    wavefield,
)
from .greens import (
    Electric,
    Free,
    Harmonic,
    PoschlTeller,
    audit_kernel,
    make_kernel,
)
from .initial_data import (
    combine_signals,
    default_weight,
    disk_samples,
    plane_wave,
    superosc_signal,
    weighted_sup_distance,
)
from .oracles import free_plane


class _UsageError(Exception):
    pass


@contextlib.contextmanager
def _parsing(what: str):
    """Report a malformed config or flag value as a usage error."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise _UsageError(f"invalid {what}: {exc!r}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # verification failures, so remap
    def error(self, message):
        raise _UsageError(message)


DEFAULTS = {
    "quadrature": {"tol": 1e-9},
    "grid": {"t": [0.1, 0.5, 5], "x": [-2.0, 2.0, 9]},
    "verify": {
        "residual_threshold": 1e-3,
        "initial_limit_threshold": 1e-2,
        "t_sequence": [1e-2, 1e-3, 1e-4],
    },
    "supershift": {"n_values": [10, 20, 40], "kappa": 3.0},
    "output": {"dir": "out", "prefix": "run"},
}


def _finite(value) -> float:
    """An int or a float, as a float; booleans, strings, nan and the
    infinities are refused as malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    v = float(value)
    if not np.isfinite(v):
        raise ValueError(f"{value!r} is not a finite number")
    return v


def _count(value) -> int:
    """An integer, or an integral float such as 5.0; booleans, fractions,
    non-finite numbers and strings are refused as malformed."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _only(spec: dict, kind: str, *keys: str):
    """Refuse the keys of a spec that its kind does not read: ignoring a
    mistyped key would run another experiment than the one asked for."""
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ValueError(
            f"{kind} spec does not read {', '.join(map(repr, unknown))}; "
            f"it reads {', '.join(keys) or 'nothing'}"
        )


def _not_a_knot(ts: list, vs: list):
    """The not-a-knot cubic spline through the knots (ts, vs), defined on
    [ts[0], ts[-1]] only (de Boor 1978, as scipy's CubicSpline builds it):
    the line for 2 knots, the parabola for 3, and past that the third
    derivative continuous at the second and the second-to-last knot."""
    n = len(ts)
    if n < 2 or n != len(vs):
        raise ValueError(f"a table needs >= 2 knots and one value per knot, got {n} and {len(vs)}")
    t, v = np.array(ts), np.array(vs)
    h = np.diff(t)
    if not np.all(h > 0.0):
        raise ValueError(f"table times must increase, got {ts}")
    m = np.diff(v) / h
    # the knot slopes s: C^2 at the inner knots, and the end rows
    a, b = np.zeros((n, n)), np.empty(n)
    i = np.arange(1, n - 1)
    a[i, i - 1], a[i, i], a[i, i + 1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    b[i] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    if n == 2:
        a[0, 0], a[1, 1], b[:] = 1.0, 1.0, m[0]
    elif n == 3:
        a[0, :2], a[2, 1:], b[0], b[2] = 1.0, 1.0, 2.0 * m[0], 2.0 * m[1]
    else:
        d0, d1 = t[2] - t[0], t[-1] - t[-3]
        a[0, :2], a[-1, -2:] = (h[1], d0), (d1, h[-2])
        b[0] = ((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0
        b[-1] = (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1
    s = np.linalg.solve(a, b)
    # each interval's Hermite cubic in powers of t - t_i; the last knot
    # gets the constant row, so every knot returns its value exactly
    c = (s[:-1] + s[1:] - 2.0 * m) / h
    rows = np.column_stack([c / h, (m - s[:-1]) / h - c, s[:-1], v[:-1]]).tolist()
    rows.append([0.0, 0.0, 0.0, vs[-1]])

    def lam(x: float) -> float:
        if not ts[0] <= x <= ts[-1]:
            raise ValueError(f"t = {x!r} lies outside the lambda table [{ts[0]:g}, {ts[-1]:g}]")
        i = bisect_right(ts, x) - 1
        c3, c2, c1, c0 = rows[i]
        d = x - ts[i]
        return ((c3 * d + c2) * d + c1) * d + c0

    return lam


def _lambda_from_spec(spec) -> tuple:
    """lambda(t), its label, and its last time: a table's last knot, else inf."""
    kind = spec.get("kind")
    if kind == "constant":
        _only(spec, kind, "kind", "c")
        c = _finite(spec["c"])
        return (lambda t: c), f"const:{c:g}", np.inf
    if kind == "sinusoid":
        _only(spec, kind, "kind", "a", "b", "omega")
        a, b, om = _finite(spec["a"]), _finite(spec["b"]), _finite(spec["omega"])
        return (lambda t: a + b * np.sin(om * t)), f"sin:{a:g},{b:g},{om:g}", np.inf
    if kind == "table":
        _only(spec, kind, "kind", "t", "values")
        ts = [_finite(v) for v in spec["t"]]
        lam = _not_a_knot(ts, [_finite(v) for v in spec["values"]])
        if ts[0] > 0.0:
            # the coefficient solve starts at t = 0
            raise ValueError(f"table starts at t = {ts[0]:g} > 0: lambda is not defined there")
        return lam, f"table:{len(ts)}pts", ts[-1]
    raise _UsageError(f"unknown lambda kind {kind!r} (constant|sinusoid|table)")


@_parsing("potential")
def _potential_from_config(spec) -> tuple:
    """The potential and its last time: its lambda's end, else inf."""
    kind = spec.get("kind")
    if kind == "free":
        _only(spec, kind, "kind")
        return Free(), np.inf
    if kind == "electric":
        _only(spec, kind, "kind", "lambda")
        lam, lab, t_end = _lambda_from_spec(spec.get("lambda", {"kind": "constant", "c": 1.0}))
        return Electric(lam, lab), t_end
    if kind == "harmonic":
        _only(spec, kind, "kind", "omega", "lambda")
        if "omega" in spec:
            if "lambda" in spec:
                raise ValueError("harmonic takes omega or a lambda spec, not both")
            om = _finite(spec["omega"])
            return Harmonic(lambda t: om * om, f"omega={om:g}"), np.inf
        lam, lab, t_end = _lambda_from_spec(spec.get("lambda", {"kind": "constant", "c": 1.0}))
        return Harmonic(lam, lab), t_end
    if kind in ("poschl_teller", "poschl-teller"):
        _only(spec, kind, "kind", "l")
        return PoschlTeller(_count(spec["l"])), np.inf
    raise _UsageError(f"config field 'potential.kind' missing or unknown: {kind!r}")


def _scalar(k):
    """A finite number, or [re, im] for a complex one."""
    if isinstance(k, list):
        re, im = k
        return complex(_finite(re), _finite(im))
    return _finite(k)


@_parsing("initial")
def _initial_from_config(spec):
    kind = spec.get("kind")
    if kind == "plane_wave":
        _only(spec, kind, "kind", "k")
        return plane_wave(_scalar(spec["k"]))
    if kind == "superosc":
        _only(spec, kind, "kind", "n", "k")
        return superosc_signal(_count(spec["n"]), _finite(spec["k"]))
    if kind == "linear_combination":
        _only(spec, kind, "kind", "terms")
        for item in spec["terms"]:
            _only(item, "term", "coeff", "signal")
        terms = [
            (complex(_scalar(item["coeff"])), _initial_from_config(item["signal"]))
            for item in spec["terms"]
        ]
        if not terms:
            raise ValueError("linear_combination needs at least one term")
        return combine_signals(terms)
    raise _UsageError(f"config field 'initial.kind' missing or unknown: {kind!r}")


# The spec each inline head stands for, with the keys that the inline
# form fills in when they are left out.  A number given for lambda is a
# constant lambda(t), and a given omega drops harmonic's default lambda.
_INLINE = {
    "potential": {
        "free": {"kind": "free"},
        "electric": {"kind": "electric", "lambda": 1.0},
        "harmonic": {"kind": "harmonic", "lambda": 1.0},
        "poschl-teller": {"kind": "poschl_teller", "l": 1},
        "poschl_teller": {"kind": "poschl_teller", "l": 1},
        "poschlteller": {"kind": "poschl_teller", "l": 1},
        "pt": {"kind": "poschl_teller", "l": 1},
    },
    "initial condition": {
        "plane": {"kind": "plane_wave", "k": 1.0},
        "plane_wave": {"kind": "plane_wave", "k": 1.0},
        "superosc": {"kind": "superosc", "n": 10, "k": 3.0},
    },
}


def _spec_from_inline(text: str, what: str) -> dict:
    """The spec that 'head:key=val,...' stands for; the config reader
    checks it as it checks a spec from the config."""
    head, _, rest = text.partition(":")
    spec = _INLINE[what].get(head.strip().lower())
    if spec is None:
        raise _UsageError(f"cannot parse {what} {text!r}")
    spec, given = dict(spec), {}
    for item in filter(None, rest.split(",")):
        key, _, val = item.partition("=")
        key = key.strip()
        if key in given:
            raise ValueError(f"{key!r} given twice")
        given[key] = _count(float(val)) if key in ("l", "n") else float(val)
    if "omega" in given:
        spec.pop("lambda", None)
    spec.update(given)
    if "lambda" in spec:
        spec["lambda"] = {"kind": "constant", "c": spec["lambda"]}
    return spec


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise _UsageError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config parse error at line {exc.lineno}: {exc.msg}")
        if not isinstance(cfg, dict):
            raise _UsageError(f"config must be a JSON object, got {cfg!r}")
    cfg = _merge(copy.deepcopy(DEFAULTS), cfg)
    for section in DEFAULTS:
        if not isinstance(cfg[section], dict):
            raise _UsageError(f"{section} must be an object, got {cfg[section]!r}")
    with _parsing("config"):
        _only(cfg, "top-level", "experiment", "potential", "initial", *DEFAULTS)
        for section in ("grid", "verify", "output"):
            _only(cfg[section], section, *DEFAULTS[section])
        _only(cfg["supershift"], "supershift", *DEFAULTS["supershift"],
              "weight_C", "sample_radius")
    with _parsing("option"):
        if getattr(args, "potential", None):
            cfg["potential"] = _spec_from_inline(args.potential, "potential")
        if getattr(args, "initial", None):
            cfg["initial"] = _spec_from_inline(args.initial, "initial condition")
        if getattr(args, "n_values", None):
            cfg["supershift"]["n_values"] = [_count(float(v)) for v in args.n_values.split(",")]
        if getattr(args, "kappa", None) is not None:
            cfg["supershift"]["kappa"] = float(args.kappa)
        if getattr(args, "tol", None) is not None:
            cfg["quadrature"]["tol"] = float(args.tol)
        if getattr(args, "output", None):
            cfg["output"]["dir"] = args.output
        if getattr(args, "prefix", None):
            cfg["output"]["prefix"] = args.prefix
    if "potential" not in cfg:
        raise _UsageError("missing required field: potential")
    _check_quadrature(cfg["quadrature"])
    _check_output(cfg)
    return cfg


def _check_quadrature(spec):
    """quadrature takes only tol, a positive number; other keys are
    refused, as ignoring them would change the run."""
    unknown = sorted(set(spec) - set(DEFAULTS["quadrature"]))
    if unknown:
        raise _UsageError(
            f"quadrature keys must be tol only, got {', '.join(map(repr, unknown))}"
        )
    tol = spec["tol"]
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0.0 < tol < np.inf:
        raise _UsageError(f"quadrature.tol must be a positive number, got {tol!r}")


def _check_output(cfg: dict):
    """Refuse an output directory that is, or lies under, something other
    than a directory: writing there would fail only after the run."""
    with _parsing("output"):
        head = os.path.dirname(_out_path(cfg, ""))
        while head and not os.path.lexists(head):
            head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise _UsageError(f"output path {head!r} exists and is not a directory")


def _grid_axis(spec) -> np.ndarray:
    with _parsing(f"grid axis {spec!r} (expected [lo, hi, n >= 1])"):
        lo, hi, n = spec
        lo, hi, n = _finite(lo), _finite(hi), _count(n)
        if n < 1:
            raise ValueError(f"{n} points")
    return np.linspace(lo, hi, n)


def _atomic_write(path: str, data: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def field_csv(field: WaveField) -> str:
    lines = ["t,x,re_psi,im_psi,abs_psi,quad_err"]
    xs = field.xs.tolist()
    for t, vs, es in zip(field.ts.tolist(), field.values.tolist(), field.quad_errors.tolist()):
        for x, v, e in zip(xs, vs, es):
            lines.append(
                f"{_fmt(t)},{_fmt(x)},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(abs(v))},{_fmt(e)}"
            )
    return "\n".join(lines) + "\n"


def emit_plotdata(field: WaveField, path: str):
    """Gnuplot-ready blocks (one per time slice), byte-stable per input."""
    chunks = []
    xs = field.xs.tolist()
    for t, vs in zip(field.ts.tolist(), field.values.tolist()):
        chunks.append(f"# t = {_fmt(t)}")
        for x, v in zip(xs, vs):
            chunks.append(f"{_fmt(x)} {_fmt(v.real)} {_fmt(v.imag)} {_fmt(abs(v))}")
        chunks.append("")
    _atomic_write(path, "\n".join(chunks) + "\n")


def _manifest(cfg: dict, extra: dict) -> str:
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()
    ).hexdigest()
    doc = {
        "experiment": cfg.get("experiment"),
        "potential": cfg.get("potential"),
        "initial": cfg.get("initial"),
        "grid": cfg.get("grid"),
        "tol": cfg["quadrature"]["tol"],
        "config_digest": digest,
        **extra,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return json.dumps(doc, indent=2, default=str) + "\n"


def _out_path(cfg: dict, suffix: str) -> str:
    out = cfg["output"]
    return os.path.join(out["dir"], f"{out['prefix']}_{suffix}")


def _build_kernel(pot, t_end: float, ts):
    """The kernel of the potential, its coefficients solved on
    [0, max(2 t, 1)] for the grid's last time t, and no further than the
    potential's end t_end: a table lambda is defined up to its last knot
    only, and the solve, and so the kernel's horizon, ends there."""
    return make_kernel(pot, t_max=min(max(2.0 * float(np.max(ts)), 1.0), t_end))


def _grid(cfg: dict, t_end: float):
    """The config's t and x axes; every t must be > 0 and at most the
    potential's end t_end."""
    ts, xs = _grid_axis(cfg["grid"]["t"]), _grid_axis(cfg["grid"]["x"])
    if ts.min() <= 0:
        raise _UsageError(f"grid times must be > 0, got {ts.min():g}")
    if ts.max() > t_end:
        raise _UsageError(
            f"grid time {ts.max():g} lies past the lambda table's last knot {t_end:g}")
    return ts, xs


def _initial(cfg: dict):
    """The initial signal; a config without one runs, and records, the
    plane wave k = 3.0."""
    return _initial_from_config(cfg.setdefault("initial", {"kind": "plane_wave", "k": 3.0}))


def run_evolve(cfg: dict) -> int:
    pot, t_end = _potential_from_config(cfg["potential"])
    signal = _initial(cfg)
    ts, xs = _grid(cfg, t_end)
    kernel = _build_kernel(pot, t_end, ts)
    field = wavefield(kernel, signal, ts, xs, tol=cfg["quadrature"]["tol"])
    _atomic_write(_out_path(cfg, "field.csv"), field_csv(field))
    emit_plotdata(field, _out_path(cfg, "plot.dat"))
    _atomic_write(_out_path(cfg, "manifest.json"),
                  _manifest(cfg, {"failures": len(field.failures)}))
    print(f"wrote {_out_path(cfg, 'field.csv')} ({field.values.size} points)")
    return 0


def run_supershift(cfg: dict) -> int:
    pot, t_end = _potential_from_config(cfg["potential"])
    ss = cfg["supershift"]
    with _parsing("supershift"):
        kappa = _finite(ss["kappa"])
        n_values = [_count(n) for n in ss["n_values"]]
        if not n_values:
            raise ValueError("n_values needs at least one order")
        if any(n < 1 for n in n_values):
            raise ValueError(f"orders must be >= 1, got {n_values}")
        weight = ss.get("weight_C")
        c_weight = default_weight(kappa) if weight is None else _finite(weight)
        if c_weight < 0.0:
            raise ValueError(f"weight_C must be >= 0, got {c_weight:g}")
        radius = _finite(ss.get("sample_radius", 3.0))
        if radius <= 0.0:
            raise ValueError(f"sample_radius must be > 0, got {radius:g}")
        samples = disk_samples(radius)
    ts, xs = _grid(cfg, t_end)
    report = supershift_experiment(
        _build_kernel(pot, t_end, ts), n_values, kappa, ts, xs, tol=cfg["quadrature"]["tol"]
    )
    target = plane_wave(kappa)
    lines = ["n,d_n,metric_n"]
    for n, d in zip(n_values, report.distances):
        m = weighted_sup_distance(superosc_signal(n, kappa), target, c_weight, samples)
        lines.append(f"{n},{_fmt(d)},{_fmt(m)}")
    _atomic_write(_out_path(cfg, "supershift.csv"), "\n".join(lines) + "\n")
    _atomic_write(_out_path(cfg, "manifest.json"),
                  _manifest(cfg, {"kappa": kappa, "weight_C": c_weight}))
    print(f"wrote {_out_path(cfg, 'supershift.csv')}; decreasing={report.strictly_decreasing}"
          f"; failures={len(report.failures)}")
    return 0


def _entry(name: str, value, threshold: float, passed, **extra) -> dict:
    """One entry of verify.json, its keys in their written order."""
    return {"name": name, "value": value, **extra, "threshold": threshold, "pass": bool(passed)}


def run_verify(cfg: dict) -> int:
    pot, t_end = _potential_from_config(cfg["potential"])
    signal = _initial(cfg)
    # the free plane wave's closed form is the third check's reference
    init = cfg["initial"]
    kappa = _scalar(init["k"]) if isinstance(pot, Free) and init["kind"] == "plane_wave" else None
    vf = cfg["verify"]
    with _parsing("verify"):
        res_threshold = _finite(vf["residual_threshold"])
        limit_threshold = _finite(vf["initial_limit_threshold"])
        t_sequence = [_finite(t) for t in vf["t_sequence"]]
        if not t_sequence or min(t_sequence) <= 0:
            raise ValueError(f"t_sequence must hold positive times, got {t_sequence}")
    ts, _ = _grid(cfg, t_end)
    tol = cfg["quadrature"]["tol"]
    kernel = _build_kernel(pot, t_end, ts)

    # the patch starts at the grid's first time and stays inside its times
    # (a grid of one time takes the full steps past it); near a focal time
    # the stencil's t derivative, not the field, sets the residual
    h = 2e-3
    ts = ts.min() + min(h, (ts.max() - ts.min()) / 4 or h) * np.arange(5)
    xs = 0.3 + h * np.arange(5)
    fld = wavefield(kernel, signal, ts, xs, tol=min(tol, 1e-9))
    res = schrodinger_residual_field(fld, kernel)
    checks = [_entry("schrodinger_residual", res, res_threshold, res <= res_threshold)]

    rep = initial_limit_check(kernel, signal, np.linspace(-2.0, 2.0, 9), t_sequence,
                              tol=min(tol, 1e-8), threshold=limit_threshold)
    checks.append(_entry("initial_value_limit", rep.final_error, limit_threshold, rep.passed,
                         errors=rep.errors, failures=len(rep.failures)))

    if kappa is not None:
        ts, xs = np.meshgrid(np.linspace(0.1, 1.0, 5), np.linspace(-3.0, 3.0, 7), indexing="ij")
        fld = wavefield(kernel, signal, ts[:, 0], xs[0], tol=1e-10)
        gap = fld.values - free_plane(ts, xs, kappa)
        worst = float(np.max(np.hypot(gap.real, gap.imag)))
        checks.append(_entry("free_plane_wave_closed_form", worst, 1e-8, worst <= 1e-8))

    passed = all(c["pass"] for c in checks)
    doc = {"potential": kernel.potential.label(), "initial": signal.label,
           "checks": checks, "pass": passed}
    _atomic_write(_out_path(cfg, "verify.json"), json.dumps(doc, indent=2) + "\n")
    print(f"verify: {'PASS' if passed else 'FAIL'} -> {_out_path(cfg, 'verify.json')}")
    return 0 if passed else 2


def run_greens_audit(cfg: dict) -> int:
    # the audit takes its times from the kernel, not from a grid: it solves
    # on [0, 1], or up to a table lambda's last knot when that comes first
    pot, t_end = _potential_from_config(cfg["potential"])
    report = audit_kernel(make_kernel(pot, t_max=min(1.0, t_end)))
    _atomic_write(_out_path(cfg, "audit.json"), report.to_json() + "\n")
    print(f"greens-audit: {'PASS' if report.passed else 'FAIL'} -> {_out_path(cfg, 'audit.json')}")
    return 0 if report.passed else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="supershift-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evolve", "evaluate a wave field on a grid"),
        ("supershift", "measure supershift persistence distances"),
        ("verify", "run Schrodinger-residual and initial-value checks"),
        ("greens-audit", "audit the Green's kernel contract"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--potential", help="inline potential, e.g. harmonic:omega=1")
        if name in ("evolve", "verify"):
            p.add_argument("--initial", help="inline initial datum, e.g. plane:k=3")
        p.add_argument("--tol", type=float, help="quadrature tolerance")
        p.add_argument("--output", help="output directory")
        p.add_argument("--prefix", help="output file prefix")
        if name == "supershift":
            p.add_argument("--k", dest="kappa", type=float, help="target frequency")
            p.add_argument("--n", dest="n_values", help="comma list of orders")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        cfg["experiment"] = args.command
        runner = {
            "evolve": run_evolve,
            "supershift": run_supershift,
            "verify": run_verify,
            "greens-audit": run_greens_audit,
        }[args.command]
        return runner(cfg)
    except (_UsageError, SupershiftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
