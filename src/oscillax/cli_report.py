"""Command line runner and deterministic report writers.

Modes wire the library stages together on a JSON config:

  construct-example   build the sin^2-band family, report amplitudes
  verify-lemma        certify the oscillation hypotheses and conclusions
  compute-kernel      kernels z, h with residuals and tail accounting
  build-pair          the ordered family pair with its chain margins
  bridge              radial lift/push checks and barrier residual signs
  solve-bvp           monotone iteration between the barriers, decay fit
  full-pipeline       all of the above, writing the complete report set

MODES gives each mode its stages.  A run first builds what they read, the
family, the pair and the radial problem, each once, and only then makes the
output directory.  Exit codes: 0 all checks passed, 1 a verification check
failed, 2 the config is invalid, or a builder refuses it (found before
anything is written), 3 a failure during the run.  Outputs are
byte-deterministic:
JSON with sorted keys and 17-significant-digit floats, CSV with a header
row and '.' decimal points, standalone SVG with no timestamps.  The
OSCILLAX_SEED environment variable pins the sampling of the property-based
test suite; the runner itself draws no random numbers.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .coeff_dsl import CoefficientExpr, Var, parse
from .example_builder import (
    MOMENT_TOL,
    S0_FIXED,
    STOCK_P,
    STOCK_P_TAIL,
    TAIL_TOL,
    TWO_PI,
    BandParams,
    Check,
    OscillationParams,
    PairParams,
    PairResult,
    build_oscillation,
    build_pair,
    check_integral_features,
    features_reach,
    verify_pair,
)
from .quadrature import CELL_NODES, STOCK_EXTEND_TO, TailModel, check_envelope, equation_grid
from .radial import beta_map, excluded_arc, fit_window

# the stage modules are imported by the stages that run them, so that
# validating a config, or running one mode, compiles only what it uses
__all__ = ["RunConfig", "load_config", "default_config", "run", "main", "emit_plot"]

PI = math.pi
# the stages in the order a full pipeline runs them, each with what it reads of the
# run: the family, the pair, or the pair and the radial problem made of it
_STAGES = {"construct_example": "family", "verify_lemma_stage": "family",
           "compute_kernel_stage": "family", "build_pair_stage": "pair",
           "bridge_stage": "problem", "solve_bvp_stage": "problem"}
# the stages of each mode, in the order they run
MODES = {
    "construct-example": ("construct_example",),
    "verify-lemma": ("verify_lemma_stage",),
    "compute-kernel": ("compute_kernel_stage",),
    "build-pair": ("build_pair_stage",),
    "bridge": ("bridge_stage",),
    "solve-bvp": ("solve_bvp_stage",),
    "full-pipeline": tuple(_STAGES),
}


# ---------------------------------------------------------------------------
# Deterministic serialisation


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot enter a report")
    return "%.17g" % x


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return json.dumps(bool(obj)) if obj is not None else "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):  # a record is no list
        if not obj:
            return "[]"
        inner = ",\n".join(pad_in + _to_json(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj.keys()):
            items.append(
                pad_in + json.dumps(str(key), ensure_ascii=False)
                + ": " + _to_json(obj[key], indent + 1)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(obj).__name__} deterministically")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(_to_json(payload) + "\n", encoding="utf-8")


def write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len({len(c) for c in cols}) != 1:
        raise ValueError("CSV columns must share a length")
    if len(header) != len(cols):
        raise ValueError(f"CSV header names {len(header)} columns, but {len(cols)} are given")
    finite = np.logical_and.reduce([np.isfinite(c) for c in cols])
    if not finite.all():
        i = int(np.argmin(finite))  # first row holding a non-finite value
        bad = next(float(c[i]) for c in cols if not math.isfinite(c[i]))
        raise ValueError(f"non-finite value {bad!r} cannot enter a report")
    row = ",".join(["%.17g"] * len(cols))
    lines = [",".join(header)]
    lines.extend(row % values for values in zip(*(c.tolist() for c in cols)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# SVG plotting (self-contained, no timestamps)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
PLOT_WIDTH, PLOT_HEIGHT = 720, 480   # SVG canvas, in pixels


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target, 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def emit_plot(
    path,
    series: Sequence[tuple],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logy: bool = False,
    logx: bool = False,
) -> None:
    """Write a standalone SVG line plot.

    ``series`` is a sequence of (label, x, y) triples.  Empty input is an
    error and no file is written; log axes require positive data.
    """
    if not series:
        raise ValueError("nothing to plot: the series list is empty")
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size == 0 or y.size == 0 or x.shape != y.shape:
            raise ValueError(f"series {label!r} is empty or mismatched")
        if logx:
            if np.any(x <= 0):
                raise ValueError(f"series {label!r} has nonpositive x on a log axis")
            x = np.log10(x)
        if logy:
            if np.any(y <= 0):
                raise ValueError(f"series {label!r} has nonpositive y on a log axis")
            y = np.log10(y)
        cleaned.append((str(label), x, y))

    x_lo = min(float(np.min(x)) for _, x, _ in cleaned)
    x_hi = max(float(np.max(x)) for _, x, _ in cleaned)
    y_lo = min(float(np.min(y)) for _, _, y in cleaned)
    y_hi = max(float(np.max(y)) for _, _, y in cleaned)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    width, height = PLOT_WIDTH, PLOT_HEIGHT
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    # pixel coordinates of a float or, elementwise and to the same bits, of an array
    def sx(v):
        return ml + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return mt + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    def esc(text: str) -> str:
        return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{esc(title)}</text>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        label = "%.6g" % (10.0 ** t if logx else t)
        parts.append(f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{mt + ph}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{mt + ph + 16}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">{label}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        label = "%.6g" % (10.0 ** t if logy else t)
        parts.append(f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + pw}" y2="{py:.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{ml - 6}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{label}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#333333"/>')

    for k, (label, x, y) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        stride = max(1, len(x) // 2000)
        xs, ys = x[::stride], y[::stride]
        if xs[-1] != x[-1]:
            xs = np.append(xs, x[-1])
            ys = np.append(ys, y[-1])
        points = " ".join(map("%.2f,%.2f".__mod__, zip(sx(xs).tolist(), sy(ys).tolist())))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 16 * k
        parts.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 126}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 120}" y="{ly}" font-family="monospace" '
                     f'font-size="11">{esc(label)}</text>')

    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12">{esc(xlabel)}</text>')
    parts.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12" '
                 f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{esc(ylabel)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Config
#
# CONFIG_TABLE gives each key once, as a node (stock, read) or (stock, read,
# absent).  ``read`` is the key's reader, (value, key) -> value, or for a
# block the table of its keys, whose stock ``...`` stands for its keys' stock
# values.  ``absent`` is what a given block takes for a key it leaves out,
# where that is not the stock value; _NEEDED makes the key required there.
# default_config() is the stock values; load_config reads a config through
# the table, then checks the rules that join several keys.


def _keyed(what: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with the key ``what`` put before a ValueError's message."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:  # ParseError and DomainError included
        raise ValueError(f"{what}: {exc}") from None


def _mentions_var(node) -> bool:
    """Whether an expression tree reads s; its nodes are NamedTuples, walked field by field."""
    return isinstance(node, Var) or any(isinstance(f, tuple) and _mentions_var(f) for f in node)


def _const_expr(value, what: str) -> float:
    """A number, or a constant coefficient expression such as "2*pi"."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a number or a constant expression string")
    expr = _keyed(what, parse, value)
    if _mentions_var(expr.ast):
        raise ValueError(f"{what} must be a constant, got expression {value!r}")
    return _keyed(what, expr, 0.0)


def _finite(value, what: str) -> float:
    """A finite number, or a constant expression for one."""
    x = _const_expr(value, what)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, got {x!r}")
    return x


def _positive(value, what: str) -> float:
    """A positive finite number, or a constant expression for one."""
    x = _const_expr(value, what)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{what} must be a positive finite number, got {x!r}")
    return x


def _count(least: int):
    """The reader of a whole number of at least ``least``, as an int or as a float with no
    fractional part."""
    def read(value, what: str) -> int:
        whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
        if isinstance(value, bool) or not whole:
            raise ValueError(f"{what} must be a whole number, got {value!r}")
        if value < least:
            raise ValueError(f"{what} must be at least {least}, got {int(value)}")
        return int(value)
    return read


def _odd_count(value, what: str) -> int:
    """An odd number of solver grid points that leaves the decay fit its window."""
    N = _count(1)(value, what)
    if N % 2 == 0:
        raise ValueError(f"{what} must be an odd number of grid points "
                         f"(the solver grid needs an even number of cells), got {N}")
    _keyed(what, fit_window, N)
    return N


def _expression(value, what: str) -> CoefficientExpr:
    """A coefficient expression in s, given as its source string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be an expression string")
    return _keyed(what, parse, value)


def _choice(*options: str):
    """The reader of one of the names ``options``."""
    def read(value, what: str) -> str:
        if value not in options:
            raise ValueError(f"{what} must be {' or '.join(map(repr, options))}, got {value!r}")
        return value
    return read


_NEEDED = object()  # the absent value of a key that its block, once given, must hold
_MAX_POINTS = np.iinfo(np.intp).max // 8  # numpy's limit on the length of a float64 array
_BAND = BandParams._fields
_OSC, _PAIR = OscillationParams(), PairParams()


def _band(band: BandParams) -> tuple:
    """The node of pair.set1 or pair.set2: once given, it needs all four constants."""
    return (..., {key: (getattr(band, key), _finite, _NEEDED) for key in _BAND})


CONFIG_TABLE = {
    "oscillation": (..., {**{key: (getattr(_OSC, key), _finite)
                             for key in ("q_minus", "q_plus", *_BAND)},
                          "m_max": (_OSC.m_max, _count(1))}),
    "pair": (..., {"set1": _band(_PAIR.set1), "set2": _band(_PAIR.set2),
                   "alpha_gap": (_PAIR.alpha_gap, _finite),
                   "beta_gap": (_PAIR.beta_gap, _finite)}),
    "p": (..., {"expr": (STOCK_P.source, _expression, _NEEDED),
                "tail": (..., {"kind": (STOCK_P_TAIL.kind, _choice("power", "exp")),
                               "rate": (STOCK_P_TAIL.rate, _finite, _NEEDED),
                               "coef": (STOCK_P_TAIL.coef, _finite)}, _NEEDED)}),
    "problem": (..., {"n": (3, _count(3)), "R": (1.0, _positive),
                      "varsigma": (1.0, _positive)}),
    "kernel": (..., {"span": ("40*pi", _positive), "extend_to": (STOCK_EXTEND_TO, _finite),
                     "extend_step": ("pi/80", _positive)}),
    "solver": (..., {"N": (16001, _odd_count), "tol": (1e-10, _positive),
                     "max_iter": (200, _count(1)),
                     "boundary": ("upper", _choice("upper", "lower"))}),
    "features": (..., {"M": (50, _count(2))}),  # a growth rate needs two periods
    "q_override": (None, {"expr": (None, _expression, _NEEDED), "m_max": (10, _count(1))}),
}

# keys a config may no longer set, each with the reason it is refused
RETIRED_KEYS = {
    ("problem", "g"): "the radial damping g is now derived from p through r = beta(s), "
                      "so give the damping as p only",
    ("problem", "blend"): "the nonlinearity is always the tanh blend across the barrier "
                          "ribbon, so leave problem.blend out",
    ("features", "varsigma"): "varsigma is problem.varsigma, the one exponent of the "
                              "heavy-weight integrals, so leave features.varsigma out",
    ("solver", "K"): "the sweep shift is derived from the nonlinearity (0 for the "
                     "nondecreasing tanh blend), so leave solver.K out",
    ("kernel", "residual_step"): "the kernel equation is checked on a pi/400 grid with the "
                                 "lobe joins on its nodes, so leave kernel.residual_step out",
    ("kernel", "step"): "the kernels are built once, on the pi/400 grid the kernel equation is "
                        "checked on, so leave kernel.step out",
}


def _stock(node):
    """A node's stock value, built afresh for a block."""
    stock, read = node[:2]
    return {key: _stock(child) for key, child in read.items()} if stock is ... else stock


def _read(node, value, what: str):
    """A value read through its node: a leaf by its reader, a block key by key."""
    stock, read = node[:2]
    if not isinstance(read, dict):
        return read(value, what)
    if value is None and stock is None:  # q_override is off
        return None
    name = what or "top level"
    if not isinstance(value, dict):
        raise ValueError(f"config section {name!r} must be an object")
    unknown = set(value) - set(read)
    if unknown:
        raise ValueError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    got = {}
    for key, child in read.items():
        where = f"{what}.{key}" if what else key
        given = value[key] if key in value else child[2] if len(child) > 2 else _stock(child)
        if given is _NEEDED:
            raise ValueError(f"{where} is required once {name} is given")
        got[key] = _read(child, given, where)
    return got


def default_config() -> dict:
    """The stock configuration, suitable for every mode."""
    return _stock((..., CONFIG_TABLE))


def _check_damping(p: CoefficientExpr, model: TailModel, m_family: int, m_bare: int,
                   grid: np.ndarray) -> None:
    """Sample p on the kernel grid, where the kernels assume p >= 0, and
    against p.tail past every cutoff at which a run integrates it.

    Those are the cutoffs of the I_m (from 2 m pi, for m up to m_family + 2
    for a family and its tail_sum_I_bound, and up to m_bare for a bare q;
    lambda is I_1), and of the first moments (s - a) p of
    tail_sum_I_bound (a = 2 (m_family + 2) pi) and check_remark (a = s0).
    Each is derived from its integral's tolerance as integrate_tail_many
    derives it, so a p that leaves its envelope there is refused here, not
    in the middle of a run.
    """
    top = max(m_family + 2, m_bare)
    checks = [(p, model, [model.cutoff_for(0.5 * TAIL_TOL, TWO_PI * m) for m in range(1, top + 1)])]
    for a, tol in ((TWO_PI * (m_family + 2), TAIL_TOL), (S0_FIXED, MOMENT_TOL)):
        moment = model.first_moment(a)
        if moment is not None:
            checks.append((lambda s, a=a: (np.asarray(s) - a) * np.asarray(p(s)),
                           moment, [moment.cutoff_for(0.5 * tol, a)]))
    for f, envelope, cutoffs in checks:
        _keyed("p.tail", check_envelope, f, envelope, cutoffs)
    on_grid = _keyed("p.expr", p, grid)
    if np.any(on_grid < 0.0):
        i = int(np.argmax(on_grid < 0.0))
        raise ValueError(f"p.expr must be nonnegative on the kernel grid, but "
                         f"p({float(grid[i])!r}) = {float(on_grid[i])!r}")


@dataclass
class RunConfig:
    """Validated run settings for every mode."""

    oscillation: OscillationParams
    pair: PairParams
    problem_n: int
    problem_R: float
    varsigma: float
    kernel_span: float
    extend_to: float
    extend_step: float
    solver_N: int
    solver_tol: float
    solver_max_iter: int
    solver_boundary: str
    features_M: int
    q_override: Optional[dict] = None
    formats: tuple = ("csv", "json", "svg")
    out: Path = field(default_factory=lambda: Path("out"))


def load_config(raw: dict) -> RunConfig:
    """Validate a raw config dict into a :class:`RunConfig`: each key through
    :data:`CONFIG_TABLE`, then the rules that join several keys."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    for (section, key), why in RETIRED_KEYS.items():
        if isinstance(raw.get(section), dict) and key in raw[section]:
            raise ValueError(f'the "{section}" section no longer takes "{key}": {why}')
    # an absent or null section takes its stock values
    got = _read((..., CONFIG_TABLE), {key: value for key, value in raw.items()
                                      if value is not None or key not in CONFIG_TABLE}, "")

    p = got["p"]["expr"]
    p_tail = _keyed("p.tail", TailModel, **got["p"]["tail"])
    osc = OscillationParams(**got["oscillation"], p=p, p_tail=p_tail)
    _keyed("oscillation", osc.validate)
    pair_block = got["pair"]
    pair = PairParams(q_minus=osc.q_minus, q_plus=osc.q_plus, p=p, p_tail=p_tail,
                      set1=BandParams(**pair_block["set1"]), set2=BandParams(**pair_block["set2"]),
                      alpha_gap=pair_block["alpha_gap"], beta_gap=pair_block["beta_gap"],
                      m_max=osc.m_max)
    try:
        pair.validate()
    except ValueError as exc:  # its messages start with the field they are about
        raise ValueError(f"pair.{exc}") from None
    # the amplitude rules' steepest slope is gamma q_plus / pi, of oscillation or pair.set2
    for what, band in (("oscillation", osc), ("pair.set2", pair.set2)):
        if not math.isfinite(band.gamma * osc.q_plus):
            raise ValueError(f"oscillation.q_plus = {osc.q_plus!r} times {what}.gamma = "
                             f"{band.gamma!r} overflows the amplitude rule")

    n, R = got["problem"]["n"], got["problem"]["R"]
    s_min = excluded_arc(n, R)
    if not S0_FIXED > s_min:
        raise ValueError(
            f"the families' anchor s0 = 2 pi must lie beyond the excluded ball: it needs "
            f"s0 > (problem.n - 2) problem.R^(problem.n - 2) = {s_min!r}")

    kern = got["kernel"]
    span, extend_to = kern["span"], kern["extend_to"]
    if extend_to < 0.0:
        raise ValueError(f"kernel.extend_to must be a nonnegative finite number, "
                         f"got {extend_to!r}")
    if 0.0 < extend_to <= S0_FIXED + span:
        raise ValueError(
            f"kernel.extend_to = {extend_to!r} must lie past the grid end s0 + kernel.span "
            f"= {S0_FIXED + span!r}, or be 0 to turn the continuation off")
    # the most points each key puts in one array, by arithmetic: the kernel grid's 400/pi
    # a unit of span (see equation_grid); the h-tail window of 2 pi at spacing
    # extend_step/2 while the continuation is on (each pi-cell's subdivision at that
    # spacing, on or off, holds half as many) and CELL_NODES nodes per pi-cell up to
    # extend_to; the 16 points per period of a family's table, which holds m_max + 2
    # periods or more (see _extent), and a bare q's 2 m_max + 1 lobe nodes; and the
    # solver grid
    q_override, N = got["q_override"], got["solver"]["N"]
    points = {"kernel.span": (span, 400.0 * span / PI),
              "kernel.extend_step": (kern["extend_step"], 2.0 * TWO_PI / kern["extend_step"])}
    if extend_to > 0.0:
        points["kernel.extend_to"] = (extend_to, CELL_NODES * extend_to / PI)
    points["oscillation.m_max"] = (osc.m_max, 16 * (osc.m_max + 2) + 1)
    if q_override:
        points["q_override.m_max"] = (q_override["m_max"], 2 * q_override["m_max"] + 1)
    points["solver.N"] = (N, N)
    for what, (value, count) in points.items():
        _fits(what, value, count)
    _check_damping(p, p_tail, osc.m_max, q_override["m_max"] if q_override else 0,
                   equation_grid(S0_FIXED, span))
    # the bridge's integral conditions run up to the radius of the grid end
    T = float(beta_map(n, R, S0_FIXED + span))
    if not T > 4.0 * R:
        raise ValueError(
            f"problem.n = {n}, problem.R = {R!r} and kernel.span = {span!r} put the "
            f"grid end at radius {T:.6g}, which must exceed 4 problem.R = {4.0 * R!r}: "
            f"lower problem.n or problem.R, or lengthen kernel.span")

    solv = got["solver"]
    return RunConfig(
        oscillation=osc, pair=pair, problem_n=n, problem_R=R, varsigma=got["problem"]["varsigma"],
        kernel_span=span, extend_to=extend_to,
        extend_step=kern["extend_step"], solver_N=N, solver_tol=solv["tol"],
        solver_max_iter=solv["max_iter"], solver_boundary=solv["boundary"],
        features_M=got["features"]["M"], q_override=q_override,
    )


def _fits(what: str, value, count: float) -> None:
    """Refuse ``value`` of key ``what`` when numpy cannot hold its ``count`` points."""
    if not count <= _MAX_POINTS:  # inf included
        raise ValueError(f"{what}: {value!r} makes {count:.4g} points, more than numpy "
                         f"can hold in one array")


_PAIR_PLOT_END = S0_FIXED + 8.0 * PI


def _extent(stages: Sequence[str], cfg: RunConfig) -> float:
    """The largest s at which ``stages`` read a family; the run builds each family to it.

    The kernels read q up to the grid end and, while the continuation is on, up to
    kernel.extend_to; the features, the pair's plot and the bridge's sources read up to
    the reaches their modules name.  A table also holds the lobes its family's own
    checks read.  Raises ValueError, naming the key that sets the extent, when numpy
    cannot hold the table up to it.
    """
    kernels = [("kernel.span", cfg.kernel_span, S0_FIXED + cfg.kernel_span),
               ("kernel.extend_to", cfg.extend_to, cfg.extend_to)]
    others = {"construct_example": [("features.M", cfg.features_M,
                                     features_reach(cfg.features_M))],
              "build_pair_stage": [("the pair's plot", "s0 + 8 pi", _PAIR_PLOT_END)]}
    reach = [r for stage in stages for r in others.get(stage, kernels)]
    if "bridge_stage" in stages:
        from .pde_bridge import source_reach

        n, R = cfg.problem_n, cfg.problem_R
        T = float(beta_map(n, R, S0_FIXED + cfg.kernel_span))
        reach.append(("problem.n", n, source_reach(n, R, T)))
    what, value, extent = max(reach, key=lambda r: r[2])
    _fits(what, value, 16.0 * (extent / TWO_PI + 2.0) + 1.0)
    return extent


# ---------------------------------------------------------------------------
# Stages


def _radial_problem(cfg: RunConfig, pair: PairResult):
    from .pde_bridge import RadialProblem, push_a_from_q

    return RadialProblem(
        n=cfg.problem_n, R=cfg.problem_R, p=cfg.oscillation.p, p_tail=cfg.oscillation.p_tail,
        a1=push_a_from_q(pair.q1.q_callable, cfg.problem_n),
        a2=push_a_from_q(pair.q2.q_callable, cfg.problem_n), varsigma=cfg.varsigma,
    )


class _Runner:
    """One run of a mode.  The family, the pair and the radial problem that the mode's
    stages read are built first, each once and to the mode's extent, and only then is
    ``--out`` made: a config that a builder refuses raises ValueError before anything
    is written.  Each stage reads them, and the hand-offs of the stages before it."""

    def __init__(self, mode: str, cfg: RunConfig):
        self.mode, self.cfg, self.stages = mode, cfg, MODES[mode]
        extent = _extent(self.stages, cfg)
        # the lemma checks the bare q of q_override, when one is given, and no family
        reads = {_STAGES[stage] for stage in self.stages
                 if stage != "verify_lemma_stage" or cfg.q_override is None}
        self.family = build_oscillation(cfg.oscillation, extent) if "family" in reads else None
        # a family built for the same p lends the pair its lambda and I_m
        self.pair = (build_pair(cfg.pair, family=self.family, extent=extent)
                     if reads & {"pair", "problem"} else None)
        self.problem = _radial_problem(cfg, self.pair) if "problem" in reads else None
        # the hand-offs: the lemma's LemmaReport and the family KernelPair it checked go
        # to the kernel stage, the bridge's BarrierPair to the solve (see solve_bvp_stage);
        # each is dropped once its last reader has read it
        self.lemma = self.kernel = self.barrier = None
        self.ledger: list[Check] = []
        cfg.out.mkdir(parents=True, exist_ok=True)

    def run(self) -> int:
        """Run the mode's stages in order; returns the process exit code."""
        for stage in self.stages:
            getattr(self, stage)()
        n_passed = sum(check.passed for check in self.ledger)
        passed = n_passed == len(self.ledger)
        print(f"mode {self.mode}: {'PASS' if passed else 'FAIL'} "
              f"({n_passed}/{len(self.ledger)} checks)")
        return 0 if passed else 1

    # -- small helpers ------------------------------------------------------

    def note(self, name: str, passed, margin: Optional[float] = None,
             details: Optional[dict] = None) -> None:
        """Append a verdict to the ledger and print its line as it arrives."""
        check = Check(name, bool(passed), margin, details)
        self.ledger.append(check)
        print(check.line())

    def want(self, kind: str) -> bool:
        return kind in self.cfg.formats

    def path(self, name: str) -> Path:
        return self.cfg.out / name

    # -- stages -------------------------------------------------------------

    def construct_example(self) -> None:
        cfg, spec = self.cfg, self.family
        features = check_integral_features(
            spec, varsigma=cfg.varsigma, M=cfg.features_M,
        )
        self.note("family amplitudes inside their bands", True)
        self.note("harmonic-weight integral diverges",
                  features.dominates and features.log_slope > 0,
                  features.log_slope)
        self.note("heavier-weight integral converges", features.converged,
                  features.gap_bound - features.cauchy_gap)
        payload = {
            "lambda": spec.lam,
            "lambda_error": spec.lam_error,
            "sup_bound": spec.sup_bound,
            "nodes_first": float(spec.nodes[0]),
            "nodes_last": float(spec.nodes[-1]),
            "m_max": cfg.oscillation.m_max,
            "c": spec.c,
            "d": spec.d,
            "tail_integrals": spec.I,
            "features": {
                "partial_sums": features.partial_sums,
                "lower_bounds": features.lower_bounds,
                "dominates": features.dominates,
                "log_slope": features.log_slope,
                "varsigma": features.varsigma,
                "cauchy_gap": features.cauchy_gap,
                "gap_bound": features.gap_bound,
                "converged": features.converged,
            },
        }
        if self.want("json"):
            write_json(self.path("construct_report.json"), payload)
        if self.want("csv"):
            m = np.arange(1, cfg.oscillation.m_max + 1, dtype=float)
            write_csv(self.path("family.csv"),
                      ["m", "c", "d", "tail_integral"],
                      [m, spec.c, spec.d, spec.I])
        if self.want("svg"):
            s = np.linspace(spec.nodes[0], min(spec.nodes[-1], spec.nodes[0] + 10 * PI), 2001)
            emit_plot(self.path("family.svg"),
                      [("q", s, spec.q_callable(s))],
                      title="oscillating coefficient family",
                      xlabel="s", ylabel="q(s)")

    def verify_lemma_stage(self) -> None:
        """The lemma report, and the family kernel when it checked one, for the kernel stage."""
        from .kernel import compute_kernel
        from .lemma_check import verify_lemma

        cfg, override = self.cfg, self.cfg.q_override
        family = self.family if override is None else None
        q_call, m_max = ((family.q_callable, cfg.oscillation.m_max) if override is None
                         else (override["expr"], override["m_max"]))
        nodes = PI * np.arange(2, 2 * m_max + 3)
        kern = compute_kernel(cfg.oscillation.p, q_call, equation_grid(S0_FIXED, cfg.kernel_span),
                              extend_to=cfg.extend_to, extend_step=cfg.extend_step)
        report = verify_lemma(
            cfg.oscillation.p, q_call, nodes,
            p_tail=cfg.oscillation.p_tail, family=family, kernel=kern,
            q_minus=cfg.oscillation.q_minus,
        )
        checks = report.checks()
        for check in checks:
            self.note(*check)
        payload = {
            "checks": [dict(zip(("name", "pass", "margin", "details"), c)) for c in checks],
            "lambda": report.hypotheses.lam,
            "epsilon": report.hypotheses.eps_total,
            "delta": report.hypotheses.delta_total,
            "proof_bound": report.hypotheses.proof_bound(),
            "observed_sup_z": kern.z_sup_observed,
            "ok": report.ok,
        }
        if self.want("json"):
            write_json(self.path("lemma_report.json"), payload)
        self.lemma, self.kernel = report, (kern if family is not None else None)

    def compute_kernel_stage(self) -> None:
        """The family kernel, with the kernel equation checked on it; the lemma stage, when
        it ran, lends its proof bound and the family kernel it checked, which no later
        stage reads."""
        from .kernel import compute_kernel, ode_residual

        cfg, spec = self.cfg, self.family
        bound = self.lemma.hypotheses.proof_bound() if self.lemma is not None else None

        kern = self.kernel or compute_kernel(
            cfg.oscillation.p, spec.q_callable, equation_grid(S0_FIXED, cfg.kernel_span),
            extend_to=cfg.extend_to, extend_step=cfg.extend_step)
        if bound is not None:
            kern = kern.with_sup_bound(bound)
        grid = kern.grid
        resid = ode_residual(kern.h_values, cfg.oscillation.p, spec.q_callable, grid,
                             z_values=kern.z_values)
        worst = resid["sup"] + resid["estimate"]
        self.note("kernel equation residual within 1e-4", worst <= 1e-4, 1e-4 - worst)
        beyond = kern.z_values[grid > S0_FIXED + PI]
        self.note("kernel z negative beyond the first lobe", bool(np.all(beyond < -1e-12)),
                  -1e-12 - float(np.max(beyond)) if beyond.size else None)
        # the reports keep the even nodes, at step pi/200, which the residual check reads
        s, z, h, h_over_s = grid[::2], kern.z_values[::2], kern.h_values[::2], kern.h_over_s()[::2]
        payload = {
            "lambda": spec.lam,
            "z_sup_observed": kern.z_sup_observed,
            "z_sup_bound": kern.z_sup_bound,
            "h_tail": {
                "value": kern.h_tail.value,
                "uncertainty": kern.h_tail.uncertainty,
                "certificate": kern.h_tail.certificate,
                "cutoff": kern.h_tail.cutoff,
            },
            "residual_sup": resid["sup"],
            "residual_estimate": resid["estimate"],
            "residual_l2": resid["l2"],
            "identity_sup": resid["identity_sup"],
            "grid_step": float(s[1] - s[0]),
            "residual_spacings": [float(grid[2] - grid[0]), float(grid[4] - grid[0])],
        }
        if self.want("json"):
            write_json(self.path("kernel_report.json"), payload)
        if self.want("csv"):
            write_csv(self.path("kernels.csv"),
                      ["s", "z", "h", "h_over_s"],
                      [s, z, h, h_over_s])
        if self.want("svg"):
            emit_plot(self.path("kernels.svg"),
                      [("z", s, z), ("h", s, h), ("h/s", s, h_over_s)],
                      title="comparison kernels", xlabel="s", ylabel="value")
        self.lemma = self.kernel = None

    def build_pair_stage(self) -> None:
        cfg, pair = self.cfg, self.pair
        m = min(cfg.pair.m_max, 25)
        grid = np.linspace(S0_FIXED, S0_FIXED + 2 * PI * m, 200 * m + 1)
        check = verify_pair(pair, grid)
        self.note("pair ordered pointwise on the grid", check["ordered"],
                  check["grid_min_slack"])
        self.note("pair chain margins nonnegative", pair.min_margin >= 0.0,
                  pair.min_margin)
        payload = {
            "chain_margins_min": {k: float(np.min(v)) for k, v in pair.chain_margins.items()},
            "min_margin": pair.min_margin,
            "smallness_margin": pair.smallness_margin,
            "pointwise": check,
            "c1": pair.q1.c, "d1": pair.q1.d,
            "c2": pair.q2.c, "d2": pair.q2.d,
        }
        if self.want("json"):
            write_json(self.path("pair_report.json"), payload)
        if self.want("svg"):
            s = np.linspace(S0_FIXED, _PAIR_PLOT_END, 1601)
            emit_plot(self.path("pair.svg"),
                      [("q1", s, pair.q1.q_callable(s)),
                       ("q2", s, pair.q2.q_callable(s))],
                      title="ordered coefficient pair", xlabel="s", ylabel="q(s)")

    def bridge_stage(self) -> None:
        from .pde_bridge import (integral_conditions, lift_coefficients, make_barriers,
                                 subsuper_residual)

        cfg, pair, problem = self.cfg, self.pair, self.problem
        n = cfg.problem_n

        # lift/push round trip on a fine grid
        s = np.linspace(S0_FIXED, S0_FIXED + cfg.kernel_span, 1000)
        q1_lift, _ = lift_coefficients(problem)
        direct1 = pair.q1.q_callable(s)
        # scaled by the sample's sup|q1|: q1 vanishes at every lobe node
        rt_err = float(np.max(np.abs(q1_lift(s) - direct1)) / np.max(np.abs(direct1)))
        self.note("lift of pushed coefficient returns q1 (relative)",
                  rt_err <= 1e-11, 1e-11 - rt_err)

        barrier = make_barriers(pair, equation_grid(S0_FIXED, cfg.kernel_span),
                                extend_to=cfg.extend_to, extend_step=cfg.extend_step)
        report = subsuper_residual(problem, barrier)
        self.note("lower barrier residual sign", report.lower_ok, report.min_rho1)
        self.note("upper barrier residual sign", report.upper_ok, -report.max_rho2)

        T = float(beta_map(n, cfg.problem_R, S0_FIXED + cfg.kernel_span))
        conditions = integral_conditions(
            problem, T, sup_q=(pair.q1.sup_bound, pair.q2.sup_bound))
        self.note("radial damping integral converges",
                  bool(conditions["damping_converges"]))
        for label in ("a1", "a2"):
            self.note(f"radial source {label} diverges in the harmonic weight",
                      bool(conditions[label]["diverges"]),
                      conditions[label]["growth_slope_vs_logT"])
            self.note(f"radial source {label} converges in the heavy weight",
                      bool(conditions[label]["converges"]),
                      conditions[label]["gap_bound"] - conditions[label]["cauchy_gap"])

        payload = {
            "round_trip_rel_error": rt_err,
            "barrier_gap": [barrier.gap_min, barrier.gap_max],
            "residuals": {
                "min_rho1": report.min_rho1,
                "rho1_estimate": report.rho1_estimate,
                "max_rho2": report.max_rho2,
                "rho2_estimate": report.rho2_estimate,
                "lower_ok": report.lower_ok,
                "upper_ok": report.upper_ok,
                "ribbon_excursion": report.ribbon_excursion,
            },
            "integral_conditions": conditions,
            "n": n,
        }
        if self.want("json"):
            write_json(self.path("bridge_report.json"), payload)
        self.barrier = barrier

    def solve_bvp_stage(self) -> None:
        """Solve between the barriers: the bridge's when they are on the solver grid, else
        new ones.  The runner lets go of the bridge's pair here."""
        from .bvp_solver import check_sandwich, solve_radial
        from .pde_bridge import make_barriers

        cfg, pair, problem, barrier = self.cfg, self.pair, self.problem, self.barrier
        self.barrier = None

        grid = np.linspace(S0_FIXED, S0_FIXED + cfg.kernel_span, cfg.solver_N)
        if barrier is None or not np.array_equal(barrier.grid, grid):
            barrier = make_barriers(pair, grid, extend_to=cfg.extend_to,
                                    extend_step=cfg.extend_step)
        solution = solve_radial(
            problem, barrier, tol=cfg.solver_tol,
            boundary=cfg.solver_boundary, max_iter=cfg.solver_max_iter,
        )
        sandwich = check_sandwich(solution, barrier)
        self.note("solution sandwiched between the barriers", sandwich["ok"],
                  min(sandwich["lower_margin"], sandwich["upper_margin"]))
        last_delta = solution.iteration_sup_deltas[-1]
        self.note("iteration converged", last_delta <= cfg.solver_tol,
                  cfg.solver_tol - last_delta)
        self.note("discrete residual small after convergence",
                  solution.residual_sup <= 10.0 * cfg.solver_tol,
                  10.0 * cfg.solver_tol - solution.residual_sup)

        payload = {
            "iterations": solution.iterations,
            "iteration_sup_deltas": list(solution.iteration_sup_deltas),
            "K_used": solution.K_used,
            "sandwich": sandwich,
            "residual_sup": solution.residual_sup,
            "decay_exponent": solution.decay_exponent,
            "boundary": solution.boundary,
            "N": cfg.solver_N,
            "S": float(grid[-1]),
        }
        if self.want("json"):
            write_json(self.path("bvp_summary.json"), payload)
        if self.want("csv") or self.want("svg"):
            r = beta_map(problem.n, problem.R, grid)
            u, v1, v2 = solution.u_values / grid, barrier.h1 / grid, barrier.h2 / grid
        if self.want("csv"):
            write_csv(self.path("bvp.csv"),
                      ["s", "r", "u", "v1", "v2", "residual"],
                      [grid, r, u, v1, v2, solution.residual])
        if self.want("svg"):
            emit_plot(self.path("bvp.svg"),
                      [("u", r, u), ("v1", r, v1), ("v2", r, v2)],
                      title="solution between barriers",
                      xlabel="r", ylabel="u", logx=True, logy=True)


def run(mode: str, cfg: RunConfig) -> int:
    """Execute a mode; returns the process exit code."""
    return _Runner(mode, cfg).run()


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse  # only the command line needs these, so importing oscillax skips them
    import traceback

    parser = argparse.ArgumentParser(
        prog="oscillax",
        description="oscillating-coefficient comparison kernels and barriers",
        epilog="outputs are byte-deterministic for a fixed config; "
               "OSCILLAX_SEED pins the property-based test sampling",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--formats", default="csv,json,svg",
                        help="comma separated subset of csv,json,svg")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    formats = tuple(f for f in args.formats.split(",") if f)
    unknown = set(formats) - {"csv", "json", "svg"}

    try:
        try:
            if unknown:
                raise ValueError(f"unknown output formats: {sorted(unknown)}")
            cfg = load_config(raw)
            cfg.out, cfg.formats = Path(args.out), formats
            runner = _Runner(args.mode, cfg)  # builds what the mode reads, then makes --out
        except ValueError as exc:  # ParseError and DomainError included
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 2
        return runner.run()
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
