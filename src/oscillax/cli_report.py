"""Command line runner and deterministic report writers.

Modes wire the library stages together on a JSON config:

  construct-example   build the sin^2-band family, report amplitudes
  verify-lemma        certify the oscillation hypotheses and conclusions
  compute-kernel      kernels z, h with residuals and tail accounting
  build-pair          the ordered family pair with its chain margins
  bridge              radial lift/push checks and barrier residual signs
  solve-bvp           monotone iteration between the barriers, decay fit
  full-pipeline       all of the above, writing the complete report set

Exit codes: 0 all checks passed, 1 a verification check failed, 2 the
config is invalid (found before anything is written), 3 a failure during
the run.  Outputs are byte-deterministic:
JSON with sorted keys and 17-significant-digit floats, CSV with a header
row and '.' decimal points, standalone SVG with no timestamps.  The
OSCILLAX_SEED environment variable pins the sampling of the property-based
test suite; the runner itself draws no random numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bvp_solver import check_sandwich, fit_window, solve_radial
from .coeff_dsl import CoefficientExpr, Num, Var, Neg, BinOp, Call
from .example_builder import (
    LAMBDA_TOL,
    S0_FIXED,
    TAIL_TOL,
    TWO_PI,
    BandParams,
    OscillationParams,
    OscillationSpec,
    PairParams,
    PairResult,
    build_oscillation,
    build_pair,
    check_integral_features,
    verify_pair,
)
from .kernel import KernelPair, compute_kernel, ode_residual
from .lemma_check import MOMENT_TOL, LemmaReport, verify_lemma
from .pde_bridge import (
    BarrierPair,
    RadialProblem,
    beta_map,
    excluded_arc,
    lift_coefficients,
    make_barriers,
    push_a_from_q,
    subsuper_residual,
    integral_conditions,
)
from .quadrature import TailModel, check_envelope

__all__ = ["RunConfig", "load_config", "default_config", "run", "main", "emit_plot"]

PI = math.pi
MODES = (
    "construct-example",
    "verify-lemma",
    "compute-kernel",
    "build-pair",
    "bridge",
    "solve-bvp",
    "full-pipeline",
)


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
    if isinstance(obj, (list, tuple)):
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


def default_config() -> dict:
    """The stock configuration, suitable for every mode."""
    return {
        "oscillation": {
            "q_minus": 1.0, "q_plus": 2.0,
            "gamma": 6.0, "sigma": 7.0, "eta": 0.0, "theta": 1.0,
            "m_max": 25,
        },
        "pair": {
            "set1": {"gamma": 6.0, "sigma": 7.0, "eta": 0.0, "theta": 1.0},
            "set2": {"gamma": 8.0, "sigma": 9.0, "eta": 2.0, "theta": 3.0},
            "alpha_gap": 0.5, "beta_gap": 0.5,
        },
        "p": {"expr": "1/s^3", "tail": {"kind": "power", "rate": 3.0, "coef": 1.0}},
        "problem": {"n": 3, "R": 1.0, "varsigma": 1.0},
        "kernel": {
            "step": "pi/200", "span": "40*pi",
            "extend_to": 2e4, "extend_step": "pi/80",
            "residual_step": 1e-3,
        },
        "solver": {
            "N": 16001, "tol": 1e-10,
            "max_iter": 200, "boundary": "upper",
        },
        "features": {"M": 50},
        "q_override": None,
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
}


def _const_expr(value, what: str) -> float:
    """A number, or a constant coefficient expression such as "2*pi"."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        expr = CoefficientExpr.parse(value)
        if _mentions_var(expr.ast):
            raise ValueError(f"{what} must be a constant, got expression {value!r}")
        return expr.evaluate(0.0)
    raise ValueError(f"{what} must be a number or a constant expression string")


def _positive(value, what: str) -> float:
    """A positive finite number, or a constant expression for one."""
    x = _const_expr(value, what)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{what} must be a positive finite number, got {x!r}")
    return x


def _count(value, what: str, least: int) -> int:
    """A whole number of at least ``least``, as an int or as a float with no fractional part."""
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {int(value)}")
    return int(value)


def _grid_cells(span: float, step: float) -> int:
    """Cells of the uniform grid over ``span``: span/step rounded, then made even."""
    n_cells = int(round(span / step))
    return n_cells + n_cells % 2


def _mentions_var(node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, (Num,)):
        return False
    if isinstance(node, Neg):
        return _mentions_var(node.operand)
    if isinstance(node, Call):
        return _mentions_var(node.arg)
    if isinstance(node, BinOp):
        return _mentions_var(node.left) or _mentions_var(node.right)
    return False


def _take(block: dict, allowed: dict, what: str) -> dict:
    """Merge a config block over defaults, rejecting unknown keys."""
    if block is None:
        return dict(allowed)
    if not isinstance(block, dict):
        raise ValueError(f"config section {what!r} must be an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys in config section {what!r}: {sorted(unknown)}")
    merged = dict(allowed)
    merged.update(block)
    return merged


def _damping(block) -> tuple[CoefficientExpr, TailModel]:
    """p and p.tail; :func:`_check_damping` then samples p against the envelope."""
    got = _take(block, {"expr": None, "tail": None}, "p")
    if not isinstance(got["expr"], str):
        raise ValueError("p.expr must be an expression string")
    expr = CoefficientExpr.parse(got["expr"])
    if got["tail"] is None:
        raise ValueError("p.tail is required: the damping needs a certified decay model")
    tail = _take(got["tail"], {"kind": "power", "rate": None, "coef": 1.0}, "p.tail")
    if tail["rate"] is None:
        raise ValueError("p.tail needs a decay rate")
    rate = _const_expr(tail["rate"], "p.tail.rate")
    coef = _const_expr(tail["coef"], "p.tail.coef")
    try:
        return expr, TailModel(kind=str(tail["kind"]), rate=rate, coef=coef)
    except ValueError as exc:
        raise ValueError(f"p.tail: {exc}") from None


def _check_damping(p: CoefficientExpr, model: TailModel, m_family: int, m_bare: int) -> None:
    """Sample p against p.tail past every cutoff at which a run integrates it.

    Those are the cutoffs of lambda (from s0), of the I_m (from 2 m pi, for
    m up to m_family + 2 for a family and its tail_sum_I_bound, and up to
    m_bare for a bare q), and of the first moments (s - a) p of
    tail_sum_I_bound (a = 2 (m_family + 2) pi) and check_remark (a = s0).
    Each is derived from its integral's tolerance as integrate_tail_many
    derives it, so a p that leaves its envelope there is refused here, not
    in the middle of a run.
    """
    pe = p.evaluate_grid
    top = max(m_family + 2, m_bare)
    checks = [(pe, model, [model.cutoff_for(0.5 * LAMBDA_TOL, S0_FIXED)]
               + [model.cutoff_for(0.5 * TAIL_TOL, TWO_PI * m) for m in range(1, top + 1)])]
    for a, tol in ((TWO_PI * (m_family + 2), TAIL_TOL), (S0_FIXED, MOMENT_TOL)):
        moment = model.first_moment(a)
        if moment is not None:
            checks.append((lambda s, a=a: (np.asarray(s) - a) * np.asarray(pe(s)),
                           moment, [moment.cutoff_for(0.5 * tol, a)]))
    try:
        for f, envelope, cutoffs in checks:
            check_envelope(f, envelope, cutoffs)
    except ValueError as exc:
        raise ValueError(f"p.tail: {exc}") from None


@dataclass
class RunConfig:
    """Validated run settings for every mode."""

    oscillation: OscillationParams
    pair: PairParams
    problem_n: int
    problem_R: float
    varsigma: float
    kernel_step: float
    kernel_span: float
    extend_to: float
    extend_step: float
    residual_step: float
    solver_N: int
    solver_tol: float
    solver_max_iter: int
    solver_boundary: str
    features_M: int
    q_override: Optional[dict] = None
    formats: tuple = ("csv", "json", "svg")
    out: Path = field(default_factory=lambda: Path("out"))


def load_config(raw: dict) -> RunConfig:
    """Validate a raw config dict into a :class:`RunConfig`."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    top = _take(raw, default_config(), "top level")
    for (section, key), why in RETIRED_KEYS.items():
        if isinstance(top[section], dict) and key in top[section]:
            raise ValueError(f'the "{section}" section no longer takes "{key}": {why}')

    p_expr, p_tail = _damping(top["p"])

    osc_block = _take(top["oscillation"], default_config()["oscillation"], "oscillation")
    osc = OscillationParams(
        q_minus=_const_expr(osc_block["q_minus"], "oscillation.q_minus"),
        q_plus=_const_expr(osc_block["q_plus"], "oscillation.q_plus"),
        gamma=_const_expr(osc_block["gamma"], "oscillation.gamma"),
        sigma=_const_expr(osc_block["sigma"], "oscillation.sigma"),
        eta=_const_expr(osc_block["eta"], "oscillation.eta"),
        theta=_const_expr(osc_block["theta"], "oscillation.theta"),
        p=p_expr, p_tail=p_tail,
        m_max=_count(osc_block["m_max"], "oscillation.m_max", 1),
    )
    try:
        osc.validate()
    except ValueError as exc:
        raise ValueError(f"oscillation: {exc}") from None

    pair_block = _take(top["pair"], default_config()["pair"], "pair")

    def band(block, what):
        got = _take(block, {"gamma": None, "sigma": None, "eta": None, "theta": None}, what)
        if any(v is None for v in got.values()):
            raise ValueError(f"{what} needs gamma, sigma, eta, theta")
        return BandParams(
            gamma=_const_expr(got["gamma"], f"{what}.gamma"),
            sigma=_const_expr(got["sigma"], f"{what}.sigma"),
            eta=_const_expr(got["eta"], f"{what}.eta"),
            theta=_const_expr(got["theta"], f"{what}.theta"),
        )

    pair = PairParams(
        q_minus=osc.q_minus, q_plus=osc.q_plus, p=p_expr, p_tail=p_tail,
        set1=band(pair_block["set1"], "pair.set1"),
        set2=band(pair_block["set2"], "pair.set2"),
        alpha_gap=_const_expr(pair_block["alpha_gap"], "pair.alpha_gap"),
        beta_gap=_const_expr(pair_block["beta_gap"], "pair.beta_gap"),
        m_max=osc.m_max,
    )
    try:
        pair.validate()
    except ValueError as exc:  # its messages start with the field they are about
        raise ValueError(f"pair.{exc}") from None

    prob = _take(top["problem"], default_config()["problem"], "problem")
    n = _count(prob["n"], "problem.n", 3)
    R = _positive(prob["R"], "problem.R")
    s_min = excluded_arc(n, R)
    if not S0_FIXED > s_min:
        raise ValueError(
            f"the families' anchor s0 = 2 pi must lie beyond the excluded ball: it needs "
            f"s0 > (problem.n - 2) problem.R^(problem.n - 2) = {s_min!r}")
    varsigma = _positive(prob["varsigma"], "problem.varsigma")

    kern = _take(top["kernel"], default_config()["kernel"], "kernel")
    solv = _take(top["solver"], default_config()["solver"], "solver")
    feat = _take(top["features"], default_config()["features"], "features")

    boundary = solv["boundary"]
    if boundary not in ("upper", "lower"):
        raise ValueError(f"solver.boundary must be 'upper' or 'lower', got {boundary!r}")

    solver_N = _count(solv["N"], "solver.N", 1)
    if solver_N % 2 == 0:
        raise ValueError(f"solver.N must be an odd number of grid points "
                         f"(the solver grid needs an even number of cells), got {solver_N}")
    try:
        fit_window(solver_N)
    except ValueError as exc:
        raise ValueError(f"solver.N: {exc}") from None
    solver_max_iter = _count(solv["max_iter"], "solver.max_iter", 1)
    features_M = _count(feat["M"], "features.M", 2)  # a growth rate needs two periods

    q_override = top["q_override"]
    if q_override is not None:
        q_override = _take(q_override, {"expr": None, "m_max": 10}, "q_override")
        if not isinstance(q_override["expr"], str):
            raise ValueError("q_override.expr must be an expression string")
        CoefficientExpr.parse(q_override["expr"])  # fail fast on bad source
        q_override = {"expr": q_override["expr"],
                      "m_max": _count(q_override["m_max"], "q_override.m_max", 1)}
    _check_damping(p_expr, p_tail, osc.m_max, q_override["m_max"] if q_override else 0)

    span = _positive(kern["span"], "kernel.span")
    extend_to = _const_expr(kern["extend_to"], "kernel.extend_to")
    if not (math.isfinite(extend_to) and extend_to >= 0.0):
        raise ValueError(f"kernel.extend_to must be a nonnegative finite number, "
                         f"got {extend_to!r}")
    if 0.0 < extend_to <= S0_FIXED + span:
        raise ValueError(
            f"kernel.extend_to = {extend_to!r} must lie past the grid end s0 + kernel.span "
            f"= {S0_FIXED + span!r}, or be 0 to turn the continuation off")
    steps = {key: _positive(kern[key], f"kernel.{key}")
             for key in ("step", "extend_step", "residual_step")}
    for key in ("step", "residual_step"):
        if _grid_cells(span, steps[key]) < 2:
            raise ValueError(f"kernel.{key} = {steps[key]!r} leaves no grid cell over "
                             f"kernel.span = {span!r}; it must be below twice the span")
    # the bridge's integral conditions run up to the radius of the grid end
    T = float(beta_map(n, R, S0_FIXED + span))
    if not T > 4.0 * R:
        raise ValueError(
            f"problem.n = {n}, problem.R = {R!r} and kernel.span = {span!r} put the "
            f"grid end at radius {T:.6g}, which must exceed 4 problem.R = {4.0 * R!r}: "
            f"lower problem.n or problem.R, or lengthen kernel.span")

    return RunConfig(
        oscillation=osc,
        pair=pair,
        problem_n=n,
        problem_R=R,
        varsigma=varsigma,
        kernel_step=steps["step"],
        kernel_span=span,
        extend_to=extend_to,
        extend_step=steps["extend_step"],
        residual_step=steps["residual_step"],
        solver_N=solver_N,
        solver_tol=_positive(solv["tol"], "solver.tol"),
        solver_max_iter=solver_max_iter,
        solver_boundary=boundary,
        features_M=features_M,
        q_override=q_override,
    )


# ---------------------------------------------------------------------------
# Stages


def _uniform_grid(span: float, step: float) -> np.ndarray:
    return np.linspace(S0_FIXED, S0_FIXED + span, _grid_cells(span, step) + 1)


class _Runner:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.checks: list[tuple[str, bool, Optional[float]]] = []
        cfg.out.mkdir(parents=True, exist_ok=True)

    # -- small helpers ------------------------------------------------------

    def note(self, name: str, passed: bool, margin: Optional[float] = None) -> None:
        self.checks.append((name, bool(passed), margin))
        tag = "PASS" if passed else "FAIL"
        extra = "" if margin is None else f" (margin={margin:.6g})"
        print(f"{tag} {name}{extra}")

    def want(self, kind: str) -> bool:
        return kind in self.cfg.formats

    def path(self, name: str) -> Path:
        return self.cfg.out / name

    def problem(self, pair_result) -> RadialProblem:
        cfg = self.cfg
        a1 = push_a_from_q(pair_result.q1.q_callable, cfg.problem_n)
        a2 = push_a_from_q(pair_result.q2.q_callable, cfg.problem_n)
        return RadialProblem(
            n=cfg.problem_n, R=cfg.problem_R,
            p=cfg.oscillation.p, p_tail=cfg.oscillation.p_tail, a1=a1, a2=a2,
            varsigma=cfg.varsigma,
        )

    # -- stages -------------------------------------------------------------

    def construct_example(self) -> OscillationSpec:
        cfg = self.cfg
        spec = build_oscillation(cfg.oscillation)
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
        return spec

    def verify_lemma_stage(self, spec: Optional[OscillationSpec] = None
                           ) -> tuple[LemmaReport, Optional[KernelPair]]:
        """The lemma report, and the family kernel when it checked one."""
        cfg = self.cfg
        if cfg.q_override is not None:
            m_max = cfg.q_override["m_max"]
            family = None
            q_call = CoefficientExpr.parse(cfg.q_override["expr"])
        else:
            family = spec or build_oscillation(cfg.oscillation)
            m_max = cfg.oscillation.m_max
            q_call = family.q_callable
        nodes = PI * np.arange(2, 2 * m_max + 3)
        grid = _uniform_grid(cfg.kernel_span, cfg.kernel_step)
        kern = compute_kernel(cfg.oscillation.p, q_call, grid,
                              extend_to=cfg.extend_to, extend_step=cfg.extend_step)
        report = verify_lemma(
            cfg.oscillation.p, q_call, nodes,
            p_tail=cfg.oscillation.p_tail, family=family, kernel=kern,
            q_minus=cfg.oscillation.q_minus,
        )
        entries = report.entries()
        for e in entries:
            self.note(e["name"], e["pass"],
                      e["margin"] if isinstance(e["margin"], float) else None)
        payload = {
            "checks": entries,
            "lambda": report.hypotheses.lam,
            "epsilon": report.hypotheses.eps_total,
            "delta": report.hypotheses.delta_total,
            "proof_bound": report.hypotheses.proof_bound(),
            "observed_sup_z": kern.z_sup_observed,
            "ok": report.ok,
        }
        if self.want("json"):
            write_json(self.path("lemma_report.json"), payload)
        return report, (kern if family is not None else None)

    def compute_kernel_stage(self, spec: Optional[OscillationSpec] = None,
                             lemma: Optional[LemmaReport] = None,
                             kernel: Optional[KernelPair] = None) -> None:
        """Kernels of the family; ``kernel`` is the one the lemma stage checked."""
        cfg = self.cfg
        spec = spec or build_oscillation(cfg.oscillation)
        bound = lemma.hypotheses.proof_bound() if lemma is not None else None

        kern = kernel or compute_kernel(
            cfg.oscillation.p, spec.q_callable,
            _uniform_grid(cfg.kernel_span, cfg.kernel_step),
            extend_to=cfg.extend_to, extend_step=cfg.extend_step)
        if bound is not None:
            kern = kern.with_sup_bound(bound)
        res_grid = _uniform_grid(cfg.kernel_span, cfg.residual_step)
        res_kern = compute_kernel(
            cfg.oscillation.p, spec.q_callable, res_grid,
            extend_to=cfg.extend_to, extend_step=cfg.extend_step, far=kern.far,
        )
        resid = ode_residual(res_kern.h_values, cfg.oscillation.p, spec.q_callable,
                             res_grid, z_values=res_kern.z_values)
        self.note("kernel equation residual within 1e-4", resid["sup"] <= 1e-4,
                  1e-4 - resid["sup"])
        self.note("kernel z negative beyond the first lobe",
                  bool(np.all(kern.z_values[kern.grid > S0_FIXED + PI] < -1e-12)))
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
            "residual_l2": resid["l2"],
            "identity_sup": resid["identity_sup"],
            "grid_step": float(kern.grid[1] - kern.grid[0]),
            "residual_grid_step": float(res_grid[1] - res_grid[0]),
        }
        if self.want("json"):
            write_json(self.path("kernel_report.json"), payload)
        if self.want("csv"):
            write_csv(self.path("kernels.csv"),
                      ["s", "z", "h", "h_over_s"],
                      [kern.grid, kern.z_values, kern.h_values, kern.h_over_s()])
        if self.want("svg"):
            emit_plot(self.path("kernels.svg"),
                      [("z", kern.grid, kern.z_values),
                       ("h", kern.grid, kern.h_values),
                       ("h/s", kern.grid, kern.h_over_s())],
                      title="comparison kernels", xlabel="s", ylabel="value")

    def build_pair_stage(self) -> PairResult:
        cfg = self.cfg
        pair = build_pair(cfg.pair)
        grid = _uniform_grid(2 * PI * min(cfg.pair.m_max, 25), PI / 100.0)
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
            s = np.linspace(S0_FIXED, S0_FIXED + 8 * PI, 1601)
            emit_plot(self.path("pair.svg"),
                      [("q1", s, pair.q1.q_callable(s)),
                       ("q2", s, pair.q2.q_callable(s))],
                      title="ordered coefficient pair", xlabel="s", ylabel="q(s)")
        return pair

    def bridge_stage(self, pair: Optional[PairResult] = None
                     ) -> tuple[RadialProblem, BarrierPair]:
        cfg = self.cfg
        pair = pair or build_pair(cfg.pair)
        problem = self.problem(pair)
        n = cfg.problem_n

        # lift/push round trip on a fine grid
        s = np.linspace(S0_FIXED, S0_FIXED + cfg.kernel_span, 1000)
        q1_lift, _ = lift_coefficients(problem)
        direct1 = pair.q1.q_callable(s)
        # scaled by the sample's sup|q1|: q1 vanishes at every lobe node
        rt_err = float(np.max(np.abs(q1_lift(s) - direct1)) / np.max(np.abs(direct1)))
        self.note("lift of pushed coefficient returns q1 (relative)",
                  rt_err <= 1e-11, 1e-11 - rt_err)

        res_grid = _uniform_grid(cfg.kernel_span, cfg.residual_step)
        barrier = make_barriers(pair, res_grid, extend_to=cfg.extend_to,
                                extend_step=cfg.extend_step)
        report = subsuper_residual(problem, barrier)
        self.note("lower barrier residual sign", report.lower_ok, report.min_rho1)
        self.note("upper barrier residual sign", report.upper_ok, -report.max_rho2)

        T = float(beta_map(n, cfg.problem_R, res_grid[-1]))
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
                "max_rho2": report.max_rho2,
                "lower_ok": report.lower_ok,
                "upper_ok": report.upper_ok,
                "ribbon_excursion": report.ribbon_excursion,
            },
            "integral_conditions": conditions,
            "n": n,
        }
        if self.want("json"):
            write_json(self.path("bridge_report.json"), payload)
        return problem, barrier

    def solve_bvp_stage(self, pair: Optional[PairResult] = None,
                        problem: Optional[RadialProblem] = None,
                        bridge_barrier: Optional[BarrierPair] = None) -> None:
        """Solve between the barriers; ``bridge_barrier`` lends its continuation summaries."""
        cfg = self.cfg
        pair = pair or build_pair(cfg.pair)
        problem = problem or self.problem(pair)

        grid = np.linspace(S0_FIXED, S0_FIXED + cfg.kernel_span, cfg.solver_N)
        far = None if bridge_barrier is None else (
            bridge_barrier.kernel1.far, bridge_barrier.kernel2.far)
        barrier = make_barriers(pair, grid, extend_to=cfg.extend_to,
                                extend_step=cfg.extend_step, far=far)
        solution = solve_radial(
            problem, barrier, tol=cfg.solver_tol,
            boundary=cfg.solver_boundary, max_iter=cfg.solver_max_iter,
        )
        sandwich = check_sandwich(solution, barrier)
        self.note("solution sandwiched between the barriers", sandwich["ok"],
                  min(sandwich["lower_margin"], sandwich["upper_margin"]))
        self.note("iteration converged",
                  solution.iteration_sup_deltas[-1] <= cfg.solver_tol,
                  float(len(solution.iteration_sup_deltas)))
        self.note("discrete residual small after convergence",
                  solution.residual_sup <= 10.0 * cfg.solver_tol,
                  10.0 * cfg.solver_tol - solution.residual_sup)

        r = beta_map(problem.n, problem.R, grid)
        u = solution.u_values / grid
        v1 = barrier.h1 / grid
        v2 = barrier.h2 / grid

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
        if self.want("csv"):
            write_csv(self.path("bvp.csv"),
                      ["s", "r", "u", "v1", "v2", "residual"],
                      [grid, r, u, v1, v2, solution.residual])
        if self.want("svg"):
            emit_plot(self.path("bvp.svg"),
                      [("u", r, u), ("v1", r, v1), ("v2", r, v2)],
                      title="solution between barriers",
                      xlabel="r", ylabel="u", logx=True, logy=True)

    def full_pipeline(self) -> None:
        spec = self.construct_example()
        lemma, kernel = self.verify_lemma_stage(spec)
        self.compute_kernel_stage(spec, lemma, kernel)
        pair = self.build_pair_stage()
        problem, barrier = self.bridge_stage(pair)
        self.solve_bvp_stage(pair, problem, barrier)


def run(mode: str, cfg: RunConfig) -> int:
    """Execute a mode; returns the process exit code."""
    runner = _Runner(cfg)
    stages = {
        "construct-example": runner.construct_example,
        "verify-lemma": runner.verify_lemma_stage,
        "compute-kernel": runner.compute_kernel_stage,
        "build-pair": runner.build_pair_stage,
        "bridge": runner.bridge_stage,
        "solve-bvp": runner.solve_bvp_stage,
        "full-pipeline": runner.full_pipeline,
    }
    stages[mode]()
    passed = all(ok for _, ok, _ in runner.checks)
    print(f"mode {mode}: {'PASS' if passed else 'FAIL'} "
          f"({sum(ok for _, ok, _ in runner.checks)}/{len(runner.checks)} checks)")
    return 0 if passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
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
        except ValueError as exc:  # ParseError and DomainError included
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 2
        cfg.out = Path(args.out)
        cfg.formats = formats
        return run(args.mode, cfg)
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
