"""Command line interface: exit codes, determinism, and report formats."""

import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillax import kernel
from oscillax.cli_report import (
    RETIRED_KEYS,
    _const_expr,
    _to_json,
    default_config,
    emit_plot,
    load_config,
    main,
    write_csv,
)


def _write_config(tmp_path, patch=None, name="config.json"):
    cfg = default_config()
    if patch:
        for dotted, value in patch.items():
            target = cfg
            *heads, last = dotted.split(".")
            for head in heads:
                target = target[head]
            target[last] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# config loading

def test_default_config_loads_cleanly():
    cfg = load_config(default_config())
    assert cfg.oscillation.gamma == 6.0
    assert cfg.pair.alpha_gap == 0.5
    assert cfg.problem_n == 3
    assert cfg.solver_N == 16001
    assert cfg.solver_boundary == "upper"
    assert cfg.q_override is None


def test_partial_config_merges_over_defaults():
    cfg = load_config({"oscillation": {"m_max": 8}})
    assert cfg.oscillation.m_max == 8
    assert cfg.oscillation.gamma == 6.0


def test_unknown_config_keys_are_rejected():
    with pytest.raises(ValueError, match="zeta"):
        load_config({"oscillation": {"zeta": 1.0}})
    with pytest.raises(ValueError, match="colour"):
        load_config({"colour": "blue"})


def test_constant_expressions_are_accepted_for_scalars():
    cfg = load_config({"kernel": {"span": "40*pi"}})
    assert cfg.kernel_span == pytest.approx(40 * np.pi)
    assert cfg.oscillation.s0 == 2 * np.pi


def test_const_expr_accepts_numbers_and_constants():
    assert _const_expr(3, "x") == 3.0
    assert _const_expr("2*pi", "x") == pytest.approx(2 * np.pi)
    with pytest.raises(ValueError, match="constant"):
        _const_expr("2*s", "x")
    with pytest.raises(ValueError, match="number or a constant"):
        _const_expr(True, "x")
    with pytest.raises(ValueError, match="number or a constant"):
        _const_expr([1.0], "x")


def test_boundary_choice_is_validated():
    with pytest.raises(ValueError, match="boundary"):
        load_config({"solver": {"boundary": "sideways"}})


def test_tail_model_requires_a_rate():
    with pytest.raises(ValueError, match="rate"):
        load_config({"p": {"expr": "1/s^3", "tail": {"kind": "power"}}})


def test_a_given_p_needs_its_tail():
    with pytest.raises(ValueError, match="p.tail"):
        load_config({"p": {"expr": "1/s^3"}})


def test_a_given_pair_set_needs_all_four_constants():
    with pytest.raises(ValueError, match="pair.set1"):
        load_config({"pair": {"set1": {"gamma": 6.5}}})


def test_a_given_q_override_needs_its_expression():
    with pytest.raises(ValueError, match="q_override.expr"):
        load_config({"q_override": {"m_max": 3}})


def test_a_given_q_override_fills_m_max_with_10():
    assert load_config({"q_override": {"expr": "sin(s)"}}).q_override["m_max"] == 10


def test_a_tail_given_its_rate_only_is_a_unit_power_envelope():
    tail = load_config({"p": {"expr": "1/s^3", "tail": {"rate": 3}}}).oscillation.p_tail
    assert (tail.kind, tail.rate, tail.coef) == ("power", 3.0, 1.0)


# ---------------------------------------------------------------------------
# serialisation helpers

def test_to_json_sorts_keys_and_pins_float_text():
    text = _to_json({"b": 0.1, "a": np.float64(2.0), "c": [1, True, None]})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.10000000000000001" in text
    parsed = json.loads(text)
    assert parsed == {"a": 2.0, "b": 0.1, "c": [1, True, None]}


def test_to_json_serialises_arrays():
    parsed = json.loads(_to_json({"x": np.array([1.5, 2.5])}))
    assert parsed["x"] == [1.5, 2.5]


def test_to_json_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        _to_json({"x": float("nan")})
    with pytest.raises(ValueError, match="non-finite"):
        _to_json([float("inf")])


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError, match="deterministically"):
        _to_json({"x": object()})


def test_to_json_refuses_a_record_that_is_a_tuple():
    # records are NamedTuples; one passed by mistake must not become a bare list
    with pytest.raises(TypeError, match="cannot serialise _Rule deterministically"):
        _to_json({"x": kernel._cell_rule()})
    assert json.loads(_to_json({"x": (1, 2.5)})) == {"x": [1, 2.5]}


def test_write_csv_requires_equal_columns(tmp_path):
    with pytest.raises(ValueError, match="share a length"):
        write_csv(tmp_path / "bad.csv", ["a", "b"],
                  [np.arange(3.0), np.arange(4.0)])


def test_write_csv_requires_a_name_per_column(tmp_path):
    with pytest.raises(ValueError, match="header names 3 columns, but 2 are given"):
        write_csv(tmp_path / "bad.csv", ["a", "b", "c"], [np.arange(3.0), np.arange(3.0)])
    assert not (tmp_path / "bad.csv").exists()


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["s", "v"], [np.array([1.0, 2.0]), np.array([0.5, 0.25])])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "s,v"
    assert lines[1] == "1,0.5"
    assert len(lines) == 3


def test_write_csv_formats_each_value_like_a_single_float(tmp_path):
    path = tmp_path / "t.csv"
    cols = [np.array([-0.0, 5e-324, 1.0 / 3.0, 2.0**60]),
            np.array([1, -7, 3, 12345678901], dtype=np.int64),
            np.array([0.1, 3e38, -2.5e-17, 7.0], dtype=np.float32)]
    write_csv(path, ["a", "b", "c"], cols)
    rows = ["a,b,c"] + [",".join("%.17g" % float(v) for v in row) for row in zip(*cols)]
    assert path.read_text(encoding="utf-8") == "\n".join(rows) + "\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_csv_names_the_first_non_finite_value(tmp_path, bad):
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, bad, -np.inf])
    with pytest.raises(ValueError, match=f"non-finite value {float(bad)!r} cannot enter"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [a, b])
    assert not (tmp_path / "bad.csv").exists()


# ---------------------------------------------------------------------------
# SVG plots

def test_emit_plot_writes_wellformed_svg(tmp_path):
    path = tmp_path / "p.svg"
    x = np.linspace(0.0, 10.0, 50)
    emit_plot(path, [("sin", x, np.sin(x)), ("cos", x, np.cos(x))],
              title="waves", xlabel="s", ylabel="value")
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    text = path.read_text(encoding="utf-8")
    assert "waves" in text and "sin" in text and "cos" in text


def test_emit_plot_is_deterministic(tmp_path):
    x = np.linspace(1.0, 5.0, 20)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(a, [("y", x, 1.0 / x)], logy=True)
    emit_plot(b, [("y", x, 1.0 / x)], logy=True)
    assert a.read_bytes() == b.read_bytes()


def _reference_polylines(series, logx, logy):
    """Each series' points, mapped and formatted one at a time (default 720 x 480 plot)."""
    cleaned = [(np.log10(x) if logx else x, np.log10(y) if logy else y) for _, x, y in series]
    x_lo = min(float(np.min(x)) for x, _ in cleaned)
    x_hi = max(float(np.max(x)) for x, _ in cleaned)
    y_lo = min(float(np.min(y)) for _, y in cleaned)
    y_hi = max(float(np.max(y)) for _, y in cleaned)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    ml, mt, pw, ph = 70, 40, 720 - 70 - 20, 480 - 40 - 50

    def sx(v):
        return ml + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return mt + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    lines = []
    for x, y in cleaned:
        stride = max(1, len(x) // 2000)
        xs, ys = x[::stride], y[::stride]
        if xs[-1] != x[-1]:
            xs, ys = np.append(xs, x[-1]), np.append(ys, y[-1])
        lines.append(" ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xs, ys)))
    return lines


@given(
    st.lists(st.integers(1, 9000), min_size=1, max_size=3),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40)
def test_emit_plot_polylines_equal_the_pointwise_mapping(tmp_path_factory, lengths, logx,
                                                         logy, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    series = []
    for k, n in enumerate(lengths):
        x = np.sort(rng.uniform(1e-3, 50.0, n)) * scale
        y = rng.standard_normal(n) * scale
        if logy:
            y = np.abs(y) + 1e-9
        series.append((f"s{k}", x, y))
    path = tmp_path_factory.mktemp("plot") / "p.svg"
    emit_plot(path, series, logx=logx, logy=logy)
    drawn = re.findall(r'<polyline points="([^"]*)"', path.read_text(encoding="utf-8"))
    assert drawn == _reference_polylines(series, logx, logy)


def test_emit_plot_rejects_bad_series_before_writing(tmp_path):
    path = tmp_path / "no.svg"
    with pytest.raises(ValueError, match="empty"):
        emit_plot(path, [])
    with pytest.raises(ValueError, match="mismatched"):
        emit_plot(path, [("y", np.arange(3.0), np.arange(4.0))])
    with pytest.raises(ValueError, match="log axis"):
        emit_plot(path, [("y", np.arange(3.0), np.array([1.0, -1.0, 2.0]))],
                  logy=True)
    assert not path.exists()


# ---------------------------------------------------------------------------
# exit codes

def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["construct-example", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not valid", encoding="utf-8")
    rc = main(["construct-example", "--config", str(path)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_constraint_violation_exits_2_and_names_the_bound(tmp_path, capsys):
    for patch, section, bound in (
        ({"oscillation.gamma": 5.0}, "oscillation: ", "6 <= gamma"),
        ({"pair.set1.gamma": 5.0}, "pair.set1: ", "6 <= gamma"),
        ({"pair.set2.gamma": 7.0}, "pair.set2.gamma", "set1.sigma"),
    ):
        cfg = _write_config(tmp_path, patch)
        rc = main(["build-pair", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert section in err and bound in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["step", "extend_step"])
@pytest.mark.parametrize("value", [-0.001, 0, "-pi/200", 1e309])
def test_nonpositive_or_infinite_kernel_step_exits_2_before_writing(tmp_path, capsys,
                                                                     key, value):
    cfg = _write_config(tmp_path, {f"kernel.{key}": value})
    out = tmp_path / "out"
    rc = main(["full-pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    # kernel.step is retired, so it is refused whatever its value
    assert (f"kernel.{key} must be a positive finite number" if key == "extend_step"
            else "leave kernel.step out") in err
    assert "Number of samples" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("solver.N", 16000), ("solver.N", 7), ("solver.N", -1),
    ("solver.tol", 0), ("solver.tol", -1e-10), ("solver.tol", 1e309),
    ("solver.tol", float("nan")),
    ("solver.max_iter", 0), ("solver.max_iter", -3),
    # retired into RETIRED_KEYS, so it is refused whatever its value
    ("kernel.residual_step", 0),
])
def test_bad_solver_or_residual_settings_exit_2_before_writing(tmp_path, capsys,
                                                               key, value):
    cfg = _write_config(tmp_path, {key: value})
    out = tmp_path / "out"
    rc = main(["full-pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("kernel.span", 0), ("kernel.span", -1.0), ("kernel.span", "-pi"), ("kernel.span", 1e309),
    # the retired kernel.residual_step and kernel.step are refused whatever their value
    ("kernel.residual_step", 1000), ("kernel.step", 1e4),
])
def test_span_or_step_leaving_no_grid_cell_exits_2_before_writing(tmp_path, capsys,
                                                                   key, value):
    cfg = _write_config(tmp_path, {key: value})
    out = tmp_path / "out"
    rc = main(["bridge", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert key in err
    assert "one-dimensional" not in err
    assert not out.exists()


def test_a_grid_end_inside_four_radii_exits_2_before_any_verdict(tmp_path, capsys):
    # n = 5 puts s0 + span = 42 pi at radius beta(42 pi) = 3.53 < 4 R
    cfg = _write_config(tmp_path, {"problem.n": 5})
    out = tmp_path / "out"
    rc = main(["bridge", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    for key in ("problem.n", "problem.R", "kernel.span"):
        assert key in captured.err
    assert not out.exists()


@pytest.mark.parametrize("patch, named", [
    # s0 = 2 pi must exceed (n-2) R^(n-2) = 7
    ({"problem.R": 7}, "problem.R"),
    ({"problem.R": -1}, "problem.R"),
    ({"problem.R": 0}, "problem.R"),
    # (n-2) R^(n-2) overflows a float
    ({"problem.n": 4, "problem.R": 1e200}, "problem.R"),
    ({"problem.varsigma": 0}, "problem.varsigma"),
    ({"problem.varsigma": -1.0}, "problem.varsigma"),
    ({"problem.n": 2}, "problem.n"),
    ({"features.varsigma": 0}, "features.varsigma"),
    ({"features.M": 1}, "features.M"),
    ({"solver.K": -1.0}, "solver.K"),
    # a JSON 1e400 reads as inf; NaN would turn the continuation off silently
    ({"kernel.extend_to": float("inf")}, "kernel.extend_to"),
    ({"kernel.extend_to": float("nan")}, "kernel.extend_to"),
    ({"kernel.extend_to": -5}, "kernel.extend_to"),
    ({"p.tail.coef": float("nan")}, "p.tail"),
    ({"p.tail.cutoff": float("nan")}, "p.tail"),
    # a continuation that ends inside the grid would be turned off silently
    ({"kernel.extend_to": 100}, "kernel.extend_to"),
    ({"kernel.extend_to": 2 * math.pi + 40 * math.pi}, "kernel.extend_to"),
    # p = 1/s^3 exceeds the envelope 0 everywhere; no run reads a cutoff
    ({"p.tail.coef": 0}, "p.tail"),
    ({"p.tail.cutoff": 100}, "p.tail"),
    # p leaves its envelope past the I_m cutoff (1e6), or only past the cutoff
    # of tail_sum_I_bound's first moment (2e12)
    ({"p.expr": "1/s^3 + 1e-33*s"}, "p.tail"),
    ({"p.expr": "1/s^3 + 1e-40*s"}, "p.tail"),
    # the families are anchored at s0 = 2 pi
    ({"s0": "2*pi"}, "s0"),
    # retired keys: varsigma is problem.varsigma, the sweep shift is derived
    ({"features.varsigma": 1.0}, "features.varsigma"),
    ({"solver.K": 0.0}, "solver.K"),
    # the lemma needs at least one period of the override
    ({"q_override": {"expr": "sin(s)/s", "m_max": 0}}, "q_override.m_max"),
    ({"q_override": {"expr": "sin(s)/s", "m_max": -1}}, "q_override.m_max"),
    # the decay fit needs 8 points in its window, which 23 points do not leave
    ({"solver.N": 9}, "solver.N"),
    ({"solver.N": 23}, "solver.N"),
    # gamma q_plus overflows, so the family's amplitudes would be infinite
    pytest.param({"oscillation.q_plus": 1e308}, "oscillation.q_plus", id="q_plus-overflows"),
    # the kernels assume p >= 0; |p| alone fits the envelope
    pytest.param({"p.expr": "-1/s^3"}, "p.expr", id="negative-p"),
    # an infinite upper constant passes gamma < sigma and eta < theta, but no report takes it
    pytest.param({"oscillation.sigma": float("inf")}, "oscillation.sigma", id="inf-sigma"),
    pytest.param({"oscillation.theta": float("inf")}, "oscillation.theta", id="inf-theta"),
    pytest.param({"pair.set2.sigma": float("inf")}, "pair.set2.sigma", id="inf-set2-sigma"),
    pytest.param({"pair.set2.theta": float("inf")}, "pair.set2.theta", id="inf-set2-theta"),
    # a parse error names its key
    ({"kernel.span": "2*"}, "kernel.span: "),
    ({"p.expr": "x"}, "p.expr: "),
    ({"q_override": {"expr": "x"}}, "q_override.expr: "),
    # the retired kernel.step is refused before any value of it is read
    pytest.param({"kernel.step": 1e-300}, "leave kernel.step out", id="tiny-step"),
    # numpy cannot hold the continuation's window and cell subdivisions in one array;
    # at 5e-324, half a step is 0; the retired kernel.residual_step is refused before
    # any value of it is read
    pytest.param({"kernel.residual_step": 1e-300}, "leave kernel.residual_step out",
                 id="tiny-residual-step"),
    # the grid the kernel equation is checked on holds 400/pi points per unit of span
    pytest.param({"kernel.span": 1e306, "kernel.extend_to": 0}, "kernel.span: ",
                 id="huge-equation-grid"),
    pytest.param({"kernel.extend_step": 1e-300}, "kernel.extend_step: ", id="tiny-extend-step"),
    pytest.param({"kernel.step": 5e-324}, "leave kernel.step out", id="denormal-step"),
    pytest.param({"kernel.residual_step": 5e-324}, "leave kernel.residual_step out",
                 id="denormal-residual-step"),
    pytest.param({"kernel.extend_step": 5e-324}, "kernel.extend_step: ",
                 id="denormal-extend-step"),
    # counts past numpy's limit: the family's extension grid up to the run's extent,
    # which m_max or M sets here (a loop over the m_max cutoffs would never end), a bare
    # q's 2 m_max + 1 lobe nodes, N solver points, and 17 continuation nodes per pi up
    # to extend_to
    pytest.param({"oscillation.m_max": 10**19}, "oscillation.m_max: ", id="huge-m-max"),
    pytest.param({"q_override": {"expr": "sin(s)^2 - 0.1", "m_max": 10**19}},
                 "q_override.m_max: ", id="huge-override-m-max"),
    pytest.param({"features.M": 10**19}, "features.M: ", id="huge-features-M"),
    pytest.param({"solver.N": 10**19 + 1}, "solver.N: ", id="huge-solver-N"),
    pytest.param({"kernel.extend_to": 1e300}, "kernel.extend_to: ", id="far-extend-to"),
    # the sources are read at radius 4 T, s = (n - 2) (4 T)^(n - 2), past float range here
    pytest.param({"problem.n": 600, "problem.R": 0.2}, "problem.n: ", id="far-source-reach"),
    # refused by the builders, which run before --out is made: lambda = 50/(2 pi)^2 =
    # 1.267 leaves the family no damping budget, and these gaps leave the pair's
    # negative-lobe band a margin of -0.361
    pytest.param({"p.expr": "100/s^3", "p.tail.coef": 100}, "integral of p below one",
                 id="lambda-above-one"),
    pytest.param({"oscillation.q_minus": 1.9, "pair.alpha_gap": 0.9, "pair.beta_gap": 0.9},
                 "gap parameters are too large", id="negative-gap-margin"),
    # 1e999 reads as inf, so exp(-1e999*s) would print as exp(-inf*s), which no parse takes
    pytest.param({"p.expr": "1/s^3 + exp(-1e999*s)"}, "p.expr: numeric literal '1e999'",
                 id="overflowing-literal"),
])
def test_bad_problem_scalars_exit_2_before_any_verdict(tmp_path, capsys, patch, named):
    cfg = _write_config(tmp_path, patch)
    out = tmp_path / "out"
    rc = main(["full-pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert "invalid configuration" in captured.err
    assert named in captured.err
    assert not out.exists()


@pytest.mark.parametrize("mode, patch", [
    # F_2T of the features is seeded with the 4003 lobe nodes inside it, past its limit 4000
    pytest.param("construct-example", {"features.M": 1000}, id="features-M-1000"),
    # the sources' integrals up to 4 T are seeded with the lobe radii, past their limit 20000
    pytest.param("bridge", {"problem.n": 6, "problem.R": 0.2, "kernel.extend_to": 0},
                 id="n6-bridge"),
])
def test_seeds_past_the_subdivision_limit_still_run_to_their_verdicts(tmp_path, capsys,
                                                                       mode, patch):
    cfg = _write_config(tmp_path, patch)
    rc = main([mode, "--config", str(cfg), "--out", str(tmp_path / "out"), "--formats", "json"])
    seen = capsys.readouterr().out
    assert rc == 0, seen


@pytest.mark.parametrize("mode, reach", [
    ("construct-example", 4 * math.pi * (50 + 1)),  # the features' 2 T at M = 50
    ("build-pair", 0.0),                            # the table's m_max + 2 periods
    ("solve-bvp", 2e4),                             # the continuation's end
])
def test_a_mode_builds_its_families_only_as_far_as_it_reads_them(tmp_path, capsys,
                                                                 monkeypatch, mode, reach):
    from oscillax import example_builder

    # the bridge would read the sources past float range at this n; no other mode does
    cfg = _write_config(tmp_path, {"problem.n": 600, "problem.R": 0.2})
    periods, assemble = [], example_builder._assemble

    def spy(*args):
        spec = assemble(*args)
        periods.append(len(spec.lobes) // 2)
        return spec

    monkeypatch.setattr(example_builder, "_assemble", spy)
    rc = main([mode, "--config", str(cfg), "--out", str(tmp_path / "out"), "--formats", "json"])
    assert rc == 0, capsys.readouterr().out
    assert periods and max(periods) <= max(25 + 2, reach / (2 * math.pi) + 2)


@pytest.mark.parametrize("q_plus", [30, 100])
@pytest.mark.parametrize("mode, checks", [("construct-example", 3), ("full-pipeline", 30)])
def test_large_amplitudes_pass_the_family_checks(tmp_path, capsys, mode, checks, q_plus):
    # c_1 is 10.6 at q_plus 30 and 34.6 at 100; each family check allows the
    # rounding of the amplitudes it compares, so none refuses them for their size
    cfg = _write_config(tmp_path, {"oscillation.q_plus": q_plus})
    rc = main([mode, "--config", str(cfg), "--out", str(tmp_path / "out"), "--formats", "json"])
    seen = capsys.readouterr().out
    assert rc == 0, seen
    assert f"mode {mode}: PASS ({checks}/{checks} checks)" in seen


SMALL = {"solver.N": 4001, "kernel.extend_to": 0, "oscillation.m_max": 10}


@pytest.mark.parametrize("mode, override, family, pair", [
    ("construct-example", False, 1, 0),
    ("verify-lemma", False, 1, 0),
    ("compute-kernel", False, 1, 0),
    ("verify-lemma", True, 0, 0),  # the lemma checks the bare q
    ("build-pair", False, 0, 1),
    ("bridge", False, 0, 1),
    ("solve-bvp", False, 0, 1),
    ("full-pipeline", False, 1, 1),
])
def test_a_mode_builds_what_it_reads_once_before_out_exists(tmp_path, capsys, monkeypatch,
                                                           mode, override, family, pair):
    from oscillax import cli_report

    out = tmp_path / "out"
    made = {"family": [], "pair": []}

    def spying(what, build):
        def spy(*args, **kwargs):
            made[what].append(out.exists())
            return build(*args, **kwargs)
        return spy

    monkeypatch.setattr(cli_report, "build_oscillation",
                        spying("family", cli_report.build_oscillation))
    monkeypatch.setattr(cli_report, "build_pair", spying("pair", cli_report.build_pair))
    patch = {"q_override": {"expr": "sin(s)^2 - 0.1", "m_max": 10}} if override else {}
    cfg = _write_config(tmp_path, {**SMALL, **patch})
    rc = main([mode, "--config", str(cfg), "--out", str(out), "--formats", "json"])
    seen = capsys.readouterr().out
    assert rc == (1 if override else 0), seen
    assert made == {"family": [False] * family, "pair": [False] * pair}
    assert out.exists()


def test_the_smallest_solver_grid_the_decay_fit_takes_runs_to_its_verdicts(tmp_path, capsys):
    assert load_config({"solver": {"N": 25}}).solver_N == 25
    cfg = _write_config(tmp_path, {"solver.N": 25})
    rc = main(["solve-bvp", "--config", str(cfg), "--out", str(tmp_path / "out"),
               "--formats", "json"])
    assert rc in (0, 1)
    assert "mode solve-bvp:" in capsys.readouterr().out


def test_problem_varsigma_is_the_exponent_of_both_heavy_weight_integrals(tmp_path):
    cfg = _write_config(tmp_path, {"problem.varsigma": 0.5})
    out = tmp_path / "out"
    for mode in ("construct-example", "bridge"):
        main([mode, "--config", str(cfg), "--out", str(out), "--formats", "json"])
    construct = json.loads((out / "construct_report.json").read_text(encoding="utf-8"))
    bridge = json.loads((out / "bridge_report.json").read_text(encoding="utf-8"))
    assert construct["features"]["varsigma"] == 0.5
    assert bridge["integral_conditions"]["varsigma"] == 0.5


def test_extend_to_zero_still_turns_the_continuation_off():
    cfg = load_config({"kernel": {"extend_to": 0}})
    assert cfg.extend_to == 0.0
    assert cfg.oscillation.s0 + cfg.kernel_span == 2 * math.pi + 40 * math.pi


def test_a_config_still_setting_problem_g_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"problem.g": {
        "expr": "1/s^4", "tail": {"kind": "power", "rate": 4.0, "coef": 1.0}}})
    out = tmp_path / "out"
    rc = main(["bridge", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert '"problem" section no longer takes "g"' in captured.err
    assert "derived from p" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("value", ["tanh", "other", None])
def test_a_config_setting_problem_blend_exits_2(tmp_path, capsys, value):
    cfg = _write_config(tmp_path, {"problem.blend": value})
    out = tmp_path / "out"
    rc = main(["solve-bvp", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert "invalid configuration" in captured.err
    assert "problem.blend" in captured.err
    assert not out.exists()


def test_readme_shows_the_default_config():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("The full default:", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == default_config()


def test_readme_lists_exactly_the_retired_keys():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | why it is gone |", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `(\w+)\.(\w+)` \|", table, flags=re.MULTILINE)
    assert sorted(listed) == sorted(RETIRED_KEYS)


def test_smallest_step_keeping_a_cell_is_accepted(tmp_path, capsys):
    # kernel.step is retired: the step that used to load is refused as any other
    cfg = _write_config(tmp_path, {"kernel.span": 1.0, "kernel.step": 1.9})
    out = tmp_path / "out"
    assert main(["compute-kernel", "--config", str(cfg), "--out", str(out)]) == 2
    assert '"kernel" section no longer takes "step"' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, named", [
    ("solver.N", 16001.7, "solver.N"), ("solver.N", True, "solver.N"),
    ("solver.N", "16001", "solver.N"), ("solver.N", float("nan"), "solver.N"),
    ("solver.max_iter", 200.5, "solver.max_iter"), ("solver.max_iter", "200", "solver.max_iter"),
    ("oscillation.m_max", 25.5, "oscillation.m_max"),
    ("oscillation.m_max", False, "oscillation.m_max"),
    ("features.M", 50.25, "features.M"), ("features.M", 1e309, "features.M"),
    ("problem.n", 3.5, "problem.n"), ("problem.n", "3", "problem.n"),
    ("q_override", {"expr": "sin(s)", "m_max": 10.5}, "q_override.m_max"),
    ("q_override", {"expr": "sin(s)", "m_max": None}, "q_override.m_max"),
])
def test_fractional_bool_or_text_counts_exit_2_before_writing(tmp_path, capsys,
                                                              key, value, named):
    cfg = _write_config(tmp_path, {key: value})
    out = tmp_path / "out"
    rc = main(["full-pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert f"{named} must be a whole number" in err
    assert not out.exists()


def test_whole_float_counts_are_accepted_as_ints():
    cfg = load_config({"solver": {"N": 16001.0, "max_iter": 200.0},
                       "oscillation": {"m_max": 8.0}, "features": {"M": 50.0},
                       "problem": {"n": 3.0},
                       "q_override": {"expr": "sin(s)", "m_max": 10.0}})
    counts = (cfg.solver_N, cfg.solver_max_iter, cfg.oscillation.m_max,
              cfg.features_M, cfg.problem_n, cfg.q_override["m_max"])
    assert counts == (16001, 200, 8, 50, 3, 10)
    assert all(type(c) is int for c in counts)


def test_unknown_format_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["construct-example", "--config", str(cfg),
               "--out", str(tmp_path / "out"), "--formats", "png"])
    assert rc == 2
    assert "png" in capsys.readouterr().err


def test_unknown_mode_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["meditate", "--config", str(cfg)])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_failed_checks_exit_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"q_override": {"expr": "sin(s)", "m_max": 12}})
    rc = main(["verify-lemma", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "mode verify-lemma: FAIL" in out


def test_a_value_error_during_the_run_exits_3(tmp_path, capsys, monkeypatch):
    from oscillax import cli_report

    def fail(self):
        print("PASS a check that ran first")
        raise ValueError("quadrature did not converge")

    monkeypatch.setattr(cli_report._Runner, "construct_example", fail)
    cfg = _write_config(tmp_path)
    rc = main(["construct-example", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "quadrature did not converge" in err
    assert "invalid configuration" not in err


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    from oscillax import cli_report

    def explode(self):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_report._Runner, "construct_example", explode)
    cfg = _write_config(tmp_path)
    rc = main(["construct-example", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "wires crossed" in capsys.readouterr().err


def test_a_build_that_fails_at_run_time_exits_3(tmp_path, capsys, monkeypatch):
    from oscillax import cli_report

    def fail(*args, **kwargs):
        raise RuntimeError("subdivision limit reached")

    monkeypatch.setattr(cli_report, "build_oscillation", fail)
    cfg = _write_config(tmp_path)
    rc = main(["construct-example", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "subdivision limit reached" in err
    assert "invalid configuration" not in err


def test_a_solver_grid_too_coarse_for_monotone_sweeps_exits_3_naming_solver_N(tmp_path, capsys):
    # at solver.N = 101 the second sweep already climbs out of the corridor; the
    # shift K is no config key, so the message names the grid as well
    cfg = _write_config(tmp_path, {"solver.N": 101})
    rc = main(["solve-bvp", "--config", str(cfg), "--out", str(tmp_path / "out"),
               "--formats", "json"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "left the monotone corridor" in err
    assert "refine the grid (solver.N) or pass solve_radial a larger K" in err
    assert "rerun" not in err


# ---------------------------------------------------------------------------
# artifacts and determinism

def test_construct_example_writes_the_reported_files(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["construct-example", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    seen = capsys.readouterr().out
    assert "mode construct-example: PASS" in seen
    names = {p.name for p in out.iterdir()}
    assert names == {"construct_report.json", "family.csv", "family.svg"}
    report = json.loads((out / "construct_report.json").read_text())
    first = (out / "family.csv").read_text().splitlines()
    assert first[0] == "m,c,d,tail_integral"
    assert report["m_max"] == 25
    assert len(report["c"]) == 25


def test_formats_flag_filters_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "only_json"
    rc = main(["construct-example", "--config", str(cfg),
               "--out", str(out), "--formats", "json"])
    assert rc == 0
    assert {p.name for p in out.iterdir()} == {"construct_report.json"}
    capsys.readouterr()


def test_reports_are_byte_deterministic(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["construct-example", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["construct-example", "--config", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert _read_all(out1) == _read_all(out2)


def test_dimension_four_pipeline_passes(tmp_path, capsys):
    # the damping is p in every stage, so the n = 4 barriers keep their signs
    cfg = _write_config(tmp_path, {"problem.n": 4})
    out = tmp_path / "out"
    rc = main(["full-pipeline", "--config", str(cfg), "--out", str(out)])
    seen = capsys.readouterr().out
    assert rc == 0, seen
    assert "PASS radial damping integral converges" in seen
    bridge = json.loads((out / "bridge_report.json").read_text())
    assert bridge["round_trip_rel_error"] <= 1e-11
    bvp = json.loads((out / "bvp_summary.json").read_text())
    assert abs(bvp["decay_exponent"] - (2 - 4)) <= 0.15


def test_exponential_damping_bridge_passes(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"p": {
        "expr": "exp(-s)", "tail": {"kind": "exp", "rate": 1.0, "coef": 1.0}}})
    out = tmp_path / "out"
    rc = main(["bridge", "--config", str(cfg), "--out", str(out)])
    seen = capsys.readouterr().out
    assert rc == 0, seen
    assert "mode bridge: PASS (8/8 checks)" in seen
    conditions = json.loads((out / "bridge_report.json").read_text())["integral_conditions"]
    assert conditions["damping_certificate"] > 0.0


def test_damping_singular_below_s0_bridge_passes(tmp_path, capsys):
    # p is given for s >= s0 = 2 pi only; its pole at s = 3 lies below that
    cfg = _write_config(tmp_path, {"p": {
        "expr": "1/(s-3)^3", "tail": {"kind": "power", "rate": 3.0, "coef": 8.0}}})
    rc = main(["bridge", "--config", str(cfg), "--out", str(tmp_path / "out")])
    seen = capsys.readouterr().out
    assert rc == 0, seen
    assert "PASS radial damping integral converges" in seen


def test_full_pipeline_integrates_p_and_builds_the_family_kernel_once(tmp_path, capsys,
                                                                     monkeypatch):
    from oscillax import cli_report, example_builder, kernel, lemma_check, parse, pde_bridge

    p = parse("1/s^3")
    counts = {"compute_kernel": 0, "_Cells.build": 0, "tails of p": 0,
              "tail_sum_I_bound": 0, "table": 0}

    def of_p(f):
        return f == p

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name == "compute_kernel":
                counts[name] += 1
            elif name == "integrate_tail" and of_p(args[0]):
                counts["tails of p"] += 1
            elif name == "cumulative_integral":
                counts["table"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli_report, example_builder, kernel, lemma_check, pde_bridge):
        for name in ("compute_kernel", "integrate_tail", "cumulative_integral"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(name, vars(module)[name]))
    spec = example_builder.OscillationSpec
    original = spec.tail_sum_I_bound

    def tail_sum(self, M):
        counts["tail_sum_I_bound"] += 1
        return original(self, M)

    monkeypatch.setattr(spec, "tail_sum_I_bound", tail_sum)
    build = kernel._Cells.build

    def cells(*args, **kwargs):
        counts["_Cells.build"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(kernel._Cells, "build", cells)
    cfg = _write_config(tmp_path)
    assert main(["full-pipeline", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    # the lemma's family kernel, on the pi/400 equation grid, serves the kernel stage,
    # which checks the kernel equation on it; the bridge's barrier pair (two kernels), on
    # that grid too, which is the stock solver grid, serves the solve; each kernel
    # builds its own cells once; the family's I_m table integrates p to infinity once,
    # lambda is I_1 of it, and lemma_check, tail_sum_I_bound and the pair read it; the
    # family builds its damping table once, and both pair members read it
    assert counts == {"compute_kernel": 3, "_Cells.build": 3, "tails of p": 1,
                      "tail_sum_I_bound": 1, "table": 1}


@pytest.mark.parametrize("mode", ["solve-bvp", "bridge"])
def test_a_pair_without_a_family_builds_one_damping_table(tmp_path, capsys, monkeypatch,
                                                          mode):
    from oscillax import example_builder

    tables = []
    integral = example_builder.cumulative_integral

    def counting(f, grid):
        tables.append(len(grid))
        return integral(f, grid)

    monkeypatch.setattr(example_builder, "cumulative_integral", counting)
    cfg = _write_config(tmp_path)
    rc = main([mode, "--config", str(cfg), "--out", str(tmp_path / "out"), "--formats", "json"])
    assert rc == 0, capsys.readouterr().out
    # these modes build no family; both pair members read the pair's one table
    assert len(tables) == 1


@pytest.mark.parametrize("mode, patch, grids", [
    pytest.param("solve-bvp", SMALL, [4001], id="solve-bvp-small"),
    pytest.param("full-pipeline", {}, [16001], id="full-pipeline-stock"),
    # off the stock solver grid, the bridge checks its pair on the pi/400 equation grid
    # and the solve builds its own
    pytest.param("full-pipeline", {"solver.N": 2001}, [16001, 2001], id="full-pipeline-2001"),
    pytest.param("full-pipeline", SMALL, [16001, 4001], id="full-pipeline-small"),
])
def test_a_run_solves_between_the_bridge_pair_when_it_is_on_the_solver_grid(
        tmp_path, capsys, monkeypatch, mode, patch, grids):
    from oscillax import bvp_solver, pde_bridge

    make, solve = pde_bridge.make_barriers, bvp_solver.solve_radial
    built, solved = [], []

    def counting(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    def spying(problem, barrier, *args, **kwargs):
        solved.append(barrier)
        return solve(problem, barrier, *args, **kwargs)

    monkeypatch.setattr(pde_bridge, "make_barriers", counting)
    monkeypatch.setattr(bvp_solver, "solve_radial", spying)
    cfg = _write_config(tmp_path, patch)
    rc = main([mode, "--config", str(cfg), "--out", str(tmp_path / "out"), "--formats", "json"])
    assert rc == 0, capsys.readouterr().out
    assert [len(b.grid) for b in built] == grids
    assert len(solved) == 1 and solved[0] is built[-1]


@pytest.mark.parametrize("patch", [
    pytest.param({}, id="default"),
    pytest.param({"problem.n": 4}, id="n4"),
    pytest.param({"p": {"expr": "exp(-s)", "tail": {"kind": "exp", "rate": 1.0, "coef": 1.0}}},
                 id="exp-p"),
    # the benchmark's seed-11 jitter of the band parameters
    pytest.param({"oscillation.q_plus": 2.0848, "oscillation.gamma": 6.1357,
                  "oscillation.sigma": 7.0239, "pair.set1.gamma": 6.1357,
                  "pair.set1.sigma": 7.0239, "pair.set2.gamma": 7.9863,
                  "pair.set2.sigma": 9.0031}, id="seed-11"),
    # the tests' coarse grid: the checks do not read the solver grid
    pytest.param(SMALL, id="small-grid"),
])
def test_the_extrapolated_checks_with_their_estimates_stay_inside_the_residual_grid(
        tmp_path, capsys, patch):
    # central differences on the retired 1e-3 residual grid read 5.33e-8 (kernel),
    # -4.36e-8 and +2.19e-8 (barriers) on the default config
    cfg = _write_config(tmp_path, patch)
    out = tmp_path / "out"
    assert main(["full-pipeline", "--config", str(cfg), "--out", str(out),
                 "--formats", "json"]) in (0, 1)  # exp-p keeps its lemma FAIL
    capsys.readouterr()
    kernel = json.loads((out / "kernel_report.json").read_text())
    bridge = json.loads((out / "bridge_report.json").read_text())["residuals"]
    assert kernel["residual_sup"] + kernel["residual_estimate"] <= 5.33e-8
    assert bridge["min_rho1"] - bridge["rho1_estimate"] >= -4.36e-8
    assert bridge["max_rho2"] + bridge["rho2_estimate"] <= 2.19e-8
    assert bridge["lower_ok"] and bridge["upper_ok"]


def test_the_kernel_equation_checks_read_the_same_numbers_whatever_solver_N(tmp_path, capsys):
    # at solver.N = 2001 the lobe joins k pi fall between every fourth node of the solver
    # grid; the checks read the pi/400 equation grid all the same, and pass as the
    # retired residual grid did at every N
    reports, lines = [], []
    for N in (16001, 2001):
        cfg = _write_config(tmp_path, {"solver.N": N}, name=f"config{N}.json")
        out = tmp_path / f"out{N}"
        assert main(["full-pipeline", "--config", str(cfg), "--out", str(out),
                     "--formats", "json"]) == 0
        lines.append([line for line in capsys.readouterr().out.splitlines()
                      if "residual within 1e-4" in line or "residual sign" in line])
        reports.append([(out / name).read_bytes()
                        for name in ("kernel_report.json", "bridge_report.json")])
    assert reports[0] == reports[1] and lines[0] == lines[1]
    assert len(lines[0]) == 3 and all(line.startswith("PASS ") for line in lines[0])


def test_an_estimate_that_leaves_the_bound_fails_the_kernel_check(tmp_path, capsys,
                                                                  monkeypatch):
    residual = kernel.ode_residual

    def loose(*args, **kwargs):
        return {**residual(*args, **kwargs), "estimate": 1e-4}

    monkeypatch.setattr(kernel, "ode_residual", loose)
    cfg = _write_config(tmp_path, SMALL)
    assert main(["compute-kernel", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--formats", "json"]) == 1
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "kernel equation residual" in line)
    assert line.startswith("FAIL ") and "margin=-" in line


def test_kernels_csv_writes_the_even_nodes_of_the_kernel_the_report_checks(tmp_path, capsys,
                                                                          family):
    from oscillax import OscillationParams, compute_kernel, ode_residual
    from oscillax.quadrature import equation_grid

    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["compute-kernel", "--config", str(cfg), "--out", str(out),
                 "--formats", "csv,json"]) == 0
    capsys.readouterr()
    rows = np.loadtxt(out / "kernels.csv", delimiter=",", skiprows=1)
    report = json.loads((out / "kernel_report.json").read_text())
    p, grid = OscillationParams().p, equation_grid(2 * math.pi, 40 * math.pi)
    kern = compute_kernel(p, family.q_callable, grid)
    resid = ode_residual(kern.h_values, p, family.q_callable, grid, z_values=kern.z_values)
    assert np.array_equal(rows[:, 0], np.linspace(2 * math.pi, 42 * math.pi, 8001))
    for column, values in zip(rows.T, (grid, kern.z_values, kern.h_values, kern.h_over_s())):
        assert column.tobytes() == values[::2].tobytes()
    assert report["residual_sup"] == resid["sup"]
    assert report["identity_sup"] == resid["identity_sup"]
    assert report["grid_step"] == float(rows[1, 0] - rows[0, 0])


def test_z_negative_beyond_the_first_lobe_prints_its_margin(tmp_path, capsys):
    from oscillax import cli_report

    class Recording(cli_report._Runner):
        def compute_kernel_stage(self):
            self.checked = self.kernel  # the lemma's family kernel, which the stage checks
            super().compute_kernel_stage()

    cfg = load_config(default_config())
    cfg.out, cfg.formats = tmp_path, ("json",)
    runner = Recording("full-pipeline", cfg)
    assert runner.run() == 0
    name = "kernel z negative beyond the first lobe"
    check = next(check for check in runner.ledger if check.name == name)
    kern = runner.checked
    margin = -1e-12 - float(np.max(kern.z_values[kern.grid > 3 * math.pi]))
    assert check.passed and check.margin == margin > 0.0
    assert f"PASS {name} (margin={margin:.6g})" in capsys.readouterr().out.splitlines()


def test_a_finished_full_pipeline_holds_no_hand_off(tmp_path, capsys):
    # the lemma report and its family kernel die after the kernel stage, the
    # bridge's barrier pair once the solve has read it
    from oscillax import cli_report

    cfg = load_config(json.loads(_write_config(tmp_path, SMALL).read_text(encoding="utf-8")))
    cfg.out, cfg.formats = tmp_path / "out", ("json",)
    runner = cli_report._Runner("full-pipeline", cfg)
    assert runner.run() == 0
    capsys.readouterr()
    assert (runner.lemma, runner.kernel, runner.barrier) == (None, None, None)


def test_a_span_off_the_pi_over_100_grid_ends_the_lemma_kernel_with_the_equation_grid(
        tmp_path, capsys):
    from oscillax import cli_report
    from oscillax.quadrature import equation_grid

    cfg = load_config({"kernel": {"span": "40*pi + 0.02"}})
    cfg.out, cfg.formats = tmp_path, ("json",)
    runner = cli_report._Runner("verify-lemma", cfg)
    assert runner.run() == 0
    capsys.readouterr()
    assert np.array_equal(runner.kernel.grid, equation_grid(2 * math.pi, 40 * math.pi + 0.02))
    assert runner.kernel.grid[-1] == pytest.approx(42 * math.pi, rel=1e-15)


def test_full_pipeline_integrates_the_damping_once(tmp_path, capsys, monkeypatch):
    from oscillax import example_builder, lemma_check

    calls = []
    original = example_builder._damping_integrals

    def counting(p, p_tail, los):
        calls.append(len(los))
        return original(p, p_tail, los)

    for module in (example_builder, lemma_check):
        monkeypatch.setattr(module, "_damping_integrals", counting)
    cfg = _write_config(tmp_path)
    assert main(["full-pipeline", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    # the family's I_m to m_max + 2, lambda among them, serve the lemma, its
    # tail_sum_I_bound and the pair too
    assert calls == [27]
    # a lone build-pair has no family to borrow from, so it integrates them
    calls.clear()
    assert main(["build-pair", "--config", str(cfg), "--out", str(tmp_path / "pair")]) == 0
    capsys.readouterr()
    assert calls == [27]


@pytest.mark.parametrize("mode, patch, code", [
    ("full-pipeline", SMALL, 0),
    ("verify-lemma", {**SMALL, "q_override": {"expr": "sin(s)^2 - 0.1", "m_max": 10}}, 1),
])
def test_the_config_samples_p_past_every_cutoff_the_run_integrates_it_past(
        tmp_path, capsys, monkeypatch, mode, patch, code):
    # load_config derives the cutoffs by hand, as integrate_tail will; a cutoff
    # the run reaches that the config did not sample would let a p that leaves its
    # envelope there fail in the middle of a run
    from oscillax import cli_report, quadrature

    seen = {"config": set(), "run": set()}

    def recording(where, check):
        def record(f, model, cutoffs):
            seen[where].update((model, float(cutoff)) for cutoff in cutoffs)
            return check(f, model, cutoffs)
        return record

    monkeypatch.setattr(cli_report, "check_envelope",
                        recording("config", cli_report.check_envelope))
    monkeypatch.setattr(quadrature, "check_envelope", recording("run", quadrature.check_envelope))
    cfg = _write_config(tmp_path, patch)
    rc = main([mode, "--config", str(cfg), "--out", str(tmp_path / "out"), "--formats", "json"])
    assert rc == code, capsys.readouterr().out
    assert seen["run"] and seen["run"] <= seen["config"]


def test_the_config_samples_p_past_as_many_cutoffs_whatever_m_max(monkeypatch):
    # each I_m table integrates p to infinity once, from its last lower end, so the load
    # samples p past one cutoff per tail however many periods the family certifies
    from oscillax import cli_report

    check, handed = cli_report.check_envelope, []

    def recording(f, model, cutoffs):
        handed.append([float(cutoff) for cutoff in cutoffs])
        return check(f, model, cutoffs)

    monkeypatch.setattr(cli_report, "check_envelope", recording)
    counts = []
    for m_max in (25, 10**5):
        handed.clear()
        load_config({"oscillation": {"m_max": m_max}})
        counts.append([len(cutoffs) for cutoffs in handed])
    # p's tail, and the first moments of tail_sum_I_bound and check_remark
    assert counts[0] == counts[1] == [1, 1, 1]


def test_verify_lemma_report_carries_every_check(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["verify-lemma", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    seen = capsys.readouterr().out
    assert "mode verify-lemma: PASS" in seen
    report = json.loads((out / "lemma_report.json").read_text())
    assert report["ok"] is True
    checks = report["checks"]
    assert all(item["pass"] for item in checks)
    names = {item["name"] for item in checks}
    assert "kernel z stays negative" in names
    assert "h/s decreases, both routes agreeing" in names
