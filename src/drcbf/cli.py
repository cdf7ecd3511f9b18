"""Command-line front end: single runs and parameter sweeps from JSON configs.

A config file describes one closed-loop study run: which controller, which
study case (or an explicit disturbance spec), gains, horizon, seed, and output
options. `run` executes it and writes a trajectory CSV, a summary JSON, and
optional SVG plots; `sweep` re-runs one config across a list of values for a
single config key and writes a comparison table.

Exit codes: 0 clean run, 1 bad config, 2 safety violation (the logged gap
dropped below the minimum), 3 runtime fault (solver or integrator). A fault
takes precedence over a violation.

Float columns are written with 17 significant digits, which round-trips IEEE
doubles exactly: re-reading a CSV reproduces the logged values bit for bit.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import csv
import json
import os
import sys
import time
from pathlib import Path

from jsonschema import Draft202012Validator

from .acc import (
    DEFAULT_SEED,
    AccParameters,
    build_study,
    summarize_log,
)
from .disturbances import Constant, SignalSpec, Sinusoid, UniformNoise
from .simulate import SimulationError, run_simulation

__all__ = [
    "CONFIG_SCHEMA",
    "ConfigError",
    "load_document",
    "validate_document",
    "case_document",
    "prepare_run",
    "execute_document",
    "write_trajectory_csv",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_FAULT = 3

DEFAULT_OUTPUT_DIR = "drcbf_output"

_TERM_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "constant"},
                "value": {"type": "number"},
            },
            "required": ["type", "value"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "sinusoid"},
                "amplitude": {"type": "number"},
                "angular_frequency": {"type": "number"},
                "phase": {"type": "number"},
                "kind": {"enum": ["sin", "cos"]},
            },
            "required": ["type", "amplitude", "angular_frequency"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "uniform_noise"},
                "low": {"type": "number"},
                "high": {"type": "number"},
                "hold_interval": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["type", "low", "high"],
            "additionalProperties": False,
        },
    ]
}

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_POSITIVE_PAIR = {
    "type": "array",
    "items": {"type": "number", "exclusiveMinimum": 0},
    "minItems": 2,
    "maxItems": 2,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "closed-loop study run",
    "type": "object",
    "properties": {
        "case": {"enum": [1, 2, 3]},
        "controller": {"enum": ["hocbf", "drcbf", "adrcbf"]},
        "seed": {"type": "integer", "minimum": 0},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "control_period": {"type": "number", "exclusiveMinimum": 0},
        "integrator_substeps": {"type": "integer", "minimum": 1},
        "gains": {
            "type": "object",
            "properties": {
                "k": _POSITIVE_PAIR,
                "k_multiplier": {"type": "number", "exclusiveMinimum": 0},
                "use_optimal_k": {"type": "boolean"},
                "adaptive": _POSITIVE_PAIR,
            },
            "additionalProperties": False,
        },
        "disturbance_bound": {"type": "number", "minimum": 0},
        "disturbance": {
            "type": "object",
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "channels": {
                    "type": "array",
                    "items": {"type": "array", "items": _TERM_SCHEMA},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "required": ["channels"],
            "additionalProperties": False,
        },
        "parameters": {
            "type": "object",
            "properties": {
                "mass": {"type": "number", "exclusiveMinimum": 0},
                "lead_speed": {"type": "number"},
                "drag_constant": {"type": "number"},
                "drag_linear": {"type": "number"},
                "drag_quadratic": {"type": "number"},
                "min_distance": {"type": "number", "exclusiveMinimum": 0},
                "desired_speed": {"type": "number"},
                "clf_decay": {"type": "number", "exclusiveMinimum": 0},
                "slack_weight": {"type": "number", "exclusiveMinimum": 0},
                "poles": _POSITIVE_PAIR,
                "robust_gains": _POSITIVE_PAIR,
                "adaptive_rates": _POSITIVE_PAIR,
                "initial_state": _PAIR,
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "directory": {"type": "string"},
                "plots": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
    },
    "required": ["controller"],
    "additionalProperties": False,
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


class ConfigError(ValueError):
    """Bad config document; key_path points at the offending key."""

    def __init__(self, key_path: str, message: str):
        self.key_path = key_path or "(root)"
        super().__init__(f"config error at {self.key_path}: {message}")


def load_document(path) -> dict:
    """Read and JSON-parse a config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("(file)", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    return doc


def validate_document(doc: dict) -> None:
    """Schema-check a config document; raise ConfigError naming the bad key."""
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        key_path = "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(key_path, err.message)
    if "case" in doc and "disturbance" in doc:
        raise ConfigError("case", "'case' and 'disturbance' are mutually exclusive")


def case_document(case: int, controller: str, **overrides) -> dict:
    """Export a study case as a config document (the CLI-file form of the run).

    Keyword overrides are copied into the document verbatim, so the result
    round-trips through validate_document/execute_document.
    """
    doc = {"case": int(case), "controller": controller}
    doc.update(overrides)
    validate_document(doc)
    return doc


def _term_from_json(obj: dict, default_hold: float):
    kind = obj["type"]
    if kind == "constant":
        return Constant(obj["value"])
    if kind == "sinusoid":
        return Sinusoid(
            obj["amplitude"],
            obj["angular_frequency"],
            obj.get("phase", 0.0),
            obj.get("kind", "sin"),
        )
    return UniformNoise(obj["low"], obj["high"], obj.get("hold_interval", default_hold))


def prepare_run(doc: dict):
    """Turn a validated document into (simulation config, params, metadata)."""
    params_doc = doc.get("parameters", {})
    try:
        params = AccParameters(**params_doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError("parameters", str(exc)) from exc
    controller = doc["controller"]
    seed = int(doc.get("seed", DEFAULT_SEED))
    horizon = float(doc.get("horizon", 30.0))
    control_period = float(doc.get("control_period", 1e-3))
    substeps = int(doc.get("integrator_substeps", 1))
    gains_doc = doc.get("gains", {})

    spec = None
    if "disturbance" in doc:
        dist = doc["disturbance"]
        channels = tuple(
            tuple(_term_from_json(term, control_period) for term in terms)
            for terms in dist["channels"]
        )
        spec = SignalSpec(channels=channels, seed=int(dist.get("seed", seed)))

    try:
        config = build_study(
            controller,
            case=doc.get("case"),
            disturbance_spec=spec,
            params=params,
            seed=seed,
            horizon=horizon,
            control_period=control_period,
            integrator_substeps=substeps,
            gains=gains_doc.get("k"),
            gain_multiplier=gains_doc.get("k_multiplier"),
            use_optimal_gains=bool(gains_doc.get("use_optimal_k", False)),
            adaptive_rates=gains_doc.get("adaptive"),
            disturbance_bound=doc.get("disturbance_bound"),
        )
    except (ValueError, SimulationError) as exc:
        raise ConfigError("(run)", str(exc)) from exc

    meta = {
        "controller": controller,
        "case": doc.get("case"),
        "seed": seed,
        "horizon": horizon,
        "control_period": control_period,
        "integrator_substeps": substeps,
    }
    return config, params, meta


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_trajectory_csv(path, log) -> None:
    """One row per control step of an ACC run's log: t, D, v_f, u, slack,
    d_u, d_m, the cascade's set-membership values, both constraint
    residuals, and the solver status."""
    if (log.n, log.p, log.q) != (2, 1, 2):
        raise ValueError(f"not an ACC log: n, p, q = {log.n}, {log.p}, {log.q}")
    header = (
        ["t", "D", "v_f", "u", "slack", "d_u", "d_m"]
        + [f"phi_{i}" for i in range(log.levels)]
        + ["cbf_residual", "clf_residual", "qp_status"]
    )
    # One format per log row, whose floats are the columns above in order:
    # "%.17g" writes each figure as format(v, ".17g") does, and no field
    # needs quoting. An unsolved step's control is logged as NaN.
    row = "%.17g," * (len(header) - 1) + "%s\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row.__mod__, log.rows(log.qp_statuses)))


def _svg_line_plot(
    title,
    xlabel,
    ylabel,
    series,
    reference=None,
    reference_label=None,
    width=720,
    height=440,
):
    """Minimal static SVG line chart; series is a list of (label, xs, ys, color)."""
    left, right, top, bottom = 70, 160, 44, 52
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_all = [y for _, _, ys, _ in series for y in ys]
    if reference is not None:
        ys_all = ys_all + [reference]
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    pad = 0.05 * (y_max - y_min) or 1.0
    y_min -= pad
    y_max += pad

    def sx(x):
        return left + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y):
        return top + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444"/>',
    ]
    ticks = 5
    for i in range(ticks + 1):
        fx = x_min + (x_max - x_min) * i / ticks
        px = sx(fx)
        parts.append(
            f'<line x1="{px:.1f}" y1="{top + plot_h}" x2="{px:.1f}" '
            f'y2="{top + plot_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{top + plot_h + 18}" text-anchor="middle">'
            f"{fx:.4g}</text>"
        )
        fy = y_min + (y_max - y_min) * i / ticks
        py = sy(fy)
        parts.append(
            f'<line x1="{left - 5}" y1="{py:.1f}" x2="{left}" y2="{py:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py + 4:.1f}" text-anchor="end">{fy:.4g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle">'
        f"{xlabel}</text>"
    )
    parts.append(
        f'<text x="20" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">{ylabel}</text>'
    )

    if reference is not None:
        ry = sy(reference)
        parts.append(
            f'<line x1="{left}" y1="{ry:.1f}" x2="{left + plot_w}" y2="{ry:.1f}" '
            'stroke="#c0392b" stroke-dasharray="6 4" stroke-width="1.5"/>'
        )

    legend_y = top + 8
    for label, xs, ys, color in series:
        stride = max(1, len(xs) // 2000)
        pts = " ".join(
            f"{sx(xs[i]):.2f},{sy(ys[i]):.2f}" for i in range(0, len(xs), stride)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        lx = left + plot_w + 10
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{legend_y + 4}">{label}</text>')
        legend_y += 18
    if reference is not None and reference_label:
        lx = left + plot_w + 10
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            'stroke="#c0392b" stroke-dasharray="6 4" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{legend_y + 4}">{reference_label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_plots(directory: Path, log, params: AccParameters, label: str) -> None:
    times = log.column("times")
    speeds = log.column("states", 1)
    gaps = log.column("states", 0)
    speed_svg = _svg_line_plot(
        "Follower speed",
        "time [s]",
        "speed [m/s]",
        [(label, times, speeds, "#2c6fbb")],
        reference=params.desired_speed,
        reference_label="target",
    )
    dist_svg = _svg_line_plot(
        "Gap to lead vehicle",
        "time [s]",
        "distance [m]",
        [(label, times, gaps, "#2c6fbb")],
        reference=params.min_distance,
        reference_label="minimum",
    )
    (directory / "speed.svg").write_text(speed_svg)
    (directory / "distance.svg").write_text(dist_svg)


def execute_document(doc: dict, out_dir=None) -> tuple:
    """Validate, run, and write artifacts; returns (exit code, summary dict).

    Artifacts: trajectory.csv, summary.json, and (unless disabled) speed.svg
    and distance.svg in the output directory.
    """
    validate_document(doc)
    config, params, meta = prepare_run(doc)
    output_doc = doc.get("output", {})
    directory = Path(out_dir or output_doc.get("directory", DEFAULT_OUTPUT_DIR))
    plots = bool(output_doc.get("plots", True))
    directory.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    try:
        log = run_simulation(config)
    except SimulationError as exc:
        # Pre-run rejection (e.g. the initial state violates the safe set):
        # a config problem, not a runtime fault.
        raise ConfigError("(run)", str(exc)) from exc
    elapsed = time.perf_counter() - started

    summary = dict(meta)
    summary.update(summarize_log(log, params))
    summary["wall_clock_seconds"] = elapsed
    summary["fallback_steps"] = log.metadata["fallback_steps"]
    summary["final_time"] = log.final_time
    summary["min_distance_required"] = params.min_distance

    if log.failed:
        code = EXIT_FAULT
    elif summary.get("violation", False):
        code = EXIT_VIOLATION
    else:
        code = EXIT_OK
    summary["exit_code"] = code

    write_trajectory_csv(directory / "trajectory.csv", log)
    with open(directory / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if plots and len(log):
        write_plots(directory, log, params, meta["controller"])
    return code, summary


def _apply_overrides(doc: dict, args) -> None:
    if args.controller is not None:
        doc["controller"] = args.controller
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.horizon is not None:
        doc["horizon"] = args.horizon
    if args.out is not None:
        doc.setdefault("output", {})["directory"] = args.out


def cmd_run(args) -> int:
    try:
        doc = load_document(args.config)
        _apply_overrides(doc, args)
        code, summary = execute_document(doc, out_dir=args.out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    outcome = {
        EXIT_OK: "ok",
        EXIT_VIOLATION: "safety violation",
        EXIT_FAULT: "runtime fault",
    }[code]
    where = args.out or doc.get("output", {}).get("directory", DEFAULT_OUTPUT_DIR)
    dist = summary.get("min_distance")
    dist_text = "n/a" if dist is None else f"{dist:.3f} m"
    print(f"{outcome}: min distance {dist_text}; artifacts in {where}")
    return code


def _split_values(text: str) -> list:
    """Split a comma-separated value list, ignoring commas inside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    out = []
    for part in parts:
        part = part.strip()
        if not part:
            continue
        try:
            out.append(json.loads(part))
        except json.JSONDecodeError:
            out.append(part)
    return out


def _set_path(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for key in parts[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[parts[-1]] = value


def _value_slug(value) -> str:
    text = json.dumps(value)
    return "".join(ch if ch.isalnum() or ch in ".-" else "_" for ch in text)[:48]


def _sweep_worker(doc: dict, out_dir: str) -> tuple:
    """One member's (exit code, summary, rejection message or None): a
    rejected config ends that member only, with EXIT_CONFIG."""
    try:
        code, summary = execute_document(doc, out_dir=out_dir)
    except ConfigError as exc:
        return EXIT_CONFIG, {}, str(exc)
    return code, summary, None


def cmd_sweep(args) -> int:
    try:
        base = load_document(args.config)
        _apply_overrides(base, args)
        validate_document(base)
        values = _split_values(args.values)
        if not values:
            raise ConfigError("(values)", "no sweep values given")
        root = Path(
            args.out or base.get("output", {}).get("directory", DEFAULT_OUTPUT_DIR)
        )
        variants = []
        for i, value in enumerate(values):
            doc = copy.deepcopy(base)
            _set_path(doc, args.param, value)
            doc.pop("output", None)
            validate_document(doc)
            sub = root / f"{i:02d}_{args.param.replace('.', '_')}_{_value_slug(value)}"
            variants.append((doc, str(sub)))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    jobs = args.jobs or min(len(variants), os.cpu_count() or 1)
    results = [None] * len(variants)
    if jobs > 1 and len(variants) > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(_sweep_worker, doc, sub): i
                    for i, (doc, sub) in enumerate(variants)
                }
                for fut in concurrent.futures.as_completed(futures):
                    results[futures[fut]] = fut.result()
        except (OSError, concurrent.futures.BrokenExecutor):
            results = [None] * len(variants)
    if any(r is None for r in results):
        for i, (doc, sub) in enumerate(variants):
            if results[i] is None:
                results[i] = _sweep_worker(doc, sub)

    root.mkdir(parents=True, exist_ok=True)
    table_path = root / "sweep_summary.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "param",
                "value",
                "exit_code",
                "failed",
                "violation",
                "min_distance",
                "steady_state_distance",
            ]
        )
        for value, (code, summary, _) in zip(values, results):
            writer.writerow(
                [
                    args.param,
                    json.dumps(value),
                    code,
                    summary.get("failed", ""),
                    summary.get("violation", ""),
                    _fmt(summary["min_distance"]) if "min_distance" in summary else "",
                    _fmt(summary["steady_state_distance"])
                    if "steady_state_distance" in summary
                    else "",
                ]
            )

    worst = max(code for code, _, _ in results)
    for value, (code, summary, rejection) in zip(values, results):
        if rejection is not None:
            print(rejection, file=sys.stderr)
        dist = summary.get("min_distance")
        dist_text = "n/a" if dist is None else f"{dist:.3f}"
        print(f"{args.param}={json.dumps(value)}: exit {code}, min distance {dist_text}")
    print(f"comparison table: {table_path}")
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcbf-sim",
        description="Closed-loop safe-control study runner (single runs and sweeps).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one config and write artifacts")
    run_p.add_argument("config", help="path to a JSON run config")
    run_p.add_argument("--controller", choices=["hocbf", "drcbf", "adrcbf"])
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--horizon", type=float)
    run_p.add_argument("--out", help="output directory (overrides the config)")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="re-run one config across values of a key")
    sweep_p.add_argument("config", help="path to a JSON run config")
    sweep_p.add_argument(
        "--param", required=True, help="dotted config key, e.g. gains.k_multiplier"
    )
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated values (JSON scalars or lists)"
    )
    sweep_p.add_argument("--controller", choices=["hocbf", "drcbf", "adrcbf"])
    sweep_p.add_argument("--seed", type=int)
    sweep_p.add_argument("--horizon", type=float)
    sweep_p.add_argument("--out", help="output root directory")
    sweep_p.add_argument("--jobs", type=int, help="parallel workers (default: auto)")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
