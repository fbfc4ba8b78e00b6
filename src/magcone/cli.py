"""Command-line front end: kernel evaluation, spectrum tools, verification sweeps.

Subcommands
    kernel    evaluate heat / schrodinger / halfwave kernels (series, closed,
              spectral, or both) and append CSV rows
    spectrum  eigenvalue table, expansion of sampled data, multiplier evolution
    verify    run certification sweeps, write SweepReport JSON + sample CSV

Configuration is a flat key = value text file (see README); all angles are
radians.  Exit codes: 0 ok, 1 failed sweep, 2 config/usage error,
3 singular time, 4 nonconvergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import kernels as _kernels
from . import lpbesov as _lpbesov
from . import verify as _verify
from .errors import ConfigError, MagconeError, NonconvergenceError, SingularTimeError
from .geometry import ConeConfig, make_point
from .spectrum import (
    ModeWindow,
    QuadratureSpec,
    SpectralField,
    _require_phase_digits,
    eigenvalue_table,
    expand,
    fractional_flow_multiplier,
    heat_multiplier,
    load_field,
    log_norm_sq,
    mode_rows,
    save_field,
    schrodinger_multiplier,
    spectral_apply,
    write_csv,
)

EXIT_OK = 0
EXIT_FAILED_SWEEP = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_NONCONVERGENCE = 4

_DEFAULTS = {
    "sigma": 1.0,
    "b0": 1.0,
    "alpha": 0.25,
    "window_k": 24,
    "window_m": 24,
    **asdict(QuadratureSpec()),  # n_radial, n_theta
    **asdict(_verify.SweepGrids()),  # n_time, n_radius, n_angle
    "seed": _verify._SEED,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration shared by all subcommands."""

    cone: ConeConfig
    window: ModeWindow
    quad: QuadratureSpec
    grids: _verify.SweepGrids
    seed: int


def parse_config_file(path: str | None) -> dict:
    values = dict(_DEFAULTS)
    if path is None:
        return values
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in values:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        val = val.strip()
        try:
            number = float(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
        if not math.isfinite(number):
            raise ConfigError(f"{path}:{lineno}: {key} must be finite, got {val!r}")
        if isinstance(_DEFAULTS[key], int):
            if not number.is_integer():
                raise ConfigError(f"{path}:{lineno}: {key} must be an integer, got {val!r}")
            number = int(number)
        if key == "seed" and number < 0:
            raise ConfigError(f"{path}:{lineno}: seed must be >= 0, got {val!r}")
        values[key] = number
    return values


def build_run_config(args) -> RunConfig:
    values = parse_config_file(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        values["seed"] = args.seed
    cone = ConeConfig(values["sigma"], values["b0"], values["alpha"])
    return RunConfig(
        cone=cone,
        window=ModeWindow(int(values["window_k"]), int(values["window_m"])),
        quad=QuadratureSpec(int(values["n_radial"]), int(values["n_theta"])),
        grids=_verify.SweepGrids(int(values["n_time"]), int(values["n_radius"]), int(values["n_angle"])),
        seed=int(values["seed"]),
    )


def _parse_point(cfg: ConeConfig, text: str):
    try:
        r_s, th_s = text.split(",")
        return make_point(cfg, float(r_s), float(th_s))
    except ValueError as exc:
        raise ConfigError(f"point must be 'r,theta', got {text!r}") from exc


_KERNEL_CSV_HEADER = ("t", "r1", "th1", "r2", "th2", "re", "im", "largest_term", "k_max_used")


def _require_finite(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value}")


def _emit(args, payload, lines) -> None:
    """Print the payload as one JSON document under --json, the text lines otherwise."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _pointwise(kv) -> tuple:
    """A series or closed-form KernelValue as (value, largest_term, k_max_used): the largest |k| the series summed, 0 for a closed form."""
    return kv.value, kv.largest_term, max(-kv.k_range[0], kv.k_range[1])


def _spectral(multiplier, p, q, rc: RunConfig) -> tuple:
    """The spectral kernel summed over the config window, as (value, |value|, k_max_used)."""
    val = _kernels.spectral_kernel(multiplier, p, q, rc.cone, rc.window)
    return val, abs(val), rc.window.k_max


def _halfwave(args, rc: RunConfig, p, q) -> tuple:
    """halfwave_kernel_grid at the pair, on the config window grown to the shell, as (value, |value|, k_max_used)."""
    shell = _lpbesov.shell_window(args.j, rc.cone)
    window = ModeWindow(max(rc.window.k_max, shell.k_max), max(rc.window.m_max, shell.m_max))
    r_nodes = np.array([p.r]) if abs(p.r - q.r) < 1e-15 else np.array([p.r, q.r])
    grid = _kernels.halfwave_kernel_grid(args.j, args.t, r_nodes, np.array([p.theta - q.theta]), rc.cone, window)
    val = complex(grid[0, 0, -1])
    return val, abs(val), window.k_max


# (kind, --repr) -> (args, run config, p, q) -> (value, largest_term, k_max_used)
_KERNELS = {
    ("heat", "series"): lambda args, rc, p, q: _pointwise(_kernels.heat_kernel_series(args.t, p, q, rc.cone)),
    ("heat", "closed"): lambda args, rc, p, q: _pointwise(_kernels.heat_kernel_closed(args.t, p, q, rc.cone)),
    ("heat", "spectral"): lambda args, rc, p, q: _spectral(heat_multiplier(args.t), p, q, rc),
    ("schrodinger", "series"):
        lambda args, rc, p, q: _pointwise(_kernels.schrodinger_kernel_series(args.t, p, q, rc.cone)),
    ("schrodinger", "closed"):
        lambda args, rc, p, q: _pointwise(_kernels.schrodinger_kernel_closed(args.t, p, q, rc.cone)),
    ("schrodinger", "spectral"): lambda args, rc, p, q: _spectral(schrodinger_multiplier(args.t), p, q, rc),
    ("halfwave", "spectral"): _halfwave,
}


def cmd_kernel(args) -> int:
    rep = args.repr or ("spectral" if args.kind == "halfwave" else "series")
    reprs = ["series", "closed"] if rep == "both" else [rep]
    for name in reprs:
        if (args.kind, name) not in _KERNELS:
            raise ConfigError(f"kernel {args.kind} has no --repr {rep}; it takes "
                              + ", ".join(r for k, r in _KERNELS if k == args.kind))
    _require_finite(args, "t")
    rc = build_run_config(args)
    p = _parse_point(rc.cone, args.p)
    q = _parse_point(rc.cone, args.q)
    results = {name: _KERNELS[args.kind, name](args, rc, p, q) for name in reprs}

    rows = [(args.t, p.r, p.theta, q.r, q.theta, val.real, val.imag, largest, k_used)
            for val, largest, k_used in results.values()]
    write_csv(Path(args.out) / "kernel.csv", _KERNEL_CSV_HEADER, rows, f"{args.kind} kernel", append=True)

    payload = {
        "kind": args.kind,
        "t": args.t,
        "p": [p.r, p.theta],
        "q": [q.r, q.theta],
        "values": {name: {"re": val.real, "im": val.imag, "largest_term": largest}
                   for name, (val, largest, _) in results.items()},
    }
    lines = [f"{args.kind} {name}: {val.real:+.12e} {val.imag:+.12e}i   largest_term {largest:.3e}"
             for name, (val, largest, _) in results.items()]
    if len(results) == 2:
        (v1, *_), (v2, *_) = results["series"], results["closed"]
        payload["relative_difference"] = abs(v1 - v2) / max(abs(v1), 1e-300)
        lines.append(f"series/closed relative difference: {payload['relative_difference']:.3e}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    _require_finite(args, "t", "nu")
    rc = build_run_config(args)
    cfg = rc.cone
    if args.action == "table":
        with np.errstate(over="ignore"):  # an overflowing norm is refused by write_csv (exit 4)
            nsq = np.exp(log_norm_sq(cfg, rc.window.k_values[:, None], rc.window.m_values))
        rows = mode_rows(rc.window, eigenvalue_table(cfg, rc.window), nsq)
        out = write_csv(Path(args.out) / "spectrum_table.csv", ("k", "m", "lambda", "norm_sq"), rows,
                        "spectrum table")
        _emit(args, {"written": str(out), "rows": len(rows)}, [f"wrote {out} ({len(rows)} rows)"])
        return EXIT_OK

    if args.action == "expand":
        if args.input is None:
            raise ConfigError("spectrum expand needs --input CSV of samples r,theta,re,im")
        field = _expand_samples(_load_samples(args.input), rc)
        out = Path(args.out) / "field.csv"
    else:  # evolve
        if args.input is None:
            raise ConfigError("spectrum evolve needs --input field CSV")
        _require_field_cone(args.input, cfg)
        field = load_field(args.input)
        field = spectral_apply(_named_multiplier(args), field, cfg)
        out = Path(args.out) / "field_evolved.csv"
    save_field(field, cfg, rc.quad, out)
    _emit(args, {"written": str(out)}, [f"wrote {out}"])
    return EXIT_OK


def _halfwave_multiplier(j: int, t: float):
    """phi(2^-j sqrt(H)) e^{it sqrt(H)}, from a named factory so that spectral_apply's refusal can name it.

    A finite phase t sqrt(lam) of 2^52 or more on a mode of the shell raises DomainError.
    """
    cutoff = _lpbesov.make_cutoff()

    def multiplier(lam):
        weights = cutoff.shell_weights(j, lam)
        _require_phase_digits("spectral multiplier _halfwave_multiplier", t * np.sqrt(lam[weights != 0.0]))
        return weights * np.exp(1j * t * np.sqrt(lam))
    return multiplier


def _named_multiplier(args):
    name = args.mult
    if name == "heat":
        return heat_multiplier(args.t)
    if name == "schrodinger":
        return schrodinger_multiplier(args.t)
    if name == "halfwave":
        return _halfwave_multiplier(args.j, args.t)
    return fractional_flow_multiplier(args.nu, args.t)  # --mult's choices leave only "fractional"


def _require_field_cone(path: str, cfg: ConeConfig) -> None:
    """Refuse a field whose JSON sidecar (save_field's) names another cone than cfg or does not parse.

    A field CSV without a sidecar passes.
    """
    sidecar = Path(path).with_suffix(".json")
    if not sidecar.exists():
        return
    try:
        cone = json.loads(sidecar.read_text(encoding="utf-8"))["cone"]
        saved = (cone["sigma"], cone["b0"], cone["alpha"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{sidecar}: not a field sidecar with a cone ({type(exc).__name__}: {exc})") from exc
    if saved != (cfg.sigma, cfg.b0, cfg.alpha):
        raise ConfigError(f"{path} was saved on the cone sigma={saved[0]}, b0={saved[1]}, alpha={saved[2]}, "
                          f"not the config's sigma={cfg.sigma}, b0={cfg.b0}, alpha={cfg.alpha}")


def _load_samples(path: str):
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").strip().splitlines(), 1):
        if lineno == 1 and line.strip() == "r,theta,re,im":
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"{path}:{lineno}: expected r,theta,re,im")
        try:
            row = tuple(float(x) for x in parts)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad number") from exc
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}:{lineno}: samples must be finite")
        if row[0] < 0.0:
            raise ConfigError(f"{path}:{lineno}: sample radius r must be >= 0, got {parts[0]!r}")
        rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: empty sample file")
    return np.asarray(rows)


def _expand_samples(samples: np.ndarray, rc: RunConfig) -> SpectralField:
    """Expand scattered samples by nearest-sample lookup on the quadrature grid.

    Nearness is Euclidean in (r, theta) with theta periodic: one k-d tree
    over the samples, with theta canonicalized into [0, period), serves the
    nodes of every mode.
    """
    from scipy.spatial import cKDTree  # about 0.1 s to import; only this command needs it

    period = rc.cone.period
    theta = np.mod(samples[:, 1], period)
    theta[theta >= period] = 0.0  # np.mod rounds a tiny negative angle up to the period
    tree = cKDTree(np.column_stack([samples[:, 0], theta]), boxsize=[0.0, period])
    vals = samples[:, 2] + 1j * samples[:, 3]

    def f(r, theta):
        rr, tt = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
        _, nearest = tree.query(np.column_stack([rr.ravel(), tt.ravel()]))  # the tree wraps theta
        return vals[nearest].reshape(rr.shape)

    return expand(f, rc.window, rc.cone, rc.quad)


def cmd_verify(args) -> int:
    rc = build_run_config(args)
    reports = _verify.run_suite(args.suite, rc.cone, rc.grids,
                                seed=rc.seed, halfwave_j=args.j, gamma=args.gamma)
    for rep in reports:  # a run that would refuse one report writes none
        _verify.require_finite_report(rep)
    for rep in reports:
        _verify.write_report(rep, args.out)
    _emit(args, [rep.json_dict() for rep in reports],
          [f"[{'pass' if rep.passed else 'FAIL'}] {rep.name}: constant={rep.empirical_constant:.6g} "
           f"ratio={rep.refinement_ratio:.4f} ({rep.runtime_ms} ms)" for rep in reports])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED_SWEEP


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="magcone", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=None, help="flat key = value config file")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--out", default="out", help="output directory for CSV/JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate a propagator kernel")
    k.add_argument("kind", choices=["heat", "schrodinger", "halfwave"])
    k.add_argument("--repr", default=None, choices=["series", "closed", "spectral", "both"],
                   help="default: series for heat and schrodinger, spectral for halfwave")
    k.add_argument("--t", type=float, required=True)
    k.add_argument("--p", required=True, help="point as r,theta")
    k.add_argument("--q", required=True, help="point as r,theta")
    k.add_argument("--j", type=int, default=_verify._HALFWAVE_J, help="dyadic level for halfwave")
    k.set_defaults(func=cmd_kernel)

    s = sub.add_parser("spectrum", help="eigenvalue table / expand / evolve")
    s.add_argument("action", choices=["table", "expand", "evolve"])
    s.add_argument("--input", default=None, help="input CSV")
    s.add_argument("--mult", default="heat", choices=["heat", "schrodinger", "halfwave", "fractional"])
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--j", type=int, default=_verify._HALFWAVE_J)
    s.add_argument("--nu", type=float, default=0.5)
    s.set_defaults(func=cmd_spectrum)

    v = sub.add_parser("verify", help="run certification sweeps")
    v.add_argument("suite", help=f"one of {', '.join(_verify.SUITE_NAMES)} or 'all'")
    v.add_argument("--gamma", type=float, default=None, help="weight exponent for 'weighted'")
    v.add_argument("--j", type=int, default=_verify._HALFWAVE_J, help="dyadic level for 'halfwave'")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SingularTimeError as exc:
        print(f"singular time: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ConfigError, MagconeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
