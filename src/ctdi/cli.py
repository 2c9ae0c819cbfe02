"""Command-line front end.

Commands:
  gaussian-duncan   Monte Carlo directed information for the constant Gaussian
                    signal against the closed form 0.5*ln(1+T); the horizons
                    share one dt and replica r's stream, drawn once at the
                    longest horizon.  A zero horizon is the empty prefix of
                    each path: 0 with stderr 0 (nan with one replica).
  poisson-rate      Monte Carlo feedback-rate sweep over binary input weights
                    against the analytic rate; every weight is checked before
                    any replica runs.  A horizon may expect at most 10**6
                    events, and levels more than about 1e90 apart or with a
                    mean wait below the float spacing of the horizon are refused.
  poisson-capacity  Optimized binary rate as a function of the second level,
                    by Brent's method on the weight; every level is checked
                    first, and levels more than about 1e90 apart are refused.
  di-discrete       Property sweeps of the exact discrete engine
                    (conservation, sandwich, grouping monotonicity, no-feedback);
                    the conservation and no-feedback joints are evaluated in
                    stacks of one shape, and a failure names the first
                    violating instance in draw order.

Configuration is a flat key=value file with comma-separated lists; every key
can also be set by a flag of the same name (flag wins).  All commands write a
CSV (or report) plus a manifest echoing the resolved configuration, and runs
are byte-reproducible given the same seed.  Exit status: 0 on pass, 1 when a
scientific tolerance is violated, 2 on usage or configuration errors, 3 on
an internal numerical failure (quadrature that does not converge, or a tail
bound that is never met).  Once the output directory exists, the manifest
records the exit status, and for status 3 the one-line reason.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import binary_rate, capacity_curve
from .core import FinitePmf, RngSpec, write_csv
from .gaussian import closed_form_di_constant_signal, constant_signal_model, directed_info_gaussian_sweep
from .partition_di import (
    _STATE_CAP,
    Grouping,
    grouped_directed_info,
    random_joint,
    random_no_feedback_joint,
    stream_information,
)
from .poisson import PoissonFeedbackModel, default_burn_in, di_rate_mc

__all__ = ["main", "ExperimentConfig", "cmd_gaussian_duncan", "cmd_poisson_rate",
           "cmd_poisson_capacity", "cmd_di_discrete"]


class CliError(Exception):
    """Bad usage or configuration; maps to exit status 2."""


def _parse_float_list(text):
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise CliError(f"cannot parse list value {text!r}") from exc


def _parse_float(text):
    try:
        return float(text)
    except ValueError as exc:
        raise CliError(f"cannot parse number {text!r}") from exc


def _parse_int(text):
    try:
        return int(str(text), 10)
    except ValueError as exc:
        raise CliError(f"cannot parse integer {text!r}") from exc


_TOL_HELP = ("relative tolerance of the search on p: the search stops once the bracket "
             "is narrower than 2*tol*min(m, 1 - m), m its midpoint (default 1e-6)")

# the length of every joint the grouping-chains suite of di-discrete draws
_CHAIN_N = 4


@dataclass
class ExperimentConfig:
    """Fully resolved run description: parameters plus seed, output dir, and jobs."""

    command: str
    params: dict
    seed: int
    out_dir: Path
    jobs: int


def _load_config_file(path: str) -> dict:
    text = Path(path).read_text()
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve_config(command: str, args: argparse.Namespace) -> ExperimentConfig:
    _, replica_key, schema = COMMANDS[command]
    raw = {}
    if args.config:
        raw.update(_load_config_file(args.config))
    unknown = set(raw) - set(schema)
    if unknown:
        raise CliError(f"unknown config keys for {command}: {', '.join(sorted(unknown))}")
    params = {}
    for key, (parse, default, _) in schema.items():
        text = getattr(args, key, None)  # the flag wins over the file
        text = raw.get(key) if text is None else text
        params[key] = default if text is None else parse(text)
    if args.replicas is not None:
        if replica_key is None:
            raise CliError(f"{command} has no replication knob for --replicas")
        params[replica_key] = _parse_int(args.replicas)
    jobs = _parse_int(args.jobs if args.jobs is not None else os.environ.get("CTDI_JOBS", "1"))
    if jobs < 1:
        raise CliError(f"jobs must be at least 1, got {jobs}")
    return ExperimentConfig(
        command=command,
        params=params,
        seed=_parse_int(args.seed) if args.seed is not None else 0,
        out_dir=Path(args.out) if args.out else Path.cwd(),
        jobs=jobs,
    )


def _check_params(cfg: ExperimentConfig) -> None:
    """Reject an empty value list, which would run nothing, an integer below its
    smallest value, and discrete sizes whose largest joint is over the enumeration cap."""
    for key, (_, _, minimum) in COMMANDS[cfg.command][2].items():
        value = cfg.params[key]
        if isinstance(value, list) and not value:
            raise CliError(f"{key} needs at least one value")
        if minimum is not None and value < minimum:
            raise CliError(f"{key} must be at least {minimum}, got {value}")
    if "max_alphabet" in cfg.params:
        alphabet, max_n = cfg.params["max_alphabet"], cfg.params["max_n"]
        # with an alphabet of at least 2, an exponent past the cap's bit length
        # is over the cap, so the power is formed only for small exponents
        exponent = 2 * max(max_n, _CHAIN_N)
        if exponent > _STATE_CAP.bit_length() or alphabet ** exponent > _STATE_CAP:
            raise CliError(f"max_alphabet {alphabet} and max_n {max_n} allow joints of up to "
                           f"{alphabet}**{exponent} cells (n = max(max_n, {_CHAIN_N}) steps), "
                           f"more than the enumeration cap {_STATE_CAP}")


def _finish(cfg: ExperimentConfig, started_iso: str, t0: float, status: int,
            reason: str | None) -> None:
    manifest = {"command": cfg.command, "version": __version__,
                "config": {**dict(sorted(cfg.params.items())), "seed": cfg.seed,
                           "out": str(cfg.out_dir), "jobs": cfg.jobs},
                "started_utc": started_iso, "wall_clock_seconds": time.perf_counter() - t0,
                "exit_status": status}
    if reason is not None:
        manifest["exit_reason"] = reason
    path = cfg.out_dir / f"{cfg.command.replace('-', '_')}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_gaussian_duncan(cfg: ExperimentConfig) -> int:
    horizons = cfg.params["t_values"]
    # every horizon is validated before any replica runs
    models = [constant_signal_model(t, cfg.params["dt"]) for t in horizons]
    estimates = directed_info_gaussian_sweep(models, RngSpec(cfg.seed), cfg.params["replicas"],
                                             jobs=cfg.jobs)
    rows = []
    ok = True
    for horizon, est in zip(horizons, estimates):
        closed = closed_form_di_constant_signal(horizon)
        abs_error = abs(est.value - closed)
        ok = ok and abs_error <= max(0.01 * closed, 3.0 * est.stderr)
        rows.append((horizon, est.value, est.stderr, closed, abs_error))
    write_csv(cfg.out_dir / "gaussian_duncan.csv",
              ["T", "mc_di", "stderr", "closed_form", "abs_error"], rows)
    return 0 if ok else 1


def cmd_poisson_rate(cfg: ExperimentConfig) -> int:
    lam1, lam2, horizon = cfg.params["lambda1"], cfg.params["lambda2"], cfg.params["horizon"]
    # every weight, its model and its burn-in are validated before any replica runs
    legs = []
    for p in cfg.params["p_values"]:
        analytic = binary_rate(p, lam1, lam2)
        pmf = FinitePmf(np.array([lam1, lam2]), np.array([p, 1.0 - p]))
        model = PoissonFeedbackModel(pmf, horizon)
        burn_in = default_burn_in(pmf)
        if burn_in >= horizon:
            raise CliError(f"horizon {horizon:g} is not longer than the burn-in {burn_in:g} "
                           f"at p = {p:g}")
        legs.append((p, analytic, model))
    rows = []
    ok = True
    for p, analytic, model in legs:
        est = di_rate_mc(model, RngSpec(cfg.seed), replicas=cfg.params["replicas"],
                         jobs=cfg.jobs)
        ok = ok and abs(est.value - analytic) <= max(0.02 * analytic, 3.0 * est.stderr)
        rows.append((p, analytic, est.value, est.stderr))
    write_csv(cfg.out_dir / "poisson_rate.csv", ["p", "analytic", "mc", "stderr"], rows)
    return 0 if ok else 1


def cmd_poisson_capacity(cfg: ExperimentConfig) -> int:
    lam1 = cfg.params["lambda1"]
    points = capacity_curve(lam1, cfg.params["lambda2_values"], tol=cfg.params["tol"])
    rows = [(pt.lambda2, pt.p_star, pt.rate_star) for pt in points]
    ok = all(pt.rate_star <= 1e-12 for pt in points if pt.lambda2 in (0.0, lam1))
    write_csv(cfg.out_dir / "poisson_capacity.csv", ["lambda2", "p_star", "rate_star"], rows)
    return 0 if ok else 1


def _alphabet_sizes(gen, n, max_alphabet):
    """The X then the Y alphabet sizes of a length-n joint, each in 2..max_alphabet."""
    xs = tuple(int(s) for s in gen.integers(2, max_alphabet + 1, size=n))
    ys = tuple(int(s) for s in gen.integers(2, max_alphabet + 1, size=n))
    return xs, ys


def _random_sizes(gen, max_n, max_alphabet):
    return _alphabet_sizes(gen, int(gen.integers(1, max_n + 1)), max_alphabet)


def _joints(spec, stream, draw, count, max_n, max_alphabet):
    """The count joints of one suite, drawn lazily from replica stream `stream`."""
    gen = spec.stream(stream)
    for _ in range(count):
        yield draw(gen, *_random_sizes(gen, max_n, max_alphabet))


def _drawn_joint(spec, stream, draw, index, max_n, max_alphabet):
    """Joint `index` of a suite, by replaying its draws up to it."""
    for joint in _joints(spec, stream, draw, index + 1, max_n, max_alphabet):
        pass
    return joint


def _first(flags):
    """Index of the first True in flags, or None."""
    return int(np.argmax(flags)) if flags.any() else None


def _relent_mi(joint) -> float:
    """I(X^n; Y^n) as sum p ln(p / (p_x p_y)) over the cells above 1e-15.

    The relative-entropy form shares no code with the engine's entropy walk,
    so the one-block check compares two independent computations.
    """
    p = joint.probs.reshape(math.prod(joint.x_sizes), -1)
    cells = p > 1e-15
    # one cell-sized temporary: the chain suite's largest joints have 6,561 cells
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p / p.sum(axis=1, keepdims=True)
        terms /= p.sum(axis=0, keepdims=True)
        np.log(terms, out=terms, where=cells)
        terms *= p
    return float(terms.sum(where=cells))


def cmd_di_discrete(cfg: ExperimentConfig) -> int:
    spec = RngSpec(cfg.seed)
    instances = cfg.params["instances"]
    chains = cfg.params["chains"]
    max_n = cfg.params["max_n"]
    max_alphabet = cfg.params["max_alphabet"]
    lines = []
    violation = None

    # conservation and sandwich: the joints are drawn in order and walked in
    # stacks of one shape; the checks run once every value is known, and the
    # first violating instance in draw order is drawn again for the report.
    # DI, reverse DI and MI each start from the joint, so the residual
    # compares three independent values.
    di, rdi, mi = stream_information(
        _joints(spec, 0, random_joint, instances, max_n, max_alphabet))
    resid = np.abs(di + rdi - mi)  # the expression of conservation_residual
    lines.append(f"conservation: {instances} instances, max |residual| = {max(0.0, resid.max()):.3e} (tolerance 1e-09)")
    lines.append(f"sandwich: max(-di) = {max(0.0, (-di).max()):.3e}, max(di - mi) = {(di - mi).max():.3e} (tolerance 1e-12)")
    first = _first((resid >= 1e-9) | (di < -1e-12) | (di - mi > 1e-12))
    if first is not None:
        violation = ("conservation/sandwich", first,
                     _drawn_joint(spec, 0, random_joint, first, max_n, max_alphabet))

    # grouping chains, one joint at a time: their joints spread over up to
    # 256 shapes at the default alphabets, too many for stacks to pay.  Each
    # chain refines the one block by the shuffled cuts, one cut at a time.
    gen = spec.stream(1)
    max_increase = -np.inf
    for i in range(chains):
        joint = random_joint(gen, *_alphabet_sizes(gen, _CHAIN_N, max_alphabet))
        cuts = list(range(1, _CHAIN_N))
        gen.shuffle(cuts)
        chain = [Grouping(tuple(sorted(cuts[:k] + [_CHAIN_N]))) for k in range(_CHAIN_N)]
        vals = [grouped_directed_info(joint, g) for g in chain]
        if abs(vals[0] - _relent_mi(joint)) > 1e-10:
            violation = violation or ("grouping one-block vs mi", i, joint)
        for a, b in zip(vals, vals[1:]):
            max_increase = max(max_increase, b - a)
            if violation is None and b - a > 1e-12:
                violation = ("grouping monotonicity", i, joint)
    lines.append(f"grouping monotonicity: {chains} chains of length {_CHAIN_N}, max increase under refinement = {max_increase:.3e} (tolerance 1e-12)")

    # no-feedback: stacked as above, without the reverse walk
    nfb = max(1, instances // 5)
    di, _, mi = stream_information(
        _joints(spec, 2, random_no_feedback_joint, nfb, max_n, max_alphabet), reverse=False)
    gap = np.abs(di - mi)
    first = _first(gap >= 1e-9)
    if violation is None and first is not None:
        violation = ("no-feedback di == mi", first,
                     _drawn_joint(spec, 2, random_no_feedback_joint, first, max_n, max_alphabet))
    lines.append(f"no-feedback: {nfb} instances, max |di - mi| = {max(0.0, gap.max()):.3e} (tolerance 1e-09)")

    ok = violation is None
    lines.append("result: " + ("PASS" if ok else f"FAIL ({violation[0]}, instance {violation[1]})"))
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    (cfg.out_dir / "di_discrete_report.txt").write_text(report)
    if violation is not None:
        (cfg.out_dir / "di_discrete_violation.json").write_text(
            json.dumps({"suite": violation[0], "instance": violation[1],
                        "joint": json.loads(violation[2].to_json())}, indent=2) + "\n")
    return 0 if ok else 1


# each command: its runner, the key --replicas sets (None: the flag is refused)
# and its parameters, key -> (parser, default, smallest allowed value or None)
COMMANDS = {
    "gaussian-duncan": (cmd_gaussian_duncan, "replicas", {
        "t_values": (_parse_float_list, [0.5, 1.0, 2.0], None),
        "dt": (_parse_float, 1e-3, None),
        "replicas": (_parse_int, 100_000, 1),
    }),
    "poisson-rate": (cmd_poisson_rate, "replicas", {
        "lambda1": (_parse_float, 1.0, None),
        "lambda2": (_parse_float, 2.0, None),
        "p_values": (_parse_float_list, [round(0.1 * k, 1) for k in range(1, 10)], None),
        "horizon": (_parse_float, 1e4, None),
        "replicas": (_parse_int, 6, 1),
    }),
    "poisson-capacity": (cmd_poisson_capacity, None, {
        "lambda1": (_parse_float, 1.0, None),
        "lambda2_values": (_parse_float_list, [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0], None),
        "tol": (_parse_float, 1e-6, None),
    }),
    "di-discrete": (cmd_di_discrete, "instances", {
        "instances": (_parse_int, 1000, 1),
        "chains": (_parse_int, 200, 1),
        "max_n": (_parse_int, 3, 1),
        "max_alphabet": (_parse_int, 3, 2),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctdi", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, schema) in COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="flat key=value parameter file")
        p.add_argument("--seed", help="master seed (default 0)")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--replicas", help="replication count override")
        p.add_argument("--jobs", help="worker processes (default: CTDI_JOBS or 1)")
        # --replicas doubles as the schema key of the same name
        for key in (k for k in schema if k != "replicas"):
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           help=_TOL_HELP if key == "tol" else f"override config key {key}")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code != 0 else 0
    started = None
    message = None
    try:
        cfg = _resolve_config(args.command, args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        t0 = time.perf_counter()
        _check_params(cfg)
        status = COMMANDS[args.command][0](cfg)
    except (CliError, ValueError, OSError) as exc:
        status, message = 2, str(exc)
    except RuntimeError as exc:
        status, message = 3, f"internal numerical failure: {exc}"
    if message is not None:
        print(f"error: {message}", file=sys.stderr)
    if started is not None:
        try:
            _finish(cfg, started, t0, status, message if status == 3 else None)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
