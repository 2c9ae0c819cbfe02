"""Benchmark of the ctdi command-line workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gaussian --seed 0 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout.  A run repeats
passes of the workload for about ``--seconds`` seconds; pass i runs at
master seed ``seed + i * 2**32`` (pass 0 at the given seed), so the inputs of
every pass follow from the seed.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics: untraced and traced passes then alternate at the same
seeds, and the traced ones run with the tracer installed.  The line before
it is the run's record (machine, versions, output digests, failed checks),
which is also written under ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH_FILE = ROOT / "BENCHMARK.json"

# full: the measured runs; smoke: a tiny size for the bench's own tests
MIN_SETUPS = {"full": 5, "smoke": 1}
MIN_PASSES = {"full": 3, "smoke": 1}
MIN_TRACED_PAIRS = {"full": 2, "smoke": 1}


def pass_seed(seed: int, index: int) -> int:
    return seed + (index << 32)


def _no_span(name):
    return contextlib.nullcontext()


def machine_record() -> dict:
    import numpy

    revision = None
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        # only this checkout's own repository, not one that happens to enclose it
        if rev.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            revision = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "ctdi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure_setup(workload: str, seed: int, size: str) -> float:
    """Wall clock of a fresh interpreter that imports ctdi and builds the workload's models."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(probe), workload, str(seed), size],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return elapsed


def run_untraced(wl, seed, refs, seconds, size):
    """Passes until the next would end after `seconds`; a set-up probe precedes each.

    Interleaving the probes with the passes makes set-up time sample the same
    stretch of machine time as the passes, not a burst at the start.
    """
    passes, setup_times = [], []
    start = time.perf_counter()
    while True:
        setup_times.append(measure_setup(wl.name, seed, size))
        passes.append(wl.run_pass(pass_seed(seed, len(passes)), refs, _no_span))
        typical = statistics.median(p.wall_s for p in passes) + statistics.median(setup_times)
        if len(passes) >= MIN_PASSES[size] and time.perf_counter() - start + typical > seconds:
            break
    while len(setup_times) < MIN_SETUPS[size]:
        setup_times.append(measure_setup(wl.name, seed, size))
    return passes, setup_times


def run_traced(wl, seed, refs, seconds, size):
    """Plain and traced passes alternate at the same pass seeds."""
    pairs = []
    start = time.perf_counter()
    while True:
        s = pass_seed(seed, len(pairs))
        plain = wl.run_pass(s, refs, _no_span)
        with Tracer() as tracer:
            traced = wl.run_pass(s, refs, tracer.span)
        # tracing must not change a single output byte
        traced.checks.expect(traced.outputs == plain.outputs,
                             "traced pass writes the same outputs as the untraced pass")
        pairs.append((plain, traced, tracer))
        typical = statistics.median([a.wall_s + b.wall_s for a, b, _ in pairs])
        if len(pairs) >= MIN_TRACED_PAIRS[size] and time.perf_counter() - start + typical > seconds:
            return pairs


def end_to_end_metrics(wl, passes, setup_times) -> dict:
    cli_s = statistics.median([p.cli_s for p in passes])
    if wl.monte_carlo:
        # time x stderr^2 projected to stderr eps, stderr^2 pooled over passes and rows
        var = statistics.fmean(s * s for p in passes for _, s in p.estimates.values())
        tta = cli_s * var / wl.eps ** 2
    else:
        tta = cli_s  # exact output: the stated accuracy is reached by the call itself
    return {
        "wall_s": (statistics.median([p.wall_s for p in passes]), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "tta_s": (tta, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(pairs, names) -> dict:
    """Counts from the first traced pass (exact); times are medians over traced passes."""
    first = pairs[0][2]
    tracers = [t for _, _, t in pairs]
    out = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            value = (statistics.median([b.wall_s for _, b, _ in pairs])
                     - statistics.median([a.wall_s for a, _, _ in pairs]))
        elif name == "gaussian.echo_leg_s":
            value = statistics.median([t.total_s["gaussian.echo_leg"] for t in tracers])
        elif name == "cli.output_bytes":
            value = pairs[0][1].output_bytes
        elif name == "quadrature.final_mesh_share":
            points = first.counts["quadrature.composite_simpson.points"]
            value = first.counts["quadrature.final_mesh_points"] / points if points else 0.0
        elif name == "capacity.rate_evals_per_opt":
            opts = first.calls["capacity.optimize_binary"]
            value = first.counts["capacity.binary_rate.calls_in_optimizer"] / opts if opts else 0.0
        elif name.endswith(".self_s") and name[:-len(".self_s")] in first.wrapped:
            value = statistics.median([t.self_s[name[:-len(".self_s")]] for t in tracers])
        elif name.endswith(".calls") and name[:-len(".calls")] in first.wrapped:
            value = first.calls[name[:-len(".calls")]]
        elif name in first.COUNTERS:
            value = first.counts[name]
        else:
            raise KeyError(f"BENCHMARK.json names a per-layer metric the tracer does not make: {name}")
        out[name] = (float(value) if unit == "s" else value, unit)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")
    return args


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, record)."""
    spec = json.loads(BENCH_FILE.read_text())
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.size, OUT / args.size)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": machine_record()}
    refs = wl.references()
    if args.trace:
        pairs = run_traced(wl, args.seed, refs, args.seconds, args.size)
        plain = [pair[0] for pair in pairs]
        passes = [p for pair in pairs for p in pair[:2]]
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = per_layer_metrics(pairs, names)
        record["spans_first_traced_pass"] = pairs[0][2].spans
    else:
        passes, setup_times = run_untraced(wl, args.seed, refs, args.seconds, args.size)
        plain = passes
        metrics = end_to_end_metrics(wl, passes, setup_times)
        record["setup_s_each"] = setup_times
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    checks = [p.checks for p in passes]
    if wl.monte_carlo:
        checks.append(workloads.pooled_checks(wl, plain, refs))
    attempted = sum(c.attempted for c in checks)
    failures = [label for c in checks for label in c.failures]
    record.update({
        "passes": len(passes),
        "wall_s_each": [p.wall_s for p in passes],
        "outputs_first_pass": passes[0].outputs,
        "failed_checks": failures,
        "fail_rate": len(failures) / attempted,
    })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in names},
    }
    return result, record


def import_program() -> str | None:
    """Put the checkout's src/ first on sys.path and import ctdi; returns an error or None."""
    if not (SRC / "ctdi" / "__init__.py").is_file() or not BENCH_FILE.is_file():
        return (f"no ctdi sources under {SRC} or no {BENCH_FILE.name}; "
                "run from the root of a ctdi checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ctdi

    if Path(ctdi.__file__).resolve().parent != SRC / "ctdi":
        return f"imported ctdi from {ctdi.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, record = run(args)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    path.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"record": record["machine"], "failed_checks": record["failed_checks"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
