#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of rootlift.

Each workload runs as a closed loop: one process and one caller, and each
operation is one ``rootlift.cli.run_scenario(config, out_dir)`` call made
after the previous one returns.  Passes over the workload's operations
repeat, in a seed-shuffled order, while the next pass should end within
half a pass of ``--seconds`` (at least two passes).  Every verdict is
checked against the answer its construction implies, and each operation's
``verdict.json`` must be byte-identical in every pass.

``--trace 0`` reports the end-to-end metrics with tracing off; their times
are scaled to a nominal host speed (see ``hostspeed``).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, with ``trace_overhead_ratio`` = traced / untraced pass time.
The last line of standard output is the JSON result.

    python3 perfbench/run.py --workload torus-grid --seed 1 --seconds 30 --trace 0
"""

import time

import common

common.pin_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5      # fresh interpreters timed for setup_s
MIN_PASSES = 2        # verdict bytes are compared between passes
REF_NOMINAL_S = 0.006  # a hostspeed reference unit's time at the nominal host speed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup() -> list[tuple[float, float]]:
    """Set-up time of fresh interpreters, one probe after the other, each with
    the reference time (hostspeed) measured right after it."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe)], capture_output=True,
                              text=True, timeout=120, check=True)
        seconds, ref = map(float, done.stdout.split()[-2:])
        times.append((seconds, ref))
    return times


def run_op(cli, op, out_dir: Path, sampler=None):
    """One timed operation: (seconds, verdict bytes or None, problems, bytes written).

    With a ``hostspeed.Sampler``, the sampler is active while the operation
    runs and its own time is not in ``seconds``.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gc.collect()
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            code = cli.run_scenario(op.config, str(out_dir), svg=op.svg)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    if sampler is not None:
        elapsed -= sampler.overhead
    if error is not None:
        return elapsed, None, [error], 0
    verdict = (out_dir / "verdict.json").read_bytes()
    problems = workloads.check_verdict(op, code, json.loads(verdict))
    written = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
    shutil.rmtree(out_dir)
    return elapsed, verdict, problems, written


class Run:
    """Passes over one workload's operations and what they produced."""

    def __init__(self, cli, ops, rng, tracer=None):
        self.cli = cli
        self.ops = ops
        self.rng = rng
        self.tracer = tracer
        self.out_dir = common.RUN_DIR / f"ops-{os.getpid()}"
        # per operation: wall times as measured, in untraced and traced passes,
        # and the same scaled to the nominal host speed
        self.op_times = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.norm_times = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.sampler = hostspeed.Sampler()
        self.layers: list[dict] = []
        self.digests: dict[int, str] = {}
        self.passes = self.attempted = self.failed = 0

    def one_pass(self, traced: bool):
        if traced:
            self.tracer.install()
        try:
            ref_before = hostspeed.reference_seconds()
            for i in self.rng.permutation(len(self.ops)):
                op = self.ops[i]
                if traced:
                    self.tracer.op = op.label
                # traced passes are scaled by the references around each
                # operation only: a signal handler inside a span would be
                # counted in that layer's time
                sampler = None if traced else self.sampler
                seconds, verdict, problems, written = run_op(
                    self.cli, op, self.out_dir, sampler)
                ref_after = hostspeed.reference_seconds()
                refs = [ref_before, ref_after] + (sampler.samples if sampler else [])
                self.op_times[traced][i].append(seconds)
                self.norm_times[traced][i].append(
                    seconds * REF_NOMINAL_S / statistics.mean(refs))
                ref_before = ref_after
                self.attempted += 1
                if verdict is not None:
                    digest = hashlib.sha256(verdict).hexdigest()
                    if self.digests.setdefault(i, digest) != digest:
                        problems.append("verdict.json bytes differ between passes")
                if traced:
                    self.tracer.counts["cli.bytes_written"] += written
                if problems:
                    self.failed += 1
                    print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.op = None
        if traced:
            self.layers.append(self.tracer.finish_pass())
        self.passes += 1

    def wall(self, traced: bool = False) -> float:
        """Pass wall time as measured: each operation's median, summed."""
        return sum(statistics.median(t) for t in self.op_times[traced])

    def norm_wall(self, traced: bool = False) -> float:
        """Pass time at the nominal host speed: each operation's median, summed."""
        return sum(statistics.median(t) for t in self.norm_times[traced])

    def verdict_digest(self) -> str:
        h = hashlib.sha256()
        for i, op in enumerate(self.ops):
            h.update(f"{op.label}={self.digests.get(i, 'missing')}\n".encode())
        return h.hexdigest()


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> dict:
    wall = run.norm_wall()
    samples = sum(op.base_samples for op in run.ops)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "norm_wall_s": {"value": wall, "unit": "s"},
        "norm_samples_per_s": {"value": samples / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(
            seconds * REF_NOMINAL_S / ref for seconds, ref in setup), "unit": "s"},
    }


def per_layer(run: Run) -> dict:
    out = {}
    for name in run.layers[0]:
        values = [layer[name] for layer in run.layers]
        value = statistics.median(values)
        if name.endswith("_per_s"):
            unit = "1/s"
        elif name.endswith("_s"):
            unit = "s"
        elif name.endswith("_ratio"):
            unit = "ratio"
        else:
            unit, value = "count", int(value)
        out[name] = {"value": value, "unit": unit}
    overhead = run.norm_wall(True) / run.norm_wall(False)
    out["trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return out


def versions() -> str:
    import numpy
    import rootlift
    import scipy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"kernel_backend={rootlift.kernel_backend}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli, scenarios = common.set_up()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup = probe_setup() if args.trace == 0 else []

    import numpy as np

    rng = np.random.default_rng(args.seed)
    ops = workloads.WORKLOADS[args.workload](rng, scenarios)
    run = Run(cli, ops, rng, tracing.Tracer() if args.trace else None)
    start = time.perf_counter()
    while True:
        run.one_pass(traced=bool(args.trace) and run.passes % 2 == 1)
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within half a pass of --seconds
        if run.passes >= MIN_PASSES and elapsed + 0.5 * elapsed / run.passes > args.seconds:
            break

    shutil.rmtree(run.out_dir, ignore_errors=True)
    if args.trace:
        metrics = per_layer(run)
        run.tracer.dump(common.RUN_DIR / f"spans-{args.workload}.jsonl",
                        {"workload": args.workload, "seed": args.seed})
    else:
        metrics = end_to_end(run, setup)
    print(versions())
    measured = f"wall_s={run.wall():.4f}"
    if setup:
        measured += f" setup_wall_s={statistics.median(t for t, _ in setup):.4f}"
    print(f"workload={args.workload} seed={args.seed} passes={run.passes} "
          f"ops={len(ops)} {measured} verdict_digest={run.verdict_digest()}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
