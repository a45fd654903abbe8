#!/usr/bin/env python3
"""Benchmark of the dialign CLI.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs the real CLI
(``dialign.cli.main``) in a fresh process per invocation, one invocation
at a time (closed loop, one client), for S seconds. Every invocation's
outputs are checked (checks.py). The last line of standard output is one
JSON object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced runs (tracer.py), which
alternate with untraced ones so that the tracing overhead is measured.
Medians are reported; the lines before the JSON give sample counts,
quartiles and the input properties.

Run from a checkout of the repository; the program is taken from
``src/``. Work files go to ``.bench_build/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# Medians over the invocations of a run. Times are CPU seconds of the
# invocation, converted to seconds on the reference host (calibrate.py).
END_TO_END = (
    ("invocation_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Runner:
    """Spawns CLI invocations of one workload and checks their outputs."""

    def __init__(self, workload, inputs, cli_args, reference, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.cli_args = cli_args
        self.reference = reference
        self.workdir = workdir
        self.first_digests = None
        # Inherited PYTHON* settings (such as PYTHONDONTWRITEBYTECODE) would
        # change what set-up costs, so the program gets fixed ones.
        self.env = {
            **{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")},
            "PYTHONPATH": str(SRC),
            "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
            "PYTHONHASHSEED": "0",
        }
        self.count = 0

    def warm_up(self) -> None:
        """Compile and cache the program's modules before anything is timed."""
        subprocess.run(
            [sys.executable, "-c", "import dialign.cli"],
            env=self.env,
            cwd=ROOT,
            check=True,
        )

    def invoke(self, traced: bool, calibrated: bool = False) -> dict:
        """One CLI invocation; returns its timings and the problems found."""
        self.count += 1
        tag = f"{self.count:04d}"
        outdir = self.workdir / f"out{tag}"
        ready = self.workdir / f"ready{tag}"
        trace = self.workdir / f"trace{tag}.json"
        log = self.workdir / f"log{tag}.txt"
        cmd = [
            sys.executable,
            str(HERE / "launch.py"),
            str(ready),
            str(trace) if traced else "-",
            f"{self.workload.name}-{tag}",
            *self.cli_args,
            "--out-dir",
            str(outdir),
        ]
        units, cal_cpu = 0, 0.0
        with open(log, "wb") as out:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, env=self.env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT
            )
            try:
                if calibrated:
                    # Run the calibration kernel beside the program on the
                    # same CPU until it exits (see calibrate.py).
                    cal_start = time.process_time()
                    while True:
                        calibrate.unit()
                        units += 1
                        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                        if pid:
                            break
                    cal_cpu = time.process_time() - cal_start
                else:
                    _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)

        sample = {
            "traced": traced,
            "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "problems": [],
        }
        problems = sample["problems"]
        if proc.returncode != 0:
            problems.append(
                f"exit code {proc.returncode}: "
                + log.read_text(encoding="utf-8", errors="replace")[-2000:]
            )
        try:
            sample["setup_cpu_s"] = float(ready.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            problems.append("the CLI module was never imported")
        if not problems:
            problems += self._check(outdir)
            sample["bytes_written"] = sum(
                p.stat().st_size for p in outdir.iterdir() if p.is_file()
            )
        if traced and not problems:
            sample["trace"] = json.loads(trace.read_text(encoding="utf-8"))
        if calibrated and not problems:
            scale = units / cal_cpu / calibrate.REFERENCE_RATE
            sample["calibration_units_per_s"] = units / cal_cpu
            sample["invocation_s"] = sample["cpu_s"] * scale
            sample["setup_s"] = sample["setup_cpu_s"] * scale
            sample["items_per_s"] = self.inputs.items / (
                sample["invocation_s"] - sample["setup_s"]
            )
        shutil.rmtree(outdir, ignore_errors=True)
        for path in (ready, trace, log):
            path.unlink(missing_ok=True)
        return sample

    def _check(self, outdir: Path) -> list[str]:
        problems = checks.check_outputs(
            outdir, self.workload.checks, self.inputs.expected
        )
        got = checks.digests(outdir)
        if self.reference is not None:
            problems += checks.check_digests(got, self.reference)
        if self.first_digests is None:
            self.first_digests = got
        elif got != self.first_digests:
            problems.append("outputs differ from the first invocation of this run")
        return problems


def tally(samples: list[dict]) -> dict:
    """Attempted and failed invocations; a failure is any problem found."""
    failed = sum(1 for s in samples if s["problems"])
    return {
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "correct": failed == 0,
    }


def end_to_end(samples: list[dict]):
    if not samples:
        return {}, []
    metrics, lines = {}, []
    for name, unit in END_TO_END:
        values = [s[name] for s in samples]
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(
            f"  {name:<12} median {metrics[name]['value']:.6g} {unit}  quartiles "
            f"[{q1:.6g}, {q3:.6g}]  range [{min(values):.6g}, {max(values):.6g}]"
            f"  n={len(values)}"
        )
    walls = [s["wall_s"] for s in samples]
    rates = [s["calibration_units_per_s"] for s in samples]
    lines.append(
        f"  unscaled: wall time beside the kernel {statistics.median(walls):.4g} s,"
        f" kernel speed {statistics.median(rates):.4g} units per CPU second"
        f" (reference {calibrate.REFERENCE_RATE})"
    )
    return metrics, lines


def per_layer(workload, samples: list[dict]):
    traced = [s for s in samples if "trace" in s]
    plain = [s for s in samples if not s["traced"] and not s["problems"]]
    lines = []
    if not traced or not plain:
        return {}, ["  no traced and untraced invocation both succeeded"], {}
    per_run, shares_per_run, unobserved = [], [], set()
    cpu_s = statistics.median(s["cpu_s"] for s in plain)
    for s in traced:
        values, shares, missing, notes = tracer.layer_metrics(
            s["trace"], workload.expected_spans, s["bytes_written"], cpu_s
        )
        per_run.append(values)
        shares_per_run.append(shares)
        unobserved.update(missing)
    overhead = statistics.median(s["wall_s"] for s in traced) - statistics.median(
        s["wall_s"] for s in plain
    )
    metrics = {}
    for name, unit, _, _ in tracer.PER_LAYER:
        if name == "cli.tracing_overhead_s":
            value = overhead
        else:
            value = statistics.median(v[name] for v in per_run)
        metrics[name] = {"value": value, "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        flag = "  UNOBSERVED" if value == tracer.UNOBSERVED else ""
        lines.append(f"  {name:<36} {value:.6g} {unit}{note}{flag}")
    breakdown = {
        layer: {
            key: statistics.median(r[layer][key] for r in shares_per_run)
            for key in ("self_s", "share")
        }
        for layer in tracer.LAYERS
    }
    lines.append("  layer self time (median over traced runs, share of cli.main):")
    for layer, v in breakdown.items():
        lines.append(f"    {layer:<10} {v['self_s']:9.4f} s  {100 * v['share']:6.2f} %")
    for name in sorted(unobserved):
        message = (
            f"UNOBSERVED: entry point {name} is missing or was never called on "
            f"{workload.name}; its metrics read {tracer.UNOBSERVED}"
        )
        print(message, file=sys.stderr)
        lines.append("  " + message)
    return metrics, lines, {"layers": breakdown, "unobserved": sorted(unobserved)}


def measure(workload, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from workloads import write_inputs

    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=BUILD))
    try:
        inputs = workload.inputs(seed, tiny=tiny)
        reference = (
            checks.reference_digests(workload.name) if seed == 0 and not tiny else None
        )
        runner = Runner(
            workload, inputs, write_inputs(inputs, workdir), reference, workdir
        )
        runner.warm_up()
        samples = []
        deadline = time.monotonic() + seconds
        while True:
            traced = trace and len(samples) % 2 == 1
            samples.append(runner.invoke(traced, calibrated=not trace))
            if len({s["traced"] for s in samples}) < (2 if trace else 1):
                continue
            # Start no invocation that would mostly run past the deadline.
            typical = statistics.median(s["wall_s"] for s in samples)
            if time.monotonic() + typical / 2 >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"inputs": inputs, "samples": samples, "tally": tally(samples)}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # so that the running invocation is killed


def _pin_to_one_cpu() -> None:
    """Keep this process and the invocations it starts on one CPU, so that
    the calibration kernel shares the program's CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the self-tests"
    )
    parser.add_argument("--report", help="also write every sample and summary here")
    args = parser.parse_args(argv)
    if not (SRC / "dialign" / "cli.py").is_file():
        print(f"error: no dialign sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports dialign.synth from SRC

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    _pin_to_one_cpu()
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    samples, t = result["samples"], result["tally"]
    inputs = result["inputs"]
    print(f"workload {workload.name}  seed {args.seed}  {inputs.items} "
          f"{workload.item_unit}s per invocation")
    print("  inputs: " + json.dumps(inputs.properties, sort_keys=True))
    print(f"  invocations {t['attempted']}, failed {t['failed']} "
          f"(failed_frac {t['failed_frac']:.4f})")
    for i, s in enumerate(samples):
        for problem in s["problems"][:5]:
            print(f"  FAILED invocation {i + 1}: {problem}")
    detail = {}
    if args.trace:
        metrics, lines, detail = per_layer(workload, samples)
    else:
        metrics, lines = end_to_end([s for s in samples if not s["problems"]])
    print("\n".join(lines))
    if args.report:
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "properties": inputs.properties,
            "tally": t,
            "metrics": metrics,
            "samples": [
                {k: v for k, v in s.items() if k != "trace"} for s in samples
            ],
            **detail,
        }
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": t["correct"] and bool(metrics),
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
