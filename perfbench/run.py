"""ergoflow benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all                 # every workload, named metrics
    python3 perfbench/run.py --tier1-report        # Tier-1 wall time, slowest tests

One workload run prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Each
run also writes its full record (sub-timings, sample counts, the
workload's own named metrics, machine identifiers) under ``perfbench/out/``.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run fails.  BLAS and OpenMP threads are pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("sweep", "oracles", "closed_forms", "cli")
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5
CLI_PROBES = 3
# Wall time of calibrate() on the reference host at a quiet time.  The host
# is shared and its speed drifts by 20-30 % over minutes, equally for every
# kind of work; op_s and setup_s divide each measurement by a calibration
# timed right after it and report seconds at this reference speed.
CALIBRATION_REF_S = 0.010
# spans kept in memory by one traced run before it stops adding operations
MAX_SPANS = 300_000


def library_env() -> dict:
    """Environment for child interpreters: this checkout's sources, pinned threads."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def import_library():
    """Import ergoflow from this checkout's src/ and the workloads that drive it."""
    if not (SRC / "ergoflow" / "__init__.py").is_file():
        sys.exit(f"error: no ergoflow sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ergoflow

    if not Path(ergoflow.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: ergoflow was imported from {ergoflow.__file__}, not from {SRC}")
    import workloads

    return workloads


def make_workload(name: str, seed: int, tiny: bool):
    workloads = import_library()
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(seed, tiny, workdir=OUT, env=library_env())
    return cls(seed, tiny)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def timed_subprocess(argv, env=None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
    return perf_counter() - t0, proc


def calibrate() -> float:
    """Wall time of a fixed kernel of Python loops and small matrix products.

    It reads the host's current speed; the library never runs in it.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    t0 = perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(300):
        a @ a + a
    return perf_counter() - t0


def setup_seconds(args) -> list[tuple[float, float]]:
    """(wall, calibration) times of fresh interpreters that only set the workload up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])  # fmt: skip
    times = []
    for _ in range(SETUP_PROBES):
        elapsed, proc = timed_subprocess(argv)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
        times.append((elapsed, median(calibrate() for _ in range(3))))
    return times


def at_reference_speed(timings) -> float:
    """Median of (wall, calibration) pairs, each scaled to the reference host speed."""
    return median(wall * CALIBRATION_REF_S / cal for wall, cal in timings)


def measure(run, check, seconds: float, tracer=None):
    """Closed loop with one caller: operations back to back for ``seconds``.

    Only the operation is timed; its check runs after it, with tracing
    uninstalled.  Given a tracer, every second operation is traced, so the
    traced and the untraced operations sample the same stretch of time.
    Returns (samples, attempted, failed), where each sample of a passing
    operation is (wall seconds, calibration seconds, sub-timings, traced).
    """
    samples, attempted, failed = [], 0, 0
    deadline = perf_counter() + seconds
    while attempted < (2 if tracer else 1) or perf_counter() < deadline:
        attempted += 1
        traced = tracer is not None and attempted % 2 == 0
        try:
            with tracer.installed() if traced else nullcontext():
                with tracer.op(attempted) if traced else nullcontext():
                    t0 = perf_counter()
                    result, part = run()
                    elapsed = perf_counter() - t0
            ok = check(result)
        except Exception:  # a failed operation is counted, and the loop goes on
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            continue
        samples.append((elapsed, calibrate(), part, traced))
        if traced and len(tracer.spans) >= MAX_SPANS:
            break
    if {traced for *_, traced in samples} != ({False, True} if tracer else {False}):
        sys.exit(f"error: no operation passed its check ({failed} of {attempted} failed)")
    return samples, attempted, failed


def cli_startup(env) -> dict:
    """cli.interpreter_s and cli.import.* from fresh interpreters, medians of probes."""
    interpreter = [timed_subprocess([sys.executable, "-c", "pass"], env)[0] for _ in range(CLI_PROBES)]
    imports = [import_times(env) for _ in range(CLI_PROBES)]
    return {
        "cli.interpreter_s": median(interpreter),
        **{key: median(probe[key] for probe in imports) for key in imports[0]},
    }


def import_times(env) -> dict:
    """Cumulative import times from ``python -X importtime -c 'import ergoflow.cli'``."""
    _, proc = timed_subprocess([sys.executable, "-X", "importtime", "-c", "import ergoflow.cli"], env)
    if proc.returncode != 0:
        sys.exit(f"error: import ergoflow.cli failed:\n{proc.stderr}")
    entries = []  # (indent, name, cumulative seconds)
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)$", line)
        if match:
            entries.append((len(match[2]), match[3], int(match[1]) * 1e-6))
    top = min(indent for indent, _, _ in entries)

    def first(name):
        return next((s for _, n, s in entries if n == name), 0.0)

    return {
        "cli.import_s": sum(
            s for indent, n, s in entries if indent == top and (n == "ergoflow" or n.startswith("ergoflow."))
        ),
        "cli.import.numpy_s": first("numpy"),
        "cli.import.scipy_linalg_s": first("scipy.linalg"),
    }


def distribution(values) -> dict:
    q = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": median(values), "q3": q[2], "max": max(values)}


def run_workload(args) -> dict:
    setup_probes = [] if args.trace else setup_seconds(args)
    t0 = perf_counter()
    workload = make_workload(args.workload, args.seed, args.tiny)
    setup_here = perf_counter() - t0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "machine": machine(), "setup_in_process_s": setup_here}  # fmt: skip
    if not args.trace:
        samples, attempted, failed = measure(workload.run, workload.check, args.seconds)
        op_s, calibration_s, parts, _ = zip(*samples)
        metrics = {
            "op_s": at_reference_speed(zip(op_s, calibration_s)),
            "setup_s": at_reference_speed(setup_probes),
            "peak_rss_mb": peak_rss_mb(),
        }
        named = workload.detail(op_s, parts)
        named.update(
            setup_s=(median(wall for wall, _ in setup_probes), "s"),
            peak_rss_mb=(metrics["peak_rss_mb"], "MB"),
            failed_ops_frac=(failed / attempted, "ratio"),
        )
        record.update(
            op_wall_s=distribution(op_s),
            calibration_s=distribution(calibration_s),
            setup_probes_s=setup_probes,
            named=named,
        )
        units = dict(END_TO_END)
    else:
        import spans

        tracer = spans.Tracer()
        samples, attempted, failed = measure(workload.trace_run, workload.check, args.seconds, tracer)
        plain_s = [wall for wall, *_, traced in samples if not traced]
        traced_s = [wall for wall, *_, traced in samples if traced]
        extra = {"trace.overhead_frac": median(traced_s) / median(plain_s) - 1.0}
        if args.workload == "cli":
            extra.update(cli_startup(library_env()), **{"cli.main_s": median(plain_s)})
        layer = spans.layer_metrics(tracer.spans, extra)
        metrics = {name: entry["value"] for name, entry in layer.items()}
        units = {name: entry["unit"] for name, entry in layer.items()}
        tracer.dump(OUT / f"spans-{args.workload}.jsonl.gz")
        record.update(untraced_op_s=distribution(plain_s), traced_op_s=distribution(traced_s))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record["result"] = result
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_all(args) -> int:
    """Every workload once, untraced; prints the named end-to-end metrics."""
    rows, summary = [], {"machine": dict(machine(), cpu=cpu_model()), "seed": args.seed, "workloads": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])  # fmt: skip
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        record = json.loads((OUT / f"{name}.json").read_text())
        summary["workloads"][name] = record
        rows += [(metric, name, value, unit) for metric, (value, unit) in record["named"].items()]
    width = max(len(metric) for metric, *_ in rows)
    for metric, name, value, unit in rows:
        print(f"{metric:<{width}}  {name:<12}  {value:14.6g} {unit}")
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    failed = {name: r["named"]["failed_ops_frac"][0] for name, r in summary["workloads"].items()}
    print(json.dumps({"failed_ops_frac": failed, "machine": summary["machine"]}))
    return 0 if not any(failed.values()) else 1


def tier1_report() -> int:
    """One Tier-1 run with --durations=15; wall time and slowest tests, not gated."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=15",
           "-p", "no:cacheprovider"]  # fmt: skip
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=library_env(), capture_output=True, text=True, check=False)
    wall = perf_counter() - t0
    lines = proc.stdout.splitlines()
    slowest = [
        {"seconds": float(m[1]), "phase": m[2], "test": m[3]}
        for m in (re.match(r"([\d.]+)s (\w+)\s+(\S+)$", line) for line in lines)
        if m
    ]
    report = {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else "",
              "slowest": slowest, "machine": dict(machine(), cpu=cpu_model())}  # fmt: skip
    (OUT / "tier1.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return proc.returncode


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="run every workload once and print the named metrics")
    mode.add_argument("--tier1-report", action="store_true", help="time the Tier-1 suite once")
    mode.add_argument("--setup-probe", action="store_true", help="only set the workload up, then exit")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the harness self-tests")
    args = parser.parse_args(argv)
    if not (args.all or args.tier1_report or args.workload):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    # pinned before numpy is first imported, here and in every child
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.tier1_report:
        return tier1_report()
    if args.all:
        return run_all(args)
    if args.setup_probe:
        make_workload(args.workload, args.seed, args.tiny)
        return 0
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
