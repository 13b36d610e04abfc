"""Benchmark of the surgebma pipeline, one workload per invocation.

    python3 bench/run.py --workload desk|archive --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing. Each
invocation is a fresh process, so its peak resident memory belongs to the
workload. It pins BLAS/OpenMP threads to 1 before numpy loads, pays imports
and set-up (input generation by ``surgebma simulate`` in a child process,
three times so that ``setup_s`` is a median), then repeats the timed pipeline call in a closed loop: one caller, the next
repeat only after the previous one finished, ``workers = 1``. It checks every output and prints human-readable lines
followed by one JSON line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced repeat with ``--trace 1``. Spans of a
traced run are kept in ``.bench_out/``. See ``workloads.py`` for what each
workload exercises.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPEATS = 3  # so one repeat slowed by a noisy neighbour does not set the median
MAX_REPEATS = 20
SETUPS = 3  # setup_s is the import time plus the median of these set-ups
SETUP_TIMEOUT_S = 150  # the whole run must end within 180 s
# the set-up child: one ``surgebma simulate`` invocation per argument list, in order
SETUP_CHILD = """
import json, sys
from surgebma.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"set-up step {argv[:2]} failed")
"""


def pin_process() -> None:
    """Settings that must precede the first numpy import; the set-up child inherits them."""
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # leave no __pycache__ in the sources
    # SystemExit unwinds through subprocess.run, which then ends the set-up child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def provenance() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def warm_up() -> None:
    """First-call costs of the libraries the stages use, paid in set-up."""
    import logging

    import numpy as np
    from scipy.linalg import solve_triangular
    from scipy.optimize import minimize

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    np.linalg.cholesky(np.eye(2))
    solve_triangular(np.eye(2), np.ones(2), lower=True)
    minimize(lambda x: float(x @ x), np.ones(2), method="Nelder-Mead")


def set_up(wl: workloads.Workload, size: workloads.Size, seed: int, inputs: Path) -> Path:
    """Write the workload's inputs under ``inputs``; the path of its config file."""
    inputs.mkdir(parents=True)
    config = inputs / "run.ini"
    config.write_text(wl.config_text(seed, size))
    argvs = wl.simulate_commands(seed, size)
    for argv in argvs:
        (inputs / argv[argv.index("--out") + 1]).parent.mkdir(parents=True, exist_ok=True)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(argvs)], cwd=inputs,
                          env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-30:])
        raise RuntimeError(f"set-up exited {proc.returncode}; last output lines:\n{tail}")
    return config


def run_stage(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        return -1


def timed_call(cli, stages: tuple, config: Path, out: Path) -> dict:
    """One timed pipeline call, one CLI invocation per stage, up to the first failure."""
    base = ["--config", str(config), "--output-dir", str(out)]
    rep = {"out": out, "rc": {}, "stage_s": {}}
    t_call = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the report
        for stage in stages:
            t = time.perf_counter()
            rc = run_stage(cli, [stage, *base])
            rep["stage_s"][stage] = time.perf_counter() - t
            rep["rc"][stage] = rc
            if rc != 0:
                break
    rep["wall_s"] = time.perf_counter() - t_call
    rep["digests"] = checks.artifact_digests(out) if out.exists() else {}
    return rep


def measure(args, work: Path) -> dict:
    from surgebma import cli

    warm_up()
    import_s = time.perf_counter() - T_START

    size = workloads.SIZE
    wl = workloads.make_workload(args.workload, size)
    setup_times = []
    for k in range(SETUPS):  # identical inputs each time; the last set is used
        t = time.perf_counter()
        config = set_up(wl, size, args.seed, work / f"inputs{k}")
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    tracer = Tracer()
    repeats: list[dict] = []
    loop_start = time.perf_counter()
    n_repeats = 2 if args.trace else MIN_REPEATS  # traced: one plain repeat, one traced
    while len(repeats) < n_repeats or (
        not args.trace
        and len(repeats) < MAX_REPEATS
        and time.perf_counter() - loop_start < args.seconds
    ):
        out = work / f"rep{len(repeats)}" / "out"
        traced = bool(args.trace) and len(repeats) == 1
        with tracer.install() if traced else contextlib.nullcontext():
            rep = timed_call(cli, wl.stages, config, out)
        rep["traced"] = traced
        repeats.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    structures = wl.structure_ids(size)
    attempted, failed, problems = checks.evaluate(repeats, wl.stages, structures)
    plain = [r for r in repeats if not r["traced"]]
    stage_s = {
        stage: statistics.median([r["stage_s"][stage] for r in plain if stage in r["stage_s"]])
        for stage in wl.stages if any(stage in r["stage_s"] for r in plain)
    }
    result = {
        "repeats": len(plain),
        "repeat_wall_s": [r["wall_s"] for r in repeats],
        "end_to_end": {
            "wall_s": statistics.median([r["wall_s"] for r in plain]),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "stages_s": stage_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "artifacts_sha256": checks.combined_digest(repeats[0]["digests"]),
        "artifacts": len(repeats[0]["digests"]),
    }
    if "calibrate" in stage_s:
        chains = wl.chains
        result["chain_iters_per_s"] = (
            len(structures) * chains["n_chains"] * chains["n_iterations"] / stage_s["calibrate"]
        )
    if args.trace:
        traced = repeats[1]
        artifact_bytes = sum(p.stat().st_size for p in traced["out"].rglob("*") if p.is_file())
        result["per_layer"] = tracer.per_layer(
            artifact_bytes, traced["wall_s"] - repeats[0]["wall_s"])
        result["trace"] = tracer.export()
    return result


def report(result: dict, args, prov: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    print(f"# surgebma bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    n = result["repeats"]
    print(f"# end to end, median of {n} untraced repeats (closed loop, 1 caller, workers = 1):")
    for name, value in result["end_to_end"].items():
        note = f"imports + median of {SETUPS} set-ups" if name == "setup_s" else "whole process" \
            if name == "peak_rss_mb" else f"n={n}"
        print(f"#   {name:<20} {value:12.4f} {END_TO_END[name]:<6} {note}")
    for stage, value in result["stages_s"].items():
        print(f"#   {stage.replace('-', '_') + '_s':<20} {value:12.4f} s      n={n}")
    if "chain_iters_per_s" in result:
        print(f"#   {'chain_iters_per_s':<20} {result['chain_iters_per_s']:12.1f} 1/s    "
              f"structures x chains x iterations / calibrate_s")
    attempted, failed = result["attempted"], result["failed"]
    print(f"#   {'failed_frac':<20} {failed / attempted:12.4f} ratio  {failed}/{attempted} "
          f"stage invocations")
    for problem in result["problems"]:
        print(f"#   check failed: {problem}")
    print("# wall_s of each repeat in order" + (", the last one traced" if args.trace else "")
          + ": " + ", ".join(f"{w:.4f}" for w in result["repeat_wall_s"]))
    print(f"# artifacts_sha256 {result['artifacts_sha256']} ({result['artifacts']} files)")

    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        print("# per layer, one traced repeat (not used for end-to-end metrics):")
        for name, value in result["per_layer"].items():
            print(f"#   {name:<34} {value:14.4f} {units[name]}")
        share = result["per_layer"]["cli.calibrate_attributed_frac"]
        if share:
            print(f"#   calibrate_s attributed to mle_fit + run_chains + pool_and_thin: "
                  f"{share:.1%}; unattributed {1 - share:.1%}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"provenance": prov, "per_layer": result["per_layer"], **result["trace"]}, indent=1))
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(args) -> int:
    """Measure one workload and print the report; the process exit code."""
    if not (SRC / "surgebma" / "cli.py").is_file():
        print(f"error: no surgebma sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = measure(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    print(json.dumps(report(result, args, provenance())))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least measuring time; at least three repeats run regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_process()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
