"""End-to-end and per-layer benchmark for tssim.

Drives `tssim.cli.main` in-process on generated input files, one client in a
closed loop: the next operation starts when the previous one has returned and
its documents have been checked against an independent oracle (numpy.linalg
or frozen pins). From the repository root:

    python3 perfbench/run.py                       # h2, series and dense, one process each
    python3 perfbench/run.py --workload series --seed 3 --seconds 20 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a run that
alternates traced and untraced blocks of operations. The exit code is 0 only
when every operation passed its check. perfbench/README.md explains the
workloads, the metrics and the recorded baseline.
"""

from __future__ import annotations

import os
import sys

# BLAS may use no more threads than this process may run on; the limit must
# be in the environment before numpy loads the library.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _raw = os.environ.get(_var, "")
    if not _raw.isdigit() or not 1 <= int(_raw) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3  # set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples above it
MAX_PROBLEMS = 5  # failure messages kept per run

UNITS = {
    "ops_per_s": "op/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "1",
    "energy_err_max": "energy",
}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "op_wall_s": "s", "calls": "count", "flops": "flop", "bytes": "B",
            "sweeps": "count"}.get(suffix, "1")


# ------------------------------------------------------------------ tssim

def import_tssim():
    """Fresh import of tssim from this checkout's src/, never an installed copy."""
    for name in [m for m in sys.modules if m == "tssim" or m.startswith("tssim.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("tssim.cli")
    tssim = sys.modules["tssim"]
    if os.path.commonpath([os.path.abspath(tssim.__file__), SRC]) != SRC:
        raise ImportError(f"tssim resolved to {tssim.__file__}, not under {SRC}")
    return tssim, cli


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def stamp(tssim) -> dict:
    """Machine and code identity recorded with every result."""
    pkg = os.path.dirname(os.path.abspath(tssim.__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = {}
    with contextlib.suppress(AttributeError, KeyError, TypeError):  # layout varies by numpy version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = getattr(tssim, "backend", None)
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(), "env_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "tssim_backend": backend() if callable(backend) else None,
        "git_commit": git_commit(),
        "tssim_file": os.path.abspath(tssim.__file__),
        "source_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------- operations

class Tally:
    """Checked operations: attempts, failures and the largest energy error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.energy_err_max = 0.0

    def add(self, kind: str, problems: list, energy_err) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{kind}: {'; '.join(problems)}")
        if energy_err is not None:
            self.energy_err_max = max(self.energy_err_max, energy_err)


def run_op(cli, op) -> tuple[float, list, float | None]:
    """Run one operation's command lines and check their documents.

    Returns (wall seconds to a checked result, problems, energy error). A
    non-zero exit, a crash or a failed check is a problem; none is skipped.
    """
    start = time.perf_counter()
    docs = []
    try:
        for argv in op.argvs:
            out = argv[argv.index("--output") + 1]
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
            with contextlib.redirect_stdout(io.StringIO()) as captured:
                code = cli.main(argv)
            if code != 0:
                return time.perf_counter() - start, [f"exit {code}: {captured.getvalue().strip()[:300]}"], None
            with open(out, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        problems, err = op.check(docs)
    except (Exception, SystemExit) as e:  # a crash fails this operation; the run goes on
        problems, err = [f"{type(e).__name__}: {e}"], None
    return time.perf_counter() - start, problems, err


def set_up(name: str, seed: int, workdir: str, tally: Tally):
    """Import tssim, generate the inputs, run one warm-up cycle; returns seconds too."""
    start = time.perf_counter()
    tssim, cli = import_tssim()
    wl = WORKLOADS[name](seed, workdir)
    for i in range(wl.cycle):
        op = wl.op(i)
        _, problems, err = run_op(cli, op)
        tally.add(op.kind, problems, err)
    return tssim, cli, wl, time.perf_counter() - start


def measure(cli, wl, seconds: float, tally: Tally, tracer: Tracer | None = None) -> dict:
    """Closed loop for `seconds`, stopping on cycle boundaries.

    With a tracer, blocks of two cycles alternate traced and untraced, so both
    sides see the same mix of operations (and of pea/ipea where that alternates
    per cycle).
    """
    block = 2 * wl.cycle
    stop_every = block if tracer else wl.cycle
    walls = {"untraced": [], "traced": []}
    kinds = {}
    i = 0
    start = time.perf_counter()
    while True:
        if i and i % stop_every == 0 and time.perf_counter() - start >= seconds:
            if tracer is None or all(walls.values()):
                break
        traced = tracer is not None and (i // block) % 2 == 0
        op = wl.op(i)
        if traced:
            tracer.op_id = i
            tracer.install()
        try:
            dt, problems, err = run_op(cli, op)
        finally:
            if traced:
                tracer.uninstall()
        tally.add(op.kind, problems, err)
        walls["traced" if traced else "untraced"].append(dt)
        if not traced:
            kinds.setdefault(op.kind, []).append(dt)
        i += 1
    return {"elapsed_s": time.perf_counter() - start, "walls": walls, "kinds": kinds}


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with
    TAIL_BEYOND samples above it. A run too short for that keeps a quarter of
    its samples above it, so the value never falls below the third quartile
    and, from five samples on, no single outlier sets it."""
    d = sorted(samples)
    beyond = min(TAIL_BEYOND, (len(d) - 1) // 4)
    k = len(d) - 1 - beyond
    return d[k], 100.0 * (k + 1) / len(d), beyond


# -------------------------------------------------------------------- runs

def run_workload(args, contract: dict) -> int:
    if not os.path.isdir(os.path.join(SRC, "tssim")):
        print(f"perfbench: no tssim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    tracer = Tracer() if args.trace else None
    try:
        setups = []
        for _ in range(1 if tracer else SETUP_REPS):
            tssim, cli, wl, dt = set_up(args.workload, args.seed, workdir, tally)
            setups.append(dt)
        run = measure(cli, wl, args.seconds, tally, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = run["walls"]["untraced"]
    tail_s, tail_pct, beyond = tail(untraced)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 client", "stamp": stamp(tssim),
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        "setup_runs_s": setups,
        "op_tail": {"percentile": tail_pct, "samples": len(untraced), "beyond": beyond},
        "kind_p50_s": {k: statistics.median(v) for k, v in run["kinds"].items()},
        "op_walls_s": run["walls"],
    }
    metrics = {}
    if tracer is None:
        metrics = {
            "ops_per_s": len(untraced) / run["elapsed_s"],
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_ratio": tally.failed / tally.attempted,
            "energy_err_max": tally.energy_err_max,
        }
        units = UNITS
        wanted = contract["end_to_end"]
    else:
        traced = run["walls"]["traced"]
        ops = len(traced)
        op_wall = sum(traced) / ops
        metrics, absent = tracer.layer_metrics(ops)
        metrics["trace.op_wall_s"] = op_wall
        metrics["trace.overhead_ratio"] = op_wall / (sum(untraced) / len(untraced)) - 1.0
        units = {name: layer_unit(name) for name in metrics}
        self_s, calls = tracer.totals()
        inclusive = tracer.inclusive()
        record["absent"] = absent
        record["spans"] = {
            name: {"self_share": self_s[name] / ops / op_wall,
                   "inclusive_share": inclusive[name] / ops / op_wall,
                   "calls_per_op": calls[name] / ops}
            for name in sorted(self_s, key=self_s.get, reverse=True)
        }
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        wanted = contract["per_layer"]
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print_summary(record)
    final = {}
    for m in wanted:
        if units.get(m["name"], m["unit"]) != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {units[m['name']]}, BENCHMARK.json says {m['unit']}")
        # A layer metric whose function is gone reads 0; the record lists it as absent.
        final[m["name"]] = {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": final}))
    return 0 if correct else 1


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"loop {record['loop']}  attempted {record['attempted']}  failed {record['failed']}")
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    for name, m in record["metrics"].items():
        note = ""
        if name == "op_tail_s":
            t = record["op_tail"]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} samples, {t['beyond']} beyond)"
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}{note}")
    for kind, p50 in record["kind_p50_s"].items():
        print(f"  p50 {kind:34s} {p50:.6g} s")
    for name, s in list(record.get("spans", {}).items())[:12]:
        print(f"  span {name:33s} self {s['self_share']:6.1%}  incl {s['inclusive_share']:6.1%}  "
              f"calls/op {s['calls_per_op']:.4g}")
    if record.get("absent"):
        print("  absent (reported as 0): " + ", ".join(record["absent"]))
    for problem in record["problems"]:
        print("  FAILED " + problem)


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's own."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if proc.returncode != 0 or not (results[name] or {}).get("correct"):
            code = 1
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="measured loop length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
