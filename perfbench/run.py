"""Benchmark for the axmoe emulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. One invocation runs one workload in this
process against the package under ./src, with one BLAS thread. Set-up
(a fresh-interpreter import of axmoe plus the workload's own inputs) runs
SETUP_REPEATS times and `setup_s` is the median. The timed part then runs
rounds of the workload's cells for --seconds; `wall_s` is the sum over cells
of each cell's median time across rounds. Every cell's output is checked
outside the timed part, and a final untimed pass compares sampled
lut_matmul calls with a gather oracle.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 spends
half of --seconds untraced and half with every public axmoe function and
layer method wrapped in a span, and reports the per-layer metrics; spans
are written to .perfbench_work/spans/ when the run ends.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --smoke runs every workload in both modes
at toy sizes, each in its own process, and checks those result lines.
"""

import os

# Pinned before numpy is imported anywhere in this process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
MIN_ROUNDS = 3          # so every cell has a median
SMOKE_ROUNDS = 2
# Traced rounds stop once this many spans are held (count_published makes
# ~7.6k per round); per-layer figures are per round, so fewer rounds only
# cost precision.
MAX_SPANS = 200_000


def import_axmoe() -> dict:
    """Import axmoe from ./src; fail if it is missing or resolves elsewhere."""
    if not (SRC / "axmoe" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'axmoe'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import importlib

    axmoe = importlib.import_module("axmoe")
    if Path(axmoe.__file__).resolve().parent != (SRC / "axmoe").resolve():
        raise SystemExit(f"error: axmoe imported from {axmoe.__file__}, not from {SRC}")
    names = ("engine", "moe", "train", "models", "multipliers", "datasets", "cost",
             "graphs", "config", "cli")
    return {n: importlib.import_module(f"axmoe.{n}") for n in names}


def import_probe() -> None:
    """Time-relevant part of set-up: a fresh interpreter importing axmoe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # No timeout: with one, subprocess polls the child in steps of up to
    # 50 ms, which would quantize the measurement.
    subprocess.run([sys.executable, "-c", "import axmoe"], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def environment(args) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Machine-speed reference
# ---------------------------------------------------------------------------

# Seconds the reference kernel takes at nominal speed (its typical time on
# a 2-core Intel Xeon VM with one BLAS thread).
REF_NOMINAL_S = 0.025


class Reference:
    """A fixed kernel, unrelated to axmoe, timed between rounds.

    On a shared host the speed of the whole machine drifts by tens of
    percent over minutes. A run's times are rescaled by REF_NOMINAL_S over
    the run's median kernel time, which cancels that drift. The kernel mixes
    what the workloads spend their time on: a gather from a 64K-entry int16
    table, a small float32 matmul, a strided patch copy and a Python loop."""

    MIN_GAP_S = 1.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(-16000, 16000, size=65536).astype(np.int16)
        self.idx = rng.integers(0, 65536, size=(512, 8, 72)).astype(np.int32)
        self.a = rng.standard_normal((4096, 72)).astype(np.float32)
        self.b = rng.standard_normal((72, 16)).astype(np.float32)
        self.x = rng.standard_normal((64, 8, 18, 18)).astype(np.float32)
        self.times: list[float] = []
        self._last = float("-inf")

    def _once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            self.table[self.idx].sum(axis=2, dtype=np.int64)
            self.a @ self.b
            win = np.lib.stride_tricks.sliding_window_view(self.x, (3, 3), axis=(2, 3))
            np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
            sum(i * i for i in range(3000))
        return time.perf_counter() - t0

    def sample(self, force: bool = False) -> None:
        """Time the kernel (median of 3) unless it ran under MIN_GAP_S ago."""
        if force or time.perf_counter() - self._last >= self.MIN_GAP_S:
            self.times.append(statistics.median(self._once() for _ in range(3)))
            self._last = time.perf_counter()

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.times)


# ---------------------------------------------------------------------------
# Timed rounds
# ---------------------------------------------------------------------------

def run_round(wl, clock, tally, log, tracer=None) -> dict:
    """One round: every cell of the workload, timed, then checked."""
    cells = {}
    for cell in wl.cells():
        log.attempted += 1
        try:
            if cell.prepare is not None:
                cell.prepare()
            clock.reset()
            tally.reset()
            if tracer is not None:
                tracer.cell += 1
            t0 = time.perf_counter()
            out = cell.run()
            dt = time.perf_counter() - t0
        except Exception:  # a broken cell is a failed operation, not a crash
            log.failures.append(f"{cell.name}: raised\n{traceback.format_exc()}")
            continue
        counters, routed = tally.snapshot()
        cells[cell.name] = {"s": dt, "train_s": clock.train_s,
                            "train_samples": clock.train_samples, "eval_s": clock.eval_s,
                            "eval_samples": clock.eval_samples,
                            "lut": sum(counters.values()), "routed": routed}
        try:
            wl.check_cell(cell, out, counters, routed)
        except Exception:  # a check that cannot complete has failed
            log.failures.append(f"{cell.name}: check raised\n{traceback.format_exc()}")
    return {"cells": cells, "wall_s": sum(c["s"] for c in cells.values())}


def repeat_until(budget_s: float, min_steps: int, step, stop=lambda: False) -> None:
    """Call `step` (which returns its duration) until the next call would
    end after `budget_s`, or `stop()` holds, but at least `min_steps` times."""
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        if len(durations) >= min_steps:
            elapsed = time.perf_counter() - start
            if stop() or elapsed + statistics.median(durations) > budget_s:
                return
        durations.append(step())


def wall_s(rounds: list[dict]) -> float:
    """Sum over cells of the cell's median time across rounds."""
    names = {n for r in rounds for n in r["cells"]}
    return sum(statistics.median(r["cells"][n]["s"] for r in rounds if n in r["cells"])
               for n in names)


def _median_rate(rounds, num, den):
    rates = []
    for r in rounds:
        n = sum(c[num] for c in r["cells"].values())
        d = sum(c[den] for c in r["cells"].values())
        if n and d > 0:
            rates.append(n / d)
    return statistics.median(rates) if rates else None


def user_metrics(wl, rounds) -> dict:
    """The end-to-end figures that apply to some workloads only. None marks
    a figure the workload has no work for."""
    graphs = None
    if wl.graphs_per_round:
        graphs = statistics.median(wl.graphs_per_round / r["wall_s"] for r in rounds)
    return {
        "train_samples_per_s": (_median_rate(rounds, "train_samples", "train_s"), "1/s"),
        "eval_samples_per_s": (_median_rate(rounds, "eval_samples", "eval_s"), "1/s"),
        "emulated_macs_per_s": (_median_rate(rounds, "lut", "s"), "1/s"),
        "count_graphs_per_s": (graphs, "1/s"),
        "top1": (wl.top1(), "fraction"),
    }


# Per-layer figures read straight from the span totals: `<layer>.<field>`.
SPAN_METRICS = (
    "engine.lut_matmul.calls", "engine.lut_matmul.busy_s", "engine.lut_matmul.lookups",
    "engine.quantize.calls", "engine.quantize.busy_s",
    "engine.im2col.calls", "engine.im2col.busy_s", "engine.im2col.bytes",
    "engine.col2im.calls", "engine.col2im.busy_s",
    *(f"engine.{kind}.{phase}.self_s" for kind in ("conv2d", "linear")
      for phase in ("forward_float", "forward_lut", "backward")),
    "moe.router.calls", "moe.router.busy_s",
    *(f"moe.{layer}.{phase}.self_s" for layer in ("moe_layer", "cluster")
      for phase in ("forward", "backward")),
    "train.sgd_step.calls", "train.sgd_step.busy_s", "train.train_epoch.self_s",
    "train.evaluate.self_s",
    "models.build_model.busy_s", "models.save_model.calls", "models.save_model.busy_s",
    "models.save_model.bytes", "models.load_model.busy_s",
    "multipliers.build.calls", "multipliers.build.busy_s", "multipliers.load_lut.busy_s",
    "datasets.load_dataset.busy_s",
    "cost.count_macs.calls", "cost.count_macs.busy_s",
    "graphs.substitute_moe.calls", "graphs.substitute_moe.busy_s", "graphs.build_arch.busy_s",
    "config.load_config.busy_s", "cli.main.self_s",
)
# field -> (span total, unit); lookups and bytes are the spans' amounts
FIELDS = {"calls": ("calls", "count"), "busy_s": ("busy_s", "s"), "self_s": ("self_s", "s"),
          "lookups": ("amount", "count"), "bytes": ("amount", "B")}


def layer_metrics(tracer, traced, untraced, oracle) -> dict:
    from spans import load_cv

    totals = tracer.layer_totals(len(traced))
    out = {}
    for name in SPAN_METRICS:
        layer, _, field = name.rpartition(".")
        key, unit = FIELDS[field]
        value = totals[layer][key] if layer in totals else 0.0
        # counts are per round, sums of 1/rounds; drop the float round-off
        out[name] = (round(value, 6) if unit in ("count", "B") else value, unit)
    for kind, (lookups, busy) in tracer.lookups_by_caller().items():
        out[f"engine.lut_matmul.{kind}.lookups_per_s"] = (lookups / busy if busy else 0.0, "1/s")
    out["engine.lut_matmul.oracle_mismatches"] = (oracle.mismatches, "count")
    out["engine.lut_matmul.oracle_checked"] = (oracle.calls, "count")
    cvs = [load_cv(c["routed"]) for r in traced for c in r["cells"].values() if c["routed"]]
    out["moe.expert_load_cv"] = (statistics.fmean(cvs) if cvs else 0.0, "ratio")
    out["trace.overhead_s"] = (wall_s(traced) - wall_s(untraced), "s")
    return out


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    mods = import_axmoe()
    from checks import CheckLog, OracleCheck
    from spans import LutTally, Patcher, PhaseClock, Tracer
    from workloads import WORKLOADS

    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    log, clock, tally, ref = CheckLog(), PhaseClock(), LutTally(), Reference()
    min_rounds = SMOKE_ROUNDS if args.smoke else MIN_ROUNDS
    tracer, untraced, traced = None, [], []
    try:
        with Patcher() as patcher:
            clock.install(patcher, mods["train"])
            tally.install(patcher, mods["engine"])
            wl = WORKLOADS[args.workload](mods, args.seed, run_dir, args.smoke, clock, log)
            if args.trace:
                # Traced once, for the set-up layers, before the untraced
                # set-ups whose inputs the rounds then use.
                tracer = Tracer()
                with Patcher() as traced_patch:
                    tracer.install(traced_patch, mods)
                    wl.setup()
            setup_times = []
            for _ in range(SETUP_REPEATS):
                ref.sample(force=True)
                t0 = time.perf_counter()
                import_probe()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
            if not args.trace:
                def step():
                    ref.sample()
                    untraced.append(run_round(wl, clock, tally, log))
                    return untraced[-1]["wall_s"]

                repeat_until(args.seconds, min_rounds, step)
            else:
                # Untraced and traced rounds alternate, so slow drift in the
                # machine's speed does not land in trace.overhead_s.
                tracer_patch = Patcher()

                def step():
                    ref.sample()
                    untraced.append(run_round(wl, clock, tally, log))
                    with tracer_patch:
                        tracer.install(tracer_patch, mods)
                        traced.append(run_round(wl, clock, tally, log, tracer))
                    return untraced[-1]["wall_s"] + traced[-1]["wall_s"]

                repeat_until(args.seconds, min(min_rounds, SMOKE_ROUNDS), step,
                             stop=lambda: len(tracer.spans) > MAX_SPANS)
            ref.sample(force=True)
            crosscheck = wl.crosscheck(untraced)
            with Patcher() as check_patch:
                oracle = OracleCheck(log, args.seed)
                oracle.install(check_patch, mods["engine"].lut_matmul)
                try:
                    wl.final_checks(oracle)
                except Exception:  # a check that cannot complete has failed
                    log.failures.append(f"final checks raised\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    user = user_metrics(wl, untraced)
    if args.trace:
        reported = layer_metrics(tracer, traced, untraced, oracle)
        reported["host.reference_kernel_s"] = (statistics.median(ref.times), "s")
        reported.update({k: (v if v is not None else 0.0, u) for k, (v, u) in user.items()})
        reported.update({k: (v, "ratio") for k, v in crosscheck.items()})
        if "train.lut_epoch_over_float_epoch" not in reported:
            reported["train.lut_epoch_over_float_epoch"] = (0.0, "ratio")
        spans_path = WORK / "spans" / f"{args.workload}.jsonl.gz"
        tracer.dump(spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        reported = {"wall_s": (wall_s(untraced) * ref.scale(), "s"),
                    "setup_s": (statistics.median(setup_times) * ref.scale(), "s"),
                    "peak_rss_mb": (rss_mb, "MB")}
        print(f"raw wall_s {wall_s(untraced):.6g} s, setup_s {statistics.median(setup_times):.6g} s;"
              f" reference kernel {statistics.median(ref.times) * 1e3:.3f} ms (nominal "
              f"{REF_NOMINAL_S * 1e3:g} ms), so the times below are scaled by {ref.scale():.4f}")
    for name, (value, unit) in {**reported, **({} if args.trace else user)}.items():
        shown = "n/a (no such work in this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"metric {name} {shown}")
    for name, value in crosscheck.items():
        print(f"crosscheck {name} {value:.3f} (re-anchor figure: about 3.6)")
    if tracer is not None:
        for kind in ("conv", "linear"):
            rate = reported[f"engine.lut_matmul.{kind}.lookups_per_s"][0]
            if rate:
                print(f"crosscheck engine.lut_matmul.{kind}.lookups_per_s {rate / 1e6:.1f} M/s "
                      "(re-anchor range: 35-170 M/s, traced)")
    for failure in log.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"rounds untraced={len(untraced)} traced={len(traced)} checks={log.attempted} "
          f"failed={len(log.failures)}")

    result = {"correct": not log.failures, "attempted": log.attempted,
              "failed": len(log.failures),
              "metrics": {k: {"value": (v if v is not None else 0.0), "unit": u}
                          for k, (v, u) in reported.items()}}
    record = {"env": env, "result": result, "setup_s": setup_times, "reference_s": ref.times,
              "user_metrics": {k: v for k, (v, _) in user.items()}, "crosscheck": crosscheck,
              "failures": log.failures,
              "rounds": {"untraced": [{n: c["s"] for n, c in r["cells"].items()} for r in untraced],
                         "traced": [{n: c["s"] for n, c in r["cells"].items()} for r in traced]}}
    out = WORK / "results" / f"{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Smoke mode
# ---------------------------------------------------------------------------

def smoke() -> int:
    """Every workload in both modes at toy sizes; checks the result lines
    against the metric lists in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: exit {proc.returncode}, no result line\n{proc.stderr}")
                continue
            bad = []
            if proc.returncode != 0:
                bad.append(f"exit code {proc.returncode}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed"):
                bad.append(f"checks failed: {proc.stderr.strip()}")
            if set(result.get("metrics", {})) != want[trace]:
                bad.append(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(result.get('metrics', {})) ^ want[trace])}")
            if trace == 1 and workload == "sweep_float" and \
                    result["metrics"]["engine.lut_matmul.calls"]["value"] != 0:
                bad.append("sweep_float made LUT calls")
            status = "ok" if not bad else "FAIL " + "; ".join(bad)
            print(f"smoke {label}: {status} ({time.perf_counter() - t0:.1f} s, "
                  f"{result.get('attempted')} operations)")
            problems += [f"{label}: {b}" for b in bad]
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep_float", "retrain_lut", "eval_lut_mix",
                                               "count_published"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes; without --workload, run every workload in both modes")
    args = parser.parse_args(argv)
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
