"""milliswim benchmark.

One workload, one run:

    python3 bench/run.py --workload track --seed 1 --seconds 30 --trace 0

All workloads, one row of end-to-end metrics each (``--trace 0``), or the
per-layer table and the tracing overhead (``--trace 1``):

    python3 bench/run.py --workload all --seconds 30 --trace 0

A run repeats its workload's batch for as long as another batch still fits
in ``--seconds`` (at least once) and reports medians over its batches. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; with ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. Lines before it record the environment, the seed, sample counts,
unscaled timings and the workload's own metric names.

End-to-end metrics, measured with tracing off, on every workload. Their
timings are scaled to a nominal host speed (see hostspeed.py). Each set-up
probe runs a fixed reference task right after its set-up, and its time is
multiplied by ``hostspeed.NOMINAL_S`` over its reference time. Within a batch
the reference runs after every ``workloads.CHUNK_S`` of timed operations, and
each operation's time is multiplied by ``hostspeed.NOMINAL_S`` over the
median reference time on either side of it. Per-layer times are not scaled.

- setup_s: median over nine fresh interpreters of the time from ``import
  milliswim`` until the workload's inputs are ready (calibration CSVs loaded,
  inputs generated from the seed).
- wall_s: median over batches of the batch's summed operation times.
- ops_per_s: median over batches of the workload's primary operations per
  second: controller ticks (track, ticks_per_s), smooth-planform RDFs (design,
  1000 / rdf_smooth_ms), CLI runs (characterize, runs_per_s).
- op_p50_ms: median over the batch's secondary operations of each one's
  median time across batches: a 60 s maneuver (track, 6 per batch), a
  simulate_cycle call (design, 24), a CLI run (characterize, 56).
- peak_rss_mb: peak resident memory of the run.

fail_ratio (failed operations and output checks over those attempted) is
``failed / attempted`` of the result line. ``--inject`` feeds one fault to the
workload's output checks, to show they can fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: numpy's BLAS pool is not used by milliswim and would only add
# start-up threads to a benchmark that runs in a single thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
REF_SAMPLES = 2       # reference samples between two timed chunks
PROBE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 240


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu": cpu, "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def _tail_percentile(samples):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100)[q - 1]
    return None


# ------------------------------------------------------------ one workload

def _setup_probe(workload: str, seed: int) -> None:
    """Fresh-interpreter set-up time, printed for the parent run."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[workload].prepare(seed)
    t = time.perf_counter() - t0
    print(repr(t), repr(statistics.median(_reference() + _reference())))


def _reference() -> list[float]:
    # Imported here: a set-up probe must not load numpy before its clock starts.
    import hostspeed
    return [hostspeed.sample(OUT) for _ in range(REF_SAMPLES)]


def _setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw set-up times of fresh interpreters, and the host scale of each.

    Each interpreter samples the reference itself, right after its set-up.
    """
    import hostspeed
    times, scales = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        t, ref = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append(t)
        scales.append(hostspeed.NOMINAL_S / ref)
    return times, scales


def _run_batch(w, inputs, workdir: Path, inject, clock):
    workdir.mkdir(parents=True)
    try:
        return w.batch(inputs, workdir, inject, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args) -> int:
    import hostspeed
    from tracer import EXACT, Tracer, install_milliswim, layer_metrics
    from workloads import WORKLOADS, Clock

    spec = _spec()
    w = WORKLOADS[args.workload]
    if args.inject not in (None, w.inject):
        print(f"error: --inject {args.inject} does not apply to {w.name}", file=sys.stderr)
        return 2
    env = _environment(args)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    setup, setup_scales = _setup_times(w.name, args.seed)
    inputs = w.prepare(args.seed)
    work = OUT / f"work-{os.getpid()}"
    plain, traced, layers = [], [], []
    tracer = None
    t_start = time.perf_counter()
    try:
        while True:
            clock = Clock(_reference, hostspeed.NOMINAL_S)
            plain.append(_run_batch(w, inputs, work / f"b{len(plain)}", args.inject, clock))
            if args.trace:
                tracer = Tracer()
                install_milliswim(tracer)
                try:
                    tb = _run_batch(w, inputs, work / f"t{len(traced)}", args.inject,
                                    Clock(_reference, hostspeed.NOMINAL_S))
                finally:
                    tracer.restore()
                traced.append(tb)
                layers.append(layer_metrics(tracer))
                layers[-1]["harness.bytes_written"] = tb.bytes_written
                layers[-1]["harness.files_written"] = tb.files_written
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break  # another round would overrun --seconds
    finally:
        shutil.rmtree(work, ignore_errors=True)

    batches = plain + traced
    attempted = sum(b.ops + len(b.checks) for b in batches)
    failed = sum(b.ops_failed + sum(not ok for _, ok in b.checks) for b in batches)
    for b in batches:
        for name, ok in b.checks:
            if not ok:
                print(f"# check failed: {name}", file=sys.stderr)

    op_medians = [statistics.median(col) for col in zip(*(b.op_samples for b in plain))]
    pooled = [t for b in plain for t in b.op_samples]
    scaled = {
        "setup_s": statistics.median(s * t for s, t in zip(setup_scales, setup)),
        "wall_s": statistics.median(b.wall_s for b in plain),
        "ops_per_s": statistics.median(b.rate for b in plain),
        "op_p50_ms": 1e3 * statistics.median(op_medians),
    }
    record = {
        "workload": w.name, "seed": args.seed, "env": env,
        "batches": len(plain), "setup_samples": setup,
        "host_scale": statistics.median(b.host_scale for b in plain),
        "setup_host_scale": statistics.median(setup_scales),
        "unscaled": {"setup_s": statistics.median(setup),
                     "wall_s": statistics.median(b.raw_wall_s for b in plain)},
        "ops_per_batch": len(op_medians), "rate_alias": w.rate_alias, "op_alias": w.op_alias,
        "named": {k: statistics.median(b.named[k] for b in plain) for k in plain[0].named},
        "op_pooled_p50_ms": 1e3 * statistics.median(pooled),
        "rel_errors": plain[0].rel_errors,
    }
    tail = _tail_percentile(pooled)
    if tail:
        record["op_pooled_tail"] = {"q": tail[0], "ms": 1e3 * tail[1]}

    if args.trace:
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["tracing.overhead"] = (statistics.median(b.wall_s for b in traced)
                                      / statistics.median(b.wall_s for b in plain))
        repeat_ok = all(m[k] == layers[0][k] for m in layers for k in EXACT)
        attempted += 1
        failed += not repeat_ok
        if not repeat_ok:
            print("# check failed: exact counters repeat across traced batches",
                  file=sys.stderr)
        tracer.save(OUT / f"spans-{w.name}.npz")  # the last traced batch of the last run
        wanted = spec["per_layer"]
    else:
        values = dict(scaled)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["fail_ratio"] = failed / attempted
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ------------------------------------------------------------ all workloads

def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_all(args) -> int:
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        record = next(json.loads(line[len("# record "):]) for line in lines
                      if line.startswith("# record "))
        results[name] = (record, json.loads(lines[-1]))

    first = next(iter(results.values()))[0]["env"]
    print("# env " + json.dumps({k: first[k] for k in ("python", "numpy", "cpu", "nproc",
                                                       "loadavg")}))
    print(f"# seed {args.seed}, {args.seconds} s per workload")
    if args.trace:
        names = [m["name"] for m in _spec()["per_layer"]]
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        width = max(map(len, names)) + 2
        print(f"{'metric':<{width}}{'unit':<8}" + "".join(f"{w:>16}" for w in results))
        for n in names:
            row = "".join(f"{_fmt(res['metrics'][n]['value']):>16}"
                          for _, res in results.values())
            print(f"{n:<{width}}{units[n]:<8}{row}")
        return 0
    for name, (rec, res) in results.items():
        m = res["metrics"]
        cells = [f"{k}={_fmt(v['value'])} {v['unit']}" for k, v in m.items()]
        n = rec["batches"]
        cells[0] += f" [median of {len(rec['setup_samples'])} interpreters]"
        cells[1] += f" [median of {n} batches]"
        cells[2] += f" [{rec['rate_alias']}, median of {n} batches]"
        cells[3] += (f" [{rec['op_alias']}: median of {rec['ops_per_batch']} operations,"
                     f" each a median of {n}; pooled p50={_fmt(rec['op_pooled_p50_ms'])} ms")
        if "op_pooled_tail" in rec:
            tail = rec["op_pooled_tail"]
            cells[3] += f" p{tail['q']}={_fmt(tail['ms'])} ms"
        cells[3] += f" of {n * rec['ops_per_batch']}]"
        cells += [f"{k}={_fmt(v)}" for k, v in rec["named"].items()]
        cells.append(f"fail_ratio={_fmt(rec['fail_ratio'])} ({res['failed']}/{res['attempted']})")
        cells.append(f"host_scale={rec['host_scale']:.3f} (timings above are scaled)")
        print(f"{name:<13}" + "  ".join(cells))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("track", "design", "characterize", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=("flip-log-byte", "perturb-rdf", "drop-manifest-entry"),
                   help="feed one fault to the output checks of the matching workload")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "milliswim" / "__init__.py").is_file():
        print(f"error: no milliswim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
