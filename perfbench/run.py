"""Benchmark entry point.

    python3 perfbench/run.py --workload svi_calibrated --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It imports btvc from that checkout's src/,
runs one workload as a closed loop for --seconds, checks every op's output
and prints one line per metric followed, as the last line, by a JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports per-layer metrics from spans recorded
around calls into btvc, writing the spans to .perfbench_out/. Times are CPU
seconds of the process (see timing.py). The exit code is 0 only when every
op passed its checks.
"""

import os

# Pin BLAS before numpy loads: every workload runs on one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import timing  # noqa: E402
from timing import at_reference_speed, host_samples, speed_scale  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_SAMPLES = 7
# Reference-work samples taken before each visit, for the host-speed line
# and the per-layer times.
HOST_SAMPLES = 10
# A traced run visits only the first replicas, so that its untraced
# baseline pass and at least one traced pass fit in --seconds.
TRACE_REPLICAS = 2
SELF_TIME_LAYERS = ("timeframe", "fourier", "kernels", "model", "inference",
                    "pipeline", "evaluation", "cli")

# name -> (unit, in the JSON result). The others are printed only (see
# README.md): they move with the seed's data by more than a bound that would
# still catch a regression, or are 0 when nothing fails.
END_TO_END = {
    "setup_s": ("s", True),
    "fit_s": ("s", True),
    "forecast_s": ("s", True),
    "backtest_s": ("s", True),
    "cli_s": ("s", True),
    "peak_rss_mb": ("MB", True),
    "map_optimality": ("ratio", True),
    "map_logpost": ("nats", False),
    "coef_rmse": ("elasticity", False),
    "smape": ("ratio", False),
    "interval_coverage_err": ("fraction", False),
    "ops_failed_frac": ("fraction", False),
}
# Per-layer counts that must repeat exactly between traced runs; every
# quality value and count recorded per replica must repeat between all runs.
REPEATED_LAYERS = ("inference.map_iterations", "inference.fit_json_kb", "kernels.weights_mb",
                   "evaluation.splits")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same ops on small inputs (smoke test)")
    return p.parse_args(argv)


def import_package() -> None:
    """Import btvc from this checkout's src/."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import btvc
    import btvc.cli  # noqa: F401

    if not pathlib.Path(btvc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"btvc was imported from {btvc.__file__}, not from {src}")


# The clock of timing.py, read in a fresh interpreter once numpy (a
# dependency, not part of btvc's import time) has loaded.
IMPORT_TIMER = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.process_time(); import btvc, btvc.cli; "
                "print(time.process_time() - t0)")


def import_seconds() -> float:
    """Median time of importing btvc over IMPORT_SAMPLES interpreters, each
    scaled to the reference speed by samples taken around it."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = host_samples()
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(proc.stdout) * speed_scale(before + host_samples()))
    return statistics.median(samples)


# -- environment ------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = _read(f"{d}/type")
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{_read(f'{d}/level')}{suffix}"] = _read(f"{d}/size")
    return out


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1]
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": _blas_threads(),
    }


# -- exact repeats across runs ----------------------------------------------

def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(str(ROOT / "src" / "btvc" / "*.py"))
                       + glob.glob(str(ROOT / "perfbench" / "*.py"))):
        h.update(pathlib.Path(path).read_bytes())
    return h.hexdigest()


def check_repeats(key: str, values: dict) -> list[str]:
    """Compare with the values an earlier run of the same code, workload, size
    and seed recorded, then merge these in. Returns the mismatches."""
    path = OUT / "repeat" / f"{key}.json"
    code = code_digest()
    old = {}
    if path.exists():
        doc = json.loads(path.read_text())
        if doc.get("code") == code:
            old = doc["values"]
    mismatches = [f"{k}: {old[k]!r} earlier, {v!r} now"
                  for k, v in values.items() if k in old and old[k] != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": code, "values": {**old, **values}}, indent=1))
    return mismatches


# -- the run ----------------------------------------------------------------

def measure(wl, name, replicas, stats, seconds, whole=False) -> int:
    """Visit the replicas in turn, each at least once, until `seconds` of
    wall time have passed; with `whole`, stop only at the end of a pass.
    Returns the number of visits."""
    start = time.perf_counter()
    visits = 0
    while True:
        stats.host.extend(host_samples(HOST_SAMPLES))
        stats.tracer.op = visits
        wl.visit(name, replicas[visits % len(replicas)], stats, replicas)
        visits += 1
        if (visits >= len(replicas) and time.perf_counter() - start >= seconds
                and (not whole or visits % len(replicas) == 0)):
            return visits


def setup(wl, args) -> tuple[list, float]:
    """Make the inputs SETUP_REPEATS times, each set in its own directory
    under the current one; returns the last set and the median time."""
    times = []
    for i in range(SETUP_REPEATS):
        replicas, seconds = at_reference_speed(wl.make_replicas, args.workload, args.size,
                                               args.seed, f"setup{i}")
        times.append(seconds)
    return replicas, statistics.median(times)


def quality(stats) -> dict:
    out = {m: stats.quality_mean(m)
           for m in ("map_optimality", "map_logpost", "coef_rmse", "smape")}
    coverage = stats.quality_mean("interval_coverage")
    if coverage is not None:
        out["interval_coverage_err"] = abs(coverage - 0.9)
    return {m: v for m, v in out.items() if v is not None}


def per_replica(*runs) -> dict:
    """Every quality value and count recorded, keyed by name and replica."""
    return {f"{m}[{i}]": v for st in runs for m, per in st.quality.items()
            for i, v in per.items()}


def end_to_end(stats, setup_s) -> dict:
    out = {
        "setup_s": setup_s,
        **{m: stats.time_metric(m) for m in ("fit_s", "forecast_s", "backtest_s", "cli_s")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality(stats),
    }
    out["ops_failed_frac"] = stats.failed / max(stats.attempted, 1)
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tracer, visits, untraced, traced, probes) -> dict:
    workload = probes["workload"]
    fits = tracer.attrs_of("inference.fit_map")
    fit_seconds = sum(tracer.durations("inference.fit_map"))
    saves = tracer.attrs_of("inference.save_fit")
    backtests = len(tracer.durations("evaluation.backtest"))
    svi_steps = sum(a["iterations"] for a in tracer.attrs_of("inference.fit_svi"))
    svi_seconds = tracer.exclusive_of("inference.fit_svi", "inference.fit_map")
    structures = tracer.durations("pipeline.build_structure")

    def per_structure(child):
        return sum(tracer.durations(child, parent="pipeline.build_structure")) / len(structures)

    out = {
        "timeframe.ingest_csv_s": _median(tracer.durations("timeframe.ingest_csv")),
        "fourier.fourier_design_s": per_structure("fourier.fourier_design"),
        "kernels.kernel_matrix_s": per_structure("kernels.kernel_matrix"),
        "kernels.weights_mb": max(a["weights_bytes"] for a in
                                  tracer.attrs_of("pipeline.build_structure")) / 2**20,
        "kernels.product_madds": workload["kernel_products_computed"]["madds"],
        "kernels.product_mb": workload["kernel_products_computed"]["bytes"] / 2**20,
        **workload["fitted"],
        "inference.map_iterations": statistics.fmean(a["iterations"] for a in fits),
        "inference.map_grad_norm": statistics.fmean(a["grad_norm"] for a in fits),
        "inference.us_per_map_iteration": fit_seconds / sum(a["iterations"] for a in fits) * 1e6,
        "inference.draw_posterior_s": _median(tracer.durations("inference.draw_posterior")),
        "inference.save_fit_s": _median(tracer.durations("inference.save_fit")),
        "inference.fit_json_kb": statistics.fmean(a["bytes"] for a in saves) / 1024,
        "pipeline.build_structure_s": _median(structures),
        "pipeline.forecast_design_s": _median(tracer.durations("pipeline.forecast_design")),
        "pipeline.forecast_quantiles_s": _median(
            tracer.durations("pipeline.forecast_quantiles")),
        "evaluation.split_fit_s": _median(tracer.durations("evaluation.split_fit")),
        "evaluation.splits": len(tracer.durations("evaluation.split_fit")) / backtests,
        "cli.predict_s": _median(tracer.durations("cli.predict")),
        "cli.decompose_s": _median(tracer.durations("cli.decompose")),
        "trace.overhead_s": traced.time_metric("fit_s") - untraced.time_metric("fit_s"),
    }
    if svi_seconds:
        out["inference.fit_svi_s"] = _median(svi_seconds)
        out["inference.us_per_svi_step"] = sum(svi_seconds) / svi_steps * 1e6
    else:
        # MAP-only workloads: the variational path is timed by a probe.
        out.update({k: v for k, v in probes["svi_path"].items() if "." in k})
    self_times = tracer.self_times()
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_times.get(layer, 0.0) / visits
    return out


def run(args) -> tuple[dict, dict, int, int, dict]:
    """Runs in the work directory. Returns (metrics, repeat values,
    attempted, failed, trace document)."""
    import workloads as wl
    from tracing import Tracer

    t0 = time.perf_counter()
    replicas, setup_s = setup(wl, args)
    tracer = Tracer()
    stats = wl.Stats(tracer)
    if not args.trace:
        import_s = import_seconds()
        measure(wl, args.workload, replicas, stats, args.seconds)
        for rep in replicas:
            try:
                with stats.op("optimality"):
                    wl.optimality(args.workload, stats, rep)
            except wl.VisitAborted:
                pass
        metrics = end_to_end(stats, import_s + setup_s)
        notes = {m: stats.describe(m) for m in stats.samples}
        notes["setup_s"] = (f"median of {SETUP_REPEATS} input builds, {setup_s:.4f} s, plus "
                            f"the median of {IMPORT_SAMPLES} imports of btvc, {import_s:.4f} s")
        print(f"host speed: reference work median {statistics.median(stats.host):.6g} s "
              f"during the loop; times are at the speed where it takes "
              f"{timing.REFERENCE_S:g} s")
        return metrics, per_replica(stats), stats.attempted, stats.failed, {"notes": notes}

    replicas = replicas[:TRACE_REPLICAS]
    # One untraced pass gives the baseline for the tracing overhead.
    measure(wl, args.workload, replicas, stats, 0)
    traced = wl.Stats(tracer)
    tracer.install()
    try:
        # Whole passes, so that per-layer counts average every replica equally.
        visits = measure(wl, args.workload, replicas, traced,
                         args.seconds - (time.perf_counter() - t0), whole=True)
    finally:
        tracer.uninstall()
    probes = wl.run_probes(args.workload, args.size, args.seed, replicas[0])
    scale = speed_scale(stats.host + traced.host)
    print(f"host speed: reference work median {statistics.median(stats.host + traced.host):.6g}"
          f" s; times are CPU seconds scaled to {timing.REFERENCE_S:g} s (x{scale:.4f})")
    # Spans and probes read the CPU clock unscaled; trace.overhead_s comes
    # from the end-to-end samples, which are scaled already.
    metrics = {m: v * scale if layer_unit(m) in ("s", "us") and m != "trace.overhead_s" else v
               for m, v in per_layer(tracer, visits, stats, traced, probes).items()}
    repeats = {**per_replica(stats, traced),
               **{k: metrics[k] for k in REPEATED_LAYERS}}
    doc = {"visits": visits, "self_times_s": tracer.self_times(), "probes": probes,
           "spans": tracer.dump(),
           "span_fields": ["id", "parent", "op", "name", "start_us", "end_us"]}
    return (metrics, repeats, stats.attempted + traced.attempted,
            stats.failed + traced.failed, doc)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        import workloads as wl
    except ImportError as exc:
        print(f"error: cannot import btvc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    os.chdir(work)
    try:
        metrics, repeats, attempted, failed, doc = run(args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    key = f"{args.workload}-{args.size}-seed{args.seed}"
    mismatches = check_repeats(key, repeats)
    for m in mismatches:
        print(f"exact-repeat check failed: {m}", file=sys.stderr)
    attempted += 1
    failed += bool(mismatches)
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        doc["env"] = env
        doc["per_layer"] = metrics
        trace_path = OUT / f"trace-{key}.json.gz"
        with gzip.open(trace_path, "wt") as fh:
            json.dump(doc, fh)
        print(f"spans: {len(doc['spans'])} written to {trace_path.relative_to(ROOT)}")
        for scope, table in doc["probes"].items():
            print(f"probe {scope} " + json.dumps(table, sort_keys=True))
        reported = metrics
        units = {}
    else:
        metrics = {m: metrics.get(m) for m in END_TO_END}
        reported = {m: v for m, v in metrics.items() if END_TO_END[m][1]}
        units = {m: u for m, (u, _) in END_TO_END.items()}
    notes = doc.get("notes", {})
    for name, value in metrics.items():
        shown = repr(value)
        if value is None:
            shown = ("n/a (no intervals on this workload)" if name == "interval_coverage_err"
                     else "missing: its ops failed")
        note = notes.get(name, "")
        if not args.trace and not END_TO_END[name][1]:
            note = "printed only, not in the result"
        print(f"{name:<40} {shown} {units.get(name, '')}  {note}".rstrip())
    complete = all(v is not None for v in reported.values())
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units.get(m) or layer_unit(m)}
                    for m, v in reported.items() if v is not None},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def layer_unit(name: str) -> str:
    if ".us_per_" in name:
        return "us"
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("_kb", "KB")):
        if name.endswith(suffix):
            return unit
    return "count" if name.endswith(("iterations", "splits", "madds")) else "1"


if __name__ == "__main__":
    sys.exit(main())
