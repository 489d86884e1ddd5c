#!/usr/bin/env python3
"""pseudoharm benchmark: one closed-loop client, in process, fixed inputs.

    python3 bench/run.py --workload table1 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  With ``--trace 0`` the run measures set-up
(fresh-interpreter imports of ``pseudoharm.cli``), then repeats passes of the
workload's requests within ``--seconds``, on one CPU, checking every
response outside the timed region.  With ``--trace 1`` it runs one untraced
pass and one traced pass of the same requests and reports per-layer numbers
(see ``tracing.py``).  The metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it that
start with ``#`` are the human-readable summary.  The full record (machine,
versions, failures, every span aggregate) goes to ``bench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("table1", "spectrum-mix", "excited-matrix")
SETUP_SAMPLES = 7
ENV_RECORDED = ("PSEUDOHARM_THREADS", "OPENBLAS_NUM_THREADS")


def _fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(samples=SETUP_SAMPLES):
    """Median wall time of ``import pseudoharm.cli`` in fresh interpreters.

    One unrecorded import first, so byte-code compilation is not counted.
    """
    code = ("import time; t = time.perf_counter(); import pseudoharm.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=_import_env(), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        if i:
            times.append(float(proc.stdout))
    return statistics.median(times), times


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "openblas_config": blas.get("openblas configuration"),
        "git_sha": _git_sha(),
        "inherited_env": {k: os.environ.get(k) for k in ENV_RECORDED},
        "client": "closed loop, one client, in process",
    }


def run_pass(requests, failures, tracer=None):
    """One pass over the requests; returns the latency of each.

    A request fails when it raises, or when its check returns a message or
    raises.  Checks run outside the timed region and, in a traced pass, with
    tracing paused.
    """
    latencies = []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i + 1
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = req.run()
            err = None
        except Exception as exc:  # a failed request is counted, not fatal
            result, err = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.active = False
        latencies.append(time.perf_counter() - t0)
        if err is None:
            try:
                err = req.check(result)
            except Exception as exc:  # malformed output fails its check
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{req!r}: {err}")
    return latencies


def timed_passes(requests, seconds):
    """Passes over the requests within ``seconds`` (at least one).

    A pass is not started when the last one, repeated, would end after
    ``seconds``, so a run of long passes does not overrun its time.
    Returns per-request latencies, per-pass times (sum of the pass's request
    latencies, so check time is excluded) and failure messages.
    """
    latencies, passes, failures = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lat = run_pass(requests, failures)
        latencies.extend(lat)
        passes.append(sum(lat))
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            return latencies, passes, failures


def _quantile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Span names reported as <name>.calls and <name>.self_s.
SPAN_METRICS = (
    "cli.main",
    "regspec.solve_excited", "regspec.solve_ground_even",
    "regspec.build_wavefunction", "regspec.eig_condition_residual",
    "rootfind.scan_sign_changes", "rootfind.bisect_then_secant",
    "rootfind.bisect",
    "quadrature.integrate", "quadrature.integrate.under_si",
    "quadrature.integrate_to_infinity", "quadrature.gauss_kronrod_15",
    "matmech.assemble", "matmech.eigensolve",
    "matmech.reconstruct_wavefunction",
    "eigensolver.eigh_lowest", "eigensolver.householder_tridiagonalize",
    "eigensolver.ql_eigenvalues", "eigensolver.tridiag_eigenvector",
    "eigensolver.back_transform",
    "specfun.sine_integral", "specfun.tricomi_u", "specfun.u_ratio_shift_a",
    "specfun.u_ratio_shift_z", "specfun.kummer_m", "specfun.bessel_k",
    "specfun.bessel_i", "specfun.laguerre",
)
# Modules reported as one total: <label>.calls and <label>.self_s.
MODULE_METRICS = {
    "asymptotics": "pseudoharm.asymptotics",
    "unreg": "pseudoharm.unreg",
    "specfun.gammafn": "pseudoharm.specfun.gammafn",
}


def layer_metrics(tracer, untraced_s, traced_s):
    stats = tracer.merged()
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}.calls"] = stats.calls[name]
        out[f"{name}.self_s"] = stats.self_s[name]
    for label, modname in MODULE_METRICS.items():
        names = [n for m, n in tracer.names if m == modname]
        out[f"{label}.calls"] = sum(stats.calls[n] for n in names)
        out[f"{label}.self_s"] = sum(stats.self_s[n] for n in names)
    c = stats.counters

    def ratio(a, b):
        return a / b if b else 0.0

    out["rootfind.residual_evals"] = c["rootfind.residual_evals"]
    out["rootfind.scan_hit_ratio"] = ratio(c["rootfind.scan_hits"],
                                           c["rootfind.scan_calls"])
    out["regspec.ground_windows_per_solve"] = ratio(
        c["regspec.ground_windows"], stats.calls["regspec.solve_ground_even"])
    points = c["regspec.wavefunction_eval.points"]
    out["regspec.wavefunction_eval.points"] = points
    out["regspec.wavefunction_eval.us_per_point"] = ratio(
        1e6 * stats.incl_s["regspec.wavefunction_eval"], points)
    out["quadrature.integrand_evals"] = c["quadrature.integrand_evals"]
    out["matmech.dense_bytes_computed"] = c["matmech.dense_bytes_computed"]
    flops = c["eigensolver.householder.flops_computed"]
    out["eigensolver.householder.flops_computed"] = flops
    out["eigensolver.householder.gflops_computed"] = ratio(
        flops / 1e9, stats.self_s["eigensolver.householder_tridiagonalize"])
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    out["trace.spans"] = len(tracer.spans) + tracer.spans_dropped
    return out, stats


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(metrics, listed, correct, attempted, failed):
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in listed}}
    print(json.dumps(result))


def _write_out(name, payload):
    path = OUT / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, default=str)
    return path


def run_workload(args):
    spec = _spec()
    # Every workload runs with its process confined to one CPU, set before
    # numpy is imported so that its BLAS threads start there too.  The
    # program still starts its default os.cpu_count() pool threads; they
    # share the one CPU.  On a 2-vCPU VM, pool and BLAS threads spread over
    # both vCPUs made pass times depend on scheduling: spectrum-mix latencies
    # were bimodal (p50 about 15 ms or about 28 ms for minutes at a time),
    # and a table1 pass took 24 to 33 s on 40 to 51 s of CPU, against 27 to
    # 33 s of CPU and wall time on one CPU, where ten runs spread 8 to 9% of
    # their median against 10 to 25% on both vCPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run_record(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        setup_s, setup_samples = measure_setup()
        record["setup_samples_s"] = setup_samples

    import workloads

    OUT.mkdir(exist_ok=True)
    make_requests, warmup = workloads.WORKLOADS[args.workload]
    requests = make_requests(args.seed)
    warmup()

    if args.trace == 0:
        latencies, passes, failures = timed_passes(requests, args.seconds)
        attempted = len(latencies)
        ms = [1e3 * v for v in latencies]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(passes),
            "req_ms_p50": _quantile(ms, 0.5),
            "req_ms_p90": _quantile(ms, 0.9),
            "peak_rss_mb": _peak_rss_mb(),
        }
        listed = spec["end_to_end"]
        record.update(passes=len(passes), pass_s=passes,
                      requests_per_pass=len(requests),
                      req_beyond_p90=sum(v > metrics["req_ms_p90"] for v in ms))
        stats = None
    else:
        from tracing import Tracer

        failures = []
        untraced_s = sum(run_pass(requests, failures))
        tracer = Tracer().install()
        try:
            traced_s = sum(run_pass(requests, failures, tracer))
        finally:
            tracer.remove()
        attempted = 2 * len(requests)
        metrics, stats = layer_metrics(tracer, untraced_s, traced_s)
        listed = spec["per_layer"]
        record.update(untraced_pass_s=untraced_s, traced_pass_s=traced_s)
        with open(OUT / f"{tag}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write('["span_id","parent_id","name","thread","request",'
                     '"start_s","end_s"]\n')
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    failed = len(failures)
    metrics_all = dict(metrics)
    metrics_all["failed_frac"] = failed / attempted
    payload = {"record": record, "metrics": metrics_all,
               "failures": failures[:50]}
    if stats is not None:
        payload["spans"] = {n: {"calls": stats.calls[n],
                                "self_s": stats.self_s[n],
                                "incl_s": stats.incl_s[n]}
                            for n in sorted(stats.calls)}
        payload["counters"] = dict(stats.counters)
    out_path = _write_out(f"{tag}.json", payload)

    units = {m["name"]: m["unit"] for m in listed}
    print(f"# record {json.dumps(record)}")
    for name in [m["name"] for m in listed]:
        print(f"# {args.workload} {name} {metrics[name]:.6g} {units[name]}")
    print(f"# {args.workload} failed_frac {metrics_all['failed_frac']:.6g} "
          f"({failed}/{attempted})")
    for msg in failures[:5]:
        print(f"# FAILED {msg}")
    print(f"# full record: {out_path.relative_to(ROOT)}")
    _emit(metrics, listed, failed == 0, attempted, failed)
    return 0


def run_all(args):
    """Every workload in its own interpreter, then one table of results."""
    rows = []
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"# {name}: exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, val in res["metrics"].items():
            rows.append((name, metric, f"{val['value']:.6g}", val["unit"]))
        rows.append((name, "failed_frac",
                     f"{res['failed'] / res['attempted']:.6g}",
                     f"of {res['attempted']}"))
    for row in rows:
        print("{:<15} {:<45} {:>14} {}".format(*row))
    return status


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "pseudoharm" / "cli.py").is_file():
        return _fail(f"no pseudoharm sources under {SRC}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
