#!/usr/bin/env python3
"""chunkmel benchmark: streaming, parallel and training workloads.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload train --seed 1 --trace 1   # per-layer run
    python3 perfbench/run.py                                       # every workload

Run from the root of a checkout; the package is imported from `src/`.
The last line of a workload run is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Results and traces
are written under `perfbench/out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
KINDS = ("stream", "parallel", "train")
SETUPS = 7  # set-ups per run; setup_s is their median
OWN_SHARE = 0.6  # of the run's time; the other two kinds share the rest
MIN_ROUNDS = 10  # per kind, so every median draws on at least 10 rounds


def cap_threads() -> None:
    """One BLAS thread for the reference checks.

    The package's kernels use no BLAS. A second BLAS thread made the checks
    no faster here, and its worker would spin on a core beside the timed calls.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=KINDS, help="one workload; default: every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="MODEL", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> int:
    """Child process: one set-up (imports, model load, first inputs), then exit."""
    import workloads

    workloads.setup(args.workload, args.seed, args.setup_probe, os.path.dirname(args.setup_probe))
    print("ready", flush=True)
    return 0


def time_setup(kind: str, seed: int, model_path: str) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", kind, "--seed", str(seed),
           "--setup-probe", model_path]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process exited with {code}")
    return elapsed


def run_workload(args) -> int:
    import numpy as np
    import resource

    import checks
    import spans
    import workloads as wl
    from chunkmel import decoder

    kind, seed = args.workload, args.seed
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{kind}-", dir=OUT)
    tracer = spans.Tracer() if args.trace else None
    rec = wl.Recorder()
    try:
        model_path = os.path.join(workdir, "model.cfpw")
        decoder.save_model(model_path, decoder.init_weights(wl.CFG, seed))
        setup_s = [] if tracer else [time_setup(kind, seed, model_path) for _ in range(SETUPS)]

        if tracer:
            tracer.install()
            root = tracer.open(spans.SETUP_ROOT)
        contexts = {kind: wl.setup(kind, seed, model_path, workdir)}
        if tracer:
            tracer.close(root)
        for other in KINDS:
            contexts.setdefault(other, wl.setup(other, seed, model_path, workdir))

        # Rounds of all three kinds, interleaved so that each kind holds its
        # share of the run's time and meets the same machine conditions. A
        # traced run traces every second round of each kind; the untraced
        # rounds between give the tracing overhead.
        share = {k: OWN_SHARE if k == kind else (1 - OWN_SHARE) / 2 for k in KINDS}
        spent = dict.fromkeys(KINDS, 0.0)
        rounds = dict.fromkeys(KINDS, 0)
        start = time.monotonic()
        while True:
            lacking = [k for k in KINDS if rounds[k] < MIN_ROUNDS]
            if tracer:
                lacking += [k for k in KINDS if rounds[k] % 2 and k not in lacking]
            over = time.monotonic() - start >= args.seconds
            if over and not lacking:
                break
            k = min(lacking if over else KINDS, key=lambda k: spent[k] / share[k])
            traced = tracer is not None and rounds[k] % 2 == 1
            if tracer:
                tracer.install() if traced else tracer.uninstall()
            t0 = time.monotonic()
            wl.run_round(contexts[k], rounds[k], rec, tracer if traced else None)
            rec.end_round(wl.calibrate())
            spent[k] += time.monotonic() - t0
            rounds[k] += 1
        if tracer:
            tracer.uninstall()
        for c in contexts.values():
            for tn in c.trainers.values():
                checks.check_losses(tn.losses)
    except checks.CheckFailed as e:
        print(f"output check failed: {e}", file=sys.stderr, flush=True)
        print(json.dumps({"correct": False, "attempted": sum(rec.attempted.values()),
                          "failed": sum(rec.failed.values()), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {kind} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    for k in KINDS:
        print(f"ops {k}: rounds {rounds[k]} ({spent[k]:.1f} s), attempted {rec.attempted[k]}, failed {rec.failed[k]}")
    stem = f"{kind}-seed{seed}-trace{args.trace}"
    if tracer:
        metrics = tracer.per_layer(kind)
        metrics["trace.overhead_pct"] = {"value": wl.tracing_overhead_pct(rec, kind), "unit": "%"}
        trace_path = os.path.join(OUT, f"trace-{stem}.json.gz")
        tracer.write(trace_path)
        print(f"spans {len(tracer.start)} written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": float(np.median(setup_s)), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        metrics.update({k: {"value": v, "unit": u} for k, (v, u) in wl.end_to_end(rec).items()})
        for name, (value, unit, n) in wl.ungated(rec).items():
            print(f"{name:36s} {value:.6g} {unit} (n={n}, not gated)")
        print(f"set-ups timed: {len(setup_s)}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": True,
        "attempted": sum(rec.attempted.values()),
        "failed": sum(rec.failed.values()),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as f:
        json.dump(dict(result, samples_ms=rec.ms), f)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    worst = 0
    for kind in KINDS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", kind, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {kind}", flush=True)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "chunkmel", "__init__.py")):
        print(f"perfbench: no package source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
