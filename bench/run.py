"""Seeded benchmark for mienasr: one workload, timed passes, checked outputs.

    python3 bench/run.py --workload staged-phoneme --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the package is imported from
the checkout's ``src/`` and nowhere else.  Inputs are generated from
``--seed``; passes repeat until ``--seconds`` have elapsed.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports per-layer metrics.  The last line of standard
output is one JSON object; see bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 25
CAL_WINDOW_S = 0.3     # calibration time before and after each pass
CAL_REF_S = 0.049      # one calibration_work call on a 2-vCPU x86_64 machine, Python 3.11
SETUP_CODE = (
    "import time; t = time.perf_counter()\n"
    "import mienasr\n"
    "from mienasr.orthography import default_inventory\n"
    "from mienasr.lexicon import default_g2p_table\n"
    "default_inventory(); default_g2p_table()\n"
    "print(repr(time.perf_counter() - t))\n"
)

PER_LAYER_CALLS = ("decoder.decode", "lm.lm_score", "tokenizer.bpe_encode", "ctc.ctc_loss",
                   "ctc.read_emissions", "evaluate.error_rate", "orthography.parse_word")
PER_LAYER_SECONDS = (
    "decoder.build_prefix_tree", "lm.lm_score", "lm.lm_train", "lm.arpa_write",
    "lm.arpa_read", "lm.perplexity", "tokenizer.bpe_train", "tokenizer.bpe_encode",
    "lexicon.build_lexicon", "orthography.parse_word", "ctc.ctc_loss", "ctc.greedy_decode",
    "ctc.read_emissions", "evaluate.error_rate", "evaluate.make_cv_plan",
    "transfer.transfer_init", "cli.split", "cli.lexicon", "cli.vocab", "cli.lm-train",
    "cli.decode", "cli.score")
WORKLOAD_NAMES = ("staged-phoneme", "cv-subword", "build")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
QUALITY = ("wer_with_lm", "wer_no_lm", "test_ppl", "greedy_per")


def setup_seconds() -> float:
    """Median cold start: import mienasr and load the packaged tables."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)  # writes .pyc
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=60)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def calibration_work() -> list:
    """Fixed stand-in for the decoder's inner loop: tuple-keyed dict updates,
    ``np.logaddexp`` on floats, then one sort of the entries."""
    import numpy as np
    beam: dict = {}
    for i in range(20_000):
        key = (i % 31, str(i % 7))
        mass = -0.001 * i
        entry = beam.get(key)
        if entry is None:
            beam[key] = [mass, -np.inf]
        else:
            entry[0] = np.logaddexp(entry[0], mass)
    return sorted(beam.items(), key=lambda kv: (-kv[1][0], kv[0]))


def calibrate() -> float:
    """Mean seconds per ``calibration_work`` call over a CAL_WINDOW_S window.

    A shared machine's speed drifts by up to 2x for seconds to minutes.
    Dividing each pass time by the calibration measured around it cancels
    most of that drift; changes to the program do not move the calibration.
    """
    calls = 0
    start = time.perf_counter()
    while time.perf_counter() - start < CAL_WINDOW_S:
        calibration_work()
        calls += 1
    return (time.perf_counter() - start) / calls


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return "no percentile above the median has 10 samples above it"
    p = int(100 * (1 - 10 / n))
    return f"p{p} {sorted(samples)[-11]:.4f} s"


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info(seed: int) -> dict:
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "seed": seed}


def per_layer(tracer, traced: list[float], untraced: list[float], quality: dict) -> dict:
    n = len(traced)
    stats, counts = tracer.stats, tracer.counts
    metrics = {"trace.passes": (n, "count"),
               "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced),
                                    "s")}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (stats[name].calls / n, "count")
    for name in PER_LAYER_SECONDS:
        metrics[f"{name}.s"] = (stats[name].s / n, "s")
    decode = stats["decoder.decode"]
    deciles = (statistics.quantiles(decode.durations, n=10) if len(decode.durations) > 1
               else [decode.s] * 9)
    ratio = lambda a, b: a / b if b else 0.0
    metrics.update({
        "decoder.decode.s.p50": (deciles[4], "s"),
        "decoder.decode.s.p90": (deciles[8], "s"),
        "decoder.decode.self_s": (decode.self_s / n, "s"),
        "decoder.frames_per_s": (ratio(counts["frames"], decode.s), "1/s"),
        "decoder.lm_calls_per_frame": (ratio(counts["decode_lm_calls"], counts["frames"]),
                                       "calls/frame"),
        "decoder.empty_ratio": (ratio(counts["empty_decodes"], decode.calls), "ratio"),
        "lm.lm_score.distinct_ratio": (ratio(counts["decode_lm_distinct"],
                                             counts["decode_lm_calls"]), "ratio"),
        "lexicon.g2p.calls": (stats["lexicon.g2p"].calls / n, "count"),
        "lexicon.failures": (counts["lexicon_failures"] / n, "count"),
        "experiment.run_experiment.self_s": (stats["experiment.run_experiment"].self_s / n,
                                             "s"),
    })
    for key in QUALITY:
        metrics[f"quality.{key}"] = (quality.get(key, 0.0), "ppl" if key == "test_ppl"
                                     else "ratio")
    return metrics


def run_passes(args, wl, work: Path, tracer):
    """Timed passes until the deadline; untraced and traced alternate with --trace 1."""
    times = {False: [], True: []}
    ratios = []               # untraced pass seconds / calibration seconds
    attempted = failed = 0
    first_digest, quality = None, {}
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        out = work / f"pass{i}"
        out.mkdir()
        attempted += 1
        try:
            if traced:
                tracer.workload = f"{wl.name}/seed{args.seed}/pass{i}"
                tracer.install()
            cal = calibrate()
            start = time.perf_counter()
            try:
                attempted += wl.run(out) - 1
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            cal = (cal + calibrate()) / 2
            checks = wl.check(out)
            d = digest(out)
            if first_digest is None:
                first_digest, quality = d, wl.quality(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            break
        times[traced].append(elapsed)
        if not traced:
            ratios.append(elapsed / cal)
        attempted += checks.made + 1
        failed += len(checks.failures)
        for message in checks.failures:
            print(f"check failed: {message}", file=sys.stderr)
        if d != first_digest:
            failed += 1
            print(f"check failed: pass {i} artifacts differ from pass 0", file=sys.stderr)
        shutil.rmtree(out)
        i += 1
        if time.perf_counter() >= deadline and (times[True] or not args.trace):
            break
    return times, ratios, attempted, failed, first_digest, quality


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mienasr" / "__init__.py").is_file():
        print(f"bench: no mienasr sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import mienasr
    if Path(mienasr.__file__).resolve().parent != SRC / "mienasr":
        print(f"bench: imported mienasr from {mienasr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from mienasr.lexicon import default_g2p_table
    from mienasr.orthography import default_inventory

    import layer_trace
    import workloads

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = setup_seconds()
        start = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, work, default_inventory(),
                                                default_g2p_table())
        gen_s = time.perf_counter() - start
        tracer = layer_trace.Tracer() if args.trace else None
        times, ratios, attempted, failed, artifacts, quality = run_passes(args, wl, work,
                                                                          tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = times[False]
    wall = statistics.median(untraced) if untraced else 0.0
    wall_ref = statistics.median(ratios) * CAL_REF_S if ratios else 0.0
    print(f"# {args.workload} seed {args.seed}: inputs {json.dumps(wl.props)}, "
          f"generated in {gen_s:.2f} s")
    print(f"# wall_s {wall:.4f} s: median of n={len(untraced)} untraced passes; "
          f"{tail_percentile(untraced)}; utt_per_s {wl.items / wall if wall else 0.0:.4f}; "
          f"setup_s {setup:.4f} s; passes {' '.join(f'{t:.3f}' for t in untraced)}; "
          f"calibration ratios {' '.join(f'{r:.1f}' for r in ratios)}")
    print("# quality " + ", ".join(f"{k} {v:.4f}" if isinstance(v, float) else f"{k} {v}"
                                   for k, v in quality.items())
          + f"; fail_ratio {failed}/{attempted}; artifacts sha256 {artifacts}")
    if args.trace:
        layers = per_layer(tracer, times[True], untraced, quality) if times[True] else {}
        OUT.mkdir(exist_ok=True)
        report = OUT / f"trace-{args.workload}-{args.seed}.json"
        report.write_text(json.dumps({
            "machine": machine_info(args.seed), "workload": args.workload,
            "inputs": wl.props, "quality": quality, "artifacts_sha256": artifacts,
            "pass_seconds": {"untraced": untraced, "traced": times[True]},
            "counts": dict(tracer.counts),
            "functions": {name: {"calls": st.calls, "s": st.s, "self_s": st.self_s}
                          for name, st in sorted(tracer.stats.items()) if st.calls},
            "spans": tracer.dump()}, indent=1), encoding="utf-8")
        print(f"# spans and machine info -> {report.relative_to(ROOT)}")
        metrics = layers
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_ref_s": (wall_ref, "s"),
                   "utt_per_ref_s": (wl.items / wall_ref if wall_ref else 0.0, "1/s"),
                   "setup_s": (setup, "s"), "peak_rss_mb": (rss_mb, "MB")}
    print(json.dumps({"correct": failed == 0 and bool(untraced), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
