#!/usr/bin/env python3
"""Run one workload of the hdwear benchmark and print its metrics.

    python3 hdbench/run.py --workload wear-std --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the benchmark imports hdwear from the
checkout's ``src``.  It writes the workload's seeded CSV, builds the encoder
(set-up, timed on its own), then repeats the whole experiment through
hdwear's public calls for about ``--seconds`` seconds:

    CSV -> windows/features -> encode -> online train -> retrain
        -> save/load -> evaluate -> 1-bit quantize + bit-flip sweep

Load: a closed loop with one client; one process, one Python thread and one
BLAS/OpenMP thread per run.  Every repetition checks its outputs and their
digest, which must repeat exactly for a seed.

Timings are medians over the repetitions of probe-rescaled stage times
(see hostspeed.py); the raw wall-time medians go to the run record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.  Each run
writes its record and its spans (JSON) to ``.hdbench/``.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit status: 0 when
every call and check passed, 1 when one failed, 2 when hdwear's sources are
not in the checkout.
"""

from __future__ import annotations

import os

# Must be set before numpy loads its BLAS.
THREAD_CAP = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse
import bisect
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import hdapi
from hostspeed import REFERENCE_S, Probe
from metrics import END_TO_END, FAILED_FRAC, PER_LAYER
from tracing import Tracer
from workloads import WORKLOADS, Workload, generate_csv

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".hdbench"
SETUP_REPS = 40
FLIP_RATE = 0.10
STAGES = ("train", "save", "infer", "sweep")  # together: the pipeline
PROBE_WINDOW_S = 0.5  # probes this close to a stage set its host speed


@dataclass
class Context:
    api: SimpleNamespace
    w: Workload
    seed: int
    csv: Path
    model_path: Path
    schema: object
    enc: object  # the FeatureEncoder built at set-up
    inputs: dict


@dataclass
class Outcome:
    accuracy: float
    acc_flips: float
    digest: str
    failed_checks: list = field(default_factory=list)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_cap": THREAD_CAP,
    }


def calibrate(api, w: Workload, seed: int, csv: Path):
    """One untimed pass up to fit_stats: the training bounds the encoder is
    built with, and the input's properties."""
    schema = api.CsvSchema(channels=w.channel_names, label="activity", subject="subject")
    ds = api.build_dataset(api.load_csv(csv, schema), w.channel_names, w.window, w.stride, smooth=w.smooth)
    train, test = api.split(ds, "random", seed=seed, fraction=w.train_fraction)
    stats = api.fit_stats(train)
    X = test.X
    clamped = int(np.count_nonzero((X < stats.mins) | (X > stats.maxs)))
    inputs = {
        "rows": w.subjects * w.samples,
        "channels": w.channels,
        "features": w.n_features,
        "features_over_127": w.n_features > 127,
        "windows": len(ds),
        "classes": len(set(ds.y)),
        "train": len(train),
        "test": len(test),
        "clamped": clamped,
        "clamped_frac": clamped / X.size,
    }
    return schema, stats.bounds(), inputs


def setup(src: Path, w: Workload, bounds, tr: Tracer):
    """Import hdwear and build the encoder, SETUP_REPS times; the last
    import and encoder are the ones the repetitions use.  Each pass drops
    the previous pass's encoder first, so only one is ever alive."""
    for i in range(SETUP_REPS):
        tr.run_id = f"setup{i}"
        api = enc = None
        with tr.stage("setup"):
            api = hdapi.load(src)
            with tr.call("encoding.FeatureEncoder"):
                enc = api.FeatureEncoder(
                    api.EncoderConfig(dim=w.dim, q_levels=w.q_levels, feature_bounds=list(bounds))
                )
    tr.sample()  # closes the last pass's probe window
    return api, enc


def repetition(ctx: Context, tr: Tracer) -> Outcome:
    api, w, enc = ctx.api, ctx.w, ctx.enc
    with tr.stage("train"):
        with tr.call("datapipe.load_csv"):
            recs = api.load_csv(ctx.csv, ctx.schema)
        with tr.call("datapipe.build_dataset") as sp:
            ds = api.build_dataset(recs, w.channel_names, w.window, w.stride, smooth=w.smooth)
            sp.counts["windows"] = len(ds)
        with tr.call("datapipe.split"):
            train, test = api.split(ds, "random", seed=ctx.seed, fraction=w.train_fraction)
        with tr.call("datapipe.fit_stats"):
            stats = api.fit_stats(train)
        with tr.call("encoding.encode_train") as sp:
            H = enc.encode_matrix(train.X)
            sp.counts["records"] = len(train)
        labels = train.y
        with tr.call("learning.Model"):
            model = api.Model(classes=sorted(set(ds.y)), encoder=enc.config)
        with tr.call("learning.train_online") as sp:
            model = api.train_online(model, zip(H, labels))
            sp.counts["updates"] = len(labels)
        with tr.call("learning.train_iterative") as sp:
            model = api.train_iterative(
                model, list(zip(H, labels)), max_epochs=w.max_epochs, patience=w.patience
            )
            sp.counts["curve"] = list(model.retrain_curve)
    with tr.stage("save"):
        with tr.call("learning.save_model"):
            api.save_model(model, ctx.model_path)
    with tr.stage("infer"):
        with tr.call("learning.load_model"):
            loaded = api.load_model(ctx.model_path)
        with tr.call("encoding.encode_test") as sp:
            Ht = enc.encode_matrix(test.X)
            sp.counts["records"] = len(test)
        queries = list(zip(Ht, test.y))
        with tr.call("learning.evaluate") as sp:
            report = api.evaluate(loaded, queries)
            sp.counts["queries"] = len(queries)
    with tr.stage("sweep"):
        with tr.call("robustness.robustness_sweep"):
            rob = api.robustness_sweep(
                loaded, queries, rates=api.TABLE4_RATES, trials=w.trials, seed=ctx.seed
            )
    if tr.detail:
        # Timed on its own, outside the pipeline: robustness_sweep runs it
        # internally, where the benchmark cannot see it.
        with tr.call("robustness.quantize_model"):
            api.quantize_model(loaded)
    tr.sample()  # closes the last span's probe window

    blob = ctx.model_path.read_bytes()
    digest = hashlib.sha256(
        blob + report.confusion.tobytes() + repr(rob.rows()).encode()
    ).hexdigest()
    rates = list(rob.rates)
    checks = {
        "datapipe.build_dataset: window count": len(ds) == ctx.inputs["windows"],
        "datapipe.fit_stats: bounds equal the set-up encoder's": stats.bounds() == enc.config.feature_bounds,
        "learning.load_model: load(save(m)) == m": loaded == model,
        f"learning.evaluate: accuracy >= {w.acc_floor}": report.accuracy >= w.acc_floor,
        "robustness.robustness_sweep: rates": FLIP_RATE in rates and len(rob.rows()) == len(rates),
    }
    return Outcome(
        accuracy=float(report.accuracy),
        acc_flips=float(rob.mean_acc[rates.index(FLIP_RATE)]) if FLIP_RATE in rates else float("nan"),
        digest=digest,
        failed_checks=[name for name, ok in checks.items() if not ok],
    )


def measure(ctx: Context, tr: Tracer, seconds: float, trace: bool):
    """Repeat the experiment for about `seconds`; with `trace`, untraced and
    traced repetitions alternate, pair by pair in alternating order."""
    min_reps = 4 if trace else 3
    outcomes, failed, i = [], 0, 0
    start, last = perf_counter(), 0.0
    while i < min_reps or (trace and i % 2) or perf_counter() - start + last <= seconds:
        tr.detail = trace and (i % 2) != (i // 2) % 2
        tr.run_id = f"{'t' if tr.detail else 'u'}{i}"
        gc.collect()  # every repetition starts from the same collector state
        t0 = perf_counter()
        try:
            out = repetition(ctx, tr)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            break
        last = perf_counter() - t0
        i += 1
        for name in out.failed_checks:
            print(f"check failed: {name}", file=sys.stderr)
        failed += len(out.failed_checks)
        if outcomes and out.digest != outcomes[0].digest:
            print(f"check failed: digest {out.digest} != {outcomes[0].digest}", file=sys.stderr)
            failed += 1
        outcomes.append(out)
        if failed:
            break
    return outcomes, failed


def repetitions(tr: Tracer, prefix: str) -> list:
    """One entry per repetition whose run id starts with `prefix`: each
    top-level span's duration ("raw"), the same rescaled ("scaled"), and
    every span's (rescaled self time, span).

    A top-level span is rescaled by REFERENCE_S over the median time of the
    probes that start within PROBE_WINDOW_S of it, so each stage is measured
    against the host speed while it ran; the calls inside a stage take the
    stage's factor.
    """
    spans, self_t = tr.spans, tr.self_times()
    probes = [sp.duration for sp in spans if sp.name == "probe"]
    starts = [sp.start for sp in spans if sp.name == "probe"]
    factor: dict = {}  # span index -> rescaling factor
    runs: dict = {}
    for i, sp in enumerate(spans):
        if sp.name == "probe":
            continue
        if sp.parent is None:
            near = probes[bisect.bisect_left(starts, sp.start - PROBE_WINDOW_S) :
                          bisect.bisect_right(starts, sp.end + PROBE_WINDOW_S)]
            factor[i] = REFERENCE_S / statistics.median(near)
        else:
            factor[i] = factor[sp.parent]
        if sp.run_id.startswith(prefix):
            runs.setdefault(sp.run_id, []).append(i)
    out = []
    for rid, idxs in runs.items():
        raw, scaled, calls = {}, {}, {}
        for i in idxs:
            sp = spans[i]
            calls[sp.name] = (self_t[i] * factor[i], sp)
            if sp.parent is None:
                raw[sp.name] = sp.duration
                scaled[sp.name] = sp.duration * factor[i]
        for d in (raw, scaled):
            if all(s in d for s in STAGES):
                d["pipeline"] = sum(d[s] for s in STAGES)
        out.append({"run_id": rid, "raw": raw, "scaled": scaled, "spans": calls})
    return out


def medians(reps: list, key: str) -> dict:
    """Median over the repetitions of each top-level span's time."""
    return {n: statistics.median(r[key][n] for r in reps) for n in reps[0][key]}


def end_to_end(t: dict, outcomes: list, inputs: dict) -> dict:
    return {
        "setup_s": t["setup"],
        "train_s": t["train"],
        "infer_windows_per_s": inputs["test"] / t["infer"],
        "sweep_s": t["sweep"],
        "pipeline_s": t["pipeline"],
        "test_accuracy": outcomes[0].accuracy,
        "acc_at_10pct_flips": outcomes[0].acc_flips,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced: list, setup_reps: list, w: Workload, inputs: dict, rates, overhead: float) -> dict:
    """Medians over the traced repetitions of each per-layer metric."""
    k, n_test = inputs["classes"], inputs["test"]
    evals = len(rates) * w.trials * n_test * k

    def one(rep: dict) -> dict:
        spans = rep["spans"]
        t = {name: st for name, (st, _) in spans.items() if "." in name}
        count = {name: sp.counts for name, (_, sp) in spans.items()}
        curve = count["learning.train_iterative"]["curve"]
        epochs = max(len(curve), 1)
        useful = sum(1 for j in range(1, len(curve)) if curve[j] < min(curve[:j]))
        busy = {
            layer: sum(v for name, v in t.items() if name.startswith(layer + ".") and name != "robustness.quantize_model")
            for layer in ("datapipe", "encoding", "learning", "robustness")
        }
        sweep = t["robustness.robustness_sweep"]
        return {
            "datapipe.load_csv_s": t["datapipe.load_csv"],
            "datapipe.rows_per_s": inputs["rows"] / t["datapipe.load_csv"],
            "datapipe.build_dataset_s": t["datapipe.build_dataset"],
            "datapipe.windows": count["datapipe.build_dataset"]["windows"],
            "datapipe.windows_per_s": count["datapipe.build_dataset"]["windows"] / t["datapipe.build_dataset"],
            "datapipe.split_s": t["datapipe.split"],
            "datapipe.fit_stats_s": t["datapipe.fit_stats"],
            "datapipe.busy_s": busy["datapipe"],
            "encoding.encode_train_s": t["encoding.encode_train"],
            "encoding.encode_test_s": t["encoding.encode_test"],
            "encoding.records_per_s": (count["encoding.encode_train"]["records"] + count["encoding.encode_test"]["records"])
            / (t["encoding.encode_train"] + t["encoding.encode_test"]),
            "encoding.busy_s": busy["encoding"],
            "learning.train_online_s": t["learning.train_online"],
            "learning.online_updates_per_s": count["learning.train_online"]["updates"] / t["learning.train_online"],
            "learning.train_iterative_s": t["learning.train_iterative"],
            "learning.retrain_epochs": len(curve),
            "learning.retrain_epoch_s": t["learning.train_iterative"] / epochs,
            "learning.retrain_misses_first": curve[0] if curve else 0,
            "learning.retrain_misses_best": min(curve) if curve else 0,
            "learning.retrain_useful_epochs_frac": useful / epochs,
            "learning.evaluate_s": t["learning.evaluate"],
            "learning.queries_per_s": count["learning.evaluate"]["queries"] / t["learning.evaluate"],
            "learning.save_model_s": t["learning.save_model"],
            "learning.load_model_s": t["learning.load_model"],
            "learning.busy_s": busy["learning"],
            "robustness.quantize_model_s": t["robustness.quantize_model"],
            "robustness.sweep_trial_s": (sweep - t["robustness.quantize_model"]) / (len(rates) * w.trials),
            "robustness.hamming_evals_per_s": evals / sweep,
            "robustness.busy_s": busy["robustness"],
        }

    rows = [one(r) for r in traced]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out |= {
        "encoding.encoder_init_s": statistics.median(
            r["spans"]["encoding.FeatureEncoder"][0] for r in setup_reps
        ),
        "encoding.clamped_frac": inputs["clamped_frac"],
        "learning.model_bytes": inputs["model_bytes"],
        "robustness.hamming_evals": evals,
        "robustness.bit_flips": sum(round(r * k * w.dim) for r in rates) * w.trials,
        "trace_overhead_frac": overhead,
    }
    return {m.name: out[m.name] for m in PER_LAYER}


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    src = hdapi.add_source(ROOT)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{w.name}-s{seed}-{os.getpid()}"
    work.mkdir()
    try:
        csv = work / "input.csv"
        csv.write_bytes(generate_csv(w, seed))
        probe = Probe()
        tr = Tracer(detail=trace, probe=probe.work)
        api = hdapi.load(src)
        schema, bounds, inputs = calibrate(api, w, seed, csv)
        api, enc = setup(src, w, bounds, tr)
        ctx = Context(api, w, seed, csv, work / "model.hdwm", schema, enc, inputs)
        calls_before = tr.calls
        outcomes, failed = measure(ctx, tr, seconds, trace)
        attempted = max(tr.calls - calls_before, 1)
        if ctx.model_path.exists():
            inputs["model_bytes"] = ctx.model_path.stat().st_size
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": asdict(w),
        "seed": seed,
        "trace": int(trace),
        "machine": machine(),
        "inputs": inputs,
        "repetitions": len(outcomes),
        "digest": outcomes[0].digest if outcomes else None,
        "failed_frac": failed / attempted,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    if failed:
        return result, record
    setup_reps = repetitions(tr, "setup")
    untraced = repetitions(tr, "u")
    t = medians(untraced, "scaled") | {"setup": medians(setup_reps, "scaled")["setup"]}
    e2e = end_to_end(t, outcomes, inputs)
    record["samples"] = {"setup": len(setup_reps), "pipeline": len(untraced)}
    record["end_to_end"] = e2e
    record["wall_medians_s"] = medians(untraced, "raw") | {"setup": medians(setup_reps, "raw")["setup"]}
    record["times"] = [{k: r[k] for k in ("run_id", "raw", "scaled")} for r in setup_reps + untraced]
    record["spans"] = str((OUT / f"spans-{w.name}-s{seed}-t{int(trace)}.json").relative_to(ROOT))
    tr.write(ROOT / record["spans"])
    if trace:
        traced = repetitions(tr, "t")
        overhead = medians(traced, "scaled")["pipeline"] / t["pipeline"] - 1
        layers = per_layer(traced, setup_reps, w, inputs, list(ctx.api.TABLE4_RATES), overhead)
        record["per_layer"] = layers
        chosen = {m.name: (m.unit, layers[m.name]) for m in PER_LAYER}
    else:
        chosen = {m.name: (m.unit, e2e[m.name]) for m in END_TO_END}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (u, v) in chosen.items()}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    w = WORKLOADS[args.workload]
    try:
        result, record = run(w, args.seed, args.seconds, bool(args.trace))
    except hdapi.MissingPackage as exc:
        print(f"hdbench: {exc}", file=sys.stderr)
        return 2

    path = OUT / f"{w.name}-s{args.seed}-t{args.trace}.json"
    record["result"] = result
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    n = record.get("samples", {})
    mach, inp = record["machine"], record["inputs"]
    print(f"hdbench {w.name} seed={args.seed} trace={args.trace}: "
          f"{record['repetitions']} repetitions, closed loop, 1 client, thread cap {THREAD_CAP}")
    print(f"  machine: {mach['cpu']}, nproc {mach['nproc']}, Python {mach['python']}, "
          f"numpy {mach['numpy']}, {mach['blas']}")
    print(f"  inputs: {inp['rows']} rows x {inp['channels']} channels, F={inp['features']} "
          f"(F > 127: {inp['features_over_127']}), {inp['windows']} windows, {inp['classes']} classes, "
          f"train/test {inp['train']}/{inp['test']}, clamped {inp['clamped_frac']:.4f}")
    wall = record.get("wall_medians_s", {})
    for m in END_TO_END:
        if m.name in record.get("end_to_end", {}):
            stage = {"setup_s": "setup", "train_s": "train", "sweep_s": "sweep",
                     "pipeline_s": "pipeline", "infer_windows_per_s": "infer"}.get(m.name)
            note = f"median of n={n['setup' if stage == 'setup' else 'pipeline']}" if stage else (
                "process peak" if m.name == "peak_rss_mb" else "exact for the seed")
            if stage:
                note += f", wall median {wall[stage]:.4g} s"
            print(f"  {m.name:<22} {record['end_to_end'][m.name]:<14.6g} {m.unit:<10} {note}")
    print(f"  {FAILED_FRAC.name:<22} {record['failed_frac']:<14.6g} {FAILED_FRAC.unit:<10} "
          f"{result['failed']} of {result['attempted']} stage calls")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<36} {value:.6g}")
    print(f"digest {record['digest']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
