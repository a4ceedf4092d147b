#!/usr/bin/env python3
"""End-to-end benchmark of the Spade reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
harness (perfbench/CMakeLists.txt) in $CARGO_TARGET_DIR, default
.bench_build; later runs reuse the build. The harness generates the
workload's inputs from --seed, measures for about --seconds, checks its
outputs and writes raw samples; this script reduces them (stats.py), prints
a report with every metric, its unit and its sample count, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer metrics (from
a run that alternates untraced and traced rounds and writes the spans).

Workloads and metric definitions: perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARNESS_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log("perfbench: %s is not a Spade checkout (no src/ or "
            "CMakeLists.txt next to perfbench/)" % ROOT)
        return None
    bdir = out / "perfbench"
    # Configuring every time is cheap once cached, and keeps a build
    # directory from an older perfbench in step with this one.
    r = subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        shutil.rmtree(bdir, ignore_errors=True)
        log("perfbench: configure failed")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(
        ["cmake", "--build", str(bdir), "--target", "perfbench_harness",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    harness = bdir / "perfbench_harness"
    if r.returncode != 0 or not harness.is_file():
        log("perfbench: build failed")
        return None
    return harness


def run_harness(harness, args, out):
    """Runs one workload; returns (raw JSON dict or None, exit code)."""
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    raw = runs / (tag + ".json")
    work = runs / (tag + ".work")
    stderr_log = runs / (tag + ".stderr")
    spans = out / "trace" / (args.workload + ".spans.tsv")
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(raw), "--work-dir", str(work)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    try:
        with open(stderr_log, "w") as err:
            proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=err)
            try:
                code = proc.wait(timeout=HARNESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                log("perfbench: harness timed out after %ds" % HARNESS_TIMEOUT_S)
                return None, 124
            except BaseException:
                # Interrupted (SIGINT, or SIGTERM via main's handler): never
                # leave the harness running behind us.
                proc.kill()
                proc.wait()
                raise
        data = json.loads(raw.read_text()) if raw.is_file() else None
        if code != 0 or data is None:
            lines = stderr_log.read_text(errors="replace").splitlines()
            for line in [l for l in lines if "perfbench" in l][-20:]:
                log(line)
        return data, code
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for f in (raw, stderr_log):
            if f.exists():
                f.unlink()


class Raw:
    """Accessors over the harness's raw document. Untraced samples are
    preferred; a series only measured in traced rounds (the split update
    calls) falls back to its traced samples."""

    def __init__(self, data):
        self.data = data
        self.samples = data["samples"]
        self.values = data["values"]

    def series(self, name, traced=False):
        if traced:
            return self.samples.get("trace:" + name, [])
        return self.samples.get(name) or self.samples.get("trace:" + name, [])

    def value(self, name, default=0.0):
        v = self.values.get("trace:" + name)
        if v is None:
            v = self.values.get(name)
        return default if v is None else v


def per_edge(total, edges):
    return total / edges if edges else 0.0


def share(flags):
    return sum(flags) / len(flags) if flags else 0.0


def end_to_end(workload, raw):
    """The workload's named figures (the names the report prints) and the generic
    end-to-end slots of BENCHMARK.json. Values are timing dicts from
    stats.timing, or plain numbers."""
    named = {}
    s = raw.series
    if workload == "paper-stream":
        named["update_us_p50"] = stats.timing(s("update_us"), 50)
        named["update_us_p99"] = stats.timing(s("update_us"), 99)
        named["updates_per_s"] = stats.round_rate(s("update_edges"),
                                                  s("update_total_s"))
        named["recovery_static_peel_ms"] = stats.timing(s("static_ms"), 50)
        slots = {"ingest_eps": named["updates_per_s"],
                 "latency_ms_p50": stats.timing(s("update_us"), 50, 1e-3),
                 "latency_ms_tail": stats.timing(s("update_us"), 99, 1e-3),
                 "recovery_ms": named["recovery_static_peel_ms"]}
    elif workload == "window-stitch":
        named["ingest_eps"] = stats.round_rate(s("ingest_edges"), s("ingest_s"))
        named["stitch_ms_p50"] = stats.timing(s("stitch_ms"), 50)
        named["stitch_ms_p90"] = stats.timing(s("stitch_ms"), 90)
        named["checkpoint_ms_p50"] = stats.timing(s("checkpoint_ms"), 50)
        named["restore_ms"] = stats.timing(s("restore_ms"), 50)
        slots = {"ingest_eps": named["ingest_eps"],
                 "latency_ms_p50": named["stitch_ms_p50"],
                 "latency_ms_tail": named["stitch_ms_p90"],
                 "recovery_ms": named["restore_ms"]}
    else:  # wire-failover
        named["ingest_eps"] = stats.round_rate(s("ingest_edges"), s("ingest_s"))
        named["segment_ms_p50"] = stats.timing(s("segment_ms"), 50)
        named["segment_ms_p90"] = stats.timing(s("segment_ms"), 90)
        named["checkpoint_ms_p50"] = stats.timing(s("checkpoint_ms"), 50)
        named["checkpoint_ms_p90"] = stats.timing(s("checkpoint_ms"), 90)
        named["failover_ms"] = stats.timing(s("failover_ms"), 50)
        slots = {"ingest_eps": named["ingest_eps"],
                 "latency_ms_p50": named["segment_ms_p50"],
                 "latency_ms_tail": named["segment_ms_p90"],
                 "recovery_ms": named["failover_ms"]}
    named["setup_s"] = stats.timing(s("setup_s"), 50)
    named["peak_rss_mb"] = raw.data["peak_rss_kb"] / 1024.0
    slots["setup_s"] = named["setup_s"]
    slots["peak_rss_mb"] = named["peak_rss_mb"]
    return named, slots


def read_spans(path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            sid, parent, group, rnd, layer, name, start, end = (
                line.rstrip("\n").split("\t"))
            spans.append({"id": int(sid), "parent": int(parent),
                          "group": int(group), "round": int(rnd),
                          "layer": layer, "name": name,
                          "start": int(start), "end": int(end)})
    return spans


def per_layer(workload, raw, spans):
    """Every per-layer metric; 0 where the workload bypasses the layer."""
    s, v = raw.series, raw.value
    m = {}
    traced_rounds = len({sp["round"] for sp in spans}) or 1
    self_ns = stats.self_times(spans)
    for layer in ("core", "peel", "service", "storage", "net", "bench"):
        m[layer + ".self_ms"] = self_ns.get(layer, 0) * 1e-6 / traced_rounds

    def p(name, q, scale=1.0):
        t = stats.timing(s(name), q, scale)
        return t["value"] if t["value"] is not None else 0.0

    edges = v("stream_edges") or v("edges_applied")
    m["core.benign_us_p50"] = p("benign_us", 50)
    m["core.urgent_us_p50"] = p("urgent_us", 50)
    m["core.urgent_us_p99"] = p("urgent_us", 99)
    m["core.urgent_share"] = per_edge(v("urgent_updates"), v("stream_edges"))
    m["core.affected_vertices_per_edge"] = per_edge(v("affected_vertices"),
                                                    edges)
    m["core.touched_edges_per_edge"] = per_edge(v("touched_edges"), edges)
    m["core.rewritten_span_per_edge"] = per_edge(v("rewritten_span"), edges)

    m["peel.detect_us"] = p("detect_us", 50)
    static = p("static_ms", 50) if workload == "paper-stream" else 0.0
    m["peel.static_ms"] = static
    update_s = sum(s("update_total_s"))
    mean_update_ms = (update_s * 1e3 / sum(s("update_edges"))
                      if update_s else 0.0)
    m["peel.speedup_vs_static"] = (static / mean_update_ms
                                   if mean_update_ms else 0.0)
    m["peel.seam_vertices_p50"] = p("seam_vertices", 50)
    m["peel.seam_edges_p50"] = p("seam_edges", 50)

    m["service.busy_share"] = v("busy_share")
    m["service.shard_imbalance"] = v("shard_imbalance")
    m["service.queue_hwm"] = v("queue_hwm")
    m["service.detections_per_kedge"] = per_edge(v("detections") * 1e3,
                                                 v("edges_applied"))
    m["service.alerts"] = v("alerts")
    m["service.drain_ms_p50"] = p("drain_ms", 50)
    m["service.retired_edges"] = v("retired_edges")
    m["service.stitched_share"] = share(s("stitched"))
    m["service.seam_truncated_share"] = share(s("seam_truncated"))
    m["service.boundary_resident_bytes"] = v("boundary_resident_bytes")

    m["storage.checkpoint_ms_p50"] = p("checkpoint_ms", 50)
    m["storage.bytes_per_checkpoint"] = stats.median(
        s("checkpoint_bytes")) or 0.0
    m["storage.compacted_share"] = share(s("checkpoint_new_base"))
    replayed = s("replayed_edges")
    m["storage.replayed_edges"] = stats.median(replayed) or 0.0
    recovery = s("restore_ms") or s("failover_ms")
    m["storage.replay_us_per_edge"] = (
        stats.median(recovery) * 1e3 / m["storage.replayed_edges"]
        if m["storage.replayed_edges"] else 0.0)

    m["net.wait_acked_ms_p50"] = p("wait_acked_ms", 50)
    m["net.resent_share"] = per_edge(v("resent_batches"), v("batches_sent"))
    m["net.duplicate_batches"] = v("duplicate_batches")
    m["net.gap_batches"] = v("gap_batches")
    m["net.shipped_bytes_per_epoch"] = per_edge(v("bytes_shipped"),
                                                v("epochs_shipped"))

    work = {"paper-stream": "update_total_s"}.get(workload, "ingest_s")
    plain, traced = s(work), raw.series(work, traced=True)
    m["bench.trace_overhead_pct"] = (
        100.0 * (stats.median(traced) / stats.median(plain) - 1.0)
        if plain and traced else 0.0)
    return m


def fmt(x):
    if isinstance(x, float):
        return "%.6g" % x
    return str(x)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        log("perfbench: unknown workload %r (have %s)"
            % (args.workload, ", ".join(workloads)))
        return 2

    out = build_dir()
    harness = build(out)
    if harness is None:
        return 2
    data, code = run_harness(harness, args, out)
    if data is None:
        log("perfbench: harness produced no result (exit %d)" % code)
        return 2

    raw = Raw(data)
    named, slots = end_to_end(args.workload, raw)
    spans = []
    if args.trace:
        spans = read_spans(data["spans"]) if data["spans"] else []
    layers = per_layer(args.workload, raw, spans) if args.trace else {}

    host = data["host"]
    print("# perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# why: %s" % workloads[args.workload])
    print("# host: cores=%d cpu=%r build=%s simd=%s compiler=%s"
          % (host["cores"], host["cpu_model"], host["build"], host["simd"],
             host["compiler"]))
    print("# rounds=%d setups=%d attempted=%d failed=%d checks=%d"
          % (len(raw.series("round_s")) + len(raw.series("round_s", True)),
             len(raw.series("setup_s")), data["attempted"], data["failed"],
             data["checks"]))
    for e in data["errors"]:
        print("# error: %s" % e)
    print("# workload figures")
    for name, val in named.items():
        if isinstance(val, dict):
            print("  %-28s %-12s n=%d beyond=%d" % (
                name, fmt(val["value"]), val["count"], val["beyond"]))
        else:
            print("  %-28s %s" % (name, fmt(val)))
    print("# counts")
    for name in sorted(data["values"]):
        print("  %-28s %s" % (name, fmt(data["values"][name])))

    correct = data["failed"] == 0 and code == 0
    metrics = {}
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else {
        k: (x["value"] if isinstance(x, dict) else x) for k, x in slots.items()}
    print("# %s metrics" % ("per-layer" if args.trace else "end-to-end"))
    for m in listed:
        val = source.get(m["name"])
        if val is None:
            log("perfbench: metric %s has no value" % m["name"])
            correct = False
            continue
        metrics[m["name"]] = {"value": val, "unit": m["unit"]}
        print("  %-34s %-14s %s" % (m["name"], fmt(val), m["unit"]))
    print(json.dumps({"correct": correct, "attempted": data["attempted"],
                      "failed": data["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
