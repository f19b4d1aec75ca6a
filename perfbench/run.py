#!/usr/bin/env python3
"""End-to-end query benchmark of nwhy-rs (see README.md beside this file).

    python3 perfbench/run.py --workload rand1-bin --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every metric of every workload
    python3 perfbench/run.py --workload all --size smoke  # a seconds-long functional check

Builds the release `nwhy-cli` and the benchmark's helper from source,
generates the workload's inputs from the seed, and runs the workload's
query sequence through the CLI, one child process per query, for
`--seconds`. Every answer is checked. With `--trace 1` the helper also
replays the same queries in-process after each CLI pass and times each
layer's public call.
Prints a report, then one JSON result line.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from stats import describe, median  # noqa: E402

# Divisors of each input's full size (Rand1: of the real dataset, as in
# `nwhy-cli gen Rand1 --scale D`; skew: of |V| = 160k, |E| = 375k).
# `full` is the size of the ROADMAP baseline table; `default` halves it
# so that every run fits the benchmark's time budget.
SIZES = {
    "smoke": {"rand1": 20000, "skew": 200},
    "default": {"rand1": 400, "skew": 2},
    "full": {"rand1": 200, "skew": 1},
}

SLINE = ["--s", "2", "--kernel", "auto"]
WORKLOADS = {
    # load-bound: decode + CSR build dominate, the kernels are small
    "rand1-bin": ("rand1", [
        ("sline", ["sline", "{d}/rand1.bin"] + SLINE),
        ("bfs", ["bfs", "{d}/rand1.bin", "--source", "0"]),
        ("cc", ["cc", "{d}/rand1.bin"]),
    ]),
    # the same queries on the packed backend: per-row decode dominates
    "rand1-pak": ("rand1", [
        ("pack", ["pack", "{d}/rand1.bin", "{d}/rand1.nwhypak"]),
        ("sline", ["sline", "{d}/rand1.nwhypak"] + SLINE + ["--mmap"]),
        ("cc", ["cc", "{d}/rand1.nwhypak", "--mmap"]),
    ]),
    # kernel- and output-bound: skewed s-line with a large edge list
    "skew-sline": ("skew", [
        ("sline", ["sline", "{d}/skew.hgr"] + SLINE + ["--out", "{d}/skew.out"]),
    ]),
}

END_TO_END = [
    ("wall_s", "s"), ("sline_s", "s"), ("peak_rss_mib", "MiB"), ("setup_s", "s"),
]
PER_LAYER = [
    ("bfs_s", "s"), ("cc_s", "s"), ("pack_s", "s"),
    ("io.load_s", "s"), ("io.load_mb_per_s", "MB/s"), ("io.decode_s", "s"),
    ("core.csr_s", "s"), ("core.transpose_s", "s"), ("core.adjoin_s", "s"),
    ("io.write_packed_s", "s"), ("store.bytes_per_incidence", "B/incidence"),
    ("io.open_packed_s", "s"), ("store.row_sweep_s", "s"),
    ("store.decode_slowdown", "ratio"),
    ("sline.plan_s", "s"), ("sline.kernel_s", "s"),
    ("sline.hashmap_insertions", "count"), ("sline.pairs_examined", "count"),
    ("sline.edges_emitted", "count"), ("sline.yield", "ratio"),
    ("algo.bfs_s", "s"), ("algo.bfs_levels", "count"),
    ("algo.cc_s", "s"), ("algo.cc_components", "count"),
    ("emit_s", "s"), ("emit.mb_per_s", "MB/s"),
    ("attr.unattributed_frac", "ratio"),
]

SETUP_REPS = 3
MIN_PASSES = 3
# every child is killed once the run has lasted this long
RUN_DEADLINE_S = 170.0

ANSWERS = {
    "sline": re.compile(r"2-line graph has (?P<sline_pairs>\d+) edges"),
    "bfs": re.compile(r"reached (?P<bfs_edges>\d+) hyperedges and (?P<bfs_nodes>\d+) hypernodes"),
    "cc": re.compile(r"(?P<cc_components>\d+) connected components"),
    "pack": re.compile(r": (?P<pack_bytes>\d+) bytes over (?P<pack_incidences>\d+) incidences"),
}


class BenchError(Exception):
    pass


def build():
    """Builds the CLI and the helper; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "nwhy").is_dir():
        raise BenchError(f"{ROOT} holds no nwhy-rs workspace to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in [(ROOT / "Cargo.toml", ["-p", "nwhy", "--bin", "nwhy-cli"]),
                            (HERE / "tool" / "Cargo.toml", [])]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest)] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "nwhy-cli", target / "release" / "perfbench-tool"


def spawn(argv, stdout_path, deadline):
    """Runs one child to completion. Returns (exit code, wall s, peak RSS MiB)."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        t = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t
        p.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    return p.returncode, wall, usage.ru_maxrss / 1024.0


def helper(tool, argv, work, deadline):
    code, _, _ = spawn([str(tool)] + argv, work / "helper.out", deadline)
    text = (work / "helper.out").read_text()
    if code != 0:
        err = Path(str(work / "helper.out") + ".err").read_text()
        raise BenchError(f"perfbench-tool {argv[0]} failed ({code}): {err.strip()}")
    return json.loads(text.strip().splitlines()[-1])


def count_lines(path):
    n = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            n += chunk.count(b"\n")
    return n


def run_pass(cli, queries, work, deadline):
    """One pass of the query sequence; one record per query."""
    records = []
    for name, template in queries:
        argv = [a.replace("{d}", str(work)) for a in template]
        code, wall, rss = spawn([str(cli)] + argv, work / "query.out", deadline)
        text = (work / "query.out").read_text(errors="replace")
        rec = {"query": name, "exit": code, "wall_s": wall, "rss_mib": rss, "answers": {}}
        m = ANSWERS[name].search(text)
        if m:
            rec["answers"] = {k: int(v) for k, v in m.groupdict().items()}
        kernel = re.search(r"^(\S+): 2-line graph", text, re.M)
        if kernel:
            rec["kernel"] = kernel.group(1)
        if "--out" in argv and code == 0:
            rec["answers"]["out_lines"] = count_lines(argv[argv.index("--out") + 1])
        records.append(rec)
    return records


def check(rec, expected, work):
    """Mismatches of one query's answers against every reference."""
    if rec["exit"] != 0:
        return [f"{rec['query']}: exit code {rec['exit']}"]
    got = rec["answers"]
    if not got:
        return [f"{rec['query']}: no result line"]
    problems = []
    for source, ref in expected.items():
        for key, want in ref.items():
            if key in got and got[key] != want:
                problems.append(f"{rec['query']}: {key} = {got[key]}, {source} says {want}")
    if "out_lines" in got and got["out_lines"] != got.get("sline_pairs"):
        problems.append(f"sline: --out holds {got['out_lines']} lines for "
                        f"{got.get('sline_pairs')} printed pairs")
    if rec["query"] == "pack":
        size = (work / "rand1.nwhypak").stat().st_size
        if got["pack_bytes"] != size:
            problems.append(f"pack: printed {got['pack_bytes']} bytes, file has {size}")
    return problems


def llc_bytes():
    """Size of the last-level cache seen by cpu0, from sysfs (0 if unknown)."""
    best = (0, 0)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            if (idx / "type").read_text().strip() == "Instruction":
                continue
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        digits = size.rstrip("KMG")
        if digits.isdigit():
            best = max(best, (level, int(digits) * mult))
    return best[1]


def first_line(cmd, env=None):
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip().splitlines()[0] if r.returncode == 0 and r.stdout.strip() else "unknown"


def environment(seed, size, scale, setup, work):
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    inputs = {p.name: p.stat().st_size for p in sorted(work.iterdir())
              if p.suffix in (".bin", ".hgr")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": first_line(["git", "rev-parse", "HEAD"], git_env),
        "rustc": first_line(["rustc", "--version"]),
        "seed": seed,
        "size": size,
        "scale_divisor": scale,
        "incidences": setup["incidences"],
        "hyperedges": setup["hyperedges"],
        "hypernodes": setup["hypernodes"],
        "max_edge_size": setup["max_edge_size"],
        "input_bytes": inputs,
        "llc_bytes": llc_bytes(),
    }


def merge_traces(traces):
    """Pools per-pass traced records: layer samples and per-query
    attributed times become lists; answers and counts repeat exactly."""
    samples, attributed = {}, {}
    for t in traces:
        for key, vals in t["samples"].items():
            samples.setdefault(key, []).extend(vals)
        for query, secs in t["attributed"].items():
            attributed.setdefault(query, []).append(secs)
    return {"passes": len(traces), "samples": samples, "attributed": attributed,
            "values": traces[-1]["values"], "kernel": traces[-1]["kernel"]}


def layer_metrics(tr, walls, per_query_walls):
    """Per-layer metrics from the traced pass; 0 where the workload's
    query path does not enter the layer."""
    s, v = tr["samples"], tr["values"]

    def med(key):
        return median(s[key]) if s.get(key) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {q + "_s": median(w) if w else 0.0 for q, w in per_query_walls.items()}
    load = med("io.load_s")
    m["io.load_s"] = load
    m["io.load_mb_per_s"] = ratio(v.get("io.load_bytes", 0) / 1e6, load)
    m["core.csr_s"] = med("core.csr_s")
    m["core.transpose_s"] = med("core.transpose_s")
    # the loader's CSR builds timed apart; the rest of the load is decode
    m["io.decode_s"] = max(0.0, load - m["core.csr_s"] - m["core.transpose_s"]) if load else 0.0
    for key in ["core.adjoin_s", "io.write_packed_s", "io.open_packed_s", "store.row_sweep_s",
                "sline.plan_s", "sline.kernel_s", "algo.bfs_s", "algo.cc_s", "emit_s"]:
        m[key] = med(key)
    m["store.bytes_per_incidence"] = v.get("store.bytes_per_incidence", 0.0)
    m["store.decode_slowdown"] = ratio(m["store.row_sweep_s"], med("store.pointer_sweep_s"))
    for key in ["sline.hashmap_insertions", "sline.pairs_examined", "sline.edges_emitted",
                "algo.bfs_levels"]:
        m[key] = v.get(key, 0.0)
    m["algo.cc_components"] = v.get("cc_components", 0.0)
    m["sline.yield"] = ratio(m["sline.edges_emitted"], m["sline.pairs_examined"])
    m["emit.mb_per_s"] = ratio(v.get("emit_bytes", 0) / 1e6, m["emit_s"])
    # a difference of two noisy timings: the report prints it signed per
    # query; the metric clamps a negative estimate to 0
    attributed = sum(median(x) for x in tr["attributed"].values())
    wall = median(walls)
    m["attr.unattributed_frac"] = max(0.0, ratio(wall - attributed, wall))
    return m


def run_workload(name, args, cli, tool):
    deadline = time.monotonic() + RUN_DEADLINE_S
    input_kind, queries = WORKLOADS[name]
    scale = SIZES[args.size][input_kind]
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(name, args, cli, tool, queries, scale, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(name, args, cli, tool, queries, scale, work, deadline):
    setups = []
    for rep in range(SETUP_REPS):
        argv = ["setup", "--workload", name, "--seed", str(args.seed),
                "--scale", str(scale), "--dir", str(work)]
        setups.append(helper(tool, argv + (["--reference"] if rep == 0 else []), work, deadline))
    setup = setups[0]
    env = environment(args.seed, args.size, scale, setup, work)

    passes, traces = [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        if time.monotonic() > deadline:
            break
        passes.append(run_pass(cli, queries, work, deadline))
        if args.trace:
            # one traced pass after each CLI pass, so that both sample the
            # same slow and fast spells of a shared host
            traces.append(helper(tool, ["trace", "--workload", name, "--dir", str(work)],
                                 work, deadline))
    trace = merge_traces(traces) if traces else None

    # correctness: the set-up reference, the traced pass, and the pack's
    # own incidence count; .bin and .nwhypak answers meet at the reference
    expected = {"reference": setup["reference"]}
    if trace:
        expected["traced pass"] = {k: int(trace["values"][k])
                                   for k in ["sline_pairs", "bfs_edges", "bfs_nodes", "cc_components",
                                             "pack_bytes"]
                                   if k in trace["values"]}
    expected["set-up"] = {"pack_incidences": int(setup["incidences"])}
    attempted = failed = 0
    problems = []
    for records in passes:
        for rec in records:
            attempted += 1
            bad = check(rec, expected, work)
            failed += bool(bad)
            problems.extend(bad)

    walls = [sum(r["wall_s"] for r in records) for records in passes]
    per_query = {q: [r["wall_s"] for records in passes for r in records if r["query"] == q]
                 for q in ["sline", "bfs", "cc", "pack"]}
    samples = {
        "wall_s": walls,
        "sline_s": per_query["sline"],
        "peak_rss_mib": [max(r["rss_mib"] for r in records) for records in passes],
        "setup_s": [d["setup_s"] for d in setups],
    }
    e2e = {k: median(v) for k, v in samples.items()}
    layers = layer_metrics(trace, walls, {q: per_query[q] for q in ["bfs", "cc", "pack"]}) \
        if trace else {}

    kernel = next((r["kernel"] for records in passes for r in records if "kernel" in r), "?")
    report(name, env, samples, per_query, trace, layers, kernel, attempted, failed, problems)
    metrics = layers if args.trace else e2e
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=name, environment=env,
                  samples=samples,
                  end_to_end=e2e, per_layer=layers, problems=problems[:50])
    out = ROOT / ".bench_work" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return result


def report(name, env, samples, per_query, trace, layers, kernel, attempted, failed, problems):
    p = print
    p(f"== {name}")
    p(f"env: {json.dumps(env, sort_keys=True)}")
    llc = env["llc_bytes"]
    if llc:
        biggest = max(env["input_bytes"].values())
        p(f"env: largest input {biggest} B = {biggest / llc:.2f}x the {llc} B last-level cache")
    p(f"planner kernel (CLI): {kernel}")
    units = dict(END_TO_END)
    for key, vals in samples.items():
        p(f"{key:<14} [{units[key]}] {describe(vals)}")
    for q, vals in per_query.items():
        if vals and q != "sline":
            p(f"{q + '_s':<14} [s] {describe(vals)}")
    p(f"failed_frac    [ratio] {failed / attempted if attempted else 0.0:.4f} "
      f"({failed} of {attempted} queries)")
    for line in problems[:10]:
        p(f"  FAIL {line}")
    if not trace:
        return
    p(f"traced pass: {int(trace['passes'])} pass(es), planner kernel {trace['kernel']}")
    for key, unit in PER_LAYER:
        n = len(trace["samples"].get(key, []))
        p(f"  {key:<26} {layers[key]:.6g} {unit}" + (f"  (median, n={n})" if n else ""))
    for q, att in sorted(trace["attributed"].items()):
        wall = median(per_query[q])
        p(f"  query {q:<6} CLI {wall:.4f} s, layers {median(att):.4f} s, "
          f"unattributed {wall - median(att):.4f} s")
    if layers["core.adjoin_s"]:
        gap = layers["bfs_s"] - layers["io.load_s"] - layers["algo.bfs_s"]
        p(f"  bfs gap (bfs_s - io.load_s - algo.bfs_s) {gap:.4f} s; core.adjoin_s covers "
          f"{layers['core.adjoin_s'] / gap if gap > 0 else 0.0:.0%} of it")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="default")
    args = ap.parse_args(argv)
    try:
        cli, tool = build()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(name, args, cli, tool)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
