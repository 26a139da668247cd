#!/usr/bin/env python3
"""CI bench-regression gate: perfbench result lines against BENCH_perf.json.

Gate mode reads perfbench's standard output for one workload, one file per
seed (``--trace 0``; the result line is the last JSON line). It compares
like with like: the baseline is the per-metric median over seeds 1-5, so
the gate takes exactly those five runs, at the baseline's ``--seconds``,
and gates their per-metric median. It fails when

- the runs are not seeds 1-5 of the workload at ``--trace 0`` and the
  baseline's ``--seconds``;
- any run has ``correct`` not true or ``failed > 0``;
- a gated metric is missing or not finite in any run;
- the median of a gated metric is worse than the committed baseline median
  by more than its bound.

``better`` and ``bound`` come from BENCHMARK.json, so the tolerance has a
single source. The baseline was measured on the host its provenance names:
a different host is a different baseline, so re-record rather than widen a
bound.

Record mode writes BENCH_perf.json from a directory of perfbench outputs
named ``<workload>-seed<n>-trace<0|1>.txt`` (seeds 1-5 untraced, seed 1
traced, ``--seconds 10``), the layout CI's bench-out/ artifact has. The
provenance's CPU model comes from the directory's ``cpu.txt`` when there
is one (CI writes it), else from this host.

Usage:
  python3 scripts/bench_check.py <workload> <seed-1 file> ... <seed-5 file>
  python3 scripts/bench_check.py --record <dir>
"""

import json
import math
import re
import statistics
import subprocess
import sys

BENCHMARK = "BENCHMARK.json"
BASELINE = "BENCH_perf.json"
SEEDS = range(1, 6)
SECONDS = 10

# recover_s is reported but not gated. It times one engine restore, and
# its page-fault cost swings with glibc heap trimming after the previous
# engine is dropped: the same commit read a 0.048 s and a 0.063 s median
# on `steady` in two series of runs on one host (a 30% swing, beyond its
# 25% bound), and the five baseline runs in BENCH_perf.json span
# 0.084-0.161 s.
UNGATED = {"recover_s"}


def result_line(path):
    """The last JSON object line of a perfbench stdout file."""
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.startswith("{")]
    if not lines:
        raise ValueError(f"{path} has no perfbench result line")
    return json.loads(lines[-1])


def run_provenance(path):
    """The key=value fields of a perfbench stdout file's provenance line."""
    with open(path) as f:
        for line in f:
            if line.startswith("# provenance:"):
                return dict(kv.split("=", 1) for kv in line.split(":", 1)[1].split())
    raise ValueError(f"{path} has no perfbench provenance line")


def check(workload, paths):
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    with open(BASELINE) as f:
        base = json.load(f)["workloads"][workload]["median"]
    fails, runs = [], {}
    for path in paths:
        prov, res = run_provenance(path), result_line(path)
        if (prov.get("workload"), prov.get("trace"), prov.get("seconds")) != (
            workload,
            "0",
            str(SECONDS),
        ):
            fails.append(
                f"{path} is workload={prov.get('workload')} trace={prov.get('trace')} "
                f"seconds={prov.get('seconds')}, not {workload} at trace=0 seconds={SECONDS}"
            )
        seed = int(prov["seed"])
        runs[seed] = res
        if res.get("correct") is not True:
            fails.append(f"seed {seed}: correct is not true (an output check failed)")
        if res.get("failed", 1) > 0:
            fails.append(f"seed {seed}: failed = {res.get('failed')} operation(s)")
    if sorted(runs) != list(SEEDS) or len(paths) != len(SEEDS):
        fails.append(
            f"runs are seeds {sorted(runs)}, but the baseline is the median over "
            f"seeds {list(SEEDS)}: pass exactly one run of each"
        )
    for m in metrics:
        name = m["name"]
        if name in UNGATED:
            continue
        values = [r.get("metrics", {}).get(name, {}).get("value") for r in runs.values()]
        bad = [
            (seed, v)
            for seed, v in zip(runs, values)
            if not isinstance(v, (int, float)) or not math.isfinite(v)
        ]
        if bad or not values:
            fails += [f"seed {seed}: {name} is missing or not finite ({v})" for seed, v in bad]
            continue
        value, ref, bound = statistics.median(values), base[name], m["bound"]
        if m["better"] == "higher":
            limit, worse = ref * (1 - bound), value < ref * (1 - bound)
        else:
            limit, worse = ref * (1 + bound), value > ref * (1 + bound)
        verdict = "REGRESSED" if worse else "ok"
        print(
            f"[bench_check] {workload} {name}: median {value:.6g} {m['unit']} over "
            f"{len(values)} runs [{', '.join(f'{v:.4g}' for v in values)}] "
            f"(baseline {ref:.6g}, {m['better']} is better, limit {limit:.6g}) {verdict}"
        )
        if worse:
            fails.append(f"{name} median {value:.6g} is worse than its limit {limit:.6g}")
    for cause in fails:
        print(f"[bench_check] FAIL: {workload}: {cause}")
    if fails:
        return 1
    print(f"[bench_check] {workload} OK")
    return 0


def record(out_dir):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    doc = {"provenance": provenance(out_dir), "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        runs = [result_line(f"{out_dir}/{name}-seed{s}-trace0.txt") for s in SEEDS]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            raise SystemExit(f"[bench_check] {name}: a baseline run was not correct")
        doc["workloads"][name] = {
            "median": {
                m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
                for m in bench["end_to_end"]
            },
            "traced_seed1": result_line(f"{out_dir}/{name}-seed1-trace1.txt"),
        }
    # one line per metric keeps the file short and diffable
    text = re.sub(
        r'\{\s+"value": ([^,]+),\s+"unit": ("[^"]*")\s+\}',
        r'{"value": \1, "unit": \2}',
        json.dumps(doc, indent=2),
    )
    with open(BASELINE, "w") as f:
        f.write(text + "\n")
    print(f"[bench_check] wrote {BASELINE}")
    return 0


def provenance(out_dir):
    nproc = int(run_provenance(f"{out_dir}/steady-seed1-trace0.txt")["nproc"])
    # the host that made the runs: CI writes its CPU model beside them
    try:
        with open(f"{out_dir}/cpu.txt") as f:
            cpu = f.read().strip()
    except FileNotFoundError:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "commit": commit,
        "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
        "seconds": SECONDS,
        "stat": "per-metric median of the --trace 0 result lines",
    }


def main(argv):
    if len(argv) == 3 and argv[1] == "--record":
        return record(argv[2])
    if len(argv) >= 3 and not argv[1].startswith("-"):
        try:
            return check(argv[1], argv[2:])
        except (OSError, ValueError, KeyError) as e:
            print(f"[bench_check] FAIL: {e!r}")
            return 1
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
