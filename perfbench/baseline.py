"""Run the benchmark over several seeds and summarise it as a BENCH file.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                  [--out perfbench/BENCH_<label>.json]

For every workload: one untraced run per seed, then one traced run of the
first seed. Each end-to-end metric gets its median, quartiles and spread (the
quartile distance over the median, as ``statistics.quantiles(n=4)`` gives
them), next to a third of its bound from BENCHMARK.json. Each layer gets its
self time as a share of the traced ``wall``. Runs one process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ("corpus", "pvdm", "fusion", "neural", "evaluation", "experiment", "cli",
          "perfbench")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s exited %d" % (" ".join(cmd), proc.returncode))
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values)), "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    result = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        values, attempted = {}, 0
        for seed in seeds:
            out, env = run_once(workload, seed, args.seconds, 0)
            attempted += out["attempted"]
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in sorted(out["metrics"].items()))),
                flush=True)
        e2e = {}
        for name, vals in values.items():
            e2e[name] = dict(spread(vals), unit=bounds[name]["unit"],
                             bound=bounds[name]["bound"])
            flag = "" if name == "setup_s" or e2e[name]["spread"] < bounds[name]["bound"] / 3 \
                else "  <-- above a third of the bound"
            print("  %-18s median %-12.6g spread %.4f (bound/3 %.4f)%s"
                  % (name, e2e[name]["median"], e2e[name]["spread"],
                     bounds[name]["bound"] / 3, flag), flush=True)
        entry = {"seeds": seeds, "operations_attempted": attempted, "failed": 0,
                 "end_to_end": e2e}
        layer = run_once(workload, seeds[0], args.seconds, 1)[0]["metrics"]
        layer = {name: m["value"] for name, m in layer.items()}
        entry["per_layer"] = layer
        entry["layer_share_of_traced_wall"] = {
            name: layer[name + ".self_s"] / layer["trace.wall_s"] for name in LAYERS}
        entry["trace_overhead_s"] = layer["trace.overhead_s"]
        print("  shares: %s; tracing overhead %.3f s" % (
            " ".join("%s=%.3f" % kv for kv in entry["layer_share_of_traced_wall"].items()),
            layer["trace.overhead_s"]), flush=True)
        result["env"] = env
        result["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
