#!/usr/bin/env python3
"""Compares two saved perfbench results, refusing across host fingerprints.

    python3 perfbench/compare.py BASE.json NEW.json

BASE and NEW are files that perfbench/run.py wrote to .bench_build/results/.
A speed comparison only means something on the same host and build: when
the two fingerprints' "host" fields (CPU model, core count, compiler, build
type) differ, or the workloads or trace modes differ, nothing is compared
and the exit code is 3. Otherwise each metric is printed with NEW/BASE and,
for end-to-end metrics, whether the change stays within the bound that
BENCHMARK.json fixes. One pair of runs is not a gain claim; see the README.
"""
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def refusal(base, new):
    if base["fingerprint"]["host"] != new["fingerprint"]["host"]:
        return ("different host fingerprints:\n  base " +
                json.dumps(base["fingerprint"]["host"]) + "\n  new  " +
                json.dumps(new["fingerprint"]["host"]))
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            return f"different {key}: {base[key]} vs {new[key]}"
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(pathlib.Path(p).read_text()) for p in argv[1:])
    why = refusal(base, new)
    if why:
        print("refusing to compare: " + why, file=sys.stderr)
        return 3
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{base['workload']} (trace {base['trace']}): base seed "
          f"{base['seed']}, new seed {new['seed']}")
    for name, spec in specs.items():
        b = base["raw"]["metrics"].get(name)
        n = new["raw"]["metrics"].get(name)
        if b is None or n is None:
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        line = (f"  {name:34s} {b['value']:.6g} -> {n['value']:.6g} "
                f"{spec['unit']}  (new/base {ratio:.4f})")
        if "bound" in spec and b["value"]:
            worse = (1 - ratio) if spec["better"] == "higher" else (ratio - 1)
            line += "  WORSE than bound" if worse > spec["bound"] else ""
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
