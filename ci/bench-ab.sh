#!/usr/bin/env bash
# Interleaved A/B of the two-clock benchmark (perfbench/) between a
# baseline revision and HEAD, on the same host.
#
#   ci/bench-ab.sh <rev> [workload] [pairs] [seconds]
#
# Builds the perfbench of <rev> and of HEAD from `git archive` snapshots
# (offline: every dependency is vendored), then runs `pairs` pairs of
# end-to-end runs (`--trace 0`), swapping which side goes first in each
# pair. Pair k uses seed k, except the last, which uses the held-out
# seed 1000003. It asserts that both
# sides are correct with no failed operation and that every `sim_*`
# metric is bit-identical within each pair, then prints each side's
# median and quartiles for every host metric and how many pairs HEAD
# won. Defaults: serve-get-mpk-c100k, 10 pairs, 30 s per run.
#
# Build trees and per-run JSON go to $BENCH_AB_DIR (default
# .bench_build/ab under the repo root).
set -euo pipefail

if [[ $# -lt 1 ]]; then
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
rev=$1
workload=${2:-serve-get-mpk-c100k}
pairs=${3:-10}
seconds=${4:-30}
if ((pairs < 2)); then
    echo "bench-ab: quartiles need at least 2 pairs" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
dir=${BENCH_AB_DIR:-$root/.bench_build/ab}
base_sha=$(git rev-parse --verify "$rev^{commit}")
head_sha=$(git rev-parse --verify HEAD)

build() { # <sha> <name>: snapshot the tree and build its perfbench
    local tree=$dir/$2
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$1" | tar -x -C "$tree"
    echo "building $2 ($1)" >&2
    CARGO_TARGET_DIR=$tree/target cargo build --release --offline --locked --quiet \
        --manifest-path "$tree/perfbench/Cargo.toml"
    echo "$tree/target/release/flexos-perfbench"
}
base_bin=$(build "$base_sha" base)
head_bin=$(build "$head_sha" head)

seeds=()
for ((k = 1; k < pairs; k++)); do seeds+=("$k"); done
seeds+=(1000003)

results=$dir/results-$workload.jsonl
: >"$results"
run() { # <side> <bin> <pair> <seed>
    local out
    out=$("$2" --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    printf '{"side": "%s", "pair": %d, "seed": %d, "run": %s}\n' "$1" "$3" "$4" "$out" >>"$results"
}
for ((k = 0; k < ${#seeds[@]}; k++)); do
    seed=${seeds[$k]}
    echo "pair $((k + 1))/${#seeds[@]} (seed $seed)" >&2
    if ((k % 2 == 0)); then
        run base "$base_bin" "$k" "$seed"
        run head "$head_bin" "$k" "$seed"
    else
        run head "$head_bin" "$k" "$seed"
        run base "$base_bin" "$k" "$seed"
    fi
done

python3 - "$results" "$root/BENCHMARK.json" "$workload" "$base_sha" "$head_sha" <<'EOF'
import json
import statistics
import sys

results, bench, workload, base_sha, head_sha = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"]}
runs = {}
for line in open(results):
    r = json.loads(line)
    runs.setdefault(r["pair"], {})[r["side"]] = r

failures = []
for pair, sides in sorted(runs.items()):
    for side, r in sides.items():
        run = r["run"]
        if not run["correct"] or run["failed"] != 0:
            failures.append(f"pair {pair} {side}: correct={run['correct']} failed={run['failed']}")
    base, head = sides["base"]["run"]["metrics"], sides["head"]["run"]["metrics"]
    for name in sorted(set(base) | set(head)):
        if name.startswith("sim_") and base.get(name) != head.get(name):
            failures.append(f"pair {pair}: {name} differs: {base.get(name)} vs {head.get(name)}")


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


print(f"workload {workload}: base {base_sha[:12]} vs head {head_sha[:12]}, "
      f"{len(runs)} interleaved pairs")
print(f"{'metric':<18} {'base q1':>10} {'base med':>10} {'base q3':>10} "
      f"{'head q1':>10} {'head med':>10} {'head q3':>10} {'ratio':>7} {'wins':>6}")
pairs = [runs[p] for p in sorted(runs)]
names = sorted(pairs[0]["base"]["run"]["metrics"])
for name in names:
    if name.startswith("sim_"):
        continue
    b = [p["base"]["run"]["metrics"][name]["value"] for p in pairs]
    h = [p["head"]["run"]["metrics"][name]["value"] for p in pairs]
    higher = better.get(name, "higher") == "higher"
    wins = sum((hv > bv) if higher else (hv < bv) for bv, hv in zip(b, h))
    bq, hq = quartiles(b), quartiles(h)
    ratio = hq[1] / bq[1] if bq[1] else float("nan")
    print(f"{name:<18} {bq[0]:>10.4g} {bq[1]:>10.4g} {bq[2]:>10.4g} "
          f"{hq[0]:>10.4g} {hq[1]:>10.4g} {hq[2]:>10.4g} {ratio:>7.3f} "
          f"{wins:>3}/{len(pairs)}")
sims = sorted(n for n in names if n.startswith("sim_"))
print(f"sim_* metrics equal in every pair: {'no' if failures else 'yes'} ({', '.join(sims)})")
if failures:
    print("\n".join(failures), file=sys.stderr)
    sys.exit(1)
EOF
