#!/bin/sh
# Alternating parent/change pairs of one spbench workload: the evidence a
# PR that claims a gain (or claims to have moved nothing) puts in
# CHANGES.md. See ROADMAP.md "How to claim a gain".
#
#   scripts/bench-pairs.sh <parent-rev> <workload> <first-seed> [pairs=10]
#
# The parent is `git archive`d into a scratch directory (SCRATCH_DIR, else
# TMPDIR, else /tmp) and built there; the change is this checkout, built in
# place. Both build offline, run as the benchmark driver runs them
# (BENCHMARK.json's run_seconds, untraced), one after the other on seeds
# first-seed, first-seed+1, ...; odd pairs run the change first. Prints,
# per end-to-end metric, each side's median [Q1, Q3] and the pairs the
# change won. Needs python3 for the arithmetic. Run nothing else meanwhile:
# the benchmark pins its threads to both CPUs of the sandbox.
set -eu

if [ $# -lt 3 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
rev=$1
workload=$2
seed=$3
pairs=${4:-10}

root=$(cd "$(dirname "$0")/.." && pwd)
scratch=${SCRATCH_DIR:-${TMPDIR:-/tmp}}/bench-pairs
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
parent=$scratch/$sha
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
cargo build --release --offline --quiet --manifest-path "$parent/spbench/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/spbench/Cargo.toml"

seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")
runs=$scratch/runs-$sha-$workload-$seed
rm -rf "$runs"
mkdir -p "$runs"

# The last line a run prints is its {correct, attempted, failed, metrics}
# object; its exit status is kept beside it.
run() {
    side=$1
    tree=$2
    s=$3
    status=0
    (cd "$runs" && "$tree/spbench/target/release/spbench" \
        --workload "$workload" --seed "$s" --seconds "$seconds" --trace 0) \
        >"$runs/$side-$s.out" 2>"$runs/$side-$s.err" || status=$?
    echo "$status" >"$runs/$side-$s.exit"
    echo "  $side seed $s: exit $status" >&2
}

i=0
while [ "$i" -lt "$pairs" ]; do
    s=$((seed + i))
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent" "$s"
        run change "$root" "$s"
    else
        run change "$root" "$s"
        run parent "$parent" "$s"
    fi
    i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$runs" "$seed" "$pairs" "$workload" "$sha" <<'EOF'
import json, sys

bench, runs, seed, pairs, workload, sha = sys.argv[1:]
seed, pairs = int(seed), int(pairs)
declared = json.load(open(bench))["end_to_end"]

def load(side, s):
    last = open(f"{runs}/{side}-{s}.out").read().strip().splitlines()[-1:]
    result = json.loads(last[0]) if last and last[0].startswith("{") else {}
    result["exit"] = int(open(f"{runs}/{side}-{s}.exit").read())
    return result

def quartiles(values):
    values = sorted(values)
    def at(q):
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

sides = {side: [load(side, seed + i) for i in range(pairs)] for side in ("parent", "change")}
print(f"{workload}: {pairs} pairs, seeds {seed}..{seed + pairs - 1}, parent {sha[:12]}")
for side, results in sides.items():
    bad = [seed + i for i, r in enumerate(results) if r["exit"] != 0 or not r.get("correct")]
    failed = sum(r.get("failed", 0) for r in results)
    attempted = sum(r.get("attempted", 0) for r in results)
    print(f"  {side}: failed_share {failed}/{attempted}, incorrect or crashed runs: {bad or 'none'}")
print(f"  {'metric':<26}{'unit':<12}{'parent median [Q1, Q3]':<38}{'change median [Q1, Q3]':<38}"
      f"{'change':>8}  pairs won/tied/lost")
for metric in declared:
    name, lower = metric["name"], metric["better"] == "lower"
    series = {side: [r.get("metrics", {}).get(name, {}).get("value") for r in results]
              for side, results in sides.items()}
    if any(v is None for values in series.values() for v in values):
        if all(v is None for values in series.values() for v in values):
            continue  # this workload does not report the metric
        print(f"  {name:<26}missing from some runs")
        continue
    won = tied = lost = 0
    for p, c in zip(series["parent"], series["change"]):
        if p == c:
            tied += 1
        elif (c < p) == lower:
            won += 1
        else:
            lost += 1
    cells = {}
    for side, values in series.items():
        q1, q2, q3 = quartiles(values)
        cells[side] = (q2, f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
    base, new = cells["parent"][0], cells["change"][0]
    moved = f"{(new - base) / base * 100:+.1f}%" if base else "n/a"
    print(f"  {name:<26}{metric['unit']:<12}{cells['parent'][1]:<38}{cells['change'][1]:<38}"
          f"{moved:>8}  {won}/{tied}/{lost}")
EOF
