#!/usr/bin/env bash
# Same-runner performance gate: the repository benchmark's
# sim-memory-bound workload, run on this checkout and on a base commit
# in interleaved pairs on one machine.
#
#   bash scripts/bench-ab.sh [base-ref]     # base-ref defaults to HEAD^1
#
# On a pull-request merge commit HEAD^1 is the base branch tip; on a
# push it is the previous commit. The base is checked out into a
# temporary git worktree and this checkout's secbench/ is copied over
# its copy, so both sides run identical benchmark code. Pair i runs
# seed i on both sides, and the side that runs first alternates.
#
# The gate fails when any run is not correct (a golden digest moved or
# a run failed), or when this checkout is slower than the base in at
# least 9 of the 10 pairs AND its median work_s exceeds the base median
# by more than the distance between the base's quartiles. With
# identical code the first condition alone holds about 1% of the time
# (11/1024); the second ties the threshold to the measured spread.
set -euo pipefail

base=${1:-HEAD^1}
pairs=10
root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$base^{commit}")

tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$tmp/base" "$base_sha"
rm -rf "$tmp/base/secbench"
cp -R secbench "$tmp/base/secbench"

# run <side> <dir> <seed>: one untraced run; its stdout and stderr are
# kept for the statistics below.
run() {
	(cd "$2" && bash secbench/run.sh --workload sim-memory-bound --seed "$3" --seconds 1 --trace 0) \
		>"$tmp/$1-$3.out" 2>"$tmp/$1-$3.err" || true
}

echo "bench-ab: $(git rev-parse --short HEAD) (head) vs $(git rev-parse --short "$base_sha") (base, $base), $pairs pairs" >&2
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run head "$root" "$i"
		run base "$tmp/base" "$i"
	else
		run base "$tmp/base" "$i"
		run head "$root" "$i"
	fi
	echo "bench-ab: pair $i/$pairs done" >&2
done

python3 - "$tmp" "$pairs" <<'EOF'
import json, statistics, sys

tmp, pairs = sys.argv[1], int(sys.argv[2])
work = {'head': [], 'base': []}
procs = {'head': set(), 'base': set()}
bad = []
for i in range(1, pairs + 1):
    for side in work:
        lines = open(f'{tmp}/{side}-{i}.out').read().splitlines()
        if len(lines) < 2:
            err = open(f'{tmp}/{side}-{i}.err').read().strip().splitlines()
            sys.exit(f'bench-ab: {side} seed {i} printed no result: {err[-5:]}')
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        if not result['correct']:
            bad.append(f'{side} seed {i}: {(report["errors"] or ["no runs attempted"])[:3]}')
        work[side].append(result['metrics']['work_s']['value'])
        procs[side].add(report['provenance']['gomaxprocs'])

print('pair  first  base work_s  head work_s  head/base')
for i, (b, h) in enumerate(zip(work['base'], work['head'])):
    print(f'{i + 1:4d}  {"head" if i % 2 == 0 else "base":5s}  {b:11.3f}  {h:11.3f}  {h / b:9.3f}')
stats = {}
for side, vals in work.items():
    q1, med, q3 = statistics.quantiles(vals, n=4)
    stats[side] = (q1, med, q3)
    print(f'{side}: median {med:.3f} s, quartiles {q1:.3f} / {q3:.3f} s, gomaxprocs {sorted(procs[side])}')
slower = sum(h > b for b, h in zip(work['base'], work['head']))
delta = stats['head'][1] - stats['base'][1]
iqr = stats['base'][2] - stats['base'][0]
print(f'head slower in {slower}/{pairs} pairs; median delta {delta:+.3f} s; base quartile distance {iqr:.3f} s')

if bad:
    sys.exit('bench-ab: FAIL: incorrect runs: ' + '; '.join(bad))
if slower >= pairs * 9 // 10 and delta > iqr:
    sys.exit('bench-ab: FAIL: head is slower than base')
print('bench-ab: pass')
EOF
