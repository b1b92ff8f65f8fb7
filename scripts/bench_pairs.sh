#!/bin/sh
# bench_pairs.sh BASE WORKLOAD [N]
#
# Paired host-speed comparison of the working tree against revision BASE on
# one benchmark workload (`make bench-pairs BASE=<rev> W=<workload> N=10`).
# It is the claim rule of benchmark/README.md made mechanical:
#
#   1. BASE is checked out with `git worktree` under .bench_build/ and each
#      side's benchmark binary is built once, from its own checkout;
#   2. N pairs run in alternating order (pair 1 runs the base first, pair 2
#      the change first, ...), all at one seed, each side from its own
#      benchmark/ directory with the same flags. One seed keeps the base's
#      quartile spread to the host's noise; repeat at another SEED to check
#      that the claim holds on a seed not used while the change was written;
#   3. it prints each pair's change/base ratio of METRIC, both sides' medians
#      and quartiles, the median ratio, the pairs the change won (ties count
#      for neither) and the base's quartile spread, then whether a gain may be
#      claimed: won >= 9/10 of the pairs and the medians further apart than
#      the base's quartiles.
#
# Every run must print `correct: true`, and both sides must print the same
# fingerprint (the simulated outcome at that seed); otherwise the script
# exits 1. The verdict line is informational and never sets the exit status.
# Each run is the median of two simulations (--reps 2).
# Environment: SEED (default 1), METRIC (an end-to-end metric name, default
# run_s; lower is better).
set -eu

if [ $# -lt 2 ]; then
	echo "usage: bench_pairs.sh BASE WORKLOAD [N]" >&2
	exit 2
fi
base_rev=$1
workload=$2
n=${3:-10}
seed=${SEED:-1}
metric=${METRIC:-run_s}
go=${GO:-go}

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/pairs"
tree="$work/base"
mkdir -p "$work"
cleanup() {
	git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
	git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach -q "$tree" "$base_rev"

echo "bench-pairs: building base $(git -C "$tree" rev-parse --short HEAD) and the working tree; $workload, seed $seed"
"$go" build -C "$tree/benchmark" -o "$work/bench.base" .
"$go" build -C "$root/benchmark" -o "$work/bench.change" .

# run SIDE SEED: one benchmark run; prints "<metric value> <fingerprint>".
run() {
	if [ "$1" = base ]; then dir=$tree; else dir=$root; fi
	out="$work/$1.json"
	rm -f "$out"
	if ! stdout=$(cd "$dir/benchmark" && "$work/bench.$1" --workload "$workload" --seed "$2" \
		--reps 2 --trace 0 --out "$out" 2>"$work/$1.log"); then
		echo "bench-pairs: $1 run at seed $2 failed; see $work/$1.log" >&2
		return 1
	fi
	line=$(printf '%s\n' "$stdout" | tail -n 1)
	case $line in
	*'"correct":true'*) ;;
	*)
		echo "bench-pairs: $1 run at seed $2 is not correct: $line" >&2
		return 1
		;;
	esac
	value=$(printf '%s\n' "$line" | sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p")
	fp=$(sed -n 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/p' "$out" | head -n 1)
	if [ -z "$value" ] || [ -z "$fp" ]; then
		echo "bench-pairs: $1 run at seed $2 printed no $metric or fingerprint" >&2
		return 1
	fi
	echo "$value $fp"
}

pairs="$work/pairs.txt"
: >"$pairs"
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		b=$(run base "$seed")
		c=$(run change "$seed")
	else
		c=$(run change "$seed")
		b=$(run base "$seed")
	fi
	set -- $b $c
	if [ "$2" != "$4" ]; then
		echo "bench-pairs: change fingerprint $4 differs from base $2" >&2
		exit 1
	fi
	echo "$i $1 $3" >>"$pairs"
	awk -v i="$i" -v b="$1" -v c="$3" -v m="$metric" \
		'BEGIN { printf "pair %d: %s base %.4g change %.4g ratio %.3f\n", i, m, b, c, c / b }'
	i=$((i + 1))
done

# Quartiles by linear interpolation between order statistics.
awk -v m="$metric" '
function sort(a, k,    i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function q(a, k, p,    h, lo) {
	h = (k - 1) * p + 1
	lo = int(h)
	return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
{ k++; b[k] = $2; c[k] = $3; r[k] = $3 / $2; if ($3 < $2) won++ }
END {
	sort(b, k); sort(c, k); sort(r, k)
	spread = q(b, k, 0.75) - q(b, k, 0.25)
	printf "base   %s: median %.4g, quartiles %.4g .. %.4g\n", m, q(b, k, 0.5), q(b, k, 0.25), q(b, k, 0.75)
	printf "change %s: median %.4g, quartiles %.4g .. %.4g\n", m, q(c, k, 0.5), q(c, k, 0.25), q(c, k, 0.75)
	printf "median change/base ratio %.3f over %d pairs; change won %d/%d\n", q(r, k, 0.5), k, won, k
	gap = q(b, k, 0.5) - q(c, k, 0.5)
	printf "base quartile spread %.4g (%.1f%% of its median); median gap %.4g\n", spread, 100 * spread / q(b, k, 0.5), gap
	printf "gain claimable: %s\n", (won * 10 >= 9 * k && gap > spread) ? "yes" : "no"
}' "$pairs"
