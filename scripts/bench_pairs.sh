#!/bin/sh
# bench_pairs.sh BASE WORKLOAD [N]
#
# Paired host-speed comparison of the working tree against revision BASE on
# one benchmark workload (`make bench-pairs BASE=<rev> W=<workload> N=10`).
# It is the claim rule of benchmark/README.md made mechanical, for all three
# end-to-end metrics at once (run_s, setup_s, peak_rss_mb; lower is better):
#
#   1. BASE is exported with `git archive` under .bench_build/ and each
#      side's benchmark binary is built once, from its own tree;
#   2. N pairs run in alternating order (pair 1 runs the base first, pair 2
#      the change first, ...), all at one seed, each side from its own
#      benchmark/ directory with the same flags. One seed keeps the base's
#      quartile spread to the host's noise; repeat at another SEED to check
#      that the claim holds on a seed not used while the change was written;
#   3. for each metric, read from each run's --out JSON, it prints every
#      pair's change/base ratio, both sides' medians and quartiles, the
#      median ratio, the pairs the change won and lost (ties count for
#      neither) and the base's quartile spread, then a verdict: "better"
#      (a gain may be claimed: won >= 9/10 of the pairs and the medians
#      further apart than the base's quartiles), "worse" (the same rule the
#      other way), "unresolved" (the base's spread exceeds the difference of
#      the medians) or "not shown" (the medians differ by more than the
#      spread, in fewer than 9/10 of the pairs).
#
# Every run must print `correct: true`, and both sides must print the same
# fingerprint (the simulated outcome at that seed); otherwise the script
# exits 1. The verdicts are informational and never set the exit status.
# Each run is the median of two simulations (--reps 2).
# Environment: SEED (default 1).
set -eu

if [ $# -lt 2 ]; then
	echo "usage: bench_pairs.sh BASE WORKLOAD [N]" >&2
	exit 2
fi
base_rev=$1
workload=$2
n=${3:-10}
seed=${SEED:-1}
go=${GO:-go}

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/pairs"
tree="$work/base"
rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git -C "$root" archive "$base_rev" | tar -x -C "$tree"

echo "bench-pairs: building base $(git -C "$root" rev-parse --short "$base_rev") and the working tree; $workload, seed $seed"
"$go" build -C "$tree/benchmark" -o "$work/bench.base" .
"$go" build -C "$root/benchmark" -o "$work/bench.change" .

# run SIDE SEED: one benchmark run; prints "<run_s> <setup_s> <peak_rss_mb>
# <fingerprint>".
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
	# The end_to_end block lists each metric's "name" line before its
	# "value" line.
	values=$(awk '
		/"end_to_end"/ { e = 1 }
		/"ops"/ { e = 0 }
		e && /"name":/ { m = $2; gsub(/[",]/, "", m) }
		e && /"value":/ { v = $2; gsub(/,/, "", v); val[m] = v }
		END { if (val["run_s"] != "" && val["setup_s"] != "" && val["peak_rss_mb"] != "") print val["run_s"], val["setup_s"], val["peak_rss_mb"] }
	' "$out")
	fp=$(sed -n 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/p' "$out" | head -n 1)
	if [ -z "$values" ] || [ -z "$fp" ]; then
		echo "bench-pairs: $1 run at seed $2 wrote no end-to-end metrics or fingerprint to $out" >&2
		return 1
	fi
	echo "$values $fp"
}

# pairs.txt: one line per pair, "i base_run change_run base_setup
# change_setup base_rss change_rss".
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
	if [ "$4" != "$8" ]; then
		echo "bench-pairs: change fingerprint $8 differs from base $4" >&2
		exit 1
	fi
	echo "$i $1 $5 $2 $6 $3 $7" >>"$pairs"
	awk -v i="$i" -v br="$1" -v cr="$5" -v bs="$2" -v cs="$6" -v bm="$3" -v cm="$7" 'BEGIN {
		printf "pair %d: run_s %.4g/%.4g (%.3f), setup_s %.4g/%.4g (%.3f), peak_rss_mb %.4g/%.4g (%.3f) base/change (ratio)\n",
			i, br, cr, cr / br, bs, cs, cs / bs, bm, cm, cm / bm
	}'
	i=$((i + 1))
done

# Per metric: quartiles by linear interpolation between order statistics.
awk '
function sort(a, k,    i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function q(a, k, p,    h, lo) {
	h = (k - 1) * p + 1
	lo = int(h)
	return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
{
	k++
	for (m = 1; m <= 3; m++) {
		b[m, k] = $(2 * m); c[m, k] = $(2 * m + 1)
		if (c[m, k] < b[m, k]) won[m]++
		if (c[m, k] > b[m, k]) lost[m]++
	}
}
END {
	split("run_s setup_s peak_rss_mb", name, " ")
	for (m = 1; m <= 3; m++) {
		for (i = 1; i <= k; i++) { x[i] = b[m, i]; y[i] = c[m, i]; r[i] = c[m, i] / b[m, i] }
		sort(x, k); sort(y, k); sort(r, k)
		spread = q(x, k, 0.75) - q(x, k, 0.25)
		gap = q(x, k, 0.5) - q(y, k, 0.5)
		if (won[m] * 10 >= 9 * k && gap > spread) verdict = "better (gain claimable)"
		else if (lost[m] * 10 >= 9 * k && -gap > spread) verdict = "worse"
		else if ((gap < 0 ? -gap : gap) <= spread) verdict = "unresolved (base spread exceeds the difference)"
		else verdict = "not shown (medians differ by more than the spread, in fewer than 9/10 pairs)"
		printf "%s: base median %.4g [%.4g, %.4g], change median %.4g [%.4g, %.4g]; median ratio %.3f; won %d, lost %d of %d; base spread %.4g (%.1f%%), median gap %.4g: %s\n",
			name[m], q(x, k, 0.5), q(x, k, 0.25), q(x, k, 0.75), q(y, k, 0.5), q(y, k, 0.25), q(y, k, 0.75),
			q(r, k, 0.5), won[m], lost[m], k, spread, 100 * spread / q(x, k, 0.5), gap, verdict
	}
}' "$pairs"
