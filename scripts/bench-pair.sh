#!/bin/sh
# bench-pair.sh PARENT WORKLOAD [PAIRS]
#
# The paired comparison a performance change is judged by (bench/README.md
# "Steadiness", choosing-metrics section 8), in one command: build the
# benchmark of PARENT and of the working tree once each, run them
# alternately PAIRS times (default 10) - which side goes first alternates,
# and each pair shares one fresh -seed - then print, per end-to-end metric,
# each side's median and quartiles, the pairs the change won, and every
# exact count or digest on which the two sides of a pair disagree.
# Quartiles are the exclusive ones of Python's statistics.quantiles(n=4),
# interpolated at (n+1)q, which is how a gain is judged; each metric ends
# with a CLAIM-TEST line that passes when the change won at least nine
# tenths of the pairs and the medians differ, in the better direction, by
# more than the parent's q3 - q1. A metric with a bound in BENCHMARK.json
# (the end-to-end ones) also gets a BOUND-TEST line, the "no worse" rule
# (choosing-metrics section 6, item 5), the bound read as a share of the
# parent median: fail when the change median is worse than the parent's
# by more than the bound; else unresolved when the parent's q3 - q1
# exceeds the bound, unless every change run beats every parent run; else
# pass.
#
# WORKLOAD is a bench workload name or "all". SEED=<n> fixes the first
# pair's seed (pair i uses SEED+i-1); by default it is taken from the
# clock, so the seeds are ones nobody tuned against. TRACE=1 runs the
# traced pass (-trace 1) instead and reports the per_layer metrics. The
# parent is a `git archive` export in a temporary directory, removed on
# exit; every run's full output is kept in .bench-pair/ (git-ignored).
set -eu

if [ $# -lt 2 ]; then
	echo "usage: $0 PARENT WORKLOAD [PAIRS]" >&2
	exit 2
fi
parent=$1
workload=$2
pairs=${3:-10}
seed=${SEED:-$(date +%s)}
trace=${TRACE:-0}
section=end_to_end
[ "$trace" = 1 ] && section=per_layer

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
keep="$root/.bench-pair"
rm -rf "$keep"
mkdir -p "$tmp/parent" "$keep"

git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench-parent" ./bench)
(cd "$root" && go build -o "$tmp/bench-change" ./bench)

# run SIDE PAIR SEED: one benchmark run, from its own tree.
run() {
	dir=$root
	[ "$1" = parent ] && dir=$tmp/parent
	if ! (cd "$dir" && "$tmp/bench-$1" -workload "$workload" -seed "$3" -trace "$trace" -out "$tmp/out-$1") \
		>"$keep/$1-$2.txt" 2>"$keep/$1-$2.err"; then
		echo "bench-pair: the $1 run of pair $2 failed; see $keep/$1-$2.txt and .err" >&2
		exit 1
	fi
}

i=1
while [ "$i" -le "$pairs" ]; do
	s=$((seed + i - 1))
	if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
	echo "pair $i/$pairs: seed $s, $first first" >&2
	run "$first" "$i" "$s"
	run "$second" "$i" "$s"
	i=$((i + 1))
done

awk -v pairs="$pairs" -v keep="$keep" -v section="$section" '
function sorted(side, key, out,    n, i, j, v) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, i, key) in val) out[++n] = val[side, i, key]
	for (i = 2; i <= n; i++) { v = out[i]; for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]; out[j + 1] = v }
	return n
}
# quantile of a sorted array as statistics.quantiles(method="exclusive")
# interpolates it: at position (n+1)q, the lower index clamped to 1..n-1.
function quantile(a, n, q,    pos, lo) {
	if (n < 2) return a[1]
	pos = (n + 1) * q; lo = int(pos)
	if (lo < 1) lo = 1
	if (lo > n - 1) lo = n - 1
	return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
FILENAME ~ /BENCHMARK.json$/ {
	if ($0 ~ /"(end_to_end|per_layer)"/) on = ($0 ~ "\"" section "\"")
	if (on && $0 ~ /"name"/) { gsub(/[",]/, ""); name = $2; order[++metrics] = name }
	if (on && $0 ~ /"better"/) { gsub(/[",]/, ""); better[name] = $2 }
	if (on && $0 ~ /"bound"/) { gsub(/[",]/, ""); bound[name] = $2 }
	next
}
FNR == 1 {
	n = split(FILENAME, parts, "/"); split(parts[n], sp, /[-.]/); side = sp[1]; pair = sp[2] + 0
}
/^\{/ { next }
$2 == "count" { exact[$1 " count " $3] = 1; val[side, pair, $1 " count " $3] = $4; next }
$2 == "decisions_digest" { exact[$1 " decisions_digest"] = 1; val[side, pair, $1 " decisions_digest"] = $3; next }
($2 in better) { if (!($1 in seen)) { seen[$1] = 1; wl[++workloads] = $1 }; unit[$2] = $4; val[side, pair, $1 " " $2] = $3 }
END {
	for (k = 1; k <= workloads; k++) {
		w = wl[k]
		for (m = 1; m <= metrics; m++) {
			name = order[m]; key = w " " name
			np = sorted("parent", key, p); nc = sorted("change", key, c)
			if (np == 0 || nc == 0) continue
			won = lost = tied = 0
			for (i = 1; i <= pairs; i++) {
				d = val["change", i, key] - val["parent", i, key]
				if (better[name] == "lower") d = -d
				if (d > 0) won++; else if (d < 0) lost++; else tied++
			}
			pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
			pq1 = quantile(p, np, 0.25); pq3 = quantile(p, np, 0.75)
			gain = cm - pm
			if (better[name] == "lower") gain = -gain
			need = int((9 * pairs + 9) / 10)
			printf "%s %s (%s, %s is better)\n", w, name, unit[name], better[name]
			printf "  parent median %.6g  q1 %.6g  q3 %.6g\n", pm, pq1, pq3
			printf "  change median %.6g  q1 %.6g  q3 %.6g\n", cm, quantile(c, nc, 0.25), quantile(c, nc, 0.75)
			printf "  change/parent %.3f of base %.6g; change won %d, lost %d, tied %d of %d pairs\n", (pm ? cm / pm : 0), pm, won, lost, tied, pairs
			printf "  CLAIM-TEST %s: won %d of %d pairs (needs %d); median gain %.6g vs parent q3-q1 %.6g\n", \
				(won >= need && gain > pq3 - pq1 ? "pass" : "fail"), won, pairs, need, gain, pq3 - pq1
			if (name in bound) {
				base = pm < 0 ? -pm : pm
				if (base == 0) base = 1
				worse = -gain / base; spread = (pq3 - pq1) / base
				beats = better[name] == "lower" ? c[nc] < p[1] : c[1] > p[np]
				verdict = worse > bound[name] ? "fail" : (spread > bound[name] && !beats ? "unresolved" : "pass")
				printf "  BOUND-TEST %s: change median %+.2f%% in the worse direction, bound %.2f%%; parent q3-q1 %.2f%% of its median; every change run better: %s\n", \
					verdict, 100 * worse, 100 * bound[name], 100 * spread, (beats ? "yes" : "no")
			}
		}
	}
	differing = 0
	for (key in exact) for (i = 1; i <= pairs; i++)
		if (val["parent", i, key] != val["change", i, key]) {
			printf "DIFFERS pair %d: %s: parent %s, change %s\n", i, key, val["parent", i, key], val["change", i, key]
			differing++
		}
	if (!differing) print "exact counts and digests: equal on both sides of all " pairs " pairs"
	print "full output of every run: " keep
}' "$root/BENCHMARK.json" "$keep"/parent-*.txt "$keep"/change-*.txt
