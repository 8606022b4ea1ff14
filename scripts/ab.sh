#!/usr/bin/env bash
# Paired A/B of the repository's benchmark: a parent revision against the
# working tree, the way every claim in docs/PERFORMANCE.md since PR 12 was
# measured.
#
#   W=<workload> [S=1] [N=10] [PARENT=HEAD~1] [TRACE=0] [OUT=ab-runs.jsonl] scripts/ab.sh
#   make ab W=<workload> S=<seed> N=10
#   make ab W=all CLAIM=frames_per_s@serve_mixed
#
# W=all runs every workload of BENCHMARK.json in turn into the same OUT,
# prints each table and ends with one line stating the rule the pipeline
# applies to a change across workloads: the claimed metric@workload (CLAIM,
# if the change claims a gain) "better", no end-to-end metric "WORSE" on any
# workload, and no workload failing a larger share of its operations; the
# unresolved metrics are listed beside it.
#
# The parent is exported (git archive) into a temporary directory, so each
# side builds and runs from its own checkout; the change is the working
# tree, committed or not (PARENT=HEAD while it is not). N pairs of
#   go run ./bench -workload W -seed S -seconds 15 -trace TRACE
# run one side after the other, alternating which side goes first (the
# host's speed drifts over minutes). Every pair is appended to OUT as one
# JSON line; the verdict table printed at the end covers every pair in OUT
# for this parent, workload, seed and trace setting, so an interrupted
# series can be continued. VERDICT=1 prints the table without running.
#
# The verdict is the choosing-metrics rule (docs/PERFORMANCE.md "Codec
# round two" states it), per metric, with quartiles by Python's
# statistics.quantiles (the benchmark's own method): "unresolved" when the
# parent's interquartile range exceeds the metric's bound in
# BENCHMARK.json; "better" when the change wins at least nine pairs in ten
# (ties count for neither) and the medians differ by more than the
# parent's interquartile range; "WORSE" when the change's median is worse
# than the parent's by more than the bound; otherwise "within bound"; and
# no verdict at all from fewer than ten pairs.
# Per-layer metrics (TRACE=1) have no bound and are never "unresolved" or
# "WORSE".
set -euo pipefail

: "${W:?set W to a workload named in BENCHMARK.json}"
PARENT=${PARENT:-HEAD~1}
SEED=${S:-1}
N=${N:-10}
TRACE=${TRACE:-0}
OUT=${OUT:-ab-runs.jsonl}

root=$(git rev-parse --show-toplevel)
cd "$root"

if [ "$W" = all ]; then
	tables=$(mktemp)
	trap 'rm -f "$tables"' EXIT
	for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
		W=$w "$root/scripts/ab.sh" | tee -a "$tables"
		echo | tee -a "$tables"
	done
	awk -v claim="${CLAIM:-}" '
		/^\*\*`/ {
			split($0, h, "`"); w = h[2]
			if (match($0, /parent [0-9]+\/[0-9]+, change [0-9]+\/[0-9]+/)) {
				split(substr($0, RSTART, RLENGTH), f, /[ \/,]+/)
				if (f[5] * f[3] > f[2] * f[6]) failed = failed " " w
			}
		}
		/^\| `/ {
			split($0, c, "`"); m = c[2] "@" w
			if ($0 ~ /\| WORSE /) worse = worse " " m
			if ($0 ~ /\| unresolved /) unresolved = unresolved " " m
			if (m == claim) claimed = ($0 ~ /\| better /) ? "better" : "NOT better"
		}
		END {
			if (claim == "") claimed = "no claim"
			else claimed = "claim " claim ": " (claimed == "" ? "NOT measured" : claimed)
			ok = claimed !~ /NOT/ && worse == "" && failed == ""
			printf "ab: across workloads — %s; WORSE:%s; failed share higher:%s; unresolved:%s — %s\n",
				claimed, worse == "" ? " none" : worse, failed == "" ? " none" : failed,
				unresolved == "" ? " none" : unresolved, ok ? "passes the rule" : "FAILS the rule"
		}' "$tables"
	exit
fi
rev=$(git rev-parse --short "$PARENT^{commit}")
case "$OUT" in /*) ;; *) OUT="$root/$OUT" ;; esac

# run_side DIR prints the driver's JSON line of one benchmark run in DIR.
run_side() {
	local log
	log=$(mktemp)
	if ! (cd "$1" && go run ./bench -workload "$W" -seed "$SEED" -seconds 15 -trace "$TRACE") >"$log" 2>&1; then
		echo "ab: benchmark run in $1 failed:" >&2
		tail -n 20 "$log" >&2
	fi
	tail -n 1 "$log"
	rm -f "$log"
}

if [ "${VERDICT:-0}" != 1 ]; then
	parent_dir=$(mktemp -d)
	trap 'rm -rf "$parent_dir"' EXIT
	git archive "$rev" | tar -x -C "$parent_dir"
	for i in $(seq 1 "$N"); do
		if [ $((i % 2)) = 1 ]; then
			first=parent
			p=$(run_side "$parent_dir")
			c=$(run_side "$root")
		else
			first=change
			c=$(run_side "$root")
			p=$(run_side "$parent_dir")
		fi
		jq -cn --arg parent "$rev" --arg w "$W" --argjson seed "$SEED" --argjson trace "$TRACE" \
			--arg first "$first" --argjson p "$p" --argjson c "$c" \
			'{parent: $parent, workload: $w, seed: $seed, trace: $trace, first: $first, parent_run: $p, change_run: $c}' >>"$OUT"
		echo "ab: pair $i/$N ($first first) done" >&2
	done
fi

jq -rn --arg parent "$rev" --arg w "$W" --argjson seed "$SEED" --argjson trace "$TRACE" \
	--slurpfile bm BENCHMARK.json '
def quartiles:
	sort as $s | ($s | length) as $n
	| def at($k): ($k * ($n + 1) / 4) as $pos
		| ([[($pos | floor), 1] | max, $n - 1] | min) as $j
		| $s[$j - 1] + ($pos - $j) * ($s[$j] - $s[$j - 1]);
	if $n == 0 then [0, 0, 0] elif $n == 1 then [$s[0], $s[0], $s[0]] else [at(1), at(2), at(3)] end;
def sig: if . == 0 then "0" else (. as $x | ($x | fabs | log10 | floor) as $e
	| (pow(10; 3 - $e)) as $m | (($x * $m | round) / $m | tostring)) end;
[inputs | select(.parent == $parent and .workload == $w and .seed == $seed and .trace == $trace)] as $pairs
| if ($pairs | length) == 0 then "ab: no pairs recorded for \($w) seed \($seed) against \($parent)" | halt_error else . end
| ($bm[0] | if $trace == 1 then .per_layer else .end_to_end end) as $defs
| ([$pairs[] | .parent_run, .change_run | select(.correct | not)] | length) as $incorrect
| "**`\($w)`, seed \($seed)** — \($pairs | length) pairs against \($parent); failed/attempted parent \([$pairs[].parent_run.failed] | add)/\([$pairs[].parent_run.attempted] | add), change \([$pairs[].change_run.failed] | add)/\([$pairs[].change_run.attempted] | add); runs with a failed output check: \($incorrect)",
  "",
  "| metric | parent median [Q1, Q3] | change median [Q1, Q3] | change/parent | pairs won | parent IQR/median | verdict |",
  "|---|---|---|---|---|---|---|",
  ($defs[] | . as $d
	| [$pairs[] | [.parent_run.metrics[$d.name].value, .change_run.metrics[$d.name].value] | select(.[0] != null and .[1] != null)] as $v
	| select(($v | length) > 0)
	| ([$v[][0]] | quartiles) as $p | ([$v[][1]] | quartiles) as $c
	| (if $d.better == "higher" then 1 else -1 end) as $dir
	| ([$v[] | select((.[1] - .[0]) * $dir > 0)] | length) as $won
	| ($p[2] - $p[0]) as $iqr
	| (if $p[1] == 0 then 0 else $iqr / $p[1] end) as $spread
	| (if $p[1] == 0 then 0 else ($p[1] - $c[1]) * $dir / $p[1] end) as $worse
	| (if ($v | length) < 10 then "too few pairs to say (< 10)"
	   elif $d.bound != null and $spread > $d.bound then "unresolved (spread > bound)"
	   elif $won * 10 >= ($v | length) * 9 and ($c[1] - $p[1]) * $dir > $iqr then "better (≥ 9/10 pairs, median gap > parent IQR)"
	   elif $d.bound != null and $worse > $d.bound then "WORSE (beyond bound)"
	   elif $d.bound != null then "within bound"
	   else "—" end) as $verdict
	| "| `\($d.name)` | \($p[1] | sig) [\($p[0] | sig), \($p[2] | sig)] | \($c[1] | sig) [\($c[0] | sig), \($c[2] | sig)] | \(if $p[1] == 0 then "—" else ($c[1] / $p[1] * 1000 | round / 1000 | tostring) end) | \($won)/\($v | length) | \($spread * 1000 | round / 1000) | \($verdict) |")
' "$OUT"
