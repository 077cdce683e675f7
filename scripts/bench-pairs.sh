#!/usr/bin/env bash
# bench-pairs.sh REV WORKLOAD PAIRS [run.sh flags]: run the benchmark's
# WORKLOAD in PAIRS alternating pairs, once in a temporary git worktree
# of REV (the parent side) and once in the current checkout (the change
# side), the order swapped on even pairs, each run's last line (its JSON
# summary) kept. Then print, for each end_to_end metric BENCHMARK.json
# lists, both sides' median and interquartile range and the pairs the
# change won (ties count for neither side), and flag any run that is not
# correct, has failed operations, or shows a sim_* value that differs
# from the other side's in its pair. Exits 1 if any run is flagged.
#
#   bash scripts/bench-pairs.sh HEAD~1 postmark-cache 5
#   bash scripts/bench-pairs.sh HEAD postmark-cache 2 -scale 0.05 -seconds 0.5
#
# Run it from the repository root. It needs bash, git and jq, and
# changes nothing under bench/.
set -euo pipefail
if [ $# -lt 3 ]; then
  echo "usage: $0 REV WORKLOAD PAIRS [run.sh flags]" >&2
  exit 2
fi
rev="$1" workload="$2" pairs="$3"
shift 3
here="$(pwd)"
tmp="$(mktemp -d)"
parent="$tmp/parent"
git worktree add --quiet --detach "$parent" "$rev"
trap 'git worktree remove --force "$parent"; rm -rf "$tmp"' EXIT

# run SIDE DIR PAIR FLAGS...: run the workload in DIR and append its
# summary, as {side, pair, run}, to runs.jsonl; a run that exits non-zero
# or ends in no JSON line is recorded as not correct.
run() {
  local side="$1" dir="$2" pair="$3" last
  shift 3
  last="$(cd "$dir" && bash bench/run.sh -workload "$workload" "$@" | tail -n 1)" || last=
  if ! jq -en --argjson r "$last" '$r | type == "object"' > /dev/null 2>&1; then
    last='{"correct": false, "failed": null, "metrics": {}}'
  fi
  jq -c --arg side "$side" --argjson pair "$pair" '{side: $side, pair: $pair, run: .}' \
    <<< "$last" >> "$tmp/runs.jsonl"
  echo "pair $pair $side: $(jq -c '.metrics | map_values(.value)' <<< "$last")" >&2
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 0 ]; then
    run change "$here" "$i" "$@"
    run parent "$parent" "$i" "$@"
  else
    run parent "$parent" "$i" "$@"
    run change "$here" "$i" "$@"
  fi
done

echo "workload $workload, $pairs pairs, parent $(git rev-parse --short "$rev")"
echo "| metric | parent median [IQR] | change median [IQR] | change won |"
echo "| --- | --- | --- | --- |"
jq -rs --slurpfile bench "$here/BENCHMARK.json" '
  # q: the p-quantile of a list of numbers, by linear interpolation.
  def q($p): sort as $s | ($s | length) as $n
    | if $n == 0 then null else
        (($n - 1) * $p) as $x | ($x | floor) as $i
        | if $i + 1 < $n then $s[$i] + ($x - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end
      end;
  . as $runs
  | ($runs | group_by(.pair) | map({
      p: (map(select(.side == "parent"))[0].run),
      c: (map(select(.side == "change"))[0].run)
    })) as $pairs
  | ($bench[0].end_to_end[] | . as $m
      | [$runs[] | select(.side == "parent") | .run.metrics[$m.name].value // empty] as $pv
      | [$runs[] | select(.side == "change") | .run.metrics[$m.name].value // empty] as $cv
      | [$pairs[] | (.p.metrics[$m.name].value // null) as $a | (.c.metrics[$m.name].value // null) as $b
          | select($a != null and $b != null)
          | select(if $m.better == "lower" then $b < $a else $b > $a end)] as $won
      | ["row", "\($m.name) (\($m.unit), \($m.better))",
         ($pv | q(0.5), q(0.25), q(0.75)), ($cv | q(0.5), q(0.25), q(0.75)),
         "\($won | length)/\($pairs | length)"] | @tsv),
    ($runs[] | select(.run.correct != true or (.run.failed // 1) > 0)
      | "FLAG: pair \(.pair) \(.side): correct \(.run.correct), failed \(.run.failed)"),
    ($pairs | to_entries[] | .key as $k | .value
      | (.p.metrics // {}) as $a | (.c.metrics // {}) as $b
      | ([$a, $b] | map(keys[]) | unique[] | select(startswith("sim_"))) as $name
      | select($a[$name].value != $b[$name].value)
      | "FLAG: pair \($k + 1): \($name) parent \($a[$name].value), change \($b[$name].value)")
' "$tmp/runs.jsonl" |
  awk -F '\t' 'function f(x) { return x == "" ? "none" : sprintf("%.4g", x) }
    $1 == "row" { printf "| %s | %s [%s–%s] | %s [%s–%s] | %s |\n", $2, f($3), f($4), f($5), f($6), f($7), f($8), $9; next }
    { print }' |
  tee "$tmp/report.txt"
! grep -q '^FLAG' "$tmp/report.txt"
