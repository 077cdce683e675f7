#!/usr/bin/env bash
# gc-share.sh WORKLOAD PAIRS [run.sh flags]: run the benchmark's WORKLOAD
# in PAIRS alternating pairs in the current checkout, once with the
# collector on (the default) and once with GOGC=off, the order swapped on
# even pairs, each run's last line (its JSON summary) kept. The
# benchmark collects explicitly before each set-up and measured phase,
# so a GOGC=off run still frees each phase's garbage, but pays for no
# collection inside a phase. Then print the median and interquartile
# range, over the pairs, of the collector's share of cpu_s and of
# setup_s, each (default - off) / default, and flag any run that is not
# correct, has failed operations, or shows a sim_* value that differs
# from the other run's in its pair. Exits 1 if any run is flagged.
#
#   bash scripts/gc-share.sh fleet-fabric 5
#   bash scripts/gc-share.sh postmark-cache 2 -scale 0.05 -seconds 0.5
#
# Run it from the repository root. It needs bash and jq, and changes
# nothing under bench/.
set -euo pipefail
if [ $# -lt 2 ]; then
  echo "usage: $0 WORKLOAD PAIRS [run.sh flags]" >&2
  exit 2
fi
workload="$1" pairs="$2"
shift 2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# run SIDE PAIR FLAGS...: run the workload, with GOGC=off when SIDE is
# off, and append its summary, as {side, pair, run}, to runs.jsonl; a
# run that exits non-zero or ends in no JSON line is recorded as not
# correct.
run() {
  local side="$1" pair="$2" last
  shift 2
  if [ "$side" = off ]; then
    last="$(GOGC=off bash bench/run.sh -workload "$workload" "$@" | tail -n 1)" || last=
  else
    last="$(bash bench/run.sh -workload "$workload" "$@" | tail -n 1)" || last=
  fi
  if ! jq -en --argjson r "$last" '$r | type == "object"' > /dev/null 2>&1; then
    last='{"correct": false, "failed": null, "metrics": {}}'
  fi
  jq -c --arg side "$side" --argjson pair "$pair" '{side: $side, pair: $pair, run: .}' \
    <<< "$last" >> "$tmp/runs.jsonl"
  echo "pair $pair $side: $(jq -c '.metrics | {cpu_s, setup_s} | map_values(.value)' <<< "$last")" >&2
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 0 ]; then
    run off "$i" "$@"
    run default "$i" "$@"
  else
    run default "$i" "$@"
    run off "$i" "$@"
  fi
done

echo "workload $workload, $pairs pairs, GC share = (default - GOGC=off) / default"
echo "| metric | default median | GOGC=off median | GC share median [IQR] |"
echo "| --- | --- | --- | --- |"
jq -rs '
  # q: the p-quantile of a list of numbers, by linear interpolation.
  def q($p): sort as $s | ($s | length) as $n
    | if $n == 0 then null else
        (($n - 1) * $p) as $x | ($x | floor) as $i
        | if $i + 1 < $n then $s[$i] + ($x - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end
      end;
  . as $runs
  | ($runs | group_by(.pair) | map({
      d: (map(select(.side == "default"))[0].run),
      o: (map(select(.side == "off"))[0].run)
    })) as $pairs
  | ("cpu_s", "setup_s") as $m
  | ([$runs[] | select(.side == "default") | .run.metrics[$m].value // empty]) as $dv
  | ([$runs[] | select(.side == "off") | .run.metrics[$m].value // empty]) as $ov
  | ([$pairs[] | (.d.metrics[$m].value // null) as $a | (.o.metrics[$m].value // null) as $b
      | select($a != null and $b != null and $a > 0) | ($a - $b) / $a]) as $share
  | (["row", $m, ($dv | q(0.5)), ($ov | q(0.5)), ($share | q(0.5), q(0.25), q(0.75))] | @tsv),
  (if $m == "setup_s" then
    ($runs[] | select(.run.correct != true or (.run.failed // 1) > 0)
      | "FLAG: pair \(.pair) \(.side): correct \(.run.correct), failed \(.run.failed)"),
    ($pairs | to_entries[] | .key as $k | .value
      | (.d.metrics // {}) as $a | (.o.metrics // {}) as $b
      | ([$a, $b] | map(keys[]) | unique[] | select(startswith("sim_"))) as $name
      | select($a[$name].value != $b[$name].value)
      | "FLAG: pair \($k + 1): \($name) default \($a[$name].value), GOGC=off \($b[$name].value)")
  else empty end)
' "$tmp/runs.jsonl" |
  awk -F '\t' 'function f(x) { return x == "" ? "none" : sprintf("%.4g", x) }
    function pct(x) { return x == "" ? "none" : sprintf("%.1f%%", 100 * x) }
    $1 == "row" { printf "| %s (s) | %s | %s | %s [%s–%s] |\n", $2, f($3), f($4), pct($5), pct($6), pct($7); next }
    { print }' |
  tee "$tmp/report.txt"
! grep -q '^FLAG' "$tmp/report.txt"
