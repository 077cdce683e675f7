#!/usr/bin/env bash
# render-artifacts.sh SRC OUT: build the binaries of the checkout SRC and
# write every artifact of the byte-identity set into OUT, one file each,
# exit statuses appended: every table and figure (at -parallel 8 and at
# -parallel 1), the canned scenarios and a seeded stress fleet (stdout
# and exit status), the trace and telemetry exports of crash-recovery,
# replica-failover, commit-loss and spine-outage, the replication,
# failure, trace and writemix experiments at -scale 0.2, the examples, and danas-sim and
# danas-postmark with each protocol. Render two checkouts and compare
# the two directories file by file:
#
#   bash scripts/render-artifacts.sh /path/to/base /tmp/art-base
#   bash scripts/render-artifacts.sh .             /tmp/art-head
#   for f in /tmp/art-base/*.*; do cmp "$f" "/tmp/art-head/${f##*/}"; done
set -eu
if [ $# -ne 2 ]; then
  echo "usage: $0 SRC OUT" >&2
  exit 2
fi
src="$1" out="$2" bin="$2/bin"
mkdir -p "$bin"
for c in danas-bench danas-sim danas-postmark; do
  go build -C "$src" -o "$bin/$c" "./cmd/$c"
done
for e in dbjoin mediastream oltp quickstart; do
  go build -C "$src" -o "$bin/example-$e" "./examples/$e"
done
"$bin/danas-bench" -scale 0.05 -parallel 8 all > "$out/all.txt"
"$bin/danas-bench" -scale 0.05 -parallel 1 all > "$out/all-p1.txt"
# tight-sla fails an assertion on purpose (exit 1 at base and HEAD
# alike): record every status instead of masking it.
for s in crash-recovery degrade-under-skew commit-loss rolling-restart \
    replica-failover spine-outage tight-sla; do
  st=0; "$bin/danas-bench" -scenario "$s" -scale 0.05 > "$out/scenario-$s.txt" || st=$?
  echo "exit $st" >> "$out/scenario-$s.txt"
done
st=0; "$bin/danas-bench" -scale 0.05 -scenario-seed 7 -scenario-count 6 > "$out/stress-seed7.txt" || st=$?
echo "exit $st" >> "$out/stress-seed7.txt"
# The exports pin span attribution where the model charges it:
# replica-failover's failovers, commit-loss's write-behind stalls and
# commits, spine-outage's RDMA timeouts. Each is written at -parallel 8
# and -parallel 1.
for s in crash-recovery replica-failover commit-loss spine-outage; do
  for par in 8 1; do
    "$bin/danas-bench" -scenario "$s" -scale 0.05 -parallel "$par" \
      -trace-out "$out/$s-p$par-trace.json" \
      -telemetry-out "$out/$s-p$par-telemetry.tsv" > /dev/null
  done
done
# The replicated mounts' failover reads (stripe.Group's task):
# replication and failure at a scale where NFS replicated rows fail
# over; and the NIC page table past one chunk of pages: trace, whose
# footprints span several, and writemix, whose extending writes
# re-export blocks (export/invalidate churn). Each at -parallel 8 and
# -parallel 1.
for e in replication failure trace writemix; do
  for par in 8 1; do
    "$bin/danas-bench" -scale 0.2 -parallel "$par" "$e" > "$out/$e-p$par-s02.txt"
  done
done
for e in dbjoin mediastream oltp quickstart; do
  "$bin/example-$e" > "$out/example-$e.txt"
done
for p in nfs nfs-pp nfs-hybrid dafs odafs; do
  "$bin/danas-sim" -proto "$p" -file-mb 8 -clients 2 > "$out/sim-$p.txt"
done
# The closed loops where a Proc most often runs ahead of the event loop:
# PostMark with writes, creates and deletes, and one-client random reads.
for p in nfs dafs odafs; do
  "$bin/danas-postmark" -proto "$p" -files 200 > "$out/postmark-$p.txt"
  "$bin/danas-postmark" -proto "$p" -files 200 -read-ratio 0.5 -create-delete-ratio 0.2 \
    > "$out/postmark-mix-$p.txt"
  "$bin/danas-sim" -proto "$p" -random -count 2048 -clients 1 -file-mb 8 > "$out/sim-random-$p.txt"
done
