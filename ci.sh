#!/usr/bin/env bash
# Local CI gate for the hybrid-clr workspace.
#
# Runs, in order:
#   1. cargo fmt --check           — formatting wall
#   2. cargo clippy -D warnings    — workspace lint wall (all targets),
#                                    then cargo doc with RUSTDOCFLAGS
#                                    "-D warnings" so broken intra-doc
#                                    links fail like any other lint
#   3. cargo test -q, twice        — full test suite at CLR_THREADS=1 and
#                                    CLR_THREADS=4: the parallel evaluation
#                                    layer must be bit-identical at every
#                                    thread count, so a divergence (or a
#                                    thread-count-sensitive test) fails here;
#                                    then the ignored release sweep of the
#                                    drain's number writer (2e7 random f64
#                                    checked byte for byte against {})
#   4. clr-verify all              — cross-layer model audit of the bundled
#                                    presets (platforms, generators, HEFT,
#                                    a jpeg BaseD database whose stored
#                                    metrics CLR036 re-evaluates, checking
#                                    each task's looked-up Table-2 metrics
#                                    bit for bit against a direct
#                                    TaskMetrics::evaluate, the dRC matrices
#                                    (CLR037) of that BaseD and of the ReD
#                                    grown from it under a cap of eight
#                                    extras, policies, scenario suite)
#   5. clr-verify tgff <examples>  — audit of the example TGFF inputs
#   6. export_db + clr-verify db   — text-codec round-trip of a real BaseD
#                                    database, and of the ReD database grown
#                                    from it under a storage cap of eight
#                                    extras, through the file-level auditor;
#                                    both are exported once per thread count
#                                    and byte-compared, then the parallel-run
#                                    exports are audited
#   7. instrumented smoke          — table4 at the quick scale with
#                                    CLR_OBS=json, once per thread count:
#                                    the deterministic journal sections must
#                                    be byte-identical and pass the
#                                    clr-verify journal lints (CLR05x)
#   8. clr-serve replay smoke      — publish the exported database as a
#                                    snapshot (clr-verify snapshot, CLR06x),
#                                    generate a seeded multi-tenant trace and
#                                    replay it at CLR_THREADS=1 and 8: the
#                                    decision CSVs and journals must be
#                                    byte-identical, and the journal must
#                                    pass the CLR05x lints; a third replay
#                                    without --out-dir must print the same
#                                    CSV bytes on stdout
#   9. clr-chaos campaign smoke    — audit a seeded fault plan (clr-verify
#                                    plan, CLR070), then run a reduced chaos
#                                    campaign over the preset fleet at
#                                    CLR_THREADS=1 and 8: the survival CSVs
#                                    and journals must be byte-identical and
#                                    pass the campaign lints (CLR071/072)
#                                    plus the CLR05x journal lints
#  10. clr-served daemon smoke    — wire-encode the step-8 trace into a
#                                    CLRWIRE1 frame stream, pump it through
#                                    the resident clr-served daemon (file
#                                    stdin/stdout), wire-decode the response
#                                    frames and byte-compare against the
#                                    batch replay's decisions.csv: the
#                                    incremental engine and the batch path
#                                    must be the same code path; then flip
#                                    one payload byte and assert the daemon
#                                    rejects the stream with a checksum
#                                    error (nonzero exit)
#  11. clr-serve stats smoke       — append a CLRWIRE1 stats-query frame
#                                    to the step-10 requests, run
#                                    the daemon at CLR_THREADS=1 and 8 and
#                                    byte-compare the schema-2 fleet
#                                    snapshots; the snapshot must pass the
#                                    clr-verify stats lints (CLR066-068)
#                                    and render through stats --json,
#                                    the Prometheus exposition, and top
#  12. clr-store replication       — publish the step-6 database as
#                                    lineage generation 0, mutate one
#                                    design point and publish generation
#                                    1, pull the delta into a replica
#                                    (the changeset must be a small
#                                    fraction of the full container),
#                                    GC the replica, audit both logs
#                                    with the CLR08x store lints, then
#                                    seal generation 1 as a CLRSNAP2
#                                    rollout and hot-swap it into tenant
#                                    cam mid-stream through clr-served
#                                    at CLR_THREADS=1 and 8: response
#                                    frames and obs journals must be
#                                    byte-identical, the drain must
#                                    report cam at generation 1, and the
#                                    journal must carry the db_swap
#                                    event and pass the CLR05x lints
#  13. clr-learn online smoke      — seat an A/B learn fleet (cam pinned
#                                    to the treatment arm, nav to control
#                                    via the seeded assignment) on the
#                                    step-8 snapshot, splice a regime
#                                    shift (two differently-seeded trace
#                                    halves) around a mid-stream Promote
#                                    frame for cam, and drain through
#                                    clr-served with --learn-dir at
#                                    CLR_THREADS=1 and 8: response
#                                    frames, obs journals and CLRLRN1
#                                    checkpoints must be byte-identical,
#                                    the journal must carry shadow and
#                                    promote events and pass the CLR05x
#                                    lints, checkpoints and journal must
#                                    pass the CLR09x learn lints, the
#                                    A/B report must show cam serving
#                                    live post-promote; then learn_drift
#                                    (frozen vs online AuRA under drift)
#                                    at CLR_THREADS=8 must reproduce the
#                                    committed results/learn_drift.csv
#  14. clr-audit (source lints)    — workspace-wide CLR1xx source audit:
#                                    wall-clock reads, unordered containers,
#                                    partial_cmp float sorts, unseeded RNGs,
#                                    raw spawns, panicking decision paths,
#                                    lossy codec casts, deprecated APIs and
#                                    annotation hygiene; any deny finding
#                                    fails the gate, and the JSON report is
#                                    left in target/ next to the journals
#  15. perfbench build and checks  — build the benchmark (its own cargo
#                                    workspace under perfbench/), so a
#                                    serve API change that breaks it
#                                    fails here, not in a benchmark run;
#                                    then two minimal runs per workload,
#                                    and two of design_flow at the
#                                    held-out seed 7919 (--seconds 0.001
#                                    --trace 0: three rounds of every
#                                    output check; the second run checks
#                                    its counts against the ledger the
#                                    first wrote) must each exit 0 and
#                                    report "failed": 0; last one traced
#                                    run per workload at seed 1
#                                    (--trace 1: wire ladder, session
#                                    rung, checkpoint and traced-drain
#                                    checks) must report no failure
#                                    except the rung-gap line, which is
#                                    a timing check and is only printed
#
# Any failure aborts the script (set -e); clr-verify exits nonzero on
# deny-level findings, so a model regression fails CI like a test would.

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

step "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

step "cargo test -q (CLR_THREADS=1)"
CLR_THREADS=1 cargo test --workspace -q

step "cargo test -q (CLR_THREADS=4)"
CLR_THREADS=4 cargo test --workspace -q

step "number writer sweep (release: 2e7 random f64 against {})"
cargo test --release -q -p clr-obs --test number_text -- --ignored

step "build clr-verify + examples"
cargo build --release --quiet -p clr-verify --bin clr-verify
cargo build --release --quiet --example export_db
VERIFY=target/release/clr-verify

step "clr-verify all (bundled scenario presets)"
"$VERIFY" all

step "clr-verify tgff (example TGFF inputs)"
"$VERIFY" tgff examples/data/*.tgff

step "clr-verify db (BaseD and capped ReD databases exported from a parallel run)"
DB_SERIAL=target/ci-based-t1.db
DB_PARALLEL=target/ci-based-t4.db
RED_SERIAL=target/ci-red-t1.db
RED_PARALLEL=target/ci-red-t4.db
CLR_THREADS=1 ./target/release/examples/export_db "$DB_SERIAL" target/ci-based-t1.snap "$RED_SERIAL"
CLR_THREADS=4 ./target/release/examples/export_db "$DB_PARALLEL" target/ci-based-t4.snap "$RED_PARALLEL"
cmp "$DB_SERIAL" "$DB_PARALLEL" \
  || { echo "serial and parallel DSE runs diverged"; exit 1; }
cmp "$RED_SERIAL" "$RED_PARALLEL" \
  || { echo "serial and parallel ReD runs diverged"; exit 1; }
"$VERIFY" db "$DB_PARALLEL"
"$VERIFY" db "$RED_PARALLEL"

step "instrumented smoke (CLR_OBS=json, journal byte-compare + lint)"
cargo build --release --quiet -p clr-experiments --bin table4
JOURNAL=results/table4.obs.jsonl
JOURNAL_SERIAL=target/ci-table4-t1.obs.jsonl
# The smoke runs at the quick scale; shelter the committed reduced-scale
# CSV so CI leaves the checkout clean.
CSV_BACKUP=
if [ -f results/table4.csv ]; then
  CSV_BACKUP=target/ci-table4.csv.bak
  cp results/table4.csv "$CSV_BACKUP"
fi
CLR_QUICK=1 CLR_OBS=json CLR_THREADS=1 ./target/release/table4 >/dev/null
mv "$JOURNAL" "$JOURNAL_SERIAL"
CLR_QUICK=1 CLR_OBS=json CLR_THREADS=8 ./target/release/table4 >/dev/null
cmp "$JOURNAL_SERIAL" "$JOURNAL" \
  || { echo "deterministic journal sections diverged across thread counts"; exit 1; }
"$VERIFY" journal "$JOURNAL"
if [ -n "$CSV_BACKUP" ]; then
  mv "$CSV_BACKUP" results/table4.csv
fi

step "clr-serve replay (multi-tenant trace, thread-count byte-compare)"
cargo build --release --quiet -p clr-serve --bin clr-serve
SERVE=target/release/clr-serve
SNAP=target/ci-based.snap
"$SERVE" snapshot "$DB_PARALLEL" "$SNAP" --graph jpeg --platform dac19
"$VERIFY" snapshot "$SNAP"
TRACE=target/ci-serve-trace.jsonl
FLEET=(--tenant "cam=$SNAP@ura:0.8" --tenant "nav=$SNAP@aura:0.5,0.6,0.1" --tenant "audio=$SNAP@hv")
"$SERVE" gen-trace --out "$TRACE" --seed 11 --cycles 20000 --mean-gap 100 "${FLEET[@]}"
OUT1=target/ci-serve-t1
OUT8=target/ci-serve-t8
rm -rf "$OUT1" "$OUT8"
CLR_THREADS=1 "$SERVE" replay --trace "$TRACE" --out-dir "$OUT1" "${FLEET[@]}" 2>/dev/null
CLR_THREADS=8 "$SERVE" replay --trace "$TRACE" --out-dir "$OUT8" "${FLEET[@]}" 2>/dev/null
cmp "$OUT1/decisions.csv" "$OUT8/decisions.csv" \
  || { echo "decision outputs diverged across thread counts"; exit 1; }
cmp "$OUT1/replay.obs.jsonl" "$OUT8/replay.obs.jsonl" \
  || { echo "replay journals diverged across thread counts"; exit 1; }
STDOUT_CSV=target/ci-serve-stdout.csv
CLR_THREADS=1 "$SERVE" replay --trace "$TRACE" "${FLEET[@]}" > "$STDOUT_CSV" 2>/dev/null
cmp "$OUT1/decisions.csv" "$STDOUT_CSV" \
  || { echo "stdout and --out-dir decision CSVs diverged"; exit 1; }
"$VERIFY" journal "$OUT8/replay.obs.jsonl"

step "clr-chaos campaign (fault-injection survival, thread-count byte-compare)"
cargo build --release --quiet -p clr-chaos-cli --bin clr-chaos
CHAOS=target/release/clr-chaos
PLAN=target/ci-chaos.plan
"$CHAOS" plan --seed 7 --all 0.05 --out "$PLAN"
"$VERIFY" plan "$PLAN"
CH1=target/ci-chaos-t1
CH8=target/ci-chaos-t8
rm -rf "$CH1" "$CH8"
"$CHAOS" campaign --out-dir "$CH1" --seed 7 --cycles 6000 --threads 1 2>/dev/null
"$CHAOS" campaign --out-dir "$CH8" --seed 7 --cycles 6000 --threads 8 2>/dev/null
cmp "$CH1/campaign.csv" "$CH8/campaign.csv" \
  || { echo "campaign survival CSVs diverged across thread counts"; exit 1; }
cmp "$CH1/campaign.obs.jsonl" "$CH8/campaign.obs.jsonl" \
  || { echo "campaign journals diverged across thread counts"; exit 1; }
"$VERIFY" campaign "$CH8/campaign.csv" "$CH8/campaign.obs.jsonl"

step "clr-served daemon (wire round-trip vs batch replay + corruption gate)"
cargo build --release --quiet -p clr-serve --bin clr-served
SERVED=target/release/clr-served
FRAMES=target/ci-serve-frames.bin
RESPONSES=target/ci-serve-responses.bin
SERVED_LOG=target/ci-served.log
"$SERVE" wire-encode --trace "$TRACE" --out "$FRAMES"
CLR_THREADS=8 "$SERVED" "${FLEET[@]}" --batch 64 \
  < "$FRAMES" > "$RESPONSES" 2> "$SERVED_LOG"
grep -q "drained" "$SERVED_LOG" \
  || { cat "$SERVED_LOG"; echo "clr-served did not report a clean drain"; exit 1; }
DAEMON_CSV=target/ci-served-decisions.csv
"$SERVE" wire-decode --in "$RESPONSES" --tenants cam,nav,audio > "$DAEMON_CSV"
cmp "$OUT8/decisions.csv" "$DAEMON_CSV" \
  || { echo "daemon responses diverged from batch replay decisions"; exit 1; }
# Corruption gate: the first frame's payload starts with seq=1 (u64 LE),
# so byte 33 is 0x00 — overwriting it with 0xff guarantees a checksum
# mismatch the daemon must refuse to serve past.
CORRUPT=target/ci-serve-frames-corrupt.bin
cp "$FRAMES" "$CORRUPT"
printf '\xff' | dd of="$CORRUPT" bs=1 seek=33 conv=notrunc status=none
if "$SERVED" "${FLEET[@]}" < "$CORRUPT" > /dev/null 2> "$SERVED_LOG"; then
  echo "clr-served accepted a corrupt frame stream"; exit 1
fi
grep -qi "checksum" "$SERVED_LOG" \
  || { cat "$SERVED_LOG"; echo "corrupt-stream failure did not mention the checksum"; exit 1; }

step "clr-serve stats (live Stats frame, thread-count byte-compare + CLR06x lints)"
STATS_REQ=target/ci-stats-request.bin
STATS_FRAMES=target/ci-stats-frames.bin
STATS_STREAM=target/ci-stats-stream.bin
"$SERVE" stats --request-out "$STATS_REQ" --flight true --seq 90001 2>/dev/null
# The step-10 requests without their shutdown frame, then the stats
# query: the daemon answers it after every request, then drains at
# end-of-stream.
"$SERVE" wire-encode --trace "$TRACE" --out "$STATS_FRAMES" --shutdown false
cat "$STATS_FRAMES" "$STATS_REQ" > "$STATS_STREAM"
STATS_T1=target/ci-stats-resp-t1.bin
STATS_T8=target/ci-stats-resp-t8.bin
CLR_THREADS=1 "$SERVED" "${FLEET[@]}" --batch 64 \
  < "$STATS_STREAM" > "$STATS_T1" 2>/dev/null
CLR_THREADS=8 "$SERVED" "${FLEET[@]}" --batch 64 \
  < "$STATS_STREAM" > "$STATS_T8" 2>/dev/null
SNAP1=target/ci-stats-t1.json
SNAP8=target/ci-stats-t8.json
"$SERVE" stats --in "$STATS_T1" --json > "$SNAP1"
"$SERVE" stats --in "$STATS_T8" --json > "$SNAP8"
cmp "$SNAP1" "$SNAP8" \
  || { echo "fleet snapshots diverged across thread counts"; exit 1; }
"$VERIFY" stats "$SNAP8"
"$SERVE" stats --snapshot "$SNAP8" | grep -q "^clr_serve_events_total" \
  || { echo "Prometheus exposition missing clr_serve_events_total"; exit 1; }
"$SERVE" top --snapshot "$SNAP8" | grep -q "^cam " \
  || { echo "clr-serve top did not render tenant cam"; exit 1; }

step "clr-store replication (lineage publish, delta pull, GC, live SwapDb)"
cargo build --release --quiet -p clr-store --bin clr-store
STORE_BIN=target/release/clr-store
STORE_LOG=target/ci-store.log
REPLICA_LOG=target/ci-store-replica.log
rm -f "$STORE_LOG" "$REPLICA_LOG"
# Generation 0: the exported BaseD database becomes a lineage root,
# replicated to a second store by full-snapshot pull.
"$STORE_BIN" publish "$STORE_LOG" "$DB_PARALLEL" --publisher ci --graph jpeg --platform dac19
"$STORE_BIN" pull "$STORE_LOG" "$REPLICA_LOG"
# Generation 1: mutate one design point's metrics and republish; the
# replica pulls the delta, which must ride a changeset, not a snapshot.
DB_MUT=target/ci-based-mut.db
awk '/^metrics / && !done {$2="999.5"; done=1} {print}' "$DB_PARALLEL" > "$DB_MUT"
"$STORE_BIN" publish "$STORE_LOG" "$DB_MUT" --publisher ci --graph jpeg --platform dac19
PULL_LOG=target/ci-store-pull.log
"$STORE_BIN" pull "$STORE_LOG" "$REPLICA_LOG" --mode delta | tee "$PULL_LOG"
grep -q "via changeset" "$PULL_LOG" \
  || { echo "delta pull did not ship a changeset"; exit 1; }
"$STORE_BIN" verify "$STORE_LOG"
"$STORE_BIN" verify "$REPLICA_LOG"
"$STORE_BIN" log "$STORE_LOG"
CS_FILE=target/ci-store.changeset
"$STORE_BIN" changeset "$STORE_LOG" --from 0 --to 1 --out "$CS_FILE"
"$VERIFY" store "$STORE_LOG" "$CS_FILE"
# Node-local GC on the replica (keep the head only): the CLR08x lints
# must still pass — collection below the floor is not a lineage hole.
"$STORE_BIN" gc "$REPLICA_LOG" --keep 0
"$VERIFY" store "$REPLICA_LOG"
# Seal generation 1 back out as a CLRSNAP2 rollout artifact and audit
# it through the same snapshot lints a v1 export gets.
SWAP_SNAP=target/ci-rollout.snap
"$STORE_BIN" export "$STORE_LOG" "$SWAP_SNAP" --generation 1
"$VERIFY" snapshot "$SWAP_SNAP"
# Mid-stream hot swap: split the step-8 trace in half, splice a SwapDb
# frame for tenant cam between the halves, and serve the spliced stream
# at CLR_THREADS=1 and 8. Response frames and obs journals must be
# byte-identical, the drain must seat cam at generation 1, and the
# journal must carry the db_swap event in stream position.
SWAP_REQ=target/ci-swap-request.bin
"$SERVE" swap-db --request-out "$SWAP_REQ" --tenant cam --path "$SWAP_SNAP" \
  --expect 1 --seq 90002 2>/dev/null
TRACE_LINES=$(wc -l < "$TRACE")
MID=$(( (TRACE_LINES - 1) / 2 ))
TRACE_A=target/ci-swap-trace-a.jsonl
TRACE_B=target/ci-swap-trace-b.jsonl
head -n $((MID + 1)) "$TRACE" > "$TRACE_A"
head -n 1 "$TRACE" > "$TRACE_B"
tail -n +$((MID + 2)) "$TRACE" >> "$TRACE_B"
FRAMES_A=target/ci-swap-frames-a.bin
FRAMES_B=target/ci-swap-frames-b.bin
"$SERVE" wire-encode --trace "$TRACE_A" --out "$FRAMES_A" --shutdown false
"$SERVE" wire-encode --trace "$TRACE_B" --out "$FRAMES_B"
SWAP_STREAM=target/ci-swap-stream.bin
cat "$FRAMES_A" "$SWAP_REQ" "$FRAMES_B" > "$SWAP_STREAM"
SWAP_T1=target/ci-swap-resp-t1.bin
SWAP_T8=target/ci-swap-resp-t8.bin
SWAP_OBS1=target/ci-swap-obs-t1
SWAP_OBS8=target/ci-swap-obs-t8
rm -rf "$SWAP_OBS1" "$SWAP_OBS8"
SWAP_LOG=target/ci-swap-served.log
CLR_THREADS=1 "$SERVED" "${FLEET[@]}" --batch 64 --obs-dir "$SWAP_OBS1" \
  < "$SWAP_STREAM" > "$SWAP_T1" 2>/dev/null
CLR_THREADS=8 "$SERVED" "${FLEET[@]}" --batch 64 --obs-dir "$SWAP_OBS8" \
  < "$SWAP_STREAM" > "$SWAP_T8" 2> "$SWAP_LOG"
cmp "$SWAP_T1" "$SWAP_T8" \
  || { echo "swap response frames diverged across thread counts"; exit 1; }
cmp "$SWAP_OBS1/served.obs.jsonl" "$SWAP_OBS8/served.obs.jsonl" \
  || { echo "swap journals diverged across thread counts"; exit 1; }
grep -q '"type":"db_swap"' "$SWAP_OBS8/served.obs.jsonl" \
  || { echo "journal is missing the db_swap event"; exit 1; }
grep -q "tenant cam (gen 1)" "$SWAP_LOG" \
  || { cat "$SWAP_LOG"; echo "drain did not seat cam at generation 1"; exit 1; }
"$VERIFY" journal "$SWAP_OBS8/served.obs.jsonl"

step "clr-learn online serve (A/B fleet, mid-stream Promote, CLR09x gate)"
# cam seed 1 → treatment (serves the online shadow table), nav seed 5 →
# control (serves the frozen live incumbent): the seeded assignment is a
# pure function of (seed, name), so the arms are pinned by construction.
LEARN_FLEET=(--tenant "cam=$SNAP@aura+learn:0.5,0.6,0.2,0.05@1"
             --tenant "nav=$SNAP@aura+learn:0.5,0.6,0.2,0.05@5"
             --tenant "audio=$SNAP@aura:0.5,0.6,0.1")
# A regime shift mid-stream: two trace halves from different seeds give
# the learner a sample-path drift to adapt to, and the Promote frame for
# cam lands exactly at the splice — learned state must swap live at a
# deterministic stream position.
LTRACE_A=target/ci-learn-trace-a.jsonl
LTRACE_B=target/ci-learn-trace-b.jsonl
"$SERVE" gen-trace --out "$LTRACE_A" --seed 31 --cycles 12000 --mean-gap 100 "${LEARN_FLEET[@]}"
"$SERVE" gen-trace --out "$LTRACE_B" --seed 87 --cycles 12000 --mean-gap 100 "${LEARN_FLEET[@]}"
LFRAMES_A=target/ci-learn-frames-a.bin
LFRAMES_B=target/ci-learn-frames-b.bin
"$SERVE" wire-encode --trace "$LTRACE_A" --out "$LFRAMES_A" --shutdown false
"$SERVE" wire-encode --trace "$LTRACE_B" --out "$LFRAMES_B"
PROMOTE_REQ=target/ci-learn-promote.bin
"$SERVE" promote --request-out "$PROMOTE_REQ" --tenant cam --seq 95001 2>/dev/null
LSTREAM=target/ci-learn-stream.bin
cat "$LFRAMES_A" "$PROMOTE_REQ" "$LFRAMES_B" > "$LSTREAM"
LEARN_LOG=target/ci-learn-served.log
for T in 1 8; do
  LDIR=target/ci-learn-t$T
  rm -rf "$LDIR"
  mkdir -p "$LDIR/ckpt" "$LDIR/obs"
  CLR_THREADS=$T "$SERVED" "${LEARN_FLEET[@]}" --batch 64 \
    --obs-dir "$LDIR/obs" --learn-dir "$LDIR/ckpt" \
    < "$LSTREAM" > "$LDIR/responses.bin" 2> "$LEARN_LOG"
done
cmp target/ci-learn-t1/responses.bin target/ci-learn-t8/responses.bin \
  || { echo "learn response frames diverged across thread counts"; exit 1; }
cmp target/ci-learn-t1/obs/served.obs.jsonl target/ci-learn-t8/obs/served.obs.jsonl \
  || { echo "learn journals diverged across thread counts"; exit 1; }
for ckpt in cam.learn nav.learn; do
  cmp "target/ci-learn-t1/ckpt/$ckpt" "target/ci-learn-t8/ckpt/$ckpt" \
    || { echo "learner checkpoint $ckpt diverged across thread counts"; exit 1; }
done
LEARN_JOURNAL=target/ci-learn-t8/obs/served.obs.jsonl
grep -q '"type":"shadow"' "$LEARN_JOURNAL" \
  || { echo "journal is missing shadow events"; exit 1; }
grep -q '"type":"promote"' "$LEARN_JOURNAL" \
  || { echo "journal is missing the promote event"; exit 1; }
grep -q "1 promotes" "$LEARN_LOG" \
  || { cat "$LEARN_LOG"; echo "drain did not answer the Promote frame"; exit 1; }
grep -q "cam: treatment serving live" "$LEARN_LOG" \
  || { cat "$LEARN_LOG"; echo "cam is not serving the promoted table"; exit 1; }
grep -q "nav: control serving live" "$LEARN_LOG" \
  || { cat "$LEARN_LOG"; echo "nav is not pinned to the control arm"; exit 1; }
"$VERIFY" journal "$LEARN_JOURNAL"
"$VERIFY" learn target/ci-learn-t8/ckpt/cam.learn target/ci-learn-t8/ckpt/nav.learn \
  "$LEARN_JOURNAL"
AB_REPORT=target/ci-learn-ab.txt
"$SERVE" ab --journal "$LEARN_JOURNAL" > "$AB_REPORT"
grep -q "arm treatment" "$AB_REPORT" \
  || { cat "$AB_REPORT"; echo "clr-serve ab did not refold the treatment arm"; exit 1; }
# The frozen-vs-online drift experiment reads no clock: a parallel run
# must reproduce the committed table byte for byte.
cargo build --release --quiet -p clr-experiments --bin learn_drift
DRIFT_CSV=target/ci-learn-drift.csv
cp results/learn_drift.csv "$DRIFT_CSV"
CLR_THREADS=8 ./target/release/learn_drift >/dev/null 2>&1
cmp "$DRIFT_CSV" results/learn_drift.csv \
  || { cp "$DRIFT_CSV" results/learn_drift.csv; echo "learn_drift diverged from the committed results/learn_drift.csv"; exit 1; }

step "clr-audit (workspace-wide CLR1xx source lints)"
cargo build --release --quiet -p clr-audit --bin clr-audit
AUDIT=target/release/clr-audit
AUDIT_REPORT=target/ci-audit.json
"$AUDIT" --json > "$AUDIT_REPORT" \
  || { cat "$AUDIT_REPORT"; echo "clr-audit found deny-level source findings"; exit 1; }

step "perfbench build and output checks (fleet_wire, design_flow, held-out seed)"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
# Each run twice on this one build: the second run compares its counts
# and FNV fingerprints against the ledger the first one wrote.
for run in fleet_wire:1 design_flow:1 design_flow:7919; do
  workload=${run%:*}
  seed=${run#*:}
  for pass in 1 2; do
    PERF_LAST=$(perfbench/target/release/perfbench --workload "$workload" \
      --seed "$seed" --seconds 0.001 --trace 0 | tail -n 1)
    case "$PERF_LAST" in
      *'"failed": 0,'*) ;;
      *) echo "perfbench $workload seed $seed pass $pass: output checks failed: $PERF_LAST"
         exit 1 ;;
    esac
  done
done
# Traced mode: one run per workload. Its rung-gap check compares two
# wall-clock sums, so that one failure line is printed, not gated.
for workload in fleet_wire design_flow; do
  TRACE_OUT=target/ci-perfbench-trace-$workload.out
  TRACE_ERR=target/ci-perfbench-trace-$workload.err
  if perfbench/target/release/perfbench --workload "$workload" --seed 1 --trace 1 \
    > "$TRACE_OUT" 2> "$TRACE_ERR"; then
    TRACE_STATUS=0
  else
    TRACE_STATUS=$?
  fi
  grep '^  trace.gap_ratio' "$TRACE_OUT" || true
  grep 'rung self times sum to' "$TRACE_ERR" || true
  OTHER_FAILURES=$(grep 'perfbench: FAILED:' "$TRACE_ERR" | grep -v 'rung self times sum to' || true)
  if [ -n "$OTHER_FAILURES" ] || { [ "$TRACE_STATUS" -ne 0 ] && [ "$TRACE_STATUS" -ne 1 ]; }; then
    cat "$TRACE_ERR"
    echo "perfbench traced $workload: output checks failed (exit $TRACE_STATUS)"
    exit 1
  fi
done

printf '\nci.sh: all gates passed.\n'
