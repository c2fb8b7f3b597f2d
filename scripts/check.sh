#!/usr/bin/env bash
# Pre-PR gate for the Magellan workspace: formatting, clippy with
# warnings denied, the magellan-lint pass (line rules, D4 taint, the
# H2/H3 hot-path cost analysis, and the U1 unsafe contracts), the
# test suite, the pipeline-benchmark smoke, the release
# default-scale findings, a loom smoke over the worker pool, and the
# end-to-end smokes: fault schedule,
# crash recovery, the multi-process loopback-ingest drill against
# magellan-traced, and the chaos-ingest drill through the tracetool
# nemesis proxy. Run from anywhere inside the repo.
#
# The two advisory clippy lints (unwrap_used, indexing_slicing) are
# allowed here on purpose: their enforced counterpart is magellan-lint's
# budgeted C1 rule — see DESIGN.md §9.
#
# Every stage prints a banner; on failure the trap below names the
# stage that died, so CI logs point straight at the culprit.
set -euo pipefail

cd "$(dirname "$0")/.."

STAGE="startup"
trap 'status=$?; if [ "$status" -ne 0 ]; then echo "==> FAILED at stage: ${STAGE} (exit ${status})" >&2; fi' EXIT

stage() {
    STAGE="$1"
    echo
    echo "=================================================================="
    echo "==> stage: ${STAGE}"
    echo "=================================================================="
}

# After a clean exit an archive directory holds sealed segments only —
# no `tail.mseg`, no `*.tmp`, no `MANIFEST` — plus the extra names the
# second argument allows as an ERE alternation (serve's sidecars).
check_archive_files() {
    local dir=$1 extra=${2:-} stray
    stray=$(ls -A "${dir}" | grep -Ev "^(seg-[0-9]{6,}\.mseg${extra:+|${extra}})$" || true)
    if [ -n "${stray}" ]; then
        echo "==> ${dir}: unexpected archive files: ${stray//$'\n'/ }" >&2
        return 1
    fi
}

# After a `serve` that exited 0: its run directory must fsck, its
# archive directory must hold only segments and the two sidecars, and
# the `INGEST.resume` cursor must exist and vouch for no more records
# than serve says it archived — a durability lane abandoned before
# its last commit, or a cursor published ahead of it, fails here.
check_traced_run() {
    local dir=$1 transcript=$2 cursor archived
    ./target/release/tracetool fsck "${dir}" > /dev/null
    check_archive_files "${dir}/archive" 'INGEST|INGEST\.resume'
    cursor=$(sed -n 's/^archived \([0-9][0-9]*\)$/\1/p' "${dir}/archive/INGEST.resume")
    archived=$(sed -n 's/^magellan-traced: archived \([0-9][0-9]*\) report.*/\1/p' "${transcript}")
    if [ -z "${cursor}" ] || [ -z "${archived}" ] || [ "${cursor}" -gt "${archived}" ]; then
        echo "==> ${dir}: INGEST.resume cursor '${cursor}' vs '${archived}' archived" >&2
        return 1
    fi
}

# `pipeline_bench/` is a package of its own (empty [workspace] table),
# so the workspace-wide commands below never see it: it gets the same
# fmt/clippy/test treatment through its manifest.
BENCH_MANIFEST=pipeline_bench/Cargo.toml

stage "cargo fmt --check"
cargo fmt --all --check
cargo fmt --manifest-path "${BENCH_MANIFEST}" --check

stage "cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- \
    -D warnings \
    -A clippy::unwrap_used \
    -A clippy::indexing_slicing
cargo clippy --offline --manifest-path "${BENCH_MANIFEST}" --all-targets -- \
    -D warnings

stage "magellan-lint"
# Full pass — line rules plus both call-graph analyses (D4 backward
# taint, H2/H3 forward hot-path cost). Human report on stdout;
# SARIF written for the CI code-scanning artifact (target/ is
# gitignored, so local runs stay clean).
mkdir -p target
cargo run -q -p magellan-lint -- --format sarif --output target/magellan-lint.sarif

stage "kernel equivalence (bit-parallel BFS vs scalar, incremental vs rebuild, edge-list vs keyed Csr, label-split sweep vs edge-filtered subgraphs, generator bits, one-pass table vs separate passes, boundary fan-out vs one lane, durable vs in-memory study, streamed vs buffered checkpoint, fixed-layout report codec vs accessor codec, frame reader under any chunking)"
# Fast fail-early pass over the equivalence tests that pin the
# perf-path kernels to their reference implementations: the 64-wide
# bit-parallel BFS against per-source scalar BFS, the incremental
# snapshot engine against full recomputation, `Csr::from_edges`
# against `Csr::from_digraph` of the same edges, the one-sweep Fig. 8B
# label split against the edge-filtered sub-topologies it counts, every
# random generator's output bytes at three seeds, the study's one-pass
# boundary table against the separate population, Fig. 5/6 and
# keyed-topology passes it replaced, and the study's side-by-side
# boundary measurement against one lane (at 1, 2 and 8 workers, and
# live against archive replay), and the whole in-memory study report
# against the durable one — both drivers share one live loop, collector
# included (clean and under the stress plan's outage, at 1 and 8
# workers), the checkpoint file streamed from the live study against
# the buffered composition it replaced (owned capture, body encode,
# extras prepended, envelope; seeds 2006 and 7, clean and stressed,
# one tick inside the server outage) plus a producer failing mid-body
# leaving the previous checkpoint newest, the fixed-layout report
# encoder and in-place decoder
# against the accessor-based codec they replaced (bytes, every
# truncation, trailing bytes, one pinned encoding), and the TCP frame
# reader fed in one piece, byte by byte and in 16 KiB pieces.
# Byte-determinism rests on guarantees like these, so they get their
# own stage before the full suite.
cargo test -q -p magellan-graph --lib multi64
cargo test -q -p magellan-graph --lib incremental
cargo test -q -p magellan-graph --test properties csr_from_edges_matches_digraph_with_the_same_add_edge_calls
cargo test -q -p magellan-graph --test properties label_split_sweep_matches_edge_filtered_subgraphs
cargo test -q -p magellan-graph --lib generator_output_bits_are_pinned
cargo test -q -p magellan-analysis --test analysis_properties one_pass_table_matches_the_separate_passes
cargo test -q -p magellan-analysis --lib stream_ending_mid_batch_measures_every_remaining_boundary
cargo test -q -p magellan-analysis --lib durable_run_matches_in_memory_study
cargo test -q -p magellan-analysis --lib streamed_checkpoint_equals_the_buffered_reference
cargo test -q -p magellan-trace --lib streamed_file_equals_the_encoded_envelope
cargo test -q --test determinism boundary_fan_out_matches_one_lane_and_archive_replay
cargo test -q -p magellan-trace --test wire_differential
cargo test -q -p magellan-trace --test codec_properties frame_reader_chunking_is_invisible

stage "cargo test"
cargo test -q --workspace

stage "pipeline-bench smoke"
# Every workload of BENCHMARK.json at `--smoke` size, untraced and
# traced, held to the declared metric names/units and output checks.
# Its ingest workload spawns the tier-1 release `magellan-traced`.
cargo build -q --release
cargo test -q --release --offline --manifest-path "${BENCH_MANIFEST}"

stage "full-scale (release)"
# The paper's findings at default scale: ~1,000 concurrent peers over
# the full 14-day window, one study report shared by the four
# `tests/full_scale.rs` cases (Fig. 1 flash-crowd scalability, Fig. 4
# non-power-law spikes, Figs. 6-7 ISP clustering, Fig. 8 reciprocity).
# They stay #[ignore]d so the debug test run skips them; in release
# the stage takes about half a minute on a 2-core host. Then the
# checkpoint memory guard: a `study_flash`-shaped durable study, run in
# a child process, must peak within 2 MiB of the same in-memory study
# (a checkpoint holds no second copy of the simulator state).
cargo test -q --release --test full_scale -- --ignored
cargo test -q --release --test checkpoint_memory -- --ignored

stage "loom smoke (pool queue/shutdown protocol)"
# A bounded-iteration pass over the worker-pool model tests: the
# cfg(loom) shim swaps the pool's std primitives for the in-tree
# schedule-perturbing stand-in (vendor/loom), so shutdown draining,
# parked-worker wakeup, and steal races get exercised under many
# interleavings. The nightly workflow runs the full-iteration suite
# plus Miri; this is the fail-early version (DESIGN.md §10).
RUSTFLAGS="--cfg loom" LOOM_MAX_ITER=16 \
    cargo test -q -p magellan-par --test loom

stage "fault-schedule smoke"
# A 0.05x-scale study under the combined stress schedule (tracker +
# server outages, partition, crash wave, report loss): proves the
# fault path stays wired end to end. Warm runtime is ~1 s in release.
cargo run -q --release --example faults -- --scale 0.0005 --days 2 > /dev/null

stage "crash-recovery smoke"
# Kill a durable study with abort() at a deterministic tick, resume it
# from its checkpoint, and require the archive and report to be
# byte-identical to an uninterrupted run (DESIGN.md §12), and both
# archive directories to hold sealed segments only.
cargo build -q --release --bin magellan --bin tracetool
SMOKE=$(mktemp -d)
COMMON=(--seed 9 --scale 0.0005 --days 1 --sample-every-mins 240 \
        --checkpoint-every-ticks 64 --segment-bytes 16384 --threads 2)
./target/release/magellan study --archive "${SMOKE}/clean" "${COMMON[@]}" \
    --report "${SMOKE}/clean.txt" > /dev/null
./target/release/magellan study --archive "${SMOKE}/crashed" "${COMMON[@]}" \
    --kill-at-tick 150 > /dev/null 2>&1 && {
        echo "==> crash drill did not crash" >&2; exit 1; } || true
./target/release/magellan study --archive "${SMOKE}/crashed" --resume \
    --threads 2 --report "${SMOKE}/crashed.txt" > /dev/null
diff -r "${SMOKE}/clean/archive" "${SMOKE}/crashed/archive"
check_archive_files "${SMOKE}/clean/archive"
check_archive_files "${SMOKE}/crashed/archive"
cmp "${SMOKE}/clean.txt" "${SMOKE}/crashed.txt"
./target/release/tracetool fsck "${SMOKE}/crashed" > /dev/null
# The loaders that read a whole archive into memory: each must succeed
# on the clean run and print something.
for args in "stats" "sessions" "snapshot --at 0,12,0 --format edges"; do
    read -r -a argv <<< "${args}"
    out=$(./target/release/tracetool "${argv[0]}" "${SMOKE}/clean" "${argv[@]:1}")
    if [ -z "${out}" ]; then
        echo "==> tracetool ${args}: no output" >&2
        exit 1
    fi
done
rm -rf "${SMOKE}"

stage "loopback-ingest smoke"
# The networked service drill (DESIGN.md §13): two drive processes
# stream the same study over real loopback TCP sockets into one serve
# process, and the replayed traced archive must match the replayed
# in-process archive line for line (minus the service-only `Ingest`
# accounting lines). Then an overload drill — two drives sharing one
# shard behind a one-batch queue, few client retries — must shed
# whole batches instead of stalling and still close balanced books
# with `lost 0` and `surplus 0`: `balanced` holds by construction, so
# a shed batch answered with too few `Busy` records, or counted
# short, shows up only in those two columns. `wait` propagates each
# child's exit status, so a panicking serve or drive fails the stage.
cargo build -q --release --bin magellan-traced --bin tracetool
INGEST=$(mktemp -d)
PARAMS=(--seed 9 --scale 0.0005 --days 1 --sample-every-mins 240)
./target/release/magellan study --archive "${INGEST}/inproc" "${PARAMS[@]}" \
    > /dev/null
./target/release/magellan-traced serve --archive "${INGEST}/traced" \
    --listen 127.0.0.1:0 --port-file "${INGEST}/port" \
    --clients 2 --shards 2 "${PARAMS[@]}" > "${INGEST}/serve.txt" &
SERVE=$!
for _ in $(seq 1 150); do [ -s "${INGEST}/port" ] && break; sleep 0.2; done
ADDR=$(cat "${INGEST}/port")
./target/release/magellan-traced drive --server "${ADDR}" --client-id 0 \
    --clients 2 "${PARAMS[@]}" > /dev/null &
DRIVE0=$!
./target/release/magellan-traced drive --server "${ADDR}" --client-id 1 \
    --clients 2 "${PARAMS[@]}" > /dev/null
wait "${DRIVE0}"
wait "${SERVE}"
grep -q '^balanced yes$' "${INGEST}/serve.txt"
check_traced_run "${INGEST}/traced" "${INGEST}/serve.txt"
./target/release/magellan replay --archive "${INGEST}/inproc" \
    | grep -v '^Ingest' > "${INGEST}/inproc.txt"
./target/release/magellan replay --archive "${INGEST}/traced" \
    | grep -v '^Ingest' > "${INGEST}/traced.txt"
cmp "${INGEST}/inproc.txt" "${INGEST}/traced.txt"
./target/release/magellan-traced serve --archive "${INGEST}/overload" \
    --listen 127.0.0.1:0 --port-file "${INGEST}/oport" \
    --clients 2 --shards 1 --pending-cap 8 --queue-cap 1 "${PARAMS[@]}" \
    > "${INGEST}/overload.txt" &
OSERVE=$!
for _ in $(seq 1 150); do [ -s "${INGEST}/oport" ] && break; sleep 0.2; done
OADDR=$(cat "${INGEST}/oport")
./target/release/magellan-traced drive --server "${OADDR}" --client-id 0 \
    --clients 2 --max-attempts 3 --backoff-cap-ms 8 "${PARAMS[@]}" > /dev/null &
ODRIVE0=$!
./target/release/magellan-traced drive --server "${OADDR}" --client-id 1 \
    --clients 2 --max-attempts 3 --backoff-cap-ms 8 "${PARAMS[@]}" > /dev/null
wait "${ODRIVE0}"
wait "${OSERVE}"
grep -q '^balanced yes$' "${INGEST}/overload.txt"
grep -q '^lost 0$' "${INGEST}/overload.txt"
grep -q '^surplus 0$' "${INGEST}/overload.txt"
rm -rf "${INGEST}"

stage "chaos-ingest smoke"
# The hostile-network drill (DESIGN.md §14): the same two-drive TCP
# study, but every client byte now crosses `tracetool nemesis` — the
# seeded chaos proxy injecting latency, partial/coalesced writes,
# stalls, resets, and mid-stream kills. The drives carry a reconnect
# budget, the serve process must close balanced books, and the
# replayed archive must still match the in-process study byte for
# byte. The schedule itself must be a pure function of the seed:
# printing it twice must agree exactly.
CHAOS=$(mktemp -d)
./target/release/magellan study --archive "${CHAOS}/inproc" "${PARAMS[@]}" \
    > /dev/null
./target/release/magellan-traced serve --archive "${CHAOS}/traced" \
    --listen 127.0.0.1:0 --port-file "${CHAOS}/port" \
    --clients 2 --shards 2 "${PARAMS[@]}" > "${CHAOS}/serve.txt" &
CSERVE=$!
for _ in $(seq 1 150); do [ -s "${CHAOS}/port" ] && break; sleep 0.2; done
./target/release/tracetool nemesis --upstream "$(cat "${CHAOS}/port")" \
    --listen 127.0.0.1:0 --port-file "${CHAOS}/proxy-port" \
    --profile tcp --seed 9 > /dev/null &
NEMESIS=$!
for _ in $(seq 1 150); do [ -s "${CHAOS}/proxy-port" ] && break; sleep 0.2; done
CADDR=$(cat "${CHAOS}/proxy-port")
./target/release/magellan-traced drive --server "${CADDR}" --client-id 0 \
    --clients 2 --reconnect 64 "${PARAMS[@]}" > /dev/null &
CDRIVE0=$!
./target/release/magellan-traced drive --server "${CADDR}" --client-id 1 \
    --clients 2 --reconnect 64 "${PARAMS[@]}" > /dev/null
wait "${CDRIVE0}"
wait "${CSERVE}"
kill "${NEMESIS}" 2> /dev/null || true
grep -q '^balanced yes$' "${CHAOS}/serve.txt"
check_traced_run "${CHAOS}/traced" "${CHAOS}/serve.txt"
./target/release/magellan replay --archive "${CHAOS}/inproc" \
    | grep -v '^Ingest' > "${CHAOS}/inproc.txt"
./target/release/magellan replay --archive "${CHAOS}/traced" \
    | grep -v '^Ingest' > "${CHAOS}/traced.txt"
cmp "${CHAOS}/inproc.txt" "${CHAOS}/traced.txt"
./target/release/tracetool nemesis --print-schedule 64 --flows 4 --seed 9 \
    --profile tcp > "${CHAOS}/sched-a.txt"
./target/release/tracetool nemesis --print-schedule 64 --flows 4 --seed 9 \
    --profile tcp > "${CHAOS}/sched-b.txt"
cmp "${CHAOS}/sched-a.txt" "${CHAOS}/sched-b.txt"
rm -rf "${CHAOS}"

stage "done"
echo "==> all checks passed"
