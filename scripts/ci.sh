#!/usr/bin/env bash
# Tier-1 verification gate (see README "Tier-1 gate").
#
# Everything runs with --offline: the workspace has no external crates, so
# this must succeed on a machine with no network and no registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check --all

# -D deprecated: nothing in the workspace is deprecated, and nothing may
# call a deprecated item (an upstream one included) without failing here.
echo "==> cargo clippy -- -D warnings -D deprecated"
cargo clippy --offline --workspace --all-targets -- -D warnings -D deprecated

echo '==> RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline'
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> cargo test --doc --offline"
cargo test --doc -q --offline --workspace

# The end-to-end benchmark: perfbench is a workspace of its own that builds
# against the repository's crates by path, so the steps above never compile
# it. Building and testing it here makes a change to a public item it uses
# fail this gate instead of the benchmark run (about 16 s cold on a 2-vCPU
# machine; it builds into the git-ignored perfbench/target/).
echo "==> perfbench build and tests (cargo test --release, perfbench/Cargo.toml)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Doc integrity gate: every relative markdown link in README/docs must
# resolve, the doc set must cross-reference itself, and PROTOCOL.md must
# enumerate exactly vlsi_service::ERROR_CODES (same codes, same order)
# plus every request/response field. These also run inside the plain
# `cargo test` above; re-running them by name makes a doc-rot failure
# show up as its own CI step instead of somewhere in the workspace noise.
echo "==> doc link + protocol doc gate"
cargo test -q --offline -p fixed-vertices-repro --test doc_links
cargo test -q --offline -p vlsi-service --test protocol_doc

# Golden output digests: every public way to run an engine, on one small
# netlist with ~10% fixed vertices, folded into FNV-1a digests of the
# partition, the value and the trace stream (three digests per case: full
# trace, kept answers without move counts, and parts plus value alone;
# Multistart::run_parallel, the one path a thread count reaches, must
# produce its digests on one and on two workers). A second table pins the
# callers of the block-instance builder (induced_subgraph) on a small
# netgen circuit: the placer's positions and per-bisection counts with
# terminal propagation on and off, Table IV's eight standard instances
# and the Rent extraction's samples. A third, CIRCUITS, pins the netlist
# generator: 36 circuits (the IBM-like and million-cell presets, and edge
# configurations through both Generator::generate and
# scale::build_circuit) by their weights, nets, placement, pad offset and
# die. A change that claims to leave outputs
# alone must leave every digest alone; one that only drops work that
# provably changes nothing may re-record the trace tables but never the
# parts table; one that changes partitions on purpose re-records the
# tables and says why.
echo "==> golden output digests"
cargo test -q --offline -p fixed-vertices-repro --test golden_digests

# Thread-count invariance: a thread count reaches only the start workers of
# Multistart::run_parallel. On an ~8900-vertex netlist, every registry
# engine at k=2 and rb/kway at k=4 under cut and km1 must return the same
# best answer, per-start cuts and top list from 2 starts on 1, 2 and 4
# workers and with an armed cancel token; KwayRefiner and the warm start
# must return the same parts, value and trace with and without an armed
# token (about 40 s in a debug build).
echo "==> thread-count invariance"
cargo test -q --offline -p fixed-vertices-repro --test determinism \
    no_answer_depends_on_the_thread_count

# K-way legality: the direct k-way engine on small netgen circuits (k in
# {3, 4, 6, 8}, ±10-30%, all free or 0-50% fixed at random, cut and km1)
# must return an answer the independent referee accepts, or an
# infeasibility error; never an over- or underfull partition. Re-based on
# a fixed seed outside the checked-in corpus at 4x its cases (about 1 s in
# a debug build).
echo "==> k-way legality (TESTKIT_SEED=1999, 4x cases)"
TESTKIT_SEED=1999 TESTKIT_CASES=4x \
    cargo test -q --offline -p fixed-vertices-repro --test kway_invariants \
    direct_kway_answers_are_legal_or_infeasible

# Fixed-vertex edges: a fixity table may stop short of its hypergraph,
# and the vertices past its end are free. Every registry engine at k=2
# and rb/kway at k=4 must return exactly what it returns for the table
# padded with Free (200-400 vertices, 0-50% fixed, tables cut at half to
# full length). The terminal-clustering transform (cluster_terminals, the
# coarsener's fixed pre-pass with no weight cap) must keep the cut at k=2
# and the km1 at k=4 of every projected assignment, give one terminal per
# part holding a Fixed vertex at the lowest ids, keep FixedAny vertices
# as clusters of their own with their fixity, and leave the invariant
# constraint metrics unchanged, on a corpus with one-pin nets. Re-based on
# a fixed seed at 4x its cases (about 3 s in a debug build).
echo "==> fixed-vertex edges (TESTKIT_SEED=1999, 4x cases)"
TESTKIT_SEED=1999 TESTKIT_CASES=4x \
    cargo test -q --offline -p fixed-vertices-repro --test fixed_vertex_invariants \
    a_short_fixity_table_is_answered_as_the_padded_one
TESTKIT_SEED=1999 TESTKIT_CASES=4x \
    cargo test -q --offline -p fixed-vertices-repro --test partitioner_properties \
    terminal_clustering_preserves_cut_of_projected_solutions

# Decode fuzz smoke: the differential suite that pins `parse_request` to
# the earlier tree-based decoder, re-based on a fixed seed outside its
# checked-in corpus and bounded in cases (about 2 s in a debug build). It
# also ran under `cargo test` on its own corpus; this step explores a
# second, equally reproducible corpus and names the decoder when it fails.
echo "==> decode differential fuzz smoke (TESTKIT_SEED=1999, 10000 cases)"
TESTKIT_SEED=1999 TESTKIT_CASES=10000 \
    cargo test -q --offline -p vlsi-service --test decode_differential

# FM differential fuzz smoke: the suite that pins the 2-way FM pass loop
# (results and trace events, bucket_ops included) to the earlier
# KwayGains/Partitioning loop, the exact pass stop to that loop's
# classic passes, FmStack to that loop stage by stage, and the merged
# two-pin gain update on a two-pin corpus (at least 75% two-pin nets,
# weightless ones and ones with an immovable pin among them, plus one-pin
# nets; CLIP and LIFO stages and a CLIP->LIFO stack under the exact
# stop), re-based on the same fixed seed and scaled to 4x its checked-in
# case counts (1600 small instances plus 16 with over 2,100 vertices per
# property; about 4 s in a debug build).
echo "==> FM differential fuzz smoke (TESTKIT_SEED=1999, 4x cases)"
TESTKIT_SEED=1999 TESTKIT_CASES=4x \
    cargo test -q --offline -p fixed-vertices-repro --test fm_differential

# FM gain range: on an 8-vertex cycle whose closing net is heavy, the
# builder refuses net weights summing past i64::MAX (u64::MAX, 2^63);
# past the gain buckets' i32 keys (2^40, and just over the limit) fm, ml,
# rb and kway return PartitionError::GainRange before allocating a bucket
# while kl and sa answer with cut 2; at 2^20, and with a 2^40 one-pin
# net, every engine answers with cut 2. Nothing panics or aborts (under
# 1 s in a debug build).
echo "==> FM gain range (heavy net weights)"
cargo test -q --offline -p fixed-vertices-repro --test gain_range \
    heavy_net_weights_are_refused_or_answered

# Block instance differential: the block-instance builder
# (induced_subgraph, behind the placer, Table IV's extraction, rb and the
# Rent extraction) against a full-scan reference builder on random
# hypergraphs with one to three resources: empty, one-cell, all-cell and
# random cell sets under four terminal rules must give equal pins per net,
# weights, fixities and to_parent, and unsorted or duplicate cells must
# panic. Re-based on the same fixed seed at 4x its cases (under 1 s in a
# debug build).
echo "==> block instance differential (TESTKIT_SEED=1999, 4x cases)"
TESTKIT_SEED=1999 TESTKIT_CASES=4x \
    cargo test -q --offline -p fixed-vertices-repro --test block_instance_differential

# Coarsening differential fuzz smoke: the suite that pins heavy-edge
# matching and cluster contraction (coarsen_once, contract_clusters) to
# the earlier kernels, level by level: cluster map, coarse nets in order
# with their weights, vertex weights and fixities. It covers small and
# ~2,000-vertex instances, the fixed-terminal regime (45% of vertices
# fixed into two parts, no cluster cap) and clusterings whose nets share
# their first two coarse pins. Re-based on the same fixed seed at 4x its
# cases (about 4 s in a debug build).
echo "==> coarsening differential fuzz smoke (TESTKIT_SEED=1999, 4x cases)"
TESTKIT_SEED=1999 TESTKIT_CASES=4x \
    cargo test -q --offline -p fixed-vertices-repro --test coarsen_differential

# Refinement fixpoint differential: KwayRefiner with four passes must
# return what one-pass calls repeated until the value stops improving
# return, with one pass bracket under the round pass, which ends at its
# fixpoint (k in {2, 3, 4}, cut and km1, windowed and exact balance).
# Re-based on the same fixed seed at 4x its cases (about 1 s in a debug
# build). FmStack's stage-by-stage property runs in the FM differential
# fuzz smoke above.
echo "==> refinement fixpoint differential (TESTKIT_SEED=1999, 4x cases)"
TESTKIT_SEED=1999 TESTKIT_CASES=4x \
    cargo test -q --offline -p fixed-vertices-repro --test refinement_equivalence fixpoint

# Exact pass stop identity: the default multilevel engine and rb/kway at
# k=4 end their FM passes with the exact stop (PassCutoff::Exact). On a
# small netgen circuit, all free, pads only and 10/30/50% fixed at random,
# they must return the answers and traces of the same configs with classic
# full passes, apart from the `move` events and each `pass_end`'s move and
# bucket-op counts (about 1 s in a debug build).
echo "==> exact pass stop identity"
cargo test -q --offline -p fixed-vertices-repro --test determinism \
    multilevel_answers_do_not_depend_on_the_pass_stop

# Service golden session: one worker answers a fixed session on a netgen
# circuit (a cold ml run with a V-cycle and its repeat, k-way km1 on two
# threads, rb with ensemble, a warm start with a delta and its repeat, a
# warm miss, a zero-deadline job, an infeasible job, an unknown engine,
# then metrics) with and without a trace file. Every response line and
# the JSONL trace must match recorded FNV-1a digests with the wall-clock
# fields masked, and the trace file must change no response (about 1 s
# in a debug build).
echo "==> service golden session"
cargo test -q --offline -p vlsi-service --test golden_session

# Transport parity: one byte stream (a JSON-whitespace-only line, a job
# line holding a 0xFF byte, one starting with U+00A0, a metrics query,
# valid jobs and an unterminated last job line) sent through
# Service::serve (stdio) and serve_tcp must get the same response lines,
# compared as sorted sets with the wall-clock fields masked; a line past
# the 64 MiB cap must end a stdio session with InvalidData after at most
# the cap plus one read, and a TCP connection, each once the job before
# it has answered and without a reply to the long line (about 1 s in a
# debug build).
echo "==> transport parity"
cargo test -q --offline -p vlsi-service --test transport_parity

# Cache key identity: the service's cache key against the fixed-width
# encoding it replaced, over the testkit instance corpus widened with
# edge values (weights 0, 2^56 and u64::MAX, multi-resource rows,
# explicit capacities, multi-part fixities, one-pin nets). The key must
# hash like FNV-1a over that encoding, so every solution id is unchanged,
# and two keys' compact bytes must be equal exactly when their reference
# encodings are, over near-identical pairs (a weight moved to the next
# vertex, a pin moved to the next net, Free against FixedAny over every
# part). Re-based on the same fixed seed at 4x its cases (about 1 s in a
# debug build).
echo "==> cache key identity (TESTKIT_SEED=1999, 4x cases)"
TESTKIT_SEED=1999 TESTKIT_CASES=4x \
    cargo test -q --offline -p vlsi-service --test cache_key_identity

# Partition trace identity: the `partition` binary must write the same
# assignment with and without --trace (4 starts and a V-cycle, three
# seeds), and traced runs at --threads 1 and 2 the same assignment and
# the same trace apart from wall-clock fields. With a two-column --are
# file at --k 2, ml, fm, rb and kway must each write an assignment that
# balances both resources (about 1 s in a debug build).
echo "==> partition trace identity"
cargo test -q --offline -p vlsi-experiments --test partition_cli

# Examples: README calls them runnable, and `cargo test` only compiles
# them. Run each in release mode; an example fails the step by panicking
# or returning an error (about 1 s together on a 2-vCPU machine).
echo "==> examples (cargo run --release --example)"
for example in quickstart topdown_placement fixed_terminals_study \
    benchmark_generation engine_comparison; do
    echo "--> $example"
    cargo run --release --offline -q --example "$example" >/dev/null
done

# Service soak smoke: bring up an in-process server, drive a bounded
# mixed cold/warm workload over concurrent TCP connections, and fail on
# any error or failed connection. Deeper gates (warm-start pass counts,
# cross-worker-count determinism, latency bounds) live in
# crates/service/tests/soak.rs and already ran under `cargo test`; this
# step exercises the real binary end to end. Skip with SOAK_SMOKE=0.
if [ "${SOAK_SMOKE:-1}" = "1" ]; then
    echo "==> service soak smoke (loadgen --spawn)"
    soak_out="$(cargo run --release --offline -q -p vlsi-experiments --bin loadgen -- \
        --spawn --connections 4 --requests 6 --seed 3 2>/dev/null)"
    echo "$soak_out"
    case "$soak_out" in
        *'"errors":0,"failed_connections":0'*) ;;
        *) echo "ci.sh: soak smoke reported errors" >&2; exit 1 ;;
    esac
else
    echo "==> service soak smoke skipped (SOAK_SMOKE=0)"
fi

# Service replay smoke: the end-to-end benchmark's serve-eco workload (the
# BENCHMARK.json command) for 5 s, traced. perfbench reads the service's
# response lines with its own string matching, and its traced run replays
# every answered request through parse_request, cache_key, the solve and
# JobResponse::to_line, counting each one whose replay disagrees with the
# service as failed; the step fails unless the last line reports
# "correct":true and "failed":0, so a wire-format change the benchmark
# depends on fails here instead of in the benchmark (about 15 s on a
# 2-vCPU machine once perfbench is built). Skip with REPLAY_SMOKE=0.
if [ "${REPLAY_SMOKE:-1}" = "1" ]; then
    echo "==> serve-eco replay smoke (perfbench --workload serve-eco --trace 1)"
    replay_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload serve-eco --seed 1 --seconds 5 --trace 1 | tail -n 1)"
    echo "$replay_out"
    case "$replay_out" in
        *'"correct":true,'*'"failed":0,'*) ;;
        *) echo "ci.sh: serve-eco replay smoke reported failures" >&2; exit 1 ;;
    esac
else
    echo "==> serve-eco replay smoke skipped (REPLAY_SMOKE=0)"
fi

# Heterogeneous resource smoke: a scaled netgen instance with three
# resource dimensions per vertex, ~5% fixed vertices, explicit asymmetric
# per-part capacity vectors and the connectivity (km1) objective at k=4.
# The binary exits non-zero unless the answer is legal under the capacity
# balance, every per-part per-resource load fits its row, and the
# reported km1 matches an independent recomputation. Bounded (~1 s);
# shrink with HETERO_SMOKE_SCALE or skip with HETERO_SMOKE=0.
if [ "${HETERO_SMOKE:-1}" = "1" ]; then
    echo "==> heterogeneous resource smoke (hetero_smoke)"
    HETERO_SMOKE_SCALE="${HETERO_SMOKE_SCALE:-0.1}" \
        cargo run --release --offline -q -p vlsi-experiments --bin hetero_smoke
else
    echo "==> heterogeneous resource smoke skipped (HETERO_SMOKE=0)"
fi

# Quality-phase smoke: a scaled netgen instance with 30% fixed vertices
# (good regime), plain 4-start multistart vs. the same budget with
# `.vcycles(2).ensemble(true)`. The binary exits non-zero unless the
# quality answer is legal (fixity + balance referee), its best cut is no
# worse than the plain run's, and at least one V-cycle completed in the
# trace stream. Bounded (~1 s); shrink with ENSEMBLE_SMOKE_SCALE or skip
# with ENSEMBLE_SMOKE=0.
if [ "${ENSEMBLE_SMOKE:-1}" = "1" ]; then
    echo "==> quality-phase smoke (ensemble_smoke)"
    ENSEMBLE_SMOKE_SCALE="${ENSEMBLE_SMOKE_SCALE:-0.1}" \
        cargo run --release --offline -q -p vlsi-experiments --bin ensemble_smoke
else
    echo "==> quality-phase smoke skipped (ENSEMBLE_SMOKE=0)"
fi

# Million-cell scale smoke: stream-generate a Rent-faithful 10^6-cell
# instance, run a full multilevel bisection on it, check legality, and
# gate peak RSS — the memory-safety net for the compact CSR layout.
# Budget: ~30 s wall, < 1 GiB RSS on an unloaded 8-way builder. Shrink
# with SCALE_SMOKE_CELLS (e.g. 100000 on tiny builders) or skip with
# SCALE_SMOKE=0; SCALE_SMOKE_MAX_RSS_MB=0 disables only the RSS gate.
if [ "${SCALE_SMOKE:-1}" = "1" ]; then
    echo "==> million-cell scale smoke (scale_smoke)"
    SCALE_SMOKE_CELLS="${SCALE_SMOKE_CELLS:-1000000}" \
    SCALE_SMOKE_MAX_RSS_MB="${SCALE_SMOKE_MAX_RSS_MB:-1024}" \
        cargo run --release --offline -q -p bench --bin scale_smoke
else
    echo "==> million-cell scale smoke skipped (SCALE_SMOKE=0)"
fi

# Perf smoke gate: run the perf-regression suite with a small sample count
# and fail on a >15% median regression against the checked-in baseline.
# The suite writes results/bench/BENCH_partition.json (the CI artifact) and
# prints the V-cycle group's t1/t4 speedup: its two starts spread over
# min(4, 2, cores) workers, the only place a thread count reaches. Every
# other group runs one engine on one thread (a t1 slice only). The
# coarsen_once, flat_fm, multilevel, vcycle and scale/partition baseline
# entries were recorded on a 2-core machine. Skip with
# PERF_SMOKE=0 (e.g. on heavily-loaded builders where wall-clock medians
# are meaningless). The
# suite's million-cell scale/ group (single-shot ~30 s partition plus a
# peak-RSS record) can be skipped on its own with PERF_SCALE=0; the gate
# then ignores scale/ baseline entries.
if [ "${PERF_SMOKE:-1}" = "1" ]; then
    echo "==> perf smoke gate (cargo bench -p bench --bench perf_suite)"
    TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-5}" \
    PERF_GATE=1 \
    PERF_BASELINE="${PERF_BASELINE:-results/bench/BENCH_partition.baseline.json}" \
        cargo bench --offline -p bench --bench perf_suite
    echo "==> perf artifact: results/bench/BENCH_partition.json"
else
    echo "==> perf smoke gate skipped (PERF_SMOKE=0)"
fi

echo "ci.sh: all gates passed"
