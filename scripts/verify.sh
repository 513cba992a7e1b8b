#!/usr/bin/env bash
# Mirrors CI / tier-1 locally: offline build, tests, and lint.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (offline) =="
cargo build --release --offline

echo "== cargo test -q (tier-1, offline) =="
cargo test -q --offline

echo "== cargo test --workspace (offline) =="
cargo test -q --workspace --offline

echo "== cargo test --workspace with MEMTREE_KERNELS=scalar (portable fallback lane, offline) =="
MEMTREE_KERNELS=scalar cargo test -q --workspace --offline

echo "== bench_hotpath + bench_faults --smoke and repro fig3_6 / fig3_7 with MEMTREE_KERNELS=scalar (the rest of CI's scalar-kernels lane, offline) =="
MEMTREE_KERNELS=scalar cargo run -p memtree-bench --release --offline --bin bench_hotpath -- --smoke
MEMTREE_KERNELS=scalar cargo run -p memtree-bench --release --offline --bin bench_faults -- --smoke
MEMTREE_KERNELS=scalar cargo run -p memtree-bench --release --offline --bin repro -- fig3_6 --quick
MEMTREE_KERNELS=scalar cargo run -p memtree-bench --release --offline --bin repro -- fig3_7 --quick

echo "== bench_hotpath --smoke (kernel cross-checks + FST batched-lookup differential, offline) =="
cargo run -p memtree-bench --release --offline --bin bench_hotpath -- --smoke

echo "== bench_lsm --smoke (per-filter block-read gate + leveled/tiered amp gates, offline) =="
cargo run -p memtree-bench --release --offline --bin bench_lsm -- --smoke

echo "== bench_recovery --smoke (WAL overhead + O(tables) filter-image recovery + torn-tail gates, offline) =="
cargo run -p memtree-bench --release --offline --bin bench_recovery -- --smoke

echo "== bench_faults --smoke (CRC tax + scrub/degraded/enospc gates, offline) =="
cargo run -p memtree-bench --release --offline --bin bench_faults -- --smoke

echo "== reproduction claims (fig4_8 / fig4_9 assert their IO/op columns, fig4_11 its SuRF sizes, fig3_6 / fig3_7 all hits at every rank layout, offline) =="
cargo run -p memtree-bench --release --offline --bin repro -- fig4_8 --quick
cargo run -p memtree-bench --release --offline --bin repro -- fig4_9 --quick
cargo run -p memtree-bench --release --offline --bin repro -- fig4_11 --quick
cargo run -p memtree-bench --release --offline --bin repro -- fig3_6 --quick
cargo run -p memtree-bench --release --offline --bin repro -- fig3_7 --quick

echo "== overload gates (stall bands, admission shedding, slow-I/O storm on the virtual clock, offline) =="
cargo test -q --offline -p memtree-serve --test overload

echo "== memtree-benchmark tests + --smoke (every workload, plain and traced, against the live crate signatures, offline) =="
cargo test -q --offline -p memtree-benchmark
cargo run --release --offline -p memtree-benchmark -- --smoke

echo "== concurrent suites with RUST_TEST_THREADS=4 (lsm + serve under real parallelism, offline) =="
RUST_TEST_THREADS=4 cargo test -q --offline -p memtree-lsm -p memtree-serve
for i in 1 2 3 4 5; do
  echo "-- lsm + serve unit tests, pass $i/5 (a race fails here, not one run in five) --"
  RUST_TEST_THREADS=4 cargo test -q --offline -p memtree-lsm -p memtree-serve --lib
done
RUST_TEST_THREADS=4 cargo test -q --offline -p memtree-serve --test overload

echo "== chaos soak, seeds 0..128, 4 test threads (caller-run writes under shard panics and fault storms, offline) =="
MEMTREE_FAULT_SEEDS=0..128 RUST_TEST_THREADS=4 cargo test -q --offline -p memtree-serve --test chaos_soak

echo "== WAL frame sweep (offline) =="
cargo test -q --offline -p memtree-lsm --test wal_frames

echo "== crash + scrub oracles + Db/DbSnapshot read-path differential over seeds 0..64 (the range CI's four fault shards cover; leveled+tiered by seed parity, offline) =="
MEMTREE_FAULT_SEEDS=0..64 cargo test -q --offline -p memtree-lsm --test crash_oracle --test scrub_oracle --test publish

echo "== cargo clippy --workspace --all-targets -D warnings (offline) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --workspace -D warnings (dangling intra-doc links, offline) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "verify: OK"
