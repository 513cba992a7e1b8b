//! Set-up, the closed-loop client, the answer oracle and the audits.
//!
//! One run is: build a fresh `ShardedDb`, load it through `put` and let
//! it settle (`setup_s`), warm up, run the measured phase with
//! [`CLIENTS`] closed-loop clients that check every answer, then compare
//! the store with the exact per-writer model — once after a `barrier()`
//! and once more after `crash` + reopen.

use crate::keys::{KeySet, Stamp, ENTRY_BYTES, LOADER};
use crate::ops::{Op, OpStream};
use crate::spec::{serve_options, Kind, Workload, CLIENTS};
use crate::trace::Tracer;
use memtree_common::error::{MemtreeError, Result};
use memtree_lsm::{DbStats, IoStats};
use memtree_serve::{ServeStats, ShardedDb};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Windows a phase is cut into (one second each at `run_seconds`);
/// percentiles and throughput are taken per window and the median window
/// is reported, so a scheduler hiccup or a compaction burst on the shared
/// host moves one window, not the result.
pub const WINDOWS: usize = 15;
/// In a traced phase every this-many-th op is replayed one layer down.
const SAMPLE_EVERY: u64 = 64;
/// In a traced phase client 0 times a `barrier()` every this many ops.
const PUBLISH_EVERY: u64 = 4096;

/// Latencies (ns) and completions of one window of one phase.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Per-[`Kind`] latencies of the ops that completed in the window.
    pub lat: [Vec<u32>; 3],
    /// Ops that completed in the window.
    pub ops: u64,
}

/// Deepest debt the shards showed when sampled during a traced phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gauges {
    /// Most L0 runs on any shard.
    pub l0_runs_max: usize,
    /// Most compaction debt on any shard, bytes.
    pub debt_bytes_max: usize,
}

/// What one phase produced.
#[derive(Debug)]
pub struct Phase {
    /// The windows, both clients merged.
    pub windows: Vec<Window>,
    /// Length of one window in seconds.
    pub window_s: f64,
    /// Spans, when the phase was traced.
    pub tracer: Option<Tracer>,
    /// Debt samples, when the phase was traced.
    pub gauges: Gauges,
}

impl Phase {
    /// Completed ops per second: the median window.
    pub fn ops_per_s(&self) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.ops as f64 / self.window_s)
            .collect();
        crate::stats::median(&per).unwrap_or(0.0)
    }

    /// Ops of `kind` over all windows.
    pub fn count(&self, kind: Kind) -> u64 {
        self.windows
            .iter()
            .map(|w| w.lat[kind as usize].len() as u64)
            .sum()
    }

    /// The `p`-quantile latency of `kind` in µs: the median over windows
    /// of each window's quantile. `None` when the phase has no such op.
    pub fn quantile_us(&mut self, kind: Kind, p: f64) -> Option<f64> {
        let per: Vec<f64> = self
            .windows
            .iter_mut()
            .filter_map(|w| {
                let lat = &mut w.lat[kind as usize];
                lat.sort_unstable();
                crate::stats::quantile_sorted(lat, p).map(|ns| ns as f64 / 1e3)
            })
            .collect();
        crate::stats::median(&per)
    }
}

/// One closed-loop client with its half of the oracle.
#[derive(Debug)]
pub struct Client<'a> {
    id: usize,
    keys: &'a KeySet,
    stream: OpStream,
    /// Highest version this client has read, per loaded index: reads of
    /// one key must never go back in time.
    seen: Vec<u32>,
    /// Last acknowledged version per slot of this client's residue class
    /// (`slot = idx / CLIENTS`); 0 = never written by this client.
    acked: Vec<u32>,
    /// Operations issued, checks included.
    pub attempted: u64,
    /// Typed errors, refusals and wrong answers.
    pub failed: u64,
    /// The first few failures, for the report.
    pub complaints: Vec<String>,
}

impl<'a> Client<'a> {
    /// Client `id` of [`CLIENTS`] on `workload`.
    pub fn new(id: usize, keys: &'a KeySet, workload: &Workload, seed: u64) -> Self {
        assert_eq!(
            keys.loaded() % CLIENTS,
            0,
            "residue classes need an even key count"
        );
        Self {
            id,
            keys,
            stream: OpStream::new(workload, keys.loaded(), seed, id, CLIENTS),
            seen: vec![0; keys.loaded()],
            acked: vec![0; keys.loaded() / CLIENTS],
            attempted: 0,
            failed: 0,
            complaints: Vec::new(),
        }
    }

    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.complaints.len() < 4 {
            self.complaints
                .push(format!("client {}: {}", self.id, what()));
        }
    }

    /// A stamp is plausible when the load stage or the key's one writer
    /// could have produced it.
    fn plausible(&self, s: Stamp) -> bool {
        let loaded = s.idx < self.keys.loaded() as u64;
        (loaded && s.writer == LOADER && s.version == 0)
            || (s.writer as u64 == s.idx % CLIENTS as u64 && s.version >= 1)
    }

    fn check_get(&mut self, idx: u64, got: Option<Vec<u8>>) {
        if idx >= self.keys.loaded() as u64 {
            if got.is_some() {
                self.fail(|| format!("get of absent index {idx} returned a value"));
            }
            return;
        }
        let Some(s) = got.as_deref().and_then(|v| self.keys.parse(v)) else {
            return self.fail(|| format!("get of loaded index {idx}: missing or damaged value"));
        };
        let newest = if idx as usize % CLIENTS == self.id {
            self.acked[idx as usize / CLIENTS]
        } else {
            u32::MAX
        };
        let seen = self.seen[idx as usize];
        if s.idx != idx || !self.plausible(s) || s.version < seen || s.version > newest {
            return self
                .fail(|| format!("get of index {idx}: {s:?}, seen v{seen}, acked v{newest}"));
        }
        self.seen[idx as usize] = s.version;
    }

    fn check_scan(&mut self, idx: u64, limit: usize, got: &[(Vec<u8>, Vec<u8>)]) {
        let seek = self.keys.key(idx);
        let sorted = self.keys.sorted();
        let mut pos = self.keys.rank(idx);
        let mut prev: Option<&[u8]> = None;
        let mut ok = got.len() <= limit;
        for (k, v) in got {
            ok &= k.as_slice() >= &seek[..] && prev.is_none_or(|p| p < k.as_slice());
            prev = Some(k);
            match self.keys.parse(v) {
                Some(s) if self.plausible(s) && self.keys.key(s.idx)[..] == k[..] => {
                    // Loaded keys are never deleted: the scan must return
                    // every one of them from the seek key on, in order.
                    if s.idx < sorted.len() as u64 {
                        ok &= sorted.get(pos) == Some(&(s.idx as u32));
                        pos += 1;
                    }
                }
                _ => ok = false,
            }
        }
        // A short scan must have run off the end of the key space.
        ok &= got.len() == limit || pos == sorted.len();
        if !ok {
            self.fail(|| {
                format!(
                    "scan from index {idx} limit {limit}: wrong result ({} entries)",
                    got.len()
                )
            });
        }
    }

    /// Runs `op` against `db`, timing only the `ShardedDb` call, and
    /// checks the answer. Returns the call's start and end on `epoch`.
    fn exec(&mut self, db: &ShardedDb, op: Op, epoch: Instant) -> (Kind, u64, u64) {
        let now = || epoch.elapsed().as_nanos() as u64;
        self.attempted += 1;
        match op {
            Op::Get(idx) => {
                let key = self.keys.key(idx);
                let t0 = now();
                let got = db.get(&key);
                let t1 = now();
                self.check_get(idx, got);
                (Kind::Get, t0, t1)
            }
            Op::Put(idx) => {
                let slot = idx as usize / CLIENTS;
                if slot >= self.acked.len() {
                    self.acked.resize(slot + 1, 0);
                }
                let version = self.acked[slot] + 1;
                let key = self.keys.key(idx);
                let value = self.keys.value(Stamp {
                    idx,
                    writer: self.id as u32,
                    version,
                });
                let t0 = now();
                let res = db.put(&key, &value);
                let t1 = now();
                match res {
                    Ok(_) => self.acked[slot] = version,
                    Err(e) => self.fail(|| format!("put of index {idx}: {e}")),
                }
                (Kind::Put, t0, t1)
            }
            Op::Scan(idx, limit) => {
                let key = self.keys.key(idx);
                let t0 = now();
                let got = db.scan(&key, None, limit);
                let t1 = now();
                self.check_scan(idx, limit, &got);
                (Kind::Scan, t0, t1)
            }
        }
    }

    /// [`Client::exec`] for a sampled op of a traced phase: the same key
    /// is also driven one layer down (`DbSnapshot::get` / `scan_from` on
    /// the shard snapshots). `below_first` alternates which side runs
    /// first, so that block-cache warmth cancels between the two.
    fn exec_sampled(
        &mut self,
        db: &ShardedDb,
        op: Op,
        tr: &mut Tracer,
        epoch: Instant,
        below_first: bool,
    ) -> (Kind, u64, u64) {
        let snaps = db.shard_snapshots();
        let keys = self.keys;
        let (child, below): (&'static str, Box<dyn Fn() + '_>) = match op {
            Op::Get(idx) => {
                let key = keys.key(idx);
                let snap = &snaps[db.shard_of(&key)];
                (
                    "lsm.snapshot_get",
                    Box::new(move || drop(black_box(snap.get(&key)))),
                )
            }
            Op::Scan(idx, limit) => {
                let key = keys.key(idx);
                let snaps = &snaps;
                (
                    "lsm.snapshot_scan",
                    Box::new(move || {
                        for snap in snaps {
                            black_box(snap.scan_from(&key, None, limit));
                        }
                    }),
                )
            }
            // A put cannot be replayed; its layers are timed in the
            // engine lane.
            Op::Put(_) => return self.exec(db, op, epoch),
        };
        let mut below_span = (0, 0);
        if below_first {
            below_span = (tr.now(), 0);
            below();
            below_span.1 = tr.now();
        }
        let (kind, t0, t1) = self.exec(db, op, epoch);
        if !below_first {
            below_span = (tr.now(), 0);
            below();
            below_span.1 = tr.now();
        }
        drop(below);
        let root = tr.record(kind.span(), 0, t0, t1, 1);
        tr.record(child, root, below_span.0, below_span.1, 1);
        (kind, t0, t1)
    }
}

impl Gauges {
    fn max(self, other: Gauges) -> Gauges {
        Gauges {
            l0_runs_max: self.l0_runs_max.max(other.l0_runs_max),
            debt_bytes_max: self.debt_bytes_max.max(other.debt_bytes_max),
        }
    }

    /// Folds in what the shards report now.
    fn sample(&mut self, db: &ShardedDb) -> Result<()> {
        for s in db.shard_db_stats()? {
            *self = self.max(Gauges {
                l0_runs_max: s.l0_runs,
                debt_bytes_max: s.compaction_debt_bytes,
            });
        }
        Ok(())
    }
}

/// When a phase starts and ends on the clock of `epoch`.
#[derive(Clone, Copy)]
struct Clock {
    epoch: Instant,
    phase_ns: u64,
    window_ns: u64,
}

/// One client's closed loop: issue, time, check, until the phase is over.
fn client_loop(
    db: &ShardedDb,
    client: &mut Client<'_>,
    clock: Clock,
    start: &Barrier,
    traced: bool,
) -> Result<Phase> {
    let Clock {
        epoch,
        phase_ns,
        window_ns,
    } = clock;
    let mut phase = Phase {
        windows: vec![Window::default(); WINDOWS],
        window_s: window_ns as f64 / 1e9,
        tracer: traced.then(|| Tracer::new(epoch)),
        gauges: Gauges::default(),
    };
    start.wait();
    let begin = epoch.elapsed().as_nanos() as u64;
    for n in 1u64.. {
        let op = client.stream.next();
        let (kind, t0, t1) = match &mut phase.tracer {
            Some(tr) if n.is_multiple_of(SAMPLE_EVERY) => {
                let below_first = (n / SAMPLE_EVERY).is_multiple_of(2);
                client.exec_sampled(db, op, tr, epoch, below_first)
            }
            Some(tr) => {
                let (kind, t0, t1) = client.exec(db, op, epoch);
                tr.record(kind.span(), 0, t0, t1, 1);
                (kind, t0, t1)
            }
            None => client.exec(db, op, epoch),
        };
        let Some(done) = t1.checked_sub(begin).filter(|&d| d < phase_ns) else {
            break;
        };
        let w = &mut phase.windows[((done / window_ns) as usize).min(WINDOWS - 1)];
        w.ops += 1;
        w.lat[kind as usize].push((t1 - t0).min(u32::MAX as u64) as u32);
        if let Some(tr) = &mut phase.tracer {
            if client.id == 0 && n.is_multiple_of(PUBLISH_EVERY) {
                tr.time("serve.publish", 0, 1, || db.barrier())?;
                phase.gauges.sample(db)?;
            }
        }
    }
    Ok(phase)
}

/// Runs the clients' streams against `db` for `secs` seconds.
pub fn run_phase(
    db: &ShardedDb,
    clients: &mut [Client<'_>],
    secs: f64,
    traced: bool,
) -> Result<Phase> {
    let phase_ns = (secs * 1e9) as u64;
    let clock = Clock {
        epoch: Instant::now(),
        phase_ns,
        window_ns: (phase_ns / WINDOWS as u64).max(1),
    };
    let start = Barrier::new(clients.len());
    let per_client: Vec<Result<Phase>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let start = &start;
                s.spawn(move || client_loop(db, client, clock, start, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged: Option<Phase> = None;
    for phase in per_client {
        let phase = phase?;
        let Some(all) = &mut merged else {
            merged = Some(phase);
            continue;
        };
        for (into, from) in all.windows.iter_mut().zip(phase.windows) {
            into.ops += from.ops;
            for (a, b) in into.lat.iter_mut().zip(from.lat) {
                a.extend(b);
            }
        }
        if let (Some(all), Some(t)) = (&mut all.tracer, phase.tracer) {
            all.absorb(t);
        }
        all.gauges = all.gauges.max(phase.gauges);
    }
    Ok(merged.expect("at least one client"))
}

/// A loaded, settled database.
pub struct Loaded {
    /// The database under test.
    pub db: ShardedDb,
    /// Wall time of open + load + flush + settle.
    pub setup_s: f64,
    /// Load-stage puts that returned an error.
    pub failed: u64,
    /// Device bytes in use ÷ live user bytes, after settling.
    pub space_amp: f64,
}

/// Opens a fresh `ShardedDb`, loads every key of `keys` through `put`
/// from [`CLIENTS`] loader threads, flushes, and waits until no shard has
/// compaction debt.
pub fn load(workload: &Workload, keys: &KeySet) -> Result<Loaded> {
    let started = Instant::now();
    let db = ShardedDb::new(serve_options(workload));
    let failed: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let db = &db;
                s.spawn(move || {
                    (t as u64..keys.loaded() as u64)
                        .step_by(CLIENTS)
                        .filter(|&idx| {
                            let value = keys.value(Stamp {
                                idx,
                                writer: LOADER,
                                version: 0,
                            });
                            db.put(&keys.key(idx), &value).is_err()
                        })
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loader thread panicked"))
            .sum()
    });
    db.flush_all()?;
    settle(&db)?;
    let setup_s = started.elapsed().as_secs_f64();
    let space_amp = db.disk_handle().used_bytes() as f64 / (keys.loaded() * ENTRY_BYTES) as f64;
    Ok(Loaded {
        db,
        setup_s,
        failed,
        space_amp,
    })
}

/// Waits until every shard reports zero compaction debt, then publishes.
/// Each `shard_db_stats` poll also wakes the idle workers, which is what
/// lets them take their next compaction step.
fn settle(db: &ShardedDb) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while db
        .shard_db_stats()?
        .iter()
        .any(|s| s.compaction_debt_bytes > 0)
    {
        if Instant::now() > deadline {
            return Err(MemtreeError::corruption(
                "benchmark",
                "compaction debt did not drain in 60 s",
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    db.barrier().map(drop)
}

/// Compares every written key, and every `stride`-th loaded key, with the
/// exact model: the value its one writer last had acknowledged. Returns
/// `(checked, wrong)` and describes the first few misses.
pub fn audit(
    db: &ShardedDb,
    keys: &KeySet,
    clients: &[Client<'_>],
    stride: usize,
    complaints: &mut Vec<String>,
) -> (u64, u64) {
    let expected = |idx: u64| {
        let owner = &clients[idx as usize % CLIENTS];
        match owner.acked.get(idx as usize / CLIENTS) {
            Some(&v) if v > 0 => Some(Stamp {
                idx,
                writer: owner.id as u32,
                version: v,
            }),
            _ if idx < keys.loaded() as u64 => Some(Stamp {
                idx,
                writer: LOADER,
                version: 0,
            }),
            _ => None,
        }
    };
    let written = clients.iter().flat_map(|c| {
        c.acked
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0)
            .map(|(slot, _)| (slot * CLIENTS + c.id) as u64)
    });
    let sampled = (0..keys.loaded() as u64).step_by(stride.max(1));
    let (mut checked, mut wrong) = (0, 0);
    for idx in written.chain(sampled) {
        let want = expected(idx).map(|s| keys.value(s));
        let got = db.get(&keys.key(idx));
        checked += 1;
        if got.as_deref() != want.as_ref().map(|v| &v[..]) {
            wrong += 1;
            if complaints.len() < 8 {
                let got = got.as_deref().map(|v| keys.parse(v));
                complaints.push(format!(
                    "audit of index {idx}: expected {:?}, store has {got:?}",
                    expected(idx)
                ));
            }
        }
    }
    (checked, wrong)
}

/// Cumulative counters of every layer that keeps some.
#[derive(Debug, Clone)]
pub struct Counters {
    /// `SimDisk::stats`.
    pub io: IoStats,
    /// `ShardedDb::stats`.
    pub serve: ServeStats,
    /// `ShardedDb::shard_db_stats`.
    pub shards: Vec<DbStats>,
}

impl Counters {
    /// Reads every counter now.
    pub fn read(db: &ShardedDb) -> Result<Self> {
        Ok(Self {
            io: db.disk_handle().stats(),
            serve: db.stats(),
            shards: db.shard_db_stats()?,
        })
    }
}

/// Bytes of user data `puts` puts carry.
pub fn user_bytes(puts: u64) -> f64 {
    (puts as usize * ENTRY_BYTES) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    const LOADED: Stamp = Stamp {
        idx: 0,
        writer: LOADER,
        version: 0,
    };

    fn scan_answer(keys: &KeySet, from: u64, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        keys.sorted()[keys.rank(from)..]
            .iter()
            .take(n)
            .map(|&i| {
                let s = Stamp {
                    idx: i as u64,
                    ..LOADED
                };
                (keys.key(i as u64).to_vec(), keys.value(s).to_vec())
            })
            .collect()
    }

    #[test]
    fn the_oracle_accepts_right_answers_and_rejects_wrong_ones() {
        let keys = KeySet::new(9, 100);
        let mut c = Client::new(0, &keys, &WORKLOADS[2], 9);
        let value = |s: Stamp| Some(keys.value(s).to_vec());

        // Point reads: right answers.
        c.check_get(4, value(Stamp { idx: 4, ..LOADED }));
        c.check_get(crate::keys::ABSENT_BASE + 3, None);
        c.acked[2] = 3;
        c.check_get(
            4,
            value(Stamp {
                idx: 4,
                writer: 0,
                version: 2,
            }),
        );
        c.check_get(
            4,
            value(Stamp {
                idx: 4,
                writer: 0,
                version: 3,
            }),
        );
        assert_eq!(c.failed, 0, "{:?}", c.complaints);
        // Wrong: gone back in time, from the future, another key's value,
        // a foreign writer, a lost key, a value out of nowhere.
        c.check_get(
            4,
            value(Stamp {
                idx: 4,
                writer: 0,
                version: 2,
            }),
        );
        c.check_get(
            4,
            value(Stamp {
                idx: 4,
                writer: 0,
                version: 4,
            }),
        );
        c.check_get(5, value(Stamp { idx: 7, ..LOADED }));
        c.check_get(
            5,
            value(Stamp {
                idx: 5,
                writer: 0,
                version: 1,
            }),
        );
        c.check_get(6, None);
        c.check_get(crate::keys::ABSENT_BASE + 3, value(LOADED));
        assert_eq!(c.failed, 6);

        // Scans: the exact answer, and a short one at the end of the keys.
        let (from, last) = (keys.sorted()[5] as u64, keys.sorted()[99] as u64);
        c.failed = 0;
        c.check_scan(from, 20, &scan_answer(&keys, from, 20));
        c.check_scan(last, 20, &scan_answer(&keys, last, 20));
        assert_eq!(c.failed, 0, "{:?}", c.complaints);
        // Wrong: a key skipped, out of order, over the limit, short.
        let right = scan_answer(&keys, from, 20);
        let mut skipped = right.clone();
        skipped.remove(7);
        c.check_scan(from, 19, &skipped);
        let mut swapped = right.clone();
        swapped.swap(3, 4);
        c.check_scan(from, 20, &swapped);
        c.check_scan(from, 10, &right);
        c.check_scan(from, 20, &right[..12]);
        assert_eq!(c.failed, 4);
    }
}
