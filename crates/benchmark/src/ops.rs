//! The seeded operation stream of one client.
//!
//! Built on `memtree-workload`'s YCSB generator, with two adjustments the
//! oracle needs: a writer only ever writes keys of its own residue class
//! (`idx % clients == client`), so each key has exactly one writer and the
//! per-writer model is exact; and a share of point lookups is redirected
//! to keys that were never inserted.

use crate::keys::ABSENT_BASE;
use crate::spec::Workload;
use memtree_common::hash::{fmix64, splitmix64};
use memtree_workload::ycsb::{Op as YcsbOp, OpGenerator};

/// One client operation, in key indexes (see [`crate::keys::KeySet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup; `idx >= ABSENT_BASE` names a key that does not exist.
    Get(u64),
    /// Overwrite of a loaded key, or insert of a reserve key (`idx >=`
    /// loaded count), of the client's own residue class.
    Put(u64),
    /// Range scan from the key of loaded index `idx` for `limit` entries.
    Scan(u64, usize),
}

/// The infinite op stream of client `client` out of `clients`.
#[derive(Debug)]
pub struct OpStream {
    gen: OpGenerator,
    rng: u64,
    client: u64,
    clients: u64,
    loaded: u64,
    absent_pct: u64,
}

impl OpStream {
    /// The stream `seed` gives client `client` on `workload`.
    pub fn new(
        workload: &Workload,
        loaded: usize,
        seed: u64,
        client: usize,
        clients: usize,
    ) -> Self {
        let client_seed = fmix64(seed ^ fmix64(client as u64 + 1));
        Self {
            gen: OpGenerator::with_dist(workload.mix, loaded, client_seed, workload.dist),
            rng: client_seed ^ 0xa5a5_a5a5,
            client: client as u64,
            clients: clients as u64,
            loaded: loaded as u64,
            absent_pct: workload.absent_pct,
        }
    }

    /// Moves loaded index `idx` into this client's residue class.
    fn own(&self, idx: u64) -> u64 {
        let own = idx - idx % self.clients + self.client;
        if own < self.loaded {
            own
        } else {
            own - self.clients
        }
    }

    /// Next operation.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Op {
        match self.gen.next() {
            YcsbOp::Read(i) => {
                if self.absent_pct > 0 && splitmix64(&mut self.rng) % 100 < self.absent_pct {
                    Op::Get(ABSENT_BASE + splitmix64(&mut self.rng) % ABSENT_BASE)
                } else {
                    Op::Get(i as u64)
                }
            }
            YcsbOp::Update(i) => Op::Put(self.own(i as u64)),
            YcsbOp::Insert(k) => Op::Put(self.loaded + k as u64 * self.clients + self.client),
            YcsbOp::Scan(i, limit) => Op::Scan(i as u64, limit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn head(w: &Workload, seed: u64, client: usize) -> Vec<Op> {
        let mut s = OpStream::new(w, 5_000, seed, client, 2);
        (0..2_000).map(|_| s.next()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            assert_eq!(head(w, 11, 0), head(w, 11, 0), "{}", w.name);
            assert_ne!(head(w, 11, 0), head(w, 12, 0), "{}", w.name);
            assert_ne!(head(w, 11, 0), head(w, 11, 1), "{}", w.name);
        }
    }

    #[test]
    fn writers_stay_in_their_residue_class() {
        for w in &WORKLOADS {
            for client in 0..2 {
                for op in head(w, 5, client) {
                    if let Op::Put(idx) = op {
                        assert_eq!(idx % 2, client as u64, "{}", w.name);
                    }
                }
            }
        }
    }
}
