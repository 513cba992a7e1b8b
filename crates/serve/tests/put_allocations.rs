//! Allocation gate for the put path. An uncontended put runs entirely on
//! its caller's thread, so the counting allocator (per thread) sees every
//! allocation the put makes, engine and commit included — and no channel
//! is among them.

use memtree_alloc_probe::measure;
use memtree_serve::{ServeOptions, ShardedDb};

const VALUE: &[u8] = b"value-0123456789";

/// The seventh put into a fresh one-shard database: a new key, no flush
/// (the MemTable holds a few hundred bytes), no merge of the MemTable's
/// write buffer (it holds seven keys), and no buffer that has to grow —
/// the write buffer's arena and rows grew on earlier puts and keep their
/// capacity, so the MemTable insert allocates nothing. Its allocations,
/// in order:
///
/// 1. the WAL record's payload (`Wal::append`);
/// 2. the WAL frame around it (`encode_frame`);
/// 3. the disk's pending append: the file name,
/// 4. and a copy of the frame;
/// 5. the disk's pending-op list, which the previous put's sync emptied;
/// 6. the published snapshot's copy of the write buffer: its arena,
/// 7. and its rows;
/// 8. the `Arc` the snapshot is published in.
#[test]
fn uncontended_put_makes_eight_allocations_all_on_its_thread() {
    let sdb = ShardedDb::new(ServeOptions { shards: 1, ..ServeOptions::default() });
    for i in 0..6u32 {
        sdb.put(format!("key-{i:05}").as_bytes(), VALUE).unwrap();
    }
    let (seq, allocations, _) = measure(|| sdb.put(b"key-00006", VALUE));
    assert_eq!(seq.unwrap(), 7);
    assert_eq!(allocations, 8);
    assert_eq!(sdb.get(b"key-00006").as_deref(), Some(VALUE));
    sdb.close().unwrap();
}
