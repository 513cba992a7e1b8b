//! Allocation gate for the put path. An uncontended put runs entirely on
//! its caller's thread, so the counting allocator (per thread) sees every
//! allocation the put makes, engine and commit included — and no channel
//! is among them.

use memtree_alloc_probe::measure;
use memtree_serve::{ServeOptions, ShardedDb};

const VALUE: &[u8] = b"value-0123456789";

/// The sixth put into a fresh one-shard database: a new key, no flush
/// (the MemTable holds a few hundred bytes), no MemView base rebuild
/// (the delta holds six keys), and no buffer that has to grow. Its
/// allocations, in order:
///
/// 1. the WAL record's payload (`Wal::append`);
/// 2. the WAL frame around it (`encode_frame`);
/// 3. the disk's pending append: the file name,
/// 4. and a copy of the frame;
/// 5. the disk's pending-op list, which the previous put's sync emptied;
/// 6. the MemTable's copy of the value;
/// 7. the skip list insert: its descent path,
/// 8. and the boxed key;
/// 9. the MemView delta's copy of the key;
/// 10. the published snapshot's delta run: its bytes,
/// 11. and its offsets;
/// 12. the `Arc` the snapshot is published in.
#[test]
fn uncontended_put_makes_twelve_allocations_all_on_its_thread() {
    let sdb = ShardedDb::new(ServeOptions { shards: 1, ..ServeOptions::default() });
    for i in 0..5u32 {
        sdb.put(format!("key-{i:05}").as_bytes(), VALUE).unwrap();
    }
    let (seq, allocations, _) = measure(|| sdb.put(b"key-00005", VALUE));
    assert_eq!(seq.unwrap(), 6);
    assert_eq!(allocations, 12);
    assert_eq!(sdb.get(b"key-00005").as_deref(), Some(VALUE));
    sdb.close().unwrap();
}
