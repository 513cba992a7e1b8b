//! The write-ahead log and the CRC-framed record codec it shares with the
//! manifest and the SSTable block format.
//!
//! ## Frame format (little-endian)
//!
//! ```text
//! +---------+---------+---------+------------------+
//! | len u32 | seq u64 | crc u32 | payload len bytes|
//! +---------+---------+---------+------------------+
//! ```
//!
//! The CRC32C covers `len`, `seq`, and the payload, so a flipped bit in
//! any header field or payload byte fails validation — there is no input
//! on which a frame decodes to the *wrong* record.
//!
//! ## Torn tail vs. mid-log corruption
//!
//! When a frame at offset `o` fails validation, the decoder must decide
//! between two very different situations:
//!
//! * **torn tail** — a crash cut the last in-flight append short. The
//!   correct response is to truncate at `o` and recover everything before
//!   it (losing only unacknowledged writes);
//! * **mid-log corruption** — a bad frame with valid frames *after* it.
//!   Truncating here would silently drop acknowledged records, so the
//!   decoder returns a typed [`MemtreeError::Corruption`] instead.
//!
//! The two are distinguished by a resync scan: if any byte offset past the
//! failure parses as a valid frame (header fits, CRC matches — a 2⁻³²
//! false-positive rate), the log is corrupt in the middle; otherwise the
//! tail is torn. `crates/lsm/tests/wal_frames.rs` proves the dichotomy
//! exhaustively under single-bit flips.
//!
//! ## Group commit
//!
//! [`Wal::append`] buffers frames into the device write buffer; the log is
//! `sync`ed once every `group_commit` appends (and on demand), so a put is
//! **acknowledged** — guaranteed to survive a crash — only once
//! [`Wal::synced_seq`] reaches its sequence number. This is RocksDB's
//! group commit in miniature: batched syncs amortize the barrier, and the
//! crash oracle checks that only the unsynced suffix may be lost.

use crate::disk::SimDisk;
use memtree_common::crc::crc32c_update;
use memtree_common::error::{MemtreeError, Result};
use memtree_faults::fail_point;

/// File-namespace name of the write-ahead log (default, un-namespaced).
pub(crate) const WAL_FILE: &str = "wal";

/// WAL file name for a database namespace (`""` = the default `wal`).
/// Namespaces let several databases — e.g. the shards of a sharded
/// serving layer — share one [`SimDisk`] file namespace without
/// clobbering each other's logs.
pub(crate) fn wal_file_name(namespace: &str) -> String {
    format!("{namespace}{WAL_FILE}")
}

/// Bytes before a frame's payload.
pub(crate) const FRAME_HEADER: usize = 16;

/// Upper bound a frame may claim for its payload; anything larger is
/// treated as a framing failure (torn or corrupt length field).
const MAX_FRAME_PAYLOAD: usize = 1 << 24;

fn frame_crc(len: u32, seq: u64, payload: &[u8]) -> u32 {
    let mut state = crc32c_update(!0, &len.to_le_bytes());
    state = crc32c_update(state, &seq.to_le_bytes());
    !crc32c_update(state, payload)
}

/// Encodes one `(seq, payload)` record as a CRC frame.
pub(crate) fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.resize(FRAME_HEADER, 0);
    out.extend_from_slice(payload);
    seal_frame(&mut out, seq);
    out
}

/// Writes the header of the frame `frame` holds — [`FRAME_HEADER`]
/// bytes, then the payload — for the record `(seq, payload)`, so a frame
/// can be built in place around a payload written straight after the
/// header.
pub(crate) fn seal_frame(frame: &mut [u8], seq: u64) {
    let len = (frame.len() - FRAME_HEADER) as u32;
    let crc = frame_crc(len, seq, &frame[FRAME_HEADER..]);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..12].copy_from_slice(&seq.to_le_bytes());
    frame[12..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Tries to parse a frame at `at`; `None` on any validation failure
/// (short header, oversized length, frame past EOF, CRC mismatch).
fn parse_frame_at(buf: &[u8], at: usize) -> Option<(u64, &[u8], usize)> {
    let rest = &buf[at..];
    if rest.len() < FRAME_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD || FRAME_HEADER + len > rest.len() {
        return None;
    }
    let seq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    let crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
    let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
    if frame_crc(len as u32, seq, payload) != crc {
        return None;
    }
    Some((seq, payload, at + FRAME_HEADER + len))
}

/// Outcome of decoding a frame log. Payloads borrow from the log buffer —
/// replay parses records straight out of the validated frames, with no
/// per-record copy.
#[derive(Debug)]
pub(crate) struct DecodedLog<'a> {
    /// `(seq, payload)` in log order.
    pub records: Vec<(u64, &'a [u8])>,
    /// Bytes up to the end of the last valid frame (the truncation point
    /// when `torn`).
    pub valid_bytes: usize,
    /// True when the log ended in a torn (unparseable, unrecoverable-only-
    /// at-the-tail) write that was cleanly truncated away.
    pub torn: bool,
}

/// Decodes a whole frame log, truncating a torn tail and rejecting
/// mid-log corruption with a typed error (see the module docs for the
/// dichotomy).
pub(crate) fn decode_frames<'a>(buf: &'a [u8], context: &'static str) -> Result<DecodedLog<'a>> {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < buf.len() {
        match parse_frame_at(buf, at) {
            Some((seq, payload, next)) => {
                records.push((seq, payload));
                at = next;
            }
            None => {
                // Resync scan: a valid frame anywhere past the failure
                // means acknowledged data follows the bad bytes.
                if ((at + 1)..buf.len()).any(|c| parse_frame_at(buf, c).is_some()) {
                    return Err(MemtreeError::corruption(
                        context,
                        format!("unreadable frame at offset {at} with valid frames after it"),
                    ));
                }
                return Ok(DecodedLog {
                    records,
                    valid_bytes: at,
                    torn: true,
                });
            }
        }
    }
    Ok(DecodedLog {
        records,
        valid_bytes: at,
        torn: false,
    })
}

/// Encodes a standalone single-frame value (used for SSTable blocks and
/// the CURRENT pointer, where torn writes must fail validation but no
/// sequence numbering is needed).
pub(crate) fn encode_single(payload: &[u8]) -> Vec<u8> {
    encode_frame(0, payload)
}

/// Decodes a buffer that must contain exactly one valid frame spanning the
/// whole buffer; anything else (short, torn, flipped, trailing bytes) is a
/// typed corruption error. Borrows the payload — consumers parse straight
/// out of the validated frame.
pub(crate) fn decode_single_ref<'a>(buf: &'a [u8], context: &'static str) -> Result<&'a [u8]> {
    match parse_frame_at(buf, 0) {
        Some((_, payload, next)) if next == buf.len() => Ok(payload),
        Some(_) => Err(MemtreeError::corruption(context, "trailing bytes after frame")),
        None => Err(MemtreeError::corruption(context, "invalid frame")),
    }
}

/// Owned-copy form of [`decode_single_ref`], for callers that outlive the
/// input buffer.
pub(crate) fn decode_single(buf: &[u8], context: &'static str) -> Result<Vec<u8>> {
    decode_single_ref(buf, context).map(<[u8]>::to_vec)
}

/// WAL activity counters, exposed through
/// [`Db::wal_stats`](crate::Db::wal_stats).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub appended_records: u64,
    /// Frame bytes appended since open (WAL write amplification's
    /// numerator).
    pub appended_bytes: u64,
    /// Group-commit syncs issued.
    pub syncs: u64,
    /// Records recovered by replay at open.
    pub replayed_records: u64,
    /// Records skipped at replay because a flushed table already covered
    /// them (their seq was at or below the manifest's flushed-seq mark).
    pub skipped_records: u64,
    /// 1 when replay found and truncated a torn tail.
    pub torn_tail_truncated: u64,
    /// Bytes discarded by flush high-water-mark resets.
    pub reset_bytes: u64,
}

/// A WAL record ready to re-apply at recovery. `value: None` is a delete
/// tombstone.
pub(crate) struct WalRecord {
    pub seq: u64,
    pub key: Vec<u8>,
    pub value: Option<Vec<u8>>,
}

/// Record-kind tags inside a WAL payload (first byte).
const KIND_PUT: u8 = 0;
const KIND_DELETE: u8 = 1;

/// The write-ahead log's in-memory state (the log itself lives on the
/// [`SimDisk`] file namespace).
pub(crate) struct Wal {
    file: String,
    next_seq: u64,
    appended_seq: u64,
    synced_seq: u64,
    unsynced: usize,
    stats: WalStats,
}

impl Wal {
    /// A WAL resuming after `last_durable_seq` (0 on a fresh database),
    /// logging to `file` in the disk's file namespace. Everything at or
    /// below that seq is already durable.
    pub fn new(last_durable_seq: u64, file: String) -> Self {
        Self {
            file,
            next_seq: last_durable_seq + 1,
            appended_seq: last_durable_seq,
            synced_seq: last_durable_seq,
            unsynced: 0,
            stats: WalStats::default(),
        }
    }

    /// The log's file name in the disk namespace.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Appends a put or delete record (`value: None` = tombstone),
    /// group-committing once `group_commit` records accumulate. Returns
    /// the record's sequence number. On error (injected fault, ENOSPC)
    /// nothing was appended and the sequence counter is unchanged — the
    /// caller can retry the same operation.
    pub fn append(
        &mut self,
        disk: &SimDisk,
        key: &[u8],
        value: Option<&[u8]>,
        group_commit: usize,
    ) -> Result<u64> {
        fail_point!(disk.faults(), "lsm.wal.append");
        let seq = self.next_seq;
        let (kind, value) = match value {
            Some(v) => (KIND_PUT, v),
            None => (KIND_DELETE, &[][..]),
        };
        let mut payload = Vec::with_capacity(1 + 4 + key.len() + value.len());
        payload.push(kind);
        payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
        payload.extend_from_slice(key);
        payload.extend_from_slice(value);
        let frame = encode_frame(seq, &payload);
        disk.append(&self.file, &frame)?;
        self.next_seq += 1;
        self.appended_seq = seq;
        self.unsynced += 1;
        self.stats.appended_records += 1;
        self.stats.appended_bytes += frame.len() as u64;
        if self.unsynced >= group_commit.max(1) {
            self.sync(disk)?;
        }
        Ok(seq)
    }

    /// Forces the log durable; every appended record becomes acknowledged.
    pub fn sync(&mut self, disk: &SimDisk) -> Result<()> {
        fail_point!(disk.faults(), "lsm.wal.sync");
        disk.sync();
        self.synced_seq = self.appended_seq;
        self.unsynced = 0;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Highest sequence number appended (durable or not).
    pub fn appended_seq(&self) -> u64 {
        self.appended_seq
    }

    /// Highest acknowledged (synced) sequence number.
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// Counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Records a flush's high-water-mark reset of `bytes` log bytes. The
    /// flush made every appended record durable through its table, so the
    /// whole appended prefix is now acknowledged.
    pub fn note_reset(&mut self, bytes: u64) {
        self.stats.reset_bytes += bytes;
        self.synced_seq = self.appended_seq;
        self.unsynced = 0;
    }

    /// Replays the on-disk log: decodes frames (truncating a torn tail on
    /// disk, so later appends land after valid bytes), drops records a
    /// flushed table already covers, and returns the rest in seq order.
    ///
    /// Mid-log corruption and non-monotonic sequence numbers are typed
    /// errors — a log that replays must be an exact prefix of the put
    /// history.
    pub fn replay(disk: &SimDisk, flushed_seq: u64, file: &str) -> Result<(Self, Vec<WalRecord>)> {
        let buf = disk.read_file(file);
        let decoded = decode_frames(&buf, "wal")?;
        if decoded.torn {
            disk.truncate_file(file, decoded.valid_bytes);
            disk.sync();
        }
        let mut records = Vec::new();
        let mut last_seq = 0u64;
        let mut skipped = 0u64;
        for (seq, payload) in decoded.records {
            if seq <= last_seq {
                return Err(MemtreeError::corruption(
                    "wal",
                    format!("non-monotonic seq {seq} after {last_seq}"),
                ));
            }
            last_seq = seq;
            if payload.len() < 5 {
                return Err(MemtreeError::corruption("wal", "record shorter than header"));
            }
            let kind = payload[0];
            if kind != KIND_PUT && kind != KIND_DELETE {
                return Err(MemtreeError::corruption(
                    "wal",
                    format!("unknown record kind {kind}"),
                ));
            }
            let klen = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
            if 5 + klen > payload.len() {
                return Err(MemtreeError::corruption(
                    "wal",
                    format!("key length {klen} exceeds record"),
                ));
            }
            let value = &payload[5 + klen..];
            if kind == KIND_DELETE && !value.is_empty() {
                return Err(MemtreeError::corruption(
                    "wal",
                    "delete record carries a value",
                ));
            }
            if seq <= flushed_seq {
                skipped += 1;
                continue;
            }
            records.push(WalRecord {
                seq,
                key: payload[5..5 + klen].to_vec(),
                value: (kind == KIND_PUT).then(|| value.to_vec()),
            });
        }
        let mut wal = Self::new(last_seq.max(flushed_seq), file.to_string());
        wal.stats.replayed_records = records.len() as u64;
        wal.stats.skipped_records = skipped;
        wal.stats.torn_tail_truncated = u64::from(decoded.torn);
        Ok((wal, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn frame_roundtrip() {
        for payload in [&b""[..], b"x", &[7u8; 300][..]] {
            let f = encode_frame(42, payload);
            let log = decode_frames(&f, "t").unwrap();
            assert!(!log.torn);
            assert_eq!(log.records, vec![(42, payload)]);
            assert_eq!(decode_single(&encode_single(payload), "t").unwrap(), payload);
        }
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let mut log = encode_frame(1, b"first");
        log.extend_from_slice(&encode_frame(2, b"second"));
        let keep = log.len();
        log.extend_from_slice(&encode_frame(3, b"third"));
        for cut in keep..log.len() {
            let d = decode_frames(&log[..cut], "t").unwrap();
            assert_eq!(d.records.len(), 2, "cut at {cut}");
            assert_eq!(d.valid_bytes, keep);
            assert_eq!(d.torn, cut != keep);
        }
    }

    #[test]
    fn mid_log_corruption_is_typed() {
        let mut log = encode_frame(1, b"first-record");
        let second = log.len();
        log.extend_from_slice(&encode_frame(2, b"second-record"));
        log[second + FRAME_HEADER] ^= 0x40; // payload bit of record 2: torn tail
        assert!(decode_frames(&log, "t").unwrap().torn);
        let mut log2 = log.clone();
        log2[second + FRAME_HEADER] ^= 0x40; // restore
        log2[FRAME_HEADER] ^= 0x40; // payload bit of record 1: mid-log
        match decode_frames(&log2, "t") {
            Err(MemtreeError::Corruption { context, .. }) => assert_eq!(context, "t"),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn group_commit_ack_lag() {
        let disk = SimDisk::new(Duration::ZERO);
        let mut wal = Wal::new(0, WAL_FILE.to_string());
        for i in 0..7u64 {
            let seq = wal.append(&disk, b"k", Some(b"v"), 4).unwrap();
            assert_eq!(seq, i + 1);
        }
        // Records 1..=4 were group-committed; 5..=7 are appended only.
        assert_eq!(wal.synced_seq(), 4);
        assert_eq!(wal.appended_seq(), 7);
        disk.crash(None);
        let (rwal, records) = Wal::replay(&disk, 0, WAL_FILE).unwrap();
        assert_eq!(records.len(), 4, "unsynced suffix lost");
        assert_eq!(rwal.synced_seq(), 4);
    }

    #[test]
    fn namespaced_wals_share_a_disk_without_clobbering() {
        let disk = SimDisk::new(Duration::ZERO);
        let mut a = Wal::new(0, wal_file_name("s0-"));
        let mut b = Wal::new(0, wal_file_name("s1-"));
        a.append(&disk, b"a", Some(b"va"), 1).unwrap();
        b.append(&disk, b"b", Some(b"vb"), 1).unwrap();
        b.append(&disk, b"b2", Some(b"vb2"), 1).unwrap();
        let (_, ra) = Wal::replay(&disk, 0, "s0-wal").unwrap();
        let (_, rb) = Wal::replay(&disk, 0, "s1-wal").unwrap();
        assert_eq!(ra.len(), 1);
        assert_eq!(ra[0].key, b"a");
        assert_eq!(rb.len(), 2);
        assert_eq!(rb[1].key, b"b2");
    }

    #[test]
    fn replay_skips_flushed_prefix() {
        let disk = SimDisk::new(Duration::ZERO);
        let mut wal = Wal::new(0, WAL_FILE.to_string());
        for _ in 0..6 {
            wal.append(&disk, b"key", Some(b"val"), 1).unwrap();
        }
        let (rwal, records) = Wal::replay(&disk, 4, WAL_FILE).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 5);
        assert_eq!(rwal.stats().skipped_records, 4);
        assert_eq!(rwal.synced_seq(), 6);
    }

    #[test]
    fn delete_records_roundtrip_as_tombstones() {
        let disk = SimDisk::new(Duration::ZERO);
        let mut wal = Wal::new(0, WAL_FILE.to_string());
        wal.append(&disk, b"a", Some(b"v1"), 1).unwrap();
        wal.append(&disk, b"a", None, 1).unwrap();
        wal.append(&disk, b"b", None, 1).unwrap();
        let (_, records) = Wal::replay(&disk, 0, WAL_FILE).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].value.as_deref(), Some(&b"v1"[..]));
        assert_eq!(records[1].value, None, "tombstone decodes as None");
        assert_eq!(records[2].key, b"b");
        assert_eq!(records[2].value, None);
    }

    #[test]
    fn malformed_record_kinds_are_typed_corruption() {
        // Unknown kind byte.
        let disk = SimDisk::new(Duration::ZERO);
        let mut payload = vec![2u8]; // kind 2 does not exist
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(b'k');
        disk.append(WAL_FILE, &encode_frame(1, &payload)).unwrap();
        assert!(matches!(
            Wal::replay(&disk, 0, WAL_FILE),
            Err(MemtreeError::Corruption { .. })
        ));
        // Delete record carrying a value.
        let disk = SimDisk::new(Duration::ZERO);
        let mut payload = vec![1u8];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(b'k');
        payload.extend_from_slice(b"stray-value");
        disk.append(WAL_FILE, &encode_frame(1, &payload)).unwrap();
        assert!(matches!(
            Wal::replay(&disk, 0, WAL_FILE),
            Err(MemtreeError::Corruption { .. })
        ));
    }
}
