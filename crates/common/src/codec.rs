//! The one bounded reader every on-disk decoder reads through, and the
//! writer helpers its formats share.
//!
//! Filter and trie images, manifest edits, WAL records and anti-cache
//! tuples all reach a decoder as bytes that a CRC frame vouches for only
//! up to its own checksum: a frame re-sealed over damaged bytes, or bytes
//! the encoder would never write, still arrive here. So no length or count
//! read from such bytes is trusted. Every [`Reader`] call checks what it
//! asks for against the bytes that remain, and a failure is a typed
//! [`MemtreeError::Corruption`] carrying the caller's context string:
//! never a panic, and never an allocation sized by a number the input
//! cannot back.

use crate::error::{MemtreeError, Result};

/// A little-endian cursor over one image. `at` is the offset of the next
/// unread byte; reads never index past `buf`, whatever `at` holds.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    /// The image.
    pub buf: &'a [u8],
    /// Offset of the next unread byte.
    pub at: usize,
}

/// An unsigned integer a [`Reader`] decodes as a count or length prefix.
pub trait Prefix: Into<u64> {
    /// Reads one prefix from `r`.
    fn read(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self>;
}

impl Prefix for u16 {
    fn read(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self> {
        r.u16(ctx)
    }
}

impl Prefix for u32 {
    fn read(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self> {
        r.u32(ctx)
    }
}

impl Prefix for u64 {
    fn read(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self> {
        r.u64(ctx)
    }
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    /// The unread bytes.
    fn unread(&self) -> &'a [u8] {
        self.buf.get(self.at..).unwrap_or_default()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.unread().len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, ctx: &'static str) -> Result<&'a [u8]> {
        let unread = self.unread();
        let s = unread.get(..n).ok_or_else(|| {
            MemtreeError::corruption(
                ctx,
                format!("{n} B wanted at byte {}, {} left", self.at, unread.len()),
            )
        })?;
        self.at += n;
        Ok(s)
    }

    /// Every unread byte (possibly none).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = self.unread();
        self.at += s.len();
        s
    }

    fn array<const N: usize>(&mut self, ctx: &'static str) -> Result<[u8; N]> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N, ctx)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self, ctx: &'static str) -> Result<u8> {
        self.array(ctx).map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, ctx: &'static str) -> Result<u16> {
        self.array(ctx).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, ctx: &'static str) -> Result<u32> {
        self.array(ctx).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, ctx: &'static str) -> Result<u64> {
        self.array(ctx).map(u64::from_le_bytes)
    }

    /// A `P`-prefixed element count, accepted only if that many elements
    /// of `width` bytes each fit in the bytes that remain, so it can size
    /// an allocation no larger than the input.
    pub fn count<P: Prefix>(&mut self, width: usize, ctx: &'static str) -> Result<usize> {
        let n: u64 = P::read(self, ctx)?.into();
        let room = self.remaining() / width.max(1);
        if n > room as u64 {
            return Err(MemtreeError::corruption(
                ctx,
                format!("count {n} of {width} B over {room} left"),
            ));
        }
        Ok(n as usize)
    }

    /// `P`-prefixed bytes.
    pub fn bytes<P: Prefix>(&mut self, ctx: &'static str) -> Result<&'a [u8]> {
        let n = self.count::<P>(1, ctx)?;
        self.take(n, ctx)
    }

    /// `n` little-endian `u64` words.
    pub fn words(&mut self, n: u64, ctx: &'static str) -> Result<Vec<u64>> {
        if n > (self.remaining() / 8) as u64 {
            return Err(MemtreeError::corruption(
                ctx,
                format!("{n} words over {} B left", self.remaining()),
            ));
        }
        let (words, _) = self.take(n as usize * 8, ctx)?.as_chunks::<8>();
        Ok(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
    }

    /// Succeeds only when every byte has been read.
    pub fn done(&self, ctx: &'static str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(MemtreeError::corruption(ctx, format!("{n} trailing bytes"))),
        }
    }
}

/// Appends `words` little-endian, as [`Reader::words`] reads them back.
pub fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Appends `b` behind its `u32` length, as `Reader::bytes::<u32>` reads
/// it back.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_writers_wrote() {
        let mut out = vec![7];
        out.extend_from_slice(&0xbeefu16.to_le_bytes());
        put_bytes(&mut out, b"key");
        out.extend_from_slice(&2u64.to_le_bytes());
        put_words(&mut out, &[1, u64::MAX]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert_eq!(r.u16("t").unwrap(), 0xbeef);
        assert_eq!(r.bytes::<u32>("t").unwrap(), b"key");
        let n = r.count::<u64>(8, "t").unwrap();
        assert_eq!(r.words(n as u64, "t").unwrap(), [1, u64::MAX]);
        r.done("t").unwrap();
        assert_eq!(r.rest(), b"");
    }

    #[test]
    fn lying_numbers_are_typed_with_the_callers_context() {
        let corrupt = |res: Result<()>| match res {
            Err(MemtreeError::Corruption { context, .. }) => assert_eq!(context, "ctx"),
            other => panic!("expected corruption, got {other:?}"),
        };
        let huge = u64::MAX.to_le_bytes();
        corrupt(Reader::new(&huge).count::<u64>(1, "ctx").map(drop));
        corrupt(Reader::new(&huge).bytes::<u32>("ctx").map(drop));
        corrupt(Reader::new(&huge).words(2, "ctx").map(drop));
        corrupt(Reader::new(&huge).words(u64::MAX, "ctx").map(drop));
        corrupt(Reader::new(&huge[..3]).u32("ctx").map(drop));
        corrupt(Reader::new(&huge).take(usize::MAX, "ctx").map(drop));
        corrupt(Reader::new(&huge).done("ctx"));
        // Two 4-byte elements fit in 8 bytes; three do not.
        let mut img = 2u16.to_le_bytes().to_vec();
        img.extend_from_slice(&huge);
        assert_eq!(Reader::new(&img).count::<u16>(4, "ctx").unwrap(), 2);
        img[0] = 3;
        corrupt(Reader::new(&img).count::<u16>(4, "ctx").map(drop));
        // An offset past the end reads as an empty rest.
        let mut past = Reader { buf: &huge, at: 99 };
        assert_eq!(past.remaining(), 0);
        corrupt(past.u8("ctx").map(drop));
        assert_eq!(past.rest(), b"");
    }
}
