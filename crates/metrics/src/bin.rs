//! The workspace's one binary codec: little-endian integers, raw bytes,
//! `u32` counts and `u32`-length-prefixed strings.
//!
//! The registry's canonical blob ([`Registry::to_bytes`](crate::Registry::to_bytes))
//! and the beacon's snapshot are both written with [`Writer`] and read
//! back with [`Reader`]. Reading is total: malformed input is a
//! [`DecodeError`], never a panic. A claimed count is checked against the
//! bytes that remain before anything is sized by it ([`Reader::len`]), so
//! what a decoder allocates is bounded by its input, not by what the input
//! claims.

use std::fmt;

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the structure did, or a count claims more
    /// items than the remaining bytes can hold.
    Truncated,
    /// A field held a value the format does not allow.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::Malformed(what) => write!(f, "malformed input: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// An append-only little-endian encoder.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes, unprefixed.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a count of the items that follow, as a `u32`
    /// (read back with [`Reader::len`]).
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Append a string as its byte length (`u32`) and UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A little-endian decoder over a borrowed byte string.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A count written by [`Writer::len`] of items that each encode to
    /// at least `min_bytes_per_item` (≥ 1) bytes. A count whose minimum
    /// encoding exceeds the remaining bytes is refused as
    /// [`DecodeError::Truncated`] here, before a caller can size anything
    /// by it.
    pub fn len(&mut self, min_bytes_per_item: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes_per_item) > self.rest.len() {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// A string written by [`Writer::str`].
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.len(1)?;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| DecodeError::Malformed("utf-8 string"))
    }

    /// End of input: any unread byte is
    /// [`DecodeError::Malformed`]`("trailing bytes")`.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_write_reads_back() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.str("ünï");
        w.bytes(&[1, 2, 3]);
        w.len(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.str(), Ok("ünï"));
        assert_eq!(r.bytes(3), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.len(1_000_000), Ok(0));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn a_count_is_refused_before_it_outgrows_the_input() {
        let mut w = Writer::new();
        w.len(3);
        w.bytes(&[0; 24]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).len(8), Ok(3));
        assert_eq!(Reader::new(&bytes).len(9), Err(DecodeError::Truncated));
        let huge = [0xFF; 4];
        assert_eq!(Reader::new(&huge).len(1), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&huge).str(), Err(DecodeError::Truncated));
    }

    #[test]
    fn short_input_invalid_utf8_and_leftovers_are_errors() {
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(DecodeError::Truncated));
        assert_eq!(
            Reader::new(&[1, 0, 0, 0, 0xFF]).str(),
            Err(DecodeError::Malformed("utf-8 string"))
        );
        let mut r = Reader::new(&[7, 8]);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.finish(), Err(DecodeError::Malformed("trailing bytes")));
    }
}
