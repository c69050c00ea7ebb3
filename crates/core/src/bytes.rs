//! Checked reads over outside bytes.
//!
//! Every decoder of bytes from outside the process — request records,
//! trace chunks, footers and timelines, fleet frames — reads through one
//! [`Cursor`]. Each read checks its bounds and advances, and the only
//! count a decoder may size an allocation by is [`Cursor::count`]'s,
//! which the remaining bytes must be able to hold: no input makes a
//! decoder allocate more than a constant factor of its own length.

/// Why a read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The input ended before a value, or before the items a count promised.
    Truncated,
    /// The bytes are there but are not a valid encoding (reason attached).
    Malformed(&'static str),
}

/// A request record that cannot be read is malformed, whichever way.
impl From<Error> for crate::request::OraError {
    fn from(_: Error) -> Self {
        crate::request::OraError::Malformed
    }
}

/// A read position in a byte slice. Every read is bounds-checked and
/// advances past what it read; a failed read leaves the position
/// somewhere inside the value it tried to read.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
    /// Length of the whole input.
    len: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor {
            rest: buf,
            len: buf.len(),
        }
    }

    /// Bytes read so far.
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `len` bytes, borrowed from the input.
    #[inline]
    pub fn bytes(&mut self, len: u64) -> Result<&'a [u8], Error> {
        let len = usize::try_from(len).map_err(|_| Error::Truncated)?;
        let (head, rest) = self.rest.split_at_checked(len).ok_or(Error::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(Error::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        self.array::<1>().map(|[b]| b)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32_le(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    /// A LEB128 varint. Redundant continuation bytes are accepted while
    /// the value fits a `u64`; past that the varint is `Malformed`.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, Error> {
        // Most fields fit one byte, and most of the rest two (a trace
        // record's tick delta).
        match *self.rest {
            [byte, ref rest @ ..] if byte < 0x80 => {
                self.rest = rest;
                return Ok(u64::from(byte));
            }
            [low, high, ref rest @ ..] if high < 0x80 => {
                self.rest = rest;
                return Ok(u64::from(low & 0x7f) | u64::from(high) << 7);
            }
            _ => {}
        }
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(Error::Malformed("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint count of items that follow, each at least
    /// `min_item_bytes` long. A count the remaining bytes cannot hold is
    /// `Truncated` — refused before anything is sized by it, which is why
    /// this is the only way a decoder may size an allocation.
    #[inline]
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, Error> {
        let n = self.varint()?;
        if n > (self.remaining() / min_item_bytes) as u64 {
            return Err(Error::Truncated);
        }
        Ok(n as usize)
    }

    /// End of input: any byte left over is `Malformed`.
    pub fn finish(self) -> Result<(), Error> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Error::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    #[test]
    fn varint_round_trips_edge_values() {
        let edges = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64];
        for v in edges.into_iter().chain([u64::MAX]) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint(), Ok(v));
            assert_eq!(c.position(), buf.len());
            assert_eq!(c.finish(), Ok(()));
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(Cursor::new(&[]).varint(), Err(Error::Truncated));
        assert_eq!(Cursor::new(&[0x80]).varint(), Err(Error::Truncated));
        let over = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(matches!(
            Cursor::new(&over).varint(),
            Err(Error::Malformed(_))
        ));
        // Redundant zero groups are fine up to the tenth byte, not past it.
        let padded = [0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        assert_eq!(Cursor::new(&padded).varint(), Ok(1));
        assert_eq!(Cursor::new(&[0x81, 0x00]).varint(), Ok(1));
        assert_eq!(Cursor::new(&[0x81, 0x80]).varint(), Err(Error::Truncated));
        let mut eleven = [0x80; 11];
        eleven[10] = 0;
        assert!(matches!(
            Cursor::new(&eleven).varint(),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn fixed_width_reads_are_little_endian_and_checked() {
        let buf = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8(), Ok(1));
        assert_eq!(c.u32_le(), Ok(0x0504_0302));
        assert_eq!(c.u64_le(), Ok(0x0d0c_0b0a_0908_0706));
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.u8(), Err(Error::Truncated));
        let mut short = Cursor::new(&buf[..7]);
        assert_eq!(short.u64_le(), Err(Error::Truncated));
        assert_eq!(short.position(), 0);
    }

    #[test]
    fn bytes_refuse_lengths_past_the_end() {
        let buf = [0u8; 8];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.bytes(3), Ok(&buf[..3]));
        for len in [6, u64::MAX, u64::MAX - 2] {
            assert_eq!(c.bytes(len), Err(Error::Truncated), "length {len}");
        }
        assert_eq!(c.bytes(5), Ok(&buf[3..]));
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_that_remain() {
        for (count, ok) in [(0u64, true), (2, true), (3, false), (u64::MAX, false)] {
            let mut buf = Vec::new();
            put_varint(&mut buf, count);
            buf.extend_from_slice(&[0; 14]);
            let got = Cursor::new(&buf).count(7);
            assert_eq!(got.is_ok(), ok, "count {count}");
            if ok {
                assert_eq!(got, Ok(count as usize));
            } else {
                assert_eq!(got, Err(Error::Truncated));
            }
        }
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut c = Cursor::new(&[1, 2]);
        c.u8().unwrap();
        assert!(matches!(c.finish(), Err(Error::Malformed(_))));
    }
}
