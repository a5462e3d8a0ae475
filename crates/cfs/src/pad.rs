//! Whole-block padding without a fresh buffer per write.
//!
//! A store takes whole blocks, and a file tail or a metadata block cut to
//! its live part is shorter. [`Pad`] pads such bytes with zeros in one
//! buffer kept for the life of the volume: a write copies its bytes in and
//! zeroes only what the previous write left beyond them. Bytes that are
//! already whole blocks are passed through untouched.

/// The padding buffer of one volume. Every byte from `dirty` on is zero.
#[derive(Default)]
pub(crate) struct Pad {
    buf: Vec<u8>,
    dirty: usize,
}

impl Pad {
    /// `bytes` followed by zeros up to a whole number of `bs`-byte blocks,
    /// at least one.
    pub(crate) fn whole<'a>(&'a mut self, bytes: &'a [u8], bs: usize) -> &'a [u8] {
        let len = bytes.len().div_ceil(bs).max(1) * bs;
        if bytes.len() == len {
            return bytes;
        }
        if self.buf.len() < len {
            self.buf.resize(len, 0);
        }
        if self.dirty > bytes.len() {
            self.buf[bytes.len()..self.dirty].fill(0);
        }
        self.buf[..bytes.len()].copy_from_slice(bytes);
        self.dirty = bytes.len();
        &self.buf[..len]
    }
}

#[cfg(test)]
mod tests {
    use super::Pad;

    #[test]
    fn each_write_reads_as_if_padded_afresh() {
        let mut pad = Pad::default();
        for (len, fill) in [(5, 1u8), (100, 2), (3, 3), (0, 4), (64, 5), (130, 6), (7, 7)] {
            let bytes = vec![fill; len];
            let mut want = bytes.clone();
            want.resize(len.div_ceil(64).max(1) * 64, 0);
            assert_eq!(pad.whole(&bytes, 64), want, "{len} bytes");
        }
    }

    #[test]
    fn whole_blocks_are_borrowed() {
        let mut pad = Pad::default();
        let bytes = vec![9u8; 128];
        assert!(std::ptr::eq(pad.whole(&bytes, 64), bytes.as_slice()));
        assert!(pad.buf.is_empty());
    }
}
