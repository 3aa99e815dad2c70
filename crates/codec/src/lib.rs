//! Compact record serialization for the engine's arena shuffle.
//!
//! Moving every `(key, value)` pair through the shuffle as a Rust struct
//! inside `Vec<(u64, K, V)>` buckets costs ~32 bytes per record for the
//! paper's triangle workloads against a ~10-byte logical payload. The
//! engine's arena shuffle instead serializes records into flat byte buffers,
//! and this crate defines the encoding those buffers use: [`ArenaCodec`], a
//! fixed-format, allocation-free codec with LEB128 varints for integers.
//! Every round's key and value types implement it.
//!
//! The codec is *engine-internal*: encoded bytes never leave the process and
//! are always decoded by the same build that produced them, so there is no
//! versioning, no endianness tag, and decoding malformed input is allowed to
//! panic (the engine only feeds a decoder bytes its own encoder wrote).
//!
//! Keys and values are encoded back to back, so `decode` must consume exactly
//! the bytes `encode` produced — the round-trip property the test suite and
//! the engine's grouping loops both rely on.
//!
//! This crate exists (rather than the trait living in the mapreduce crate)
//! so that `subgraph-graph` can implement the codec for its `Edge` type
//! without depending on the engine: both depend on this leaf crate instead.

/// Appends `value` as an LEB128 varint (7 bits per byte, little groups
/// first, high bit = continuation). Values below 128 cost one byte — the
/// common case for the paper's bucket coordinates and small node ids.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads an LEB128 varint written by [`write_varint`], advancing `*pos`.
///
/// # Panics
/// Panics on truncated input or a varint longer than 10 bytes; arena buffers
/// are engine-produced, so either indicates a bug, not bad user data.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
        assert!(shift < 64, "varint exceeds 10 bytes");
    }
}

/// Reads one LEB128 varint from a byte stream — the streaming counterpart of
/// [`read_varint`], used by the engine's spill-run reader where frames arrive
/// from a file instead of a resident buffer.
///
/// Returns `Ok(None)` on a clean end of stream (no byte consumed): a sequence
/// of length-prefixed frames is terminated by EOF at a frame boundary, so the
/// reader distinguishes "no more frames" from a truncated length
/// (`ErrorKind::UnexpectedEof`).
pub fn read_varint_from(read: &mut impl std::io::Read) -> std::io::Result<Option<u64>> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let mut byte = [0u8; 1];
    loop {
        match read.read(&mut byte) {
            Ok(0) => {
                return if shift == 0 {
                    Ok(None)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "stream ended inside a varint",
                    ))
                };
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(value));
        }
        shift += 7;
        if shift >= 64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "varint exceeds 10 bytes",
            ));
        }
    }
}

/// A value that can serialize itself into (and back out of) an arena byte
/// buffer. See the [crate docs](self) for the contract: `decode` must return
/// an equal value and consume exactly the bytes `encode` appended.
pub trait ArenaCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from `buf` starting at `*pos`, advancing `*pos`
    /// past the consumed bytes.
    fn decode(buf: &[u8], pos: &mut usize) -> Self;
}

impl ArenaCodec for u8 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let byte = buf[*pos];
        *pos += 1;
        byte
    }
}

impl ArenaCodec for u16 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(*self));
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        read_varint(buf, pos) as u16
    }
}

impl ArenaCodec for u32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(*self));
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        read_varint(buf, pos) as u32
    }
}

impl ArenaCodec for u64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        read_varint(buf, pos)
    }
}

impl ArenaCodec for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self as u64);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        read_varint(buf, pos) as usize
    }
}

impl ArenaCodec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        u8::decode(buf, pos) != 0
    }
}

impl<T: ArenaCodec, const N: usize> ArenaCodec for [T; N] {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode(out);
        }
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        std::array::from_fn(|_| T::decode(buf, pos))
    }
}

impl<A: ArenaCodec, B: ArenaCodec> ArenaCodec for (A, B) {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let a = A::decode(buf, pos);
        let b = B::decode(buf, pos);
        (a, b)
    }
}

impl<A: ArenaCodec, B: ArenaCodec, C: ArenaCodec> ArenaCodec for (A, B, C) {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    #[inline]
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let a = A::decode(buf, pos);
        let b = B::decode(buf, pos);
        let c = C::decode(buf, pos);
        (a, b, c)
    }
}

impl<T: ArenaCodec> ArenaCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let len = read_varint(buf, pos) as usize;
        (0..len).map(|_| T::decode(buf, pos)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: ArenaCodec + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut pos = 0;
        let back = T::decode(&buf, &mut pos);
        assert_eq!(back, value);
        assert_eq!(pos, buf.len(), "decode must consume exactly the encoding");
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for value in [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), value);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn small_values_encode_in_one_byte() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 5);
        assert_eq!(buf, [5]);
        buf.clear();
        write_varint(&mut buf, 127);
        assert_eq!(buf, [127]);
        buf.clear();
        write_varint(&mut buf, 128);
        assert_eq!(buf, [0x80, 1]);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(9000u16);
        round_trip(3_000_000u32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn composites_round_trip() {
        round_trip([1u32, 2, 3]);
        round_trip((7u32, 9u64));
        round_trip((1u8, 2u32, 3u32));
        round_trip(vec![5u32, 0, 1_000_000]);
        round_trip(Vec::<u32>::new());
        round_trip(([0u32, 5, 5], (17u32, 99u32)));
    }

    #[test]
    fn back_to_back_records_decode_in_order() {
        // The arena stores records contiguously; interleaved decode must track.
        let mut buf = Vec::new();
        for i in 0..100u32 {
            ([i, i * 2, i * 3], (i, i + 1)).encode(&mut buf);
        }
        let mut pos = 0;
        for i in 0..100u32 {
            let (key, value) = <([u32; 3], (u32, u32))>::decode(&buf, &mut pos);
            assert_eq!(key, [i, i * 2, i * 3]);
            assert_eq!(value, (i, i + 1));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    #[should_panic]
    fn truncated_varint_panics() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        let _ = read_varint(&buf, &mut pos);
    }

    #[test]
    fn streaming_varints_match_the_slice_reader() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 0x3fff, u32::MAX as u64, u64::MAX];
        for value in values {
            write_varint(&mut buf, value);
        }
        let mut cursor = std::io::Cursor::new(&buf);
        for value in values {
            assert_eq!(read_varint_from(&mut cursor).unwrap(), Some(value));
        }
        // Clean EOF at a frame boundary is "no more frames", not an error.
        assert_eq!(read_varint_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn streaming_varint_rejects_mid_value_eof() {
        let mut cursor = std::io::Cursor::new([0x80u8, 0x80]);
        let err = read_varint_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
