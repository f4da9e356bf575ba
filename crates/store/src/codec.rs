//! A hand-rolled, versioned, in-memory binary codec.
//!
//! The build container has no crates.io access, so — following the
//! vendored-shim convention of this workspace — serialisation is implemented
//! from scratch instead of pulling in `serde`/`bincode`.  The format is
//! deliberately boring:
//!
//! * all integers are **little-endian fixed width** (`u64` for lengths and
//!   `usize` values, so the format is identical across platforms);
//! * `f64` is stored as its IEEE-754 bit pattern;
//! * sequences are a `u64` element count followed by the elements;
//! * every *file* (checkpoint, store segment) starts with an 8-byte magic
//!   string and a `u16` format version, checked on read so stale readers fail
//!   loudly instead of misinterpreting bytes.
//!
//! [`Encode`] appends a value to a `Vec<u8>`; [`Decode`] reads one off a
//! byte-slice cursor (`&mut &[u8]`), advancing it past the value.  Every
//! input is whole in memory — a checkpoint file, a segment frame — so the
//! reader's contract is:
//!
//! * **each length is checked against the bytes left** before anything is
//!   allocated: `len` values of at least [`Decode::MIN_BYTES`] bytes each
//!   must fit in what remains of the cursor, or the read fails with
//!   [`DecodeError::UnexpectedEof`];
//! * a vector is then allocated at **exact capacity**, and a column of
//!   fixed-width values (a tick's member ids and coordinates, a crowd's
//!   cluster ids, a gathering's participators) is taken as one
//!   bounds-checked block and converted in one pass;
//! * so **one allocation bound** holds for any input, forged lengths
//!   included: a vector never holds more than
//!   `size_of::<T>() / T::MIN_BYTES` bytes per input byte left.
//!
//! Decoding never panics on malformed input: every length, tag and
//! invariant is validated and violations surface as a [`DecodeError`].
//! Domain-type implementations live in [`crate::model`].

/// Version of the value-encoding rules themselves (bumped when the layout of
/// any encoded type changes incompatibly).
pub const CODEC_VERSION: u16 = 1;

/// Error produced when decoding malformed, truncated or incompatible input.
#[derive(Debug)]
pub enum DecodeError {
    /// The input ended in the middle of a value, or a length prefix claims
    /// more than the input holds.
    UnexpectedEof,
    /// The file does not start with the expected magic string.
    BadMagic {
        /// The magic string the reader expected.
        expected: [u8; 8],
        /// The bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not the one this reader understands.
    UnsupportedVersion {
        /// The version found in the file.
        found: u16,
        /// The version this reader understands.
        supported: u16,
    },
    /// A record's stored checksum does not match its payload.
    ChecksumMismatch,
    /// The bytes were structurally readable but violate an invariant of the
    /// decoded type (e.g. an empty crowd or a reversed time interval).
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "input ended in the middle of a value"),
            DecodeError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            DecodeError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this reader supports {supported})"
            ),
            DecodeError::ChecksumMismatch => write!(f, "record checksum mismatch"),
            DecodeError::Corrupt(what) => write!(f, "corrupt value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A value that can be written to the binary format.
pub trait Encode {
    /// Appends the value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be read back from the binary format.
pub trait Decode: Sized {
    /// The fewest bytes any encoding of the value takes; a sequence length
    /// is checked against the bytes left in these units.
    const MIN_BYTES: usize = 1;

    /// Reads one value off the front of `r`, advancing it past the value.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the input is truncated, structurally
    /// invalid or violates an invariant of the type.
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Encodes a value into a fresh byte vector.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value from a byte slice, requiring the slice to be consumed
/// exactly.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input or trailing bytes.
pub fn decode_from_slice<T: Decode>(mut bytes: &[u8]) -> Result<T, DecodeError> {
    let value = T::decode(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(DecodeError::Corrupt("trailing bytes after value"));
    }
    Ok(value)
}

/// Takes the next `N` bytes off the cursor.
pub(crate) fn read_array<const N: usize>(r: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = r
        .split_first_chunk::<N>()
        .ok_or(DecodeError::UnexpectedEof)?;
    *r = rest;
    Ok(*head)
}

/// Reads `len` fixed-width values as one column: the `len * N` bytes are
/// taken off the cursor in one bounds check — before anything is
/// allocated — and converted by `from` in one pass into a vector of exact
/// capacity.
pub(crate) fn column<const N: usize, T>(
    r: &mut &[u8],
    len: usize,
    from: impl Fn([u8; N]) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let (block, rest) = len
        .checked_mul(N)
        .and_then(|bytes| r.split_at_checked(bytes))
        .ok_or(DecodeError::UnexpectedEof)?;
    *r = rest;
    let mut out = Vec::with_capacity(len);
    for &word in block.as_chunks::<N>().0 {
        out.push(from(word)?);
    }
    Ok(out)
}

/// Reads a `u64`-length-prefixed [`column`].
pub(crate) fn decode_column<const N: usize, T>(
    r: &mut &[u8],
    from: impl Fn([u8; N]) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let len = usize::decode(r)?;
    column(r, len, from)
}

/// Writes a file header: an 8-byte magic string followed by a `u16` version.
pub fn write_header(out: &mut Vec<u8>, magic: &[u8; 8], version: u16) {
    out.extend_from_slice(magic);
    version.encode(out);
}

/// Reads and checks a file header written by [`write_header`]: the magic
/// and the one version the reader understands.
///
/// # Errors
///
/// Returns [`DecodeError::BadMagic`] or [`DecodeError::UnsupportedVersion`]
/// if the header does not match, besides the usual truncation errors.
pub fn read_header(r: &mut &[u8], magic: &[u8; 8], supported: u16) -> Result<(), DecodeError> {
    let found: [u8; 8] = read_array(r)?;
    if &found != magic {
        return Err(DecodeError::BadMagic {
            expected: *magic,
            found,
        });
    }
    let found = u16::decode(r)?;
    if found != supported {
        return Err(DecodeError::UnsupportedVersion { found, supported });
    }
    Ok(())
}

/// FNV-1a 64-bit hash, the benchmark's input and output digest.  The segment
/// log seals its frames with [`xxh64`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// XXH64 of `bytes` under `seed`: the 64-bit checksum zstd frames carry, and
/// the segment log's frame checksum, seeded with the record id.  Four
/// independent lanes over 32-byte stripes run at memory speed, where
/// [`fnv1a`] waits on a multiply per byte.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    // One accumulator round over a little-endian word.
    let round = |acc: u64, word: &[u8; 8]| {
        let word = u64::from_le_bytes(*word).wrapping_mul(P2);
        acc.wrapping_add(word).rotate_left(31).wrapping_mul(P1)
    };
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() < 32 {
        seed.wrapping_add(P5)
    } else {
        let mut lanes =
            [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()].map(|v| v.wrapping_add(seed));
        for stripe in stripes.by_ref() {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word.try_into().expect("eight bytes"));
            }
        }
        let mut hash = lanes
            .iter()
            .zip([1, 7, 12, 18])
            .fold(0u64, |h, (lane, r)| h.wrapping_add(lane.rotate_left(r)));
        for lane in lanes {
            hash ^= round(0, &lane.to_le_bytes());
            hash = hash.wrapping_mul(P1).wrapping_add(P4);
        }
        hash
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut tail = stripes.remainder();
    while let Some((word, rest)) = tail.split_first_chunk::<8>() {
        hash ^= round(0, word);
        hash = hash.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        tail = rest;
    }
    if let Some((word, rest)) = tail.split_first_chunk::<4>() {
        hash ^= u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1);
        hash = hash.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = rest;
    }
    for &byte in tail {
        hash ^= u64::from(byte).wrapping_mul(P5);
        hash = hash.rotate_left(11).wrapping_mul(P1);
    }
    hash = (hash ^ (hash >> 33)).wrapping_mul(P2);
    hash = (hash ^ (hash >> 29)).wrapping_mul(P3);
    hash ^ (hash >> 32)
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok(<$ty>::from_le_bytes(read_array(r)?))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        usize::try_from(u64::decode(r)?)
            .map_err(|_| DecodeError::Corrupt("usize value exceeds this platform's pointer width"))
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        u8::from(*self).encode(out);
    }
}

impl Decode for bool {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt("boolean byte is neither 0 nor 1")),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = decode_column(r, |[b]: [u8; 1]| Ok(b))?;
        String::from_utf8(bytes).map_err(|_| DecodeError::Corrupt("string is not valid UTF-8"))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = usize::decode(r)?;
        // The length is checked against the bytes left before it sizes
        // anything, so a forged one fails as truncation.
        if len
            .checked_mul(T::MIN_BYTES)
            .is_none_or(|bytes| bytes > r.len())
        {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(value) = self {
            value.encode(out);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        if bool::decode(r)? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let a = A::decode(r)?;
        let b = B::decode(r)?;
        Ok((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = encode_to_vec(value);
        let back: T = decode_from_slice(&bytes).expect("roundtrip decodes");
        assert_eq!(&back, value);
    }

    #[test]
    fn primitive_roundtrips() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for _ in 0..256 {
            roundtrip(&rng.gen_range(0u64..u64::MAX));
            roundtrip(&(rng.gen_range(0u64..u64::MAX) as u32));
            roundtrip(&(rng.gen_range(0u64..u64::MAX) as u16));
            roundtrip(&(rng.gen_range(0u64..u64::MAX) as u8));
            roundtrip(&rng.gen_range(-1e12..1e12));
            roundtrip(&(rng.gen_range(0u32..2) == 1));
            roundtrip(&rng.gen_range(0usize..1_000_000));
        }
        roundtrip(&f64::INFINITY);
        roundtrip(&0.0f64);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(&Vec::<u32>::new());
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&None::<u64>);
        roundtrip(&Some(17u64));
        roundtrip(&(3u32, vec![1u8, 2]));
        roundtrip(&String::from("gatherings ✓"));
        roundtrip(&String::new());
    }

    #[test]
    fn every_truncation_of_a_value_fails_cleanly() {
        let value = (vec![1u32, 2, 3], Some(String::from("tail")));
        let bytes = encode_to_vec(&value);
        for cut in 0..bytes.len() {
            let err = decode_from_slice::<(Vec<u32>, Option<String>)>(&bytes[..cut])
                .expect_err("truncated input must not decode");
            assert!(
                matches!(err, DecodeError::UnexpectedEof | DecodeError::Corrupt(_)),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        let err = decode_from_slice::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt(_)));
    }

    #[test]
    fn invalid_bool_and_utf8_are_corrupt() {
        let err = decode_from_slice::<bool>(&[2]).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt(_)));
        let mut bytes = encode_to_vec(&3usize);
        bytes.extend_from_slice(&[0xff, 0xfe, 0xfd]);
        let err = decode_from_slice::<String>(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt(_)));
    }

    #[test]
    fn header_checks_magic_and_version() {
        const MAGIC: [u8; 8] = *b"GPDTTEST";
        let mut bytes = Vec::new();
        write_header(&mut bytes, &MAGIC, 1);
        read_header(&mut bytes.as_slice(), &MAGIC, 1).unwrap();

        // Wrong magic.
        let err = read_header(&mut bytes.as_slice(), b"GPDTELSE", 1).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }));

        // Newer version than supported.
        let mut newer = Vec::new();
        write_header(&mut newer, &MAGIC, 2);
        let err = read_header(&mut newer.as_slice(), &MAGIC, 1).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::UnsupportedVersion {
                found: 2,
                supported: 1
            }
        ));

        // So is an older one: a reader understands exactly one version.
        let err = read_header(&mut bytes.as_slice(), &MAGIC, 2).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::UnsupportedVersion {
                found: 1,
                supported: 2
            }
        ));
    }

    #[test]
    fn huge_length_prefix_fails_without_allocating() {
        // A corrupt sequence length of u64::MAX must fail with EOF, not abort
        // trying to reserve the capacity.
        let bytes = encode_to_vec(&u64::MAX);
        let err = decode_from_slice::<Vec<u8>>(&bytes).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::UnexpectedEof | DecodeError::Corrupt(_)
        ));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 values at seed 0: the empty input, the short-input
        // path, and 39 bytes (one 32-byte stripe, a 4-byte word, 3 bytes).
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn xxh64_sees_every_byte() {
        let payload: Vec<u8> = (0..100u8).map(|b| b.wrapping_mul(37)).collect();
        let sum = xxh64(&payload, 0);
        for at in 0..payload.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut changed = payload.clone();
                changed[at] ^= flip;
                assert_ne!(xxh64(&changed, 0), sum, "byte {at} ^ {flip:#x}");
            }
        }
    }

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<DecodeError> = vec![
            DecodeError::UnexpectedEof,
            DecodeError::BadMagic {
                expected: *b"GPDTSEG\0",
                found: *b"12345678",
            },
            DecodeError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            DecodeError::ChecksumMismatch,
            DecodeError::Corrupt("example"),
        ];
        for case in cases {
            assert!(!case.to_string().is_empty());
        }
    }
}
