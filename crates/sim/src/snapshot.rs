//! Versioned binary container for engine checkpoints.
//!
//! A snapshot is `magic ("TBSN") · version (u16 LE) · sections*`, where
//! each section is `tag (u8) · payload length (u32 LE) · payload ·
//! CRC32 (u32 LE)`. The CRC covers the payload only; the magic,
//! version, tag, and length fields are each validated explicitly on
//! read, so *any* single corruption — a flipped bit, a truncation, a
//! version skew — surfaces as a typed [`SnapshotError`] instead of a
//! panic or a silently wrong load. That contract is pinned by the
//! corrupt-snapshot fuzz tests in `tests/crash_resume.rs`.
//!
//! The module is deliberately schema-free: it frames and checksums
//! bytes, while the owners of the state (the trust table, the cluster
//! engines) decide what goes inside each section. Numbers are
//! little-endian; `f64`s travel as raw IEEE-754 bits so a restore is
//! bit-lossless.

use std::fmt;
use std::io::{Read, Write};

/// First four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"TBSN";

/// First four bytes of a framed blob on a byte stream (see
/// [`write_framed`]).
pub const FRAME_MAGIC: [u8; 4] = *b"TBFR";

/// Current container version. Bump on any layout change; readers
/// reject other versions rather than guessing. Version 2 added the
/// arithmetic-backend byte to the deployment section.
pub const VERSION: u16 = 2;

/// Why a snapshot blob could not be read (or state could not be
/// captured).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The container version is not the one this build reads.
    UnsupportedVersion {
        /// Version found in the blob.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The blob ends before a declared field or section does.
    Truncated,
    /// A section payload failed its CRC32 check.
    CrcMismatch {
        /// Tag of the corrupt section.
        tag: u8,
    },
    /// A section appeared with the wrong tag (or out of order).
    UnexpectedSection {
        /// Tag the reader expected.
        expected: u8,
        /// Tag actually found.
        found: u8,
    },
    /// Bytes remain after the last expected section.
    TrailingBytes,
    /// A field decoded to a value no healthy engine can hold.
    Invalid(&'static str),
    /// The state cannot be captured or restored (e.g. a behavior kind
    /// with process-shared state that cannot survive serialisation).
    Unsupported(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot version {found} unsupported (this build reads {supported})")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::CrcMismatch { tag } => {
                write!(f, "section 0x{tag:02x} failed its CRC check")
            }
            SnapshotError::UnexpectedSection { expected, found } => {
                write!(f, "expected section 0x{expected:02x}, found 0x{found:02x}")
            }
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after final section"),
            SnapshotError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            SnapshotError::Unsupported(what) => write!(f, "unsupported state: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Why a framed blob could not be read off a byte stream.
///
/// Every way a socket transfer can go wrong — disconnect mid-frame,
/// corrupted header, flipped payload bit, absurd declared length —
/// maps to exactly one variant; nothing panics and nothing is
/// silently truncated.
#[derive(Debug)]
pub enum FrameError {
    /// The stream failed or ended mid-frame (a disconnect surfaces as
    /// `UnexpectedEof`).
    Io(std::io::Error),
    /// The frame does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// The declared payload length exceeds the caller's bound — the
    /// guard that keeps a corrupt length from driving a huge
    /// allocation.
    TooLarge {
        /// Length the frame header declared.
        declared: u64,
        /// Bound the caller allowed.
        max: u64,
    },
    /// The payload failed its CRC32 check.
    CrcMismatch,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "framed transfer failed: {e}"),
            FrameError::BadMagic => write!(f, "not a framed blob: bad magic"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "framed blob declares {declared} bytes, bound is {max}")
            }
            FrameError::CrcMismatch => write!(f, "framed blob failed its CRC check"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one blob to a byte stream as
/// `FRAME_MAGIC · length (u64 LE) · payload · CRC32 (u32 LE)`.
///
/// The envelope lets an already-built container (or any byte blob)
/// travel over a socket with the same corruption guarantees the
/// container gives on disk: the receiver validates magic, length
/// bound, and checksum before a single payload byte is interpreted.
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub fn write_framed(w: &mut impl Write, blob: &[u8]) -> Result<(), FrameError> {
    w.write_all(&FRAME_MAGIC)?;
    w.write_all(&(blob.len() as u64).to_le_bytes())?;
    w.write_all(blob)?;
    w.write_all(&crc32(blob).to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads one blob written by [`write_framed`], allocating at most
/// `max_len` bytes.
///
/// # Errors
///
/// [`FrameError::Io`] on stream failure or early EOF,
/// [`FrameError::BadMagic`] / [`FrameError::TooLarge`] /
/// [`FrameError::CrcMismatch`] on a malformed frame.
pub fn read_framed(r: &mut impl Read, max_len: u64) -> Result<Vec<u8>, FrameError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes)?;
    let declared = u64::from_le_bytes(len_bytes);
    if declared > max_len {
        return Err(FrameError::TooLarge { declared, max: max_len });
    }
    #[allow(clippy::cast_possible_truncation)]
    let mut payload = vec![0u8; declared as usize];
    r.read_exact(&mut payload)?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    if crc32(&payload) != u32::from_le_bytes(crc_bytes) {
        return Err(FrameError::CrcMismatch);
    }
    Ok(payload)
}

/// CRC32 (IEEE 802.3, the zlib polynomial) of `bytes`.
///
/// See [`crc32_fold`] for how it is computed; every path gives the
/// byte-at-a-time definition's value (pinned against it in the tests).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_fold(!0, bytes)
}

/// The CRC register after folding `bytes` into `crc` (pre- and
/// post-inversion are the caller's), so a CRC can span pieces that are
/// not contiguous in memory.
///
/// On an x86-64 CPU with PCLMULQDQ and SSE4.1 (detected at run time),
/// an input of at least 64 bytes goes through [`crc32_fold_clmul`]:
/// carry-less multiplication folds 64 bytes per step at memory speed.
/// Shorter inputs, the folded path's last < 16 bytes, and other CPUs
/// use the slice-by-8 table fold, [`crc32_fold_table`].
fn crc32_fold(crc: u32, bytes: &[u8]) -> u32 {
    crc32_fold_clmul(crc, bytes).unwrap_or_else(|| crc32_fold_table(crc, bytes))
}

/// [`clmul::fold`] when `bytes` holds at least one 64-byte block and
/// this CPU has the instructions it is compiled for; `None` otherwise.
#[cfg(target_arch = "x86_64")]
fn crc32_fold_clmul(crc: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < clmul::BLOCK
        || !is_x86_feature_detected!("pclmulqdq")
        || !is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    // SAFETY: `clmul::fold` is safe code whose only requirement is the
    // `pclmulqdq` and `sse4.1` target features it is compiled with;
    // both were detected on this CPU just above.
    #[allow(unsafe_code)]
    Some(unsafe { clmul::fold(crc, bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn crc32_fold_clmul(_crc: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// CRC32 by carry-less multiplication: "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Gopal et al.,
/// Intel, 2009), in the bit-reflected form zlib-ng and crc32fast use.
///
/// Four 128-bit lanes each take one 16-byte chunk of every 64-byte
/// block; a lane is carried across a block by multiplying its halves by
/// `x^(512±32) mod P` and adding the next chunk. The lanes then fold
/// into one with `x^(128±32) mod P`, further 16-byte chunks fold into
/// it the same way, and the 128-bit remainder is cut to 64 bits and
/// then to the 32-bit register by a Barrett reduction. Bytes after the
/// last whole 16 go through the table fold.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Bytes folded per step of the four-lane loop.
    pub(super) const BLOCK: usize = 64;

    // Constants for P = 0x1_04C1_1DB7, bit-reflected: K1..K5 are
    // `x^n mod P` reflected in 32 bits and shifted left by one, for
    // n = 4·128+32, 4·128−32, 128+32, 128−32 and 64; P_X and U_PRIME
    // are P and μ = ⌊x^64 / P⌋ reflected in 33 bits.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Loads 16 little-endian bytes as one lane value.
    #[target_feature(enable = "sse2")]
    fn load(chunk: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(chunk[..8].try_into().expect("16-byte chunk"));
        let hi = u64::from_le_bytes(chunk[8..16].try_into().expect("16-byte chunk"));
        _mm_set_epi64x(hi.cast_signed(), lo.cast_signed())
    }

    /// `a`'s halves multiplied by the two constants in `k`, plus `b`:
    /// `a` carried forward over the distance `k` encodes.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The CRC register after folding `bytes` (at least [`BLOCK`]
    /// long) into `crc`; equal to `super::crc32_fold_table(crc, bytes)`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= BLOCK, "the folded CRC takes at least one block");
        let mut chunks = bytes.chunks_exact(16);
        let mut next = || load(chunks.next().expect("a whole 16-byte chunk"));
        let mut x0 = _mm_xor_si128(next(), _mm_cvtsi32_si128(crc.cast_signed()));
        let mut x1 = next();
        let mut x2 = next();
        let mut x3 = next();
        let blocks = bytes.len() / BLOCK;
        let k1k2 = _mm_set_epi64x(K2, K1);
        for _ in 1..blocks {
            x0 = fold_into(x0, next(), k1k2);
            x1 = fold_into(x1, next(), k1k2);
            x2 = fold_into(x2, next(), k1k2);
            x3 = fold_into(x3, next(), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x0, x1, k3k4);
        x = fold_into(x, x2, k3k4);
        x = fold_into(x, x3, k3k4);
        for _ in 0..(bytes.len() % BLOCK) / 16 {
            x = fold_into(x, next(), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // register is the upper half of R + T2 (bit-reflected).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let reg = _mm_extract_epi32(_mm_xor_si128(x, t2), 1).cast_unsigned();
        super::crc32_fold_table(reg, &bytes[bytes.len() - bytes.len() % 16..])
    }
}

/// [`crc32_fold`] by slice-by-8 tables: eight input bytes per step
/// through eight 256-entry tables. Table `k` holds the CRC of byte `i`
/// followed by `k` zero bytes, so one step folds a whole little-endian
/// 64-bit word with eight independent lookups instead of eight
/// dependent ones. The tail (< 8 bytes) runs the classic byte-wise
/// loop over table 0.
fn crc32_fold_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC32 over the stored CRCs of a container's top-level sections, in
/// order: `crc32` of their concatenated little-endian bytes.
///
/// Only the framing is walked — magic, version, each section's tag,
/// length and CRC — so the cost is a few bytes per section, not a pass
/// over the payloads, and no section CRC is verified here. A commit
/// record holding this digest binds itself to one exact set of
/// sections, which per-section CRCs alone cannot: sections torn from
/// two different blobs each still pass their own check.
///
/// # Errors
///
/// [`SnapshotError::BadMagic`] / [`SnapshotError::UnsupportedVersion`]
/// on a bad preamble, [`SnapshotError::Truncated`] if a section runs
/// past the end of `data`.
pub fn section_crc_digest(data: &[u8]) -> Result<u32, SnapshotError> {
    let mut pos = SnapshotReader::new(data)?.pos;
    let mut crc = !0u32;
    while pos < data.len() {
        let len_end = pos.checked_add(5).ok_or(SnapshotError::Truncated)?;
        let len = data.get(pos + 1..len_end).ok_or(SnapshotError::Truncated)?;
        let len = u32::from_le_bytes(len.try_into().expect("4-byte slice")) as usize;
        let crc_at = len_end.checked_add(len).ok_or(SnapshotError::Truncated)?;
        let stored = data
            .get(crc_at..crc_at.checked_add(4).ok_or(SnapshotError::Truncated)?)
            .ok_or(SnapshotError::Truncated)?;
        crc = crc32_fold(crc, stored);
        pos = crc_at + 4;
    }
    Ok(!crc)
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Builds a snapshot blob: header first, then CRC-framed sections.
///
/// ```rust
/// use tibfit_sim::snapshot::{SnapshotReader, SnapshotWriter};
///
/// let mut w = SnapshotWriter::new();
/// w.section(1, |s| {
///     s.put_u64(42);
///     s.put_f64(0.25);
/// });
/// let blob = w.finish();
///
/// let mut r = SnapshotReader::new(&blob).unwrap();
/// let mut s = r.section(1).unwrap();
/// assert_eq!(s.take_u64().unwrap(), 42);
/// assert_eq!(s.take_f64().unwrap(), 0.25);
/// s.end().unwrap();
/// r.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a blob with the magic and current version.
    #[must_use]
    pub fn new() -> Self {
        SnapshotWriter::over(Vec::with_capacity(256))
    }

    /// Starts a blob at the end of `buf` (which may already hold bytes
    /// of an enclosing container).
    fn over(mut buf: Vec<u8>) -> Self {
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Appends one section: `f` fills the payload, the writer frames it
    /// with the tag, length, and CRC.
    ///
    /// The payload is written in place: the tag and a length
    /// placeholder go straight into the blob, `f` appends behind them,
    /// and the length and CRC are patched in over the finished slice —
    /// no per-section buffer, no copy.
    pub fn section<R>(&mut self, tag: u8, f: impl FnOnce(&mut SectionBuf) -> R) -> R {
        self.buf.push(tag);
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        let mut body = SectionBuf { buf: std::mem::take(&mut self.buf) };
        let out = f(&mut body);
        self.buf = body.buf;
        let payload = &self.buf[len_at + 4..];
        let len = u32::try_from(payload.len()).expect("a section payload fits its u32 length");
        let crc = crc32(payload);
        self.buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Makes room for at least `additional` more bytes of sections.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// The finished blob.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        SnapshotWriter::new()
    }
}

/// Accumulates one section's payload. All integers are little-endian;
/// `f64`s are stored as raw bits.
#[derive(Debug)]
pub struct SectionBuf {
    buf: Vec<u8>,
}

impl SectionBuf {
    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (as `u64`).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bits (lossless).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends `Some(x)` as `1·bits` and `None` as `0`.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends one fixed-size record per item, `encode(item)` each, in
    /// one pass: the section grows once by `W · items.len()` bytes and
    /// every record is copied into its slot. The bytes are exactly what
    /// appending the records one by one would give.
    pub fn put_records<T, const W: usize>(
        &mut self,
        items: &[T],
        mut encode: impl FnMut(&T) -> [u8; W],
    ) {
        let at = self.buf.len();
        self.buf.resize(at + W * items.len(), 0);
        for (slot, item) in self.buf[at..].chunks_exact_mut(W).zip(items) {
            slot.copy_from_slice(&encode(item));
        }
    }

    /// Appends a length-prefixed byte blob (u64 length) — used to embed
    /// one container inside a section of another (e.g. an engine
    /// snapshot inside a sweep-progress checkpoint).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a nested container built in place by `f`: exactly the
    /// bytes `put_bytes(&blob)` appends for the `blob` a fresh
    /// [`SnapshotWriter`] would finish with after `f` (a u64 length,
    /// then magic, version, and `f`'s sections), without building that
    /// blob separately and copying it in.
    pub fn put_nested<R>(&mut self, f: impl FnOnce(&mut SnapshotWriter) -> R) -> R {
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        let mut inner = SnapshotWriter::over(std::mem::take(&mut self.buf));
        let out = f(&mut inner);
        self.buf = inner.buf;
        let len = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Appends a length-prefixed UTF-8 string (u16 length).
    ///
    /// # Panics
    ///
    /// Panics if `s` is longer than `u16::MAX` bytes — section schemas
    /// only store short identifiers.
    pub fn put_str(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("snapshot strings are short");
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Walks a snapshot blob, validating as it goes.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a blob, checking magic and version.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// or [`SnapshotError::Truncated`] for a malformed header.
    pub fn new(data: &'a [u8]) -> Result<Self, SnapshotError> {
        if data.len() < MAGIC.len() + 2 {
            return Err(SnapshotError::Truncated);
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([data[4], data[5]]);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        Ok(SnapshotReader { data, pos: MAGIC.len() + 2 })
    }

    /// Opens the next section, which must carry `tag`. The payload CRC
    /// is verified before any field is decoded.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnexpectedSection`] on a tag mismatch,
    /// [`SnapshotError::Truncated`] if the declared payload runs past
    /// the blob, [`SnapshotError::CrcMismatch`] on checksum failure.
    pub fn section(&mut self, tag: u8) -> Result<SectionReader<'a>, SnapshotError> {
        let header_end = self.pos.checked_add(5).ok_or(SnapshotError::Truncated)?;
        if header_end > self.data.len() {
            return Err(SnapshotError::Truncated);
        }
        let found = self.data[self.pos];
        if found != tag {
            return Err(SnapshotError::UnexpectedSection { expected: tag, found });
        }
        let len = u32::from_le_bytes(
            self.data[self.pos + 1..header_end].try_into().expect("4-byte slice"),
        ) as usize;
        let payload_end = header_end.checked_add(len).ok_or(SnapshotError::Truncated)?;
        let crc_end = payload_end.checked_add(4).ok_or(SnapshotError::Truncated)?;
        if crc_end > self.data.len() {
            return Err(SnapshotError::Truncated);
        }
        let payload = &self.data[header_end..payload_end];
        let stored = u32::from_le_bytes(
            self.data[payload_end..crc_end].try_into().expect("4-byte slice"),
        );
        if crc32(payload) != stored {
            return Err(SnapshotError::CrcMismatch { tag });
        }
        self.pos = crc_end;
        Ok(SectionReader { data: payload, pos: 0 })
    }

    /// `true` if every byte has been consumed.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Asserts the blob is fully consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] if data remains.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }
}

/// Decodes one section's (already CRC-verified) payload.
#[derive(Debug)]
pub struct SectionReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl SectionReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the section is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the section is exhausted.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the section is exhausted.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if exhausted,
    /// [`SnapshotError::Invalid`] if the value overflows this
    /// platform's `usize`.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| SnapshotError::Invalid("usize field overflows this platform"))
    }

    /// Reads a count field that prefixes `elem_size`-byte elements,
    /// rejecting counts the remaining payload cannot possibly hold —
    /// the guard that keeps a corrupt length from driving a huge
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if exhausted or the count is
    /// implausible, [`SnapshotError::Invalid`] on `usize` overflow.
    pub fn take_count(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let count = self.take_usize()?;
        let remaining = self.data.len() - self.pos;
        if count.checked_mul(elem_size.max(1)).is_none_or(|bytes| bytes > remaining) {
            return Err(SnapshotError::Truncated);
        }
        Ok(count)
    }

    /// Reads `count` fixed-size records of `W` bytes, `decode(record)`
    /// each, with one bounds check for the whole run — the mirror of
    /// [`SectionBuf::put_records`]. On error nothing is consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the section holds fewer than
    /// `count · W` more bytes.
    pub fn take_records<T, const W: usize>(
        &mut self,
        count: usize,
        decode: impl FnMut(&[u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let len = count.checked_mul(W).ok_or(SnapshotError::Truncated)?;
        let (records, _) = self.take(len)?.as_chunks::<W>();
        Ok(records.iter().map(decode).collect())
    }

    /// Reads an `f64` from raw bits. The caller validates range.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the section is exhausted.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0/1.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if exhausted,
    /// [`SnapshotError::Invalid`] for a non-boolean byte.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid("boolean field not 0 or 1")),
        }
    }

    /// Reads an `Option<f64>` written by [`SectionBuf::put_opt_f64`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`SnapshotError`]s.
    pub fn take_opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        if self.take_bool()? {
            Ok(Some(self.take_f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed byte blob written by
    /// [`SectionBuf::put_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the declared length runs past the
    /// section.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.take_count(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if exhausted,
    /// [`SnapshotError::Invalid`] for non-UTF-8 bytes.
    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().expect("2-byte slice")) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Invalid("string field is not UTF-8"))
    }

    /// Asserts the section is fully consumed — a schema/payload length
    /// disagreement is corruption, not slack.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] if bytes remain.
    pub fn end(self) -> Result<(), SnapshotError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(SnapshotError::Invalid("section has trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_records_writes_what_per_item_puts_write() {
        let words = [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        let pairs = [(1.5f64, -0.0f64), (f64::MIN_POSITIVE, 3e300)];
        let mut one_pass = SnapshotWriter::new();
        one_pass.reserve(64);
        one_pass.section(3, |s| {
            s.put_u8(9);
            s.put_records(&words, |w| w.to_le_bytes());
            s.put_records(&[] as &[u64], |w| w.to_le_bytes());
            s.put_records(&pairs, |&(x, y)| {
                let mut b = [0; 16];
                b[..8].copy_from_slice(&x.to_bits().to_le_bytes());
                b[8..].copy_from_slice(&y.to_bits().to_le_bytes());
                b
            });
            s.put_u8(7);
        });
        let mut each = SnapshotWriter::new();
        each.section(3, |s| {
            s.put_u8(9);
            for w in words {
                s.put_u64(w);
            }
            for (x, y) in pairs {
                s.put_f64(x);
                s.put_f64(y);
            }
            s.put_u8(7);
        });
        assert_eq!(one_pass.finish(), each.finish());
    }

    #[test]
    fn take_records_reads_back_what_put_records_wrote() {
        let words = [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        let pairs = [(1.5f64, -0.0f64), (f64::MIN_POSITIVE, 3e300)];
        let mut w = SnapshotWriter::new();
        w.section(3, |s| {
            s.put_u8(9);
            s.put_records(&words, |w| w.to_le_bytes());
            s.put_records(&pairs, |&(x, y)| {
                let mut b = [0; 16];
                b[..8].copy_from_slice(&x.to_bits().to_le_bytes());
                b[8..].copy_from_slice(&y.to_bits().to_le_bytes());
                b
            });
            s.put_u8(7);
        });
        let blob = w.finish();
        let mut r = SnapshotReader::new(&blob).unwrap();
        let mut s = r.section(3).unwrap();
        assert_eq!(s.take_u8().unwrap(), 9);
        assert_eq!(s.take_records(words.len(), |b| u64::from_le_bytes(*b)).unwrap(), words);
        assert!(s.take_records(0, |b: &[u8; 8]| b[0]).unwrap().is_empty());
        let f = |b: &[u8]| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap()));
        let got = s.take_records(pairs.len(), |b: &[u8; 16]| (f(&b[..8]), f(&b[8..]))).unwrap();
        let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|(x, y)| (x.to_bits(), y.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&pairs));
        assert_eq!(s.take_u8().unwrap(), 7);
        s.end().unwrap();
    }

    #[test]
    fn take_records_on_a_short_section_is_truncated_and_consumes_nothing() {
        let mut w = SnapshotWriter::new();
        w.section(1, |s| {
            s.put_records(&[1u64, 2, 3], |w| w.to_le_bytes());
            s.put_u8(5);
        });
        // A second section right behind the first: a read past the
        // first section's end would see its bytes.
        w.section(2, |s| s.put_records(&[4u64; 4], |w| w.to_le_bytes()));
        let blob = w.finish();
        let mut r = SnapshotReader::new(&blob).unwrap();
        let mut s = r.section(1).unwrap();
        let u64s = |b: &[u8; 8]| u64::from_le_bytes(*b);
        assert_eq!(s.take_records(4, u64s), Err(SnapshotError::Truncated));
        assert_eq!(s.take_records(usize::MAX, u64s), Err(SnapshotError::Truncated));
        assert_eq!(s.take_records(usize::MAX / 8 + 1, u64s), Err(SnapshotError::Truncated));
        // Nothing was consumed: the section still reads as written.
        assert_eq!(s.take_records(3, u64s).unwrap(), [1, 2, 3]);
        assert_eq!(s.take_records(1, |b: &[u8; 1]| b[0]).unwrap(), [5]);
        assert_eq!(s.take_records(1, |b: &[u8; 1]| b[0]), Err(SnapshotError::Truncated));
        s.end().unwrap();
        let mut s = r.section(2).unwrap();
        assert_eq!(s.take_records(4, u64s).unwrap(), [4; 4]);
        s.end().unwrap();
    }

    fn sample_blob() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(1, |s| {
            s.put_u64(0xDEAD_BEEF);
            s.put_f64(-0.0);
            s.put_opt_f64(Some(1.5));
            s.put_opt_f64(None);
            s.put_str("trust");
            s.put_bool(true);
            s.put_bytes(&[9, 8, 7]);
        });
        w.section(2, |s| {
            s.put_u32(7);
        });
        w.finish()
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let blob = sample_blob();
        let mut r = SnapshotReader::new(&blob).unwrap();
        let mut s = r.section(1).unwrap();
        assert_eq!(s.take_u64().unwrap(), 0xDEAD_BEEF);
        // -0.0 must survive bit-exactly, not collapse to +0.0.
        assert_eq!(s.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.take_opt_f64().unwrap(), Some(1.5));
        assert_eq!(s.take_opt_f64().unwrap(), None);
        assert_eq!(s.take_str().unwrap(), "trust");
        assert!(s.take_bool().unwrap());
        assert_eq!(s.take_bytes().unwrap(), vec![9, 8, 7]);
        s.end().unwrap();
        let mut s = r.section(2).unwrap();
        assert_eq!(s.take_u32().unwrap(), 7);
        s.end().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = sample_blob();
        blob[0] ^= 0x40;
        assert_eq!(SnapshotReader::new(&blob).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn version_skew_rejected() {
        let mut blob = sample_blob();
        blob[4] = 0xFF;
        assert!(matches!(
            SnapshotReader::new(&blob).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 0xFF, .. }
        ));
    }

    #[test]
    fn section_crc_digest_is_the_crc_of_the_stored_section_crcs() {
        let blob = sample_blob();
        // Walk the framing by hand: 6-byte preamble, then per section
        // tag · len · payload · crc.
        let mut crcs = Vec::new();
        let mut ends = vec![6];
        let mut pos = 6;
        while pos < blob.len() {
            let len = u32::from_le_bytes(blob[pos + 1..pos + 5].try_into().unwrap()) as usize;
            crcs.extend_from_slice(&blob[pos + 5 + len..pos + 9 + len]);
            pos += 9 + len;
            ends.push(pos);
        }
        assert_eq!(crcs.len(), 8);
        assert_eq!(section_crc_digest(&blob).unwrap(), crc32(&crcs));
        // Payload bytes are not read; a stored CRC is.
        let mut flipped = blob.clone();
        flipped[11] ^= 0x01;
        assert_eq!(section_crc_digest(&flipped).unwrap(), crc32(&crcs));
        let mut restamped = blob.clone();
        let last = restamped.len() - 1;
        restamped[last] ^= 0x01;
        assert_ne!(section_crc_digest(&restamped).unwrap(), crc32(&crcs));
        // A cut at a section boundary is a shorter well-framed blob;
        // a cut anywhere else is typed.
        for cut in 6..blob.len() {
            if !ends.contains(&cut) {
                assert_eq!(section_crc_digest(&blob[..cut]), Err(SnapshotError::Truncated));
            }
        }
        assert_eq!(section_crc_digest(&blob[..3]), Err(SnapshotError::Truncated));
        assert_eq!(section_crc_digest(b"XXXX\x02\x00"), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn payload_bit_flip_fails_crc() {
        let mut blob = sample_blob();
        // Offset 11 is inside section 1's payload (6 header + 5 section
        // header).
        blob[11] ^= 0x01;
        let mut r = SnapshotReader::new(&blob).unwrap();
        assert_eq!(r.section(1).unwrap_err(), SnapshotError::CrcMismatch { tag: 1 });
    }

    #[test]
    fn wrong_tag_rejected() {
        let blob = sample_blob();
        let mut r = SnapshotReader::new(&blob).unwrap();
        assert_eq!(
            r.section(9).unwrap_err(),
            SnapshotError::UnexpectedSection { expected: 9, found: 1 }
        );
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        let blob = sample_blob();
        for cut in 0..blob.len() {
            let short = &blob[..cut];
            let outcome = SnapshotReader::new(short).and_then(|mut r| {
                let mut s = r.section(1)?;
                let _ = s.take_u64()?;
                let _ = s.take_f64()?;
                let _ = s.take_opt_f64()?;
                let _ = s.take_opt_f64()?;
                let _ = s.take_str()?;
                let _ = s.take_bool()?;
                let _ = s.take_bytes()?;
                s.end()?;
                let mut s = r.section(2)?;
                let _ = s.take_u32()?;
                s.end()?;
                r.finish()
            });
            assert!(outcome.is_err(), "truncation at {cut} slipped through");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut blob = sample_blob();
        blob.push(0);
        let mut r = SnapshotReader::new(&blob).unwrap();
        let _ = r.section(1).unwrap();
        let _ = r.section(2).unwrap();
        assert_eq!(r.finish().unwrap_err(), SnapshotError::TrailingBytes);
    }

    #[test]
    fn count_guard_rejects_implausible_lengths() {
        let mut w = SnapshotWriter::new();
        w.section(3, |s| s.put_usize(usize::MAX / 2));
        let blob = w.finish();
        let mut r = SnapshotReader::new(&blob).unwrap();
        let mut s = r.section(3).unwrap();
        assert_eq!(s.take_count(8).unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn framed_roundtrip_preserves_bytes() {
        let blob = sample_blob();
        let mut wire = Vec::new();
        write_framed(&mut wire, &blob).unwrap();
        let mut cursor = &wire[..];
        let back = read_framed(&mut cursor, 1 << 20).unwrap();
        assert_eq!(back, blob);
        assert!(cursor.is_empty(), "frame left bytes on the stream");
        // An empty payload frames cleanly too.
        let mut wire = Vec::new();
        write_framed(&mut wire, &[]).unwrap();
        assert_eq!(read_framed(&mut &wire[..], 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn framed_bad_magic_rejected() {
        let mut wire = Vec::new();
        write_framed(&mut wire, b"payload").unwrap();
        wire[0] ^= 0x20;
        assert!(matches!(read_framed(&mut &wire[..], 1 << 20), Err(FrameError::BadMagic)));
    }

    #[test]
    fn framed_bit_flip_fails_crc() {
        let mut wire = Vec::new();
        write_framed(&mut wire, b"payload").unwrap();
        // Flip a payload bit (offset 12 = 4 magic + 8 length).
        wire[12] ^= 0x01;
        assert!(matches!(read_framed(&mut &wire[..], 1 << 20), Err(FrameError::CrcMismatch)));
    }

    #[test]
    fn framed_truncation_anywhere_is_io_eof() {
        let mut wire = Vec::new();
        write_framed(&mut wire, b"payload").unwrap();
        for cut in 0..wire.len() {
            match read_framed(&mut &wire[..cut], 1 << 20) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
                }
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn framed_length_bound_enforced() {
        let mut wire = Vec::new();
        write_framed(&mut wire, &[0u8; 64]).unwrap();
        match read_framed(&mut &wire[..], 63) {
            Err(FrameError::TooLarge { declared: 64, max: 63 }) => {}
            other => panic!("bound not enforced: {other:?}"),
        }
        // A corrupt length field hits the bound before any allocation.
        wire[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_framed(&mut &wire[..], 1 << 20),
            Err(FrameError::TooLarge { declared: u64::MAX, .. })
        ));
    }

    #[test]
    fn frame_errors_display() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        for e in [
            FrameError::Io(eof),
            FrameError::BadMagic,
            FrameError::TooLarge { declared: 9, max: 8 },
            FrameError::CrcMismatch,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// The byte-at-a-time CRC32 definition: the differential reference
    /// for the table fold.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &CRC_TABLES[0];
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::rng::SimRng::seed_from(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical zlib check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_table_zero_is_the_bytewise_table() {
        // Spot values of the reflected 0xEDB88320 table.
        assert_eq!(CRC_TABLES[0][1], 0x7707_3096);
        assert_eq!(CRC_TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn crc32_matches_bytewise_at_every_short_length_and_offset() {
        let data = seeded_bytes(64 + 8, 0xC3C3);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "len {len} at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bytewise_on_a_snapshot_sized_buffer() {
        let data = seeded_bytes(300 * 1024, 42);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    /// Checks the folded CRC against the table fold on one input, each
    /// called directly, and the dispatching [`crc32_fold`] against both.
    fn assert_folds_agree(crc: u32, bytes: &[u8], what: &str) {
        let table = crc32_fold_table(crc, bytes);
        let folded = crc32_fold_clmul(crc, bytes);
        if bytes.len() >= clmul_block() {
            assert_eq!(folded, Some(table), "{what}");
        } else {
            assert_eq!(folded, None, "{what}: shorter than a block");
        }
        assert_eq!(crc32_fold(crc, bytes), table, "{what}");
    }

    /// The shortest input the folded CRC takes on this machine. On
    /// x86-64 the CPU must have the instructions, so that these tests
    /// never pass by comparing the table fold with itself.
    #[cfg(target_arch = "x86_64")]
    fn clmul_block() -> usize {
        assert!(
            is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"),
            "this x86-64 CPU lacks PCLMULQDQ or SSE4.1, so the folded CRC cannot be tested here"
        );
        clmul::BLOCK
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn clmul_block() -> usize {
        usize::MAX
    }

    #[test]
    fn folded_crc_matches_the_table_fold_at_every_length_and_offset() {
        let data = seeded_bytes(1100 + 16, 0xF01D);
        for offset in 0..16 {
            for len in 0..=1100 {
                let slice = &data[offset..offset + len];
                assert_folds_agree(!0, slice, &format!("len {len} at offset {offset}"));
            }
        }
    }

    #[test]
    fn folded_crc_matches_the_table_fold_on_seeded_lengths_up_to_1_mib() {
        let data = seeded_bytes((1 << 20) + 16, 0x5EED);
        let mut rng = crate::rng::SimRng::seed_from(0x1E47);
        let mut lens = vec![1 << 20, (1 << 20) - 1, 298_240, 64 * 1024 + 15];
        for _ in 0..24 {
            // Log-uniform, so every scale from a few blocks to 1 MiB shows.
            let bits = 6 + rng.uniform_usize(15);
            lens.push(rng.uniform_usize(1 << bits).max(64));
        }
        for len in lens {
            let offset = rng.uniform_usize(16);
            let crc = rng.next_u32();
            assert_folds_agree(crc, &data[offset..offset + len], &format!("len {len}"));
        }
    }

    #[test]
    fn folded_crc_chained_over_mixed_pieces_matches_one_pass() {
        // As `section_crc_digest` and the writer's sections do: the
        // register carried across pieces short of a block, whole blocks,
        // and lengths that leave a partial 16-byte chunk.
        let data = seeded_bytes(16 * 1024, 0xC4A1);
        let fixed = [3, 64, 100, 17, 200, 63, 128, 1000, 5, 65, 4, 4, 4, 79, 4096];
        let mut rng = crate::rng::SimRng::seed_from(0xC4A2);
        let mut plans: Vec<Vec<usize>> = vec![fixed.to_vec()];
        for _ in 0..50 {
            plans.push((0..20).map(|_| rng.uniform_usize(300)).collect());
        }
        for (p, plan) in plans.iter().enumerate() {
            let mut crc = !0u32;
            let mut at = 0;
            for &piece in plan {
                let end = (at + piece).min(data.len());
                assert_folds_agree(crc, &data[at..end], &format!("plan {p} piece at {at}"));
                crc = crc32_fold(crc, &data[at..end]);
                at = end;
            }
            assert_eq!(!crc, crc32_bytewise(&data[..at]), "plan {p}");
        }
    }

    #[test]
    fn folded_crc_gives_the_check_value() {
        assert_eq!(!crc32_fold_table(!0, b"123456789"), 0xCBF4_3926);
        // The vector eight times over is long enough to take the folded
        // path: both folds and the byte-wise definition agree on it, and
        // chaining the vector onto it folds the same register.
        let long = b"123456789".repeat(8);
        assert_folds_agree(!0, &long, "123456789 x8");
        assert_eq!(crc32(&long), crc32_bytewise(&long));
        let reg = crc32_fold(!0, &long);
        assert_eq!(!crc32_fold(reg, b"123456789"), crc32_bytewise(&b"123456789".repeat(9)));
    }

    #[test]
    fn put_nested_equals_put_bytes_of_the_finished_blob() {
        let fill = |w: &mut SnapshotWriter| {
            w.section(7, |s| {
                s.put_u64(99);
                s.put_str("inner");
            });
            w.section(8, |s| s.put_bytes(&[1, 2, 3]));
        };
        let mut standalone = SnapshotWriter::new();
        fill(&mut standalone);
        let inner = standalone.finish();

        let mut two_step = SnapshotWriter::new();
        two_step.section(1, |s| {
            s.put_u8(5);
            s.put_bytes(&inner);
            s.put_u8(6);
        });
        let mut nested = SnapshotWriter::new();
        nested.section(1, |s| {
            s.put_u8(5);
            s.put_nested(fill);
            s.put_u8(6);
        });
        assert_eq!(nested.finish(), two_step.finish());

        // An empty nested container is just the header.
        let mut w = SnapshotWriter::new();
        w.section(3, |s| s.put_nested(|_| ()));
        let blob = w.finish();
        let mut r = SnapshotReader::new(&blob).unwrap();
        let mut s = r.section(3).unwrap();
        let back = s.take_bytes().unwrap();
        s.end().unwrap();
        assert_eq!(back, SnapshotWriter::new().finish());
    }

    #[test]
    fn errors_display() {
        for e in [
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion { found: 2, supported: 1 },
            SnapshotError::Truncated,
            SnapshotError::CrcMismatch { tag: 1 },
            SnapshotError::UnexpectedSection { expected: 1, found: 2 },
            SnapshotError::TrailingBytes,
            SnapshotError::Invalid("x"),
            SnapshotError::Unsupported("y"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
