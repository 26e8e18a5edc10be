//! Shared-storage compression layer (PolarStore-style; DESIGN.md §16).
//!
//! Two codecs behind one [`Codec`] facade, both dependency-free:
//!
//! * `Lz4Like` — an LZ4-class block format: LZ77 sequences of
//!   `(literal run, match offset, match length)` found with a hash-chained
//!   single-probe match table. Offsets reach back at most 64 KiB.
//! * `DictLike` — the same format with the match window pre-seeded by a
//!   static dictionary of common page-image byte patterns, so small images
//!   compress from their first byte (offsets may land inside the
//!   dictionary; the decoder seeds its output window identically).
//!
//! On top of the block codec sits the **slotted page codec** ([`PageSlot`]):
//! a stored page is a compressed base image plus a small *uncompressed delta
//! region*. In-place updates append splice deltas (offset, removed-length,
//! inserted-bytes against the materialized image) instead of recompressing
//! the whole page; when the region's byte budget overflows, the slot
//! recompresses from the current image and the region empties. The slot's
//! `base + deltas` bytes are the page's authoritative *physical* size — the
//! number the byte-bandwidth cost model charges.

use pmp_common::{Compression, PmpError, Result};

/// Minimum match length the block format encodes.
const MIN_MATCH: usize = 4;
/// Maximum backward offset a sequence can reference (u16 on the wire).
const MAX_OFFSET: usize = 65_535;
/// Match-table size; single-probe, so this bounds compression effort.
const HASH_BITS: u32 = 13;

/// Static dictionary for [`Compression::DictLike`]: runs and ramps that
/// dominate encoded page images (zero padding, 0xFF sentinels, small
/// little-endian integers with zero high bytes, ascending key bytes).
fn dictionary() -> &'static [u8] {
    const DICT_LEN: usize = 1024;
    static DICT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    DICT.get_or_init(|| {
        let mut d = Vec::with_capacity(DICT_LEN);
        // 0x00 runs: zero-padded high bytes of small LE u32/u64 fields.
        d.resize(384, 0x00);
        // 0xFF runs: NULL/sentinel fields and full bitmaps.
        d.resize(512, 0xFF);
        // Interleaved small-int patterns: `xx 00 00 00` LE words.
        for i in 0..64u8 {
            d.extend_from_slice(&[i, 0, 0, 0]);
        }
        // Ascending byte ramps: dense key prefixes.
        for i in 0..128u8 {
            d.push(i);
        }
        // Repeating 8-byte stride (row headers of equal-width rows).
        for i in 0..16u8 {
            d.extend_from_slice(&[1, i, 0, 0, 0, 0, 0, 0]);
        }
        debug_assert_eq!(d.len(), DICT_LEN);
        d
    })
}

fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

fn word_at(s: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([s[i], s[i + 1], s[i + 2], s[i + 3]])
}

/// Append an LZ4-style length: `first` is the 4-bit token nibble, the rest
/// continues in 255-saturated extension bytes.
fn put_len(out: &mut Vec<u8>, mut extra: usize) {
    loop {
        if extra >= 255 {
            out.push(255);
            extra -= 255;
        } else {
            out.push(extra as u8);
            return;
        }
    }
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], match_len: usize, offset: usize) {
    debug_assert!(match_len >= MIN_MATCH && offset >= 1 && offset <= MAX_OFFSET);
    let lit_nibble = literals.len().min(15);
    let m = match_len - MIN_MATCH;
    let match_nibble = m.min(15);
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        put_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if match_nibble == 15 {
        put_len(out, m - 15);
    }
}

/// Final literals-only sequence (no offset follows; the decoder detects the
/// end of the compressed stream after copying the literals).
fn emit_final(out: &mut Vec<u8>, literals: &[u8]) {
    if literals.is_empty() {
        return;
    }
    let lit_nibble = literals.len().min(15);
    out.push((lit_nibble as u8) << 4);
    if lit_nibble == 15 {
        put_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// Compress `input` with the match window seeded by `history` (empty for
/// `Lz4Like`, the static dictionary for `DictLike`). Output never includes
/// history bytes; matches may reach back into them.
fn compress_with_history(history: &[u8], input: &[u8]) -> Vec<u8> {
    let mut src = Vec::with_capacity(history.len() + input.len());
    src.extend_from_slice(history);
    src.extend_from_slice(input);
    let start = history.len();
    let end = src.len();
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Positions are stored +1 so 0 means empty.
    let mut table = vec![0u32; 1 << HASH_BITS];
    if history.len() >= MIN_MATCH {
        for i in 0..=history.len() - MIN_MATCH {
            table[hash4(word_at(&src, i))] = (i + 1) as u32;
        }
    }
    let mut pos = start;
    let mut lit_start = start;
    while pos + MIN_MATCH <= end {
        let h = hash4(word_at(&src, pos));
        let cand = table[h] as usize;
        table[h] = (pos + 1) as u32;
        if cand > 0 {
            let cand = cand - 1;
            let offset = pos - cand;
            if offset >= 1 && offset <= MAX_OFFSET && word_at(&src, cand) == word_at(&src, pos) {
                let mut len = MIN_MATCH;
                while pos + len < end && src[cand + len] == src[pos + len] {
                    len += 1;
                }
                emit_sequence(&mut out, &src[lit_start..pos], len, offset);
                pos += len;
                lit_start = pos;
                continue;
            }
        }
        pos += 1;
    }
    emit_final(&mut out, &src[lit_start..end]);
    out
}

/// Decompress `comp` into exactly `raw_len` bytes, the output window seeded
/// with `history`. Panic-free on arbitrary (torn/corrupt) input.
fn decompress_with_history(history: &[u8], comp: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let corrupt = || PmpError::internal("corrupt compressed block");
    let mut out = Vec::with_capacity(history.len() + raw_len);
    out.extend_from_slice(history);
    let limit = history.len() + raw_len;
    let mut i = 0usize;
    let read_len = |comp: &[u8], i: &mut usize, nibble: usize| -> Result<usize> {
        let mut len = nibble;
        if nibble == 15 {
            loop {
                let b = *comp.get(*i).ok_or_else(corrupt)?;
                *i += 1;
                len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        Ok(len)
    };
    while i < comp.len() {
        let token = comp[i];
        i += 1;
        let lit = read_len(comp, &mut i, (token >> 4) as usize)?;
        let lit_end = i.checked_add(lit).ok_or_else(corrupt)?;
        if lit_end > comp.len() || out.len() + lit > limit {
            return Err(corrupt());
        }
        out.extend_from_slice(&comp[i..lit_end]);
        i = lit_end;
        if i >= comp.len() {
            break; // final literals-only sequence
        }
        if i + 2 > comp.len() {
            return Err(corrupt());
        }
        let offset = u16::from_le_bytes([comp[i], comp[i + 1]]) as usize;
        i += 2;
        let match_len = MIN_MATCH + read_len(comp, &mut i, (token & 0x0f) as usize)?;
        if offset == 0 || offset > out.len() || out.len() + match_len > limit {
            return Err(corrupt());
        }
        let from = out.len() - offset;
        // Byte-at-a-time: overlapping matches (RLE-style) must see the
        // bytes the copy itself produces.
        for k in 0..match_len {
            let b = out[from + k];
            out.push(b);
        }
    }
    let body = out.split_off(history.len());
    if body.len() != raw_len {
        return Err(corrupt());
    }
    Ok(body)
}

/// The block-codec facade. `Off` is a bit-for-bit passthrough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codec {
    kind: Compression,
}

impl Codec {
    pub fn new(kind: Compression) -> Self {
        Codec { kind }
    }

    pub fn kind(&self) -> Compression {
        self.kind
    }

    /// Compress `raw`. For `Off` this is an exact copy.
    pub fn compress(&self, raw: &[u8]) -> Vec<u8> {
        match self.kind {
            Compression::Off => raw.to_vec(),
            Compression::Lz4Like => compress_with_history(&[], raw),
            Compression::DictLike => compress_with_history(dictionary(), raw),
        }
    }

    /// Invert [`Codec::compress`]; `raw_len` is the expected output size.
    /// Errors (never panics) on torn or corrupt input.
    pub fn decompress(&self, comp: &[u8], raw_len: usize) -> Result<Vec<u8>> {
        match self.kind {
            Compression::Off => {
                if comp.len() != raw_len {
                    return Err(PmpError::internal("corrupt compressed block"));
                }
                Ok(comp.to_vec())
            }
            Compression::Lz4Like => decompress_with_history(&[], comp, raw_len),
            Compression::DictLike => decompress_with_history(dictionary(), comp, raw_len),
        }
    }
}

/// Pages whose bytes the storage layer can see. The codec layer compresses
/// the *storage image* — the page's durable byte encoding — not the
/// in-memory struct.
pub trait StorageImage {
    fn storage_image(&self) -> Vec<u8>;

    /// Monotone version of the image (the engine's page LLSN): the page
    /// store drops a write whose version is below what it already holds.
    /// 0 — the default, for payloads with no version — always replaces.
    fn version(&self) -> u64 {
        0
    }
}

impl StorageImage for Vec<u8> {
    fn storage_image(&self) -> Vec<u8> {
        self.clone()
    }
}

impl StorageImage for String {
    fn storage_image(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
}

/// What a slot write did, for stats and codec-CPU charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotWrite {
    /// Image below the compression threshold (or incompressible): stored raw.
    Raw,
    /// Fresh compressed base installed (first compressible write).
    Fresh,
    /// In-place update absorbed by the uncompressed delta region.
    Delta,
    /// Delta region overflowed: base recompressed from the current image.
    Recompress,
}

/// Outcome of a slot write: what happened plus how many raw bytes moved
/// through the codec (0 for `Raw`/`Delta` writes — that is the point).
#[derive(Debug, Clone, Copy)]
pub struct SlotOutcome {
    pub kind: SlotWrite,
    pub codec_raw_bytes: usize,
}

/// One splice delta: replace `removed` bytes at `offset` of the materialized
/// image with `inserted`. Encoded size is `12 + inserted.len()`.
#[derive(Debug, Clone)]
struct SpliceDelta {
    offset: usize,
    removed: usize,
    inserted: Vec<u8>,
}

impl SpliceDelta {
    fn encoded_len(&self) -> usize {
        12 + self.inserted.len()
    }
}

/// Shortest splice turning `old` into `new`: trim the common prefix and
/// suffix, replace what remains.
fn splice_between(old: &[u8], new: &[u8]) -> SpliceDelta {
    let max_prefix = old.len().min(new.len());
    let mut prefix = 0;
    while prefix < max_prefix && old[prefix] == new[prefix] {
        prefix += 1;
    }
    let max_suffix = max_prefix - prefix;
    let mut suffix = 0;
    while suffix < max_suffix && old[old.len() - 1 - suffix] == new[new.len() - 1 - suffix] {
        suffix += 1;
    }
    SpliceDelta {
        offset: prefix,
        removed: old.len() - prefix - suffix,
        inserted: new[prefix..new.len() - suffix].to_vec(),
    }
}

/// The slotted representation of one stored page: a (possibly compressed)
/// base image plus the uncompressed delta region. See the module docs.
#[derive(Debug, Clone)]
pub struct PageSlot {
    /// Whether `base` holds codec output (vs a raw image).
    compressed: bool,
    /// Raw length of the base image (needed to decompress).
    base_raw_len: usize,
    base: Vec<u8>,
    deltas: Vec<SpliceDelta>,
    delta_bytes: usize,
    /// Raw length of the current (post-delta) image.
    logical_len: usize,
}

impl PageSlot {
    /// Install the first image for a page.
    pub fn new(codec: &Codec, threshold: usize, image: Vec<u8>) -> (PageSlot, SlotOutcome) {
        let mut slot = PageSlot {
            compressed: false,
            base_raw_len: 0,
            base: Vec::new(),
            deltas: Vec::new(),
            delta_bytes: 0,
            logical_len: 0,
        };
        let outcome = slot.install_base(codec, threshold, image);
        (slot, outcome)
    }

    fn install_base(&mut self, codec: &Codec, threshold: usize, image: Vec<u8>) -> SlotOutcome {
        self.deltas.clear();
        self.delta_bytes = 0;
        self.base_raw_len = image.len();
        self.logical_len = image.len();
        if codec.kind() == Compression::Off || image.len() < threshold {
            self.compressed = false;
            self.base = image;
            return SlotOutcome {
                kind: SlotWrite::Raw,
                codec_raw_bytes: 0,
            };
        }
        let comp = codec.compress(&image);
        let codec_raw_bytes = image.len();
        if comp.len() >= image.len() {
            // Incompressible: storing raw is strictly better.
            self.compressed = false;
            self.base = image;
            return SlotOutcome {
                kind: SlotWrite::Raw,
                codec_raw_bytes,
            };
        }
        self.compressed = true;
        self.base = comp;
        SlotOutcome {
            kind: SlotWrite::Fresh,
            codec_raw_bytes,
        }
    }

    /// Write a new image for the page: absorb it into the delta region when
    /// it fits, otherwise recompress. The image to diff against is rebuilt
    /// from `base + deltas` — the slot keeps no second, raw copy of the
    /// page — and a slot that does not rebuild is recompressed.
    pub fn update(
        &mut self,
        codec: &Codec,
        threshold: usize,
        delta_budget: usize,
        image: Vec<u8>,
    ) -> SlotOutcome {
        if !self.compressed {
            // Raw slots have no delta region; re-evaluate compressibility.
            return self.install_base(codec, threshold, image);
        }
        let delta = self
            .materialize(codec)
            .ok()
            .map(|current| splice_between(&current, &image))
            .filter(|d| self.delta_bytes + d.encoded_len() <= delta_budget);
        if let Some(delta) = delta {
            self.delta_bytes += delta.encoded_len();
            self.deltas.push(delta);
            self.logical_len = image.len();
            debug_assert_eq!(
                self.materialize(codec).expect("slot materializes"),
                image,
                "delta region must reproduce the written image"
            );
            return SlotOutcome {
                kind: SlotWrite::Delta,
                codec_raw_bytes: 0,
            };
        }
        let out = self.install_base(codec, threshold, image);
        SlotOutcome {
            kind: if out.kind == SlotWrite::Fresh {
                SlotWrite::Recompress
            } else {
                out.kind
            },
            ..out
        }
    }

    /// Physical bytes this page occupies on storage: base plus delta region.
    pub fn physical_len(&self) -> usize {
        self.base.len() + self.delta_bytes
    }

    /// Raw length of the current (post-delta) image.
    pub fn logical_len(&self) -> usize {
        self.logical_len
    }

    /// Rebuild the current image from `base + deltas` — what a cold read
    /// off storage does.
    pub fn materialize(&self, codec: &Codec) -> Result<Vec<u8>> {
        let mut image = if self.compressed {
            codec.decompress(&self.base, self.base_raw_len)?
        } else {
            self.base.clone()
        };
        for d in &self.deltas {
            if d.offset + d.removed > image.len() {
                return Err(PmpError::internal("corrupt page-slot delta"));
            }
            image.splice(d.offset..d.offset + d.removed, d.inserted.iter().copied());
        }
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compressible(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i / 64) % 7) as u8).collect()
    }

    fn noisy(len: usize) -> Vec<u8> {
        // Deterministic xorshift noise — incompressible.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn roundtrip_all_codecs() {
        for kind in [
            Compression::Off,
            Compression::Lz4Like,
            Compression::DictLike,
        ] {
            let codec = Codec::new(kind);
            for data in [
                Vec::new(),
                b"abc".to_vec(),
                compressible(64 * 1024),
                noisy(8 * 1024),
                vec![0u8; 100_000],
            ] {
                let comp = codec.compress(&data);
                assert_eq!(codec.decompress(&comp, data.len()).unwrap(), data);
            }
        }
    }

    #[test]
    fn off_is_bit_for_bit_passthrough() {
        let codec = Codec::new(Compression::Off);
        let data = noisy(4096);
        assert_eq!(codec.compress(&data), data);
    }

    #[test]
    fn compressible_data_shrinks() {
        let codec = Codec::new(Compression::Lz4Like);
        let data = compressible(64 * 1024);
        let comp = codec.compress(&data);
        assert!(
            comp.len() * 4 < data.len(),
            "expected ≥4x on runs, got {} -> {}",
            data.len(),
            comp.len()
        );
    }

    #[test]
    fn dictionary_helps_small_zeroish_images() {
        let data = vec![0u8; 256];
        let plain = Codec::new(Compression::Lz4Like).compress(&data);
        let dict = Codec::new(Compression::DictLike).compress(&data);
        assert!(dict.len() <= plain.len());
        assert_eq!(
            Codec::new(Compression::DictLike)
                .decompress(&dict, data.len())
                .unwrap(),
            data
        );
    }

    #[test]
    fn torn_blocks_error_not_panic() {
        let codec = Codec::new(Compression::Lz4Like);
        let data = compressible(16 * 1024);
        let comp = codec.compress(&data);
        for cut in [0, 1, comp.len() / 2, comp.len() - 1] {
            let _ = codec.decompress(&comp[..cut], data.len());
        }
        // Arbitrary garbage must not panic either.
        let _ = codec.decompress(&noisy(512), 4096);
    }

    #[test]
    fn slot_delta_then_recompress() {
        let codec = Codec::new(Compression::Lz4Like);
        let base = compressible(16 * 1024);
        let (mut slot, out) = PageSlot::new(&codec, 512, base.clone());
        assert_eq!(out.kind, SlotWrite::Fresh);
        let compressed_len = slot.physical_len();
        assert!(compressed_len < base.len());

        // A small in-place update lands in the delta region.
        let mut v2 = base.clone();
        v2[1000..1008].copy_from_slice(b"ABCDEFGH");
        let out = slot.update(&codec, 512, 2048, v2.clone());
        assert_eq!(out.kind, SlotWrite::Delta);
        assert_eq!(out.codec_raw_bytes, 0);
        assert_eq!(slot.materialize(&codec).unwrap(), v2);
        assert!(slot.physical_len() > compressed_len);

        // Overflowing the budget forces a recompress and empties the region.
        let mut v3 = v2.clone();
        v3[..4096].copy_from_slice(&noisy(4096));
        let out = slot.update(&codec, 512, 2048, v3.clone());
        assert_eq!(out.kind, SlotWrite::Recompress);
        assert!(out.codec_raw_bytes > 0);
        assert_eq!(slot.materialize(&codec).unwrap(), v3);
    }

    #[test]
    fn slot_handles_length_changing_updates() {
        let codec = Codec::new(Compression::Lz4Like);
        let base = compressible(8 * 1024);
        let (mut slot, _) = PageSlot::new(&codec, 512, base.clone());
        let mut grown = base.clone();
        grown.splice(4000..4000, b"inserted-row".iter().copied());
        assert_eq!(
            slot.update(&codec, 512, 2048, grown.clone()).kind,
            SlotWrite::Delta
        );
        assert_eq!(slot.materialize(&codec).unwrap(), grown);
        assert_eq!(slot.logical_len(), grown.len());
        let mut shrunk = grown.clone();
        shrunk.drain(100..300);
        assert_eq!(
            slot.update(&codec, 512, 2048, shrunk.clone()).kind,
            SlotWrite::Delta
        );
        assert_eq!(slot.materialize(&codec).unwrap(), shrunk);
    }

    #[test]
    fn small_or_incompressible_images_stay_raw() {
        let codec = Codec::new(Compression::Lz4Like);
        let (slot, out) = PageSlot::new(&codec, 512, b"tiny".to_vec());
        assert_eq!(out.kind, SlotWrite::Raw);
        assert_eq!(slot.physical_len(), 4);
        let random = noisy(4 * 1024);
        let (slot, out) = PageSlot::new(&codec, 512, random.clone());
        assert_eq!(out.kind, SlotWrite::Raw);
        assert_eq!(slot.physical_len(), random.len());
        assert_eq!(slot.materialize(&codec).unwrap(), random);
    }
}
