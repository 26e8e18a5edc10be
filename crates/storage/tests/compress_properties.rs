//! Property tests for the compression layer: the codec round-trips
//! arbitrary bytes, and the page-slot delta machinery reproduces every
//! written image no matter how updates land (raw, fresh, delta,
//! recompress) or how small the thresholds and budgets are.

use pmp_common::Compression;
use pmp_storage::{Codec, PageSlot};
use proptest::prelude::*;

/// Page-like payloads: pure noise, pure runs, and structured repetition
/// (the compressible case the slotting layer is built for).
fn payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048),
        (1usize..2048, any::<u8>()).prop_map(|(n, b)| vec![b; n]),
        (1usize..64, proptest::collection::vec(any::<u8>(), 1..32))
            .prop_map(|(reps, unit)| unit.repeat(reps)),
    ]
}

fn kind() -> impl Strategy<Value = Compression> {
    prop_oneof![
        Just(Compression::Off),
        Just(Compression::Lz4Like),
        Just(Compression::DictLike),
    ]
}

/// One in-place page mutation, phrased relative to the previous image the
/// way the engine's row operations are.
#[derive(Clone, Debug)]
enum ImageOp {
    /// Overwrite a run of bytes in place (row update).
    Patch { at: usize, bytes: Vec<u8> },
    /// Append bytes (row insert at the tail).
    Grow(Vec<u8>),
    /// Drop a tail fraction (row deletes / page compaction).
    Shrink(usize),
    /// A whole new image (page reorganization).
    Replace(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = ImageOp> {
    prop_oneof![
        3 => (any::<usize>(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(at, bytes)| ImageOp::Patch { at, bytes }),
        2 => proptest::collection::vec(any::<u8>(), 1..128).prop_map(ImageOp::Grow),
        1 => any::<usize>().prop_map(ImageOp::Shrink),
        1 => payload().prop_map(ImageOp::Replace),
    ]
}

fn apply(prev: &[u8], op: &ImageOp) -> Vec<u8> {
    let mut next = prev.to_vec();
    match op {
        ImageOp::Patch { at, bytes } => {
            if next.is_empty() {
                return bytes.clone();
            }
            let at = at % next.len();
            for (i, b) in bytes.iter().enumerate() {
                if at + i < next.len() {
                    next[at + i] = *b;
                } else {
                    next.push(*b);
                }
            }
            next
        }
        ImageOp::Grow(bytes) => {
            next.extend_from_slice(bytes);
            next
        }
        ImageOp::Shrink(n) => {
            let keep = if next.is_empty() {
                0
            } else {
                n % (next.len() + 1)
            };
            next.truncate(keep);
            next
        }
        ImageOp::Replace(image) => image.clone(),
    }
}

proptest! {
    /// compress → decompress is the identity for every codec on every input.
    #[test]
    fn codec_round_trips_arbitrary_bytes(raw in payload(), kind in kind()) {
        let codec = Codec::new(kind);
        let comp = codec.compress(&raw);
        prop_assert_eq!(codec.decompress(&comp, raw.len()).unwrap(), raw);
    }

    /// A cold read (`materialize`: base + deltas) equals the
    /// last written image after any update history, for any codec,
    /// threshold and delta budget — and `Off` stays byte-for-byte raw.
    #[test]
    fn page_slot_reproduces_every_written_image(
        kind in kind(),
        threshold in 0usize..1024,
        budget in 0usize..1024,
        first in payload(),
        ops in proptest::collection::vec(op_strategy(), 0..16),
    ) {
        let codec = Codec::new(kind);
        let (mut slot, _) = PageSlot::new(&codec, threshold, first.clone());
        let mut current = first;
        prop_assert_eq!(slot.materialize(&codec).unwrap(), current.clone());
        prop_assert_eq!(slot.logical_len(), current.len());
        for op in &ops {
            current = apply(&current, op);
            slot.update(&codec, threshold, budget, current.clone());
            prop_assert_eq!(slot.materialize(&codec).unwrap(), current.clone());
            prop_assert_eq!(slot.logical_len(), current.len());
            if kind == Compression::Off {
                prop_assert_eq!(slot.physical_len(), current.len());
            }
        }
    }
}
