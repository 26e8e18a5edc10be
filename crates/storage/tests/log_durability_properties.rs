//! Property tests for the log stream's durability contract under arbitrary
//! append / sync / crash / truncate histories: what was synced and not yet
//! freed is always readable byte-exactly at its original offset; what
//! wasn't synced may vanish at a crash but never corrupts; what was freed
//! is refused, never skipped.

use pmp_common::{Lsn, PmpError, StorageLatencyConfig};
use pmp_storage::LogStream;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum LogOp {
    Append(Vec<u8>),
    Sync,
    Crash,
    /// Storage checkpoint at this LSN (may lie past the durable watermark).
    Truncate(u64),
}

fn op_strategy() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        4 => proptest::collection::vec(any::<u8>(), 1..40).prop_map(LogOp::Append),
        2 => Just(LogOp::Sync),
        1 => Just(LogOp::Crash),
        1 => (0u64..1_500).prop_map(LogOp::Truncate),
    ]
}

proptest! {
    #[test]
    fn synced_data_survives_any_history(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let stream = LogStream::new(StorageLatencyConfig::disabled());
        // The model: bytes we know to be durable, plus the pending tail.
        let mut durable: Vec<u8> = Vec::new();
        let mut pending: Vec<u8> = Vec::new();
        // First byte the stream still holds; `durable[..start]` is freed.
        let mut start = 0usize;

        for op in &ops {
            match op {
                LogOp::Append(bytes) => {
                    let lsn = stream.append(bytes);
                    prop_assert_eq!(
                        lsn.0 as usize,
                        durable.len() + pending.len(),
                        "LSN must be the byte offset"
                    );
                    pending.extend_from_slice(bytes);
                }
                LogOp::Sync => {
                    stream.sync();
                    durable.append(&mut pending);
                }
                LogOp::Crash => {
                    stream.crash();
                    pending.clear();
                }
                LogOp::Truncate(at) => {
                    start = start.max((*at as usize).min(durable.len()));
                    prop_assert_eq!(
                        stream.truncate_below(Lsn(*at)).0 as usize,
                        start,
                        "a cut frees up to the durable watermark, never back"
                    );
                }
            }
            // Invariants after every step:
            prop_assert_eq!(stream.durable_lsn().0 as usize, durable.len());
            prop_assert_eq!(
                stream.end_lsn().0 as usize,
                durable.len() + pending.len()
            );
            prop_assert_eq!(stream.start_lsn().0 as usize, start);
            prop_assert!(stream.start_lsn() <= stream.checkpoint());
            prop_assert!(stream.checkpoint() <= stream.durable_lsn());
            let chunk = stream.read_chunk(Lsn(start as u64), usize::MAX).unwrap();
            prop_assert_eq!(chunk.start.0 as usize, start, "LSN stays the offset");
            prop_assert_eq!(
                &chunk.data[..], &durable[start..],
                "durable reads must be byte-exact"
            );
            if start > 0 {
                let below = Lsn(start as u64 - 1);
                prop_assert_eq!(
                    stream.read_chunk(below, usize::MAX).unwrap_err(),
                    PmpError::LogTruncated { requested: below, start: Lsn(start as u64) }
                );
            }
        }
    }

    #[test]
    fn chunked_reads_reassemble_the_stream(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..30), 1..40
        ),
        chunk_size in 1usize..64,
    ) {
        let stream = LogStream::new(StorageLatencyConfig::disabled());
        let mut expected = Vec::new();
        for rec in &records {
            stream.append(rec);
            expected.extend_from_slice(rec);
        }
        stream.sync();

        let mut reassembled = Vec::new();
        let mut pos = Lsn::ZERO;
        loop {
            let chunk = stream.read_chunk(pos, chunk_size).unwrap();
            if chunk.is_empty() {
                break;
            }
            prop_assert_eq!(chunk.start, pos, "chunks must be contiguous");
            reassembled.extend_from_slice(&chunk.data);
            pos = chunk.end;
        }
        prop_assert_eq!(reassembled, expected);
    }

    #[test]
    fn checkpoint_never_regresses_or_exceeds_durable(
        points in proptest::collection::vec((any::<bool>(), 1u64..50), 1..30)
    ) {
        let stream = LogStream::new(StorageLatencyConfig::disabled());
        let mut best = 0u64;
        for (sync_first, len) in points {
            stream.append(&vec![0u8; len as usize]);
            if sync_first {
                stream.sync();
                let durable = stream.durable_lsn();
                stream.set_checkpoint(durable, 0);
                best = best.max(durable.0);
            }
            prop_assert_eq!(stream.checkpoint().0, best, "monotone checkpoint");
            prop_assert!(stream.checkpoint() <= stream.durable_lsn());
        }
    }
}
