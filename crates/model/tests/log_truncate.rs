//! Scenario: a redo stream that is cut while it is written, synced and read.
//!
//! Drives the real `pmp_storage::LogStream`. Four threads interleave at
//! every acquisition of the stream's lock:
//!
//! * **writer** reserves and fills three records; each gives the tail of
//!   its reservation back (`fill_prefix`), so a dead range follows every
//!   record;
//! * **syncer** moves the durable watermark;
//! * **truncator** plays the storage checkpoint: it frees everything below
//!   the watermark it last saw, twice;
//! * **reader** is a log shipper: it takes a hold, gather-reads from the
//!   hold's position on, checks what it got and moves the hold forward.
//!
//! Invariants: a read returns exactly the stored bytes, in order — none
//! from below the start, none from a dead range; `start ≤ checkpoint ≤
//! durable ≤ end` at every step; the start never passes the live hold; and
//! once everything is quiet, everything synced above the reader's position
//! is still readable, so the reader ends up with every record whole.
//!
//! Negative control: the same reader *without* the hold. Nothing then stops
//! the truncator from overtaking it, and its next read — positioned below
//! the start — fails with the typed `LogTruncated` error (never a silent
//! skip, which would show up as missing bytes instead).

#![cfg(feature = "model")]

use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex};
use pmp_common::{Lsn, StorageLatencyConfig};
use pmp_model::{render_trace, replay, spawn, Explorer, Failure, Mode, DEFAULT_MAX_STEPS};
use pmp_storage::LogStream;

const FINISHED: LockClass = LockClass::new("model.logcut.finished");

const RECORDS: u8 = 3;
/// Reserved and stored bytes of one record.
const RESERVED: usize = 8;
const STORED: usize = 5;

/// Failing schedule of the no-hold reader, shrunk with `minimize` (see
/// `print_minimized_seed`): the reader finds the start and reads an empty
/// log, then the log fills, syncs and is cut, and the reader comes back to
/// a position that no longer exists. The same seed passes with the hold in
/// place.
const REPLAY_SEED: &[u8] = &[3, 3];

/// The stored bytes at LSNs in `[from, to)`: record `i` (from 1) owns the
/// `RESERVED` bytes from `(i-1)·RESERVED` and stores `i` in the first
/// `STORED` of them; the rest is its dead range.
fn stored_between(from: Lsn, to: Lsn) -> Vec<u8> {
    (from.0..to.0)
        .filter(|lsn| (lsn % RESERVED as u64) < STORED as u64)
        .map(|lsn| (lsn / RESERVED as u64) as u8 + 1)
        .collect()
}

fn assert_ordered(stream: &LogStream) {
    // Each value only ever grows, so reading them left to right keeps
    // every inequality that held at any single instant.
    let (start, checkpoint) = (stream.start_lsn(), stream.checkpoint());
    let (durable, end) = (stream.durable_lsn(), stream.end_lsn());
    assert!(
        start <= checkpoint && checkpoint <= durable && durable <= end,
        "start {start} ≤ checkpoint {checkpoint} ≤ durable {durable} ≤ end {end}"
    );
}

fn scenario(with_hold: bool) {
    let stream = Arc::new(LogStream::new(StorageLatencyConfig::disabled()));
    let finished = Arc::new((TrackedMutex::new(FINISHED, 0u32), TrackedCondvar::new()));
    let finish = |finished: &(TrackedMutex<u32>, TrackedCondvar)| {
        *finished.0.lock() += 1;
        finished.1.notify_all();
    };

    {
        let (stream, finished) = (Arc::clone(&stream), Arc::clone(&finished));
        spawn("writer", move || {
            for i in 1..=RECORDS {
                let r = stream.reserve(RESERVED);
                stream.fill_prefix(r, &[i; STORED], STORED);
            }
            finish(&finished);
        });
    }
    {
        let (stream, finished) = (Arc::clone(&stream), Arc::clone(&finished));
        spawn("syncer", move || {
            for _ in 0..2 {
                stream.sync_uncharged();
                assert_ordered(&stream);
            }
            finish(&finished);
        });
    }
    {
        let (stream, finished) = (Arc::clone(&stream), Arc::clone(&finished));
        spawn("truncator", move || {
            for _ in 0..2 {
                let at = stream.durable_lsn();
                let start = stream.truncate_below(at);
                assert!(start <= at);
                assert_ordered(&stream);
            }
            finish(&finished);
        });
    }

    // The reader outlives the scenario's other threads: it does the final,
    // quiet read too.
    spawn("reader", move || {
        // A shipper starts where the log does — pinned there, or not.
        let hold = with_hold.then(|| stream.hold());
        let from = hold
            .as_ref()
            .map_or_else(|| stream.start_lsn(), |h| h.lsn());
        let mut pos = from;
        let mut got: Vec<u8> = Vec::new();
        let read = |pos: &mut Lsn, got: &mut Vec<u8>| {
            let chunk = stream
                .read_gather_uncharged(*pos, 7)
                .expect("the reader was overtaken by a truncation");
            got.extend_from_slice(&chunk.data);
            *pos = chunk.end;
            assert_eq!(
                *got,
                stored_between(from, *pos),
                "a read returned bytes that were never stored, or skipped some"
            );
            if let Some(hold) = &hold {
                hold.advance(*pos);
                assert!(stream.start_lsn() <= hold.lsn(), "the start passed a hold");
            }
            chunk.data.len()
        };
        for _ in 0..2 {
            read(&mut pos, &mut got);
            assert_ordered(&stream);
        }
        let (count, cv) = &*finished;
        let mut done = count.lock();
        while *done < 3 {
            cv.wait(&mut done);
        }
        drop(done);
        // Everything is written; whatever is synced above the reader's
        // position must still be there.
        let durable = stream.sync_uncharged();
        assert_eq!(durable, Lsn((RECORDS as usize * RESERVED) as u64));
        while read(&mut pos, &mut got) > 0 {}
        assert_eq!(pos, durable);
    });
}

#[test]
fn truncation_never_overtakes_a_hold() {
    for mode in [
        Mode::Random {
            seed: 0x10c,
            schedules: 400,
        },
        Mode::Pct {
            seed: 0x10c,
            depth: 3,
            schedules: 400,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(|| scenario(true));
        assert!(
            out.failure.is_none(),
            "{mode:?}: a held stream broke an invariant:\n{}",
            render_trace(&out.failure.unwrap().result)
        );
    }
}

#[test]
fn without_the_hold_the_reader_is_overtaken() {
    for mode in [
        Mode::Random {
            seed: 11,
            schedules: 400,
        },
        Mode::Pct {
            seed: 11,
            depth: 2,
            schedules: 400,
        },
    ] {
        let out = Explorer::new(mode.clone()).explore(|| scenario(false));
        let found = out
            .failure
            .unwrap_or_else(|| panic!("{mode:?} must find the overtaking cut"));
        match &found.result.failure {
            Some(Failure::Panic { message, .. }) => assert!(
                message.contains("overtaken by a truncation"),
                "got: {message}"
            ),
            other => panic!("expected the typed truncation error, got {other:?}"),
        }
        let res = replay(&found.schedule, DEFAULT_MAX_STEPS, || scenario(false));
        assert!(matches!(res.failure, Some(Failure::Panic { .. })));
    }
}

#[test]
fn checked_in_seed_reproduces_the_overtaking_cut() {
    let res = replay(REPLAY_SEED, DEFAULT_MAX_STEPS, || scenario(false));
    match &res.failure {
        Some(Failure::Panic { message, .. }) => assert!(
            message.contains("overtaken by a truncation") && message.contains("LogTruncated"),
            "got: {message}"
        ),
        other => panic!(
            "replay seed lost the race (failure={other:?}):\n{}",
            render_trace(&res)
        ),
    }
    let res = replay(REPLAY_SEED, DEFAULT_MAX_STEPS, || scenario(true));
    assert!(
        res.failure.is_none(),
        "the seed must pass with the hold in place:\n{}",
        render_trace(&res)
    );
}

#[test]
#[ignore = "longer randomized sweep; run explicitly with --ignored"]
fn long_randomized_sweep() {
    let expl = Explorer::new(Mode::Random {
        seed: 0x10cc,
        schedules: 20_000,
    });
    assert!(expl.explore(|| scenario(true)).failure.is_none());
}

#[test]
#[ignore = "prints a minimized failing schedule for REPLAY_SEED"]
fn print_minimized_seed() {
    let out = Explorer::new(Mode::Random {
        seed: 11,
        schedules: 400,
    })
    .explore(|| scenario(false));
    let found = out.failure.expect("a failing schedule");
    let kind = found.result.failure.as_ref().unwrap().kind();
    let seed = pmp_model::minimize(&found.schedule, kind, DEFAULT_MAX_STEPS, || scenario(false));
    println!("REPLAY_SEED = {seed:?}");
}
