//! Per-node append-only log streams with explicit durability.
//!
//! An append returns the record's [`Lsn`] — which, exactly as in §4.4, *is*
//! the byte offset in the stream ("this LSN also serves as the offset within
//! the redo log file"). Data becomes durable only when [`LogStream::sync`]
//! (or [`LogStream::sync_to`]) returns; a crash discards the unsynced tail.
//!
//! Besides plain [`LogStream::append`], writers can split position
//! assignment from the byte copy: [`LogStream::reserve`] assigns a byte
//! range (cheap, done under the caller's ordering lock) and
//! [`LogStream::fill`] copies the encoded bytes in later, outside that
//! lock. The durability watermark never advances into an unfilled
//! reservation, so a crash still persists whole reservations or nothing —
//! the same atomic-group contract appenders had before.
//!
//! The stream also has a *beginning*: [`LogStream::truncate_below`] frees
//! every byte below a storage checkpoint (redo whose page effects a durable
//! page image already stands behind). LSNs stay absolute byte offsets across
//! a cut; a reader positioned below [`LogStream::start_lsn`] gets
//! [`PmpError::LogTruncated`], and a consumer that must not be overtaken (a
//! standby shipping the log) pins its position with a [`LogHold`].

use std::collections::VecDeque;
use std::sync::Arc;

use pmp_common::sync::{LockClass, TrackedCondvar, TrackedMutex};
use pmp_common::{Counter, Lsn, PmpError, Result, StorageLatencyConfig};
use pmp_rdma::precise_wait_ns;

/// Lock class for every stream's core state. One class for all streams:
/// stream cores never nest (each holds its own independent log file).
const LOG_INNER: LockClass = LockClass::new("storage.log.inner");

/// Fixed number of reservation slots per stream. Reservations are
/// short-lived (reserve → encode → fill, microseconds), so the ring bounds
/// only pathological pile-ups; `reserve` blocks charge-free when full.
const RESERVATION_SLOTS: usize = 1024;

/// The stream's bytes are held in fixed-size segments, so freeing a prefix
/// pops whole segments (no byte moves under the stream lock) and growing
/// never reallocates what is already written. A truncated stream keeps at
/// most the one segment its start falls in below that start.
pub const SEGMENT_BYTES: usize = 256 * 1024;

/// Lifecycle of one reservation slot in the fixed ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Reserved, bytes not yet copied in: blocks the durability watermark.
    Pending,
    /// Bytes copied in; the watermark may pass it.
    Filled,
    /// Given up without a fill (panic path); skipped by the watermark,
    /// recorded as a dead range for readers.
    Dead,
}

/// One entry of the reservation ring: the byte range it covers and whether
/// it has been filled. Slots are reused in FIFO order; `head`/`tail` are
/// monotone sequence numbers and `seq % RESERVATION_SLOTS` picks the slot.
#[derive(Clone, Copy, Debug)]
struct ReservationSlot {
    start: u64,
    state: SlotState,
}

impl ReservationSlot {
    const fn empty() -> Self {
        ReservationSlot {
            start: 0,
            state: SlotState::Filled,
        }
    }
}

/// The holes of a stream: `[start, end)` byte ranges that hold no stored
/// bytes, sorted by `start`, never overlapping (they can abut).
///
/// Every compressed redo group leaves one (the unwritten tail of its
/// worst-case reservation), so a long-running stream holds one entry per
/// commit or more and the container's footprint is resident memory that
/// grows with throughput. Ranges arrive almost in stream order — fills
/// complete in nearly the order they were reserved — which leaves the
/// leaves of a `BTreeMap` half full (36 B per entry measured); a sorted
/// `Vec` is 16 B per entry, an insert is a push or lands a few slots from
/// the end, and every lookup is one binary search.
#[derive(Debug, Default)]
struct DeadRanges(Vec<(u64, u64)>);

impl DeadRanges {
    /// Index of the first range starting at or after `pos`.
    fn idx_at_or_after(&self, pos: u64) -> usize {
        self.0.partition_point(|&(start, _)| start < pos)
    }

    /// Record `[start, end)`; a range already recorded at `start` is replaced.
    fn insert(&mut self, start: u64, end: u64) {
        if self.0.last().is_none_or(|&(last, _)| last < start) {
            self.0.push((start, end));
            return;
        }
        let i = self.idx_at_or_after(start);
        match self.0.get_mut(i) {
            Some(range) if range.0 == start => range.1 = end,
            _ => self.0.insert(i, (start, end)),
        }
    }

    /// The last range that starts below `pos`.
    fn last_starting_below(&self, pos: u64) -> Option<(u64, u64)> {
        self.idx_at_or_after(pos).checked_sub(1).map(|i| self.0[i])
    }

    /// Start of the first range at or after `pos` (`u64::MAX` if none).
    fn next_start(&self, pos: u64) -> u64 {
        self.0
            .get(self.idx_at_or_after(pos))
            .map_or(u64::MAX, |&(start, _)| start)
    }

    /// First position at or after `pos` that is outside every range, hopping
    /// over ranges that cover `pos` (they can abut). The `limit` clamp
    /// doubles as a progress guard: a range ending past the durable
    /// watermark must not spin a reader in place.
    fn next_live(&self, mut pos: u64, limit: u64) -> u64 {
        // "Starts below `pos + 1`": the last range starting at or before `pos`.
        while let Some((_, end)) = self.last_starting_below(pos.saturating_add(1)) {
            let next = end.min(limit);
            if next <= pos {
                break;
            }
            pos = next;
        }
        pos
    }

    /// Dead bytes below `to` in the ranges that start within `[from, to)`.
    fn bytes_within(&self, from: u64, to: u64) -> u64 {
        self.0[self.idx_at_or_after(from)..]
            .iter()
            .take_while(|&&(start, _)| start < to)
            .map(|&(start, end)| end.min(to) - start)
            .sum()
    }

    /// Forget every range that starts at or after `at`.
    fn truncate_from(&mut self, at: u64) {
        self.0.truncate(self.idx_at_or_after(at));
    }

    /// Forget everything below `cut`: ranges ending at or below it go, one
    /// straddling it keeps its part above.
    fn drop_below(&mut self, cut: u64) {
        let gone = self.0.partition_point(|&(_, end)| end <= cut);
        self.0.drain(..gone);
        if let Some(first) = self.0.first_mut() {
            first.0 = first.0.max(cut);
        }
    }

    /// Total bytes covered.
    fn total_bytes(&self) -> u64 {
        self.0.iter().map(|&(start, end)| end - start).sum()
    }
}

/// The retained bytes of a stream, `[base, end)`, in [`SEGMENT_BYTES`]
/// pieces. Positions are absolute LSNs; `base` is segment-aligned and at or
/// below the stream's start.
#[derive(Debug, Default)]
struct Segments {
    base: u64,
    segs: VecDeque<Box<[u8]>>,
    /// One past the last assigned byte: the next append/reserve position.
    end: u64,
}

impl Segments {
    /// Segment index and offset within it of `lsn` (at or above `base`).
    fn locate(&self, lsn: u64) -> (usize, usize) {
        let rel = (lsn - self.base) as usize;
        (rel / SEGMENT_BYTES, rel % SEGMENT_BYTES)
    }

    /// Assign the next `len` bytes, returning where they begin. Fresh
    /// segments come zeroed from the allocator; a tail reused after a crash
    /// keeps its old bytes, which nothing reads before they are rewritten
    /// (reads stop at the durable watermark and skip dead ranges).
    fn grow(&mut self, len: usize) -> u64 {
        let at = self.end;
        self.end += len as u64;
        while self.base + ((self.segs.len() * SEGMENT_BYTES) as u64) < self.end {
            self.segs
                .push_back(vec![0u8; SEGMENT_BYTES].into_boxed_slice());
        }
        at
    }

    fn write(&mut self, mut at: u64, mut bytes: &[u8]) {
        debug_assert!(at + bytes.len() as u64 <= self.end);
        while !bytes.is_empty() {
            let (seg, off) = self.locate(at);
            let n = bytes.len().min(SEGMENT_BYTES - off);
            self.segs[seg][off..off + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            at += n as u64;
        }
    }

    /// Append the bytes of `[from, to)` to `out`.
    fn read_into(&self, mut from: u64, to: u64, out: &mut Vec<u8>) {
        debug_assert!(self.base <= from && to <= self.end);
        while from < to {
            let (seg, off) = self.locate(from);
            let n = ((to - from) as usize).min(SEGMENT_BYTES - off);
            out.extend_from_slice(&self.segs[seg][off..off + n]);
            from += n as u64;
        }
    }

    /// Drop the tail at and above `end` (a crash), with its segments.
    fn cut_tail(&mut self, end: u64) {
        self.end = end;
        let keep = ((end - self.base) as usize).div_ceil(SEGMENT_BYTES);
        self.segs.truncate(keep);
    }

    /// Free every segment that lies wholly below `start`.
    fn free_below(&mut self, start: u64) {
        while self.base + SEGMENT_BYTES as u64 <= start {
            self.segs.pop_front();
            self.base += SEGMENT_BYTES as u64;
        }
    }
}

#[derive(Debug)]
struct LogInner {
    data: Segments,
    /// First retained byte: everything below was freed by
    /// [`LogStream::truncate_below`]. `start ≤ checkpoint ≤ durable ≤ end`.
    start: u64,
    durable: u64,
    /// Scan-start hint: recovery may start here *if* the volatile state it
    /// relied on (`checkpoint_relies_on`) still stands. Durable metadata,
    /// survives crashes like the log itself.
    checkpoint: u64,
    checkpoint_relies_on: u64,
    /// Highest position a storage checkpoint has covered. Above `start`
    /// only while a hold keeps the covered bytes from being freed.
    storage_checkpoint: u64,
    /// Positions of the live [`LogHold`]s, by hold id.
    holds: Vec<(u64, u64)>,
    next_hold: u64,
    /// Fixed ring of reservation slots. Reservations are created in stream
    /// order, so the oldest still-pending slot (at `head`, skipping filled
    /// and dead ones) starts exactly where the completed prefix ends —
    /// `completed()` is one array read instead of a BTreeSet min, and a
    /// reserve/fill pair allocates nothing.
    slots: Box<[ReservationSlot]>,
    /// Sequence number of the oldest outstanding reservation.
    head: u64,
    /// Sequence number the next reservation will get.
    tail: u64,
    /// Reserved ranges nobody wrote: the tail a `fill_prefix` gave back, or
    /// a whole reservation its owner dropped without filling (a panic
    /// between reserve and fill). The bytes stay zeroed and are never handed
    /// out by `read_chunk`, but they no longer block the durability
    /// watermark — one wedged writer must not stall group commit for the
    /// whole stream.
    dead: DeadRanges,
    /// Bumped by `crash()`; fills carrying an older epoch are dead — their
    /// reservation was truncated away, and a fresh reservation may already
    /// occupy the same offsets.
    epoch: u64,
}

impl Default for LogInner {
    fn default() -> Self {
        LogInner {
            data: Segments::default(),
            start: 0,
            durable: 0,
            checkpoint: 0,
            checkpoint_relies_on: 0,
            storage_checkpoint: 0,
            holds: Vec::new(),
            next_hold: 0,
            slots: vec![ReservationSlot::empty(); RESERVATION_SLOTS].into_boxed_slice(),
            head: 0,
            tail: 0,
            dead: DeadRanges::default(),
            epoch: 0,
        }
    }
}

impl LogInner {
    /// End of the completed prefix: every byte below it is filled (or dead).
    /// O(1): the head slot (first outstanding reservation) marks the end.
    fn completed(&self) -> u64 {
        if self.head == self.tail {
            self.data.end
        } else {
            self.slots[(self.head % RESERVATION_SLOTS as u64) as usize].start
        }
    }

    /// Retire the contiguous run of filled/dead slots at the ring's head.
    /// Amortised O(1): every slot is passed over exactly once.
    fn advance_head(&mut self) {
        while self.head < self.tail {
            let slot = self.slots[(self.head % RESERVATION_SLOTS as u64) as usize];
            if slot.state == SlotState::Pending {
                break;
            }
            self.head += 1;
        }
    }

    /// The crash-side cut shared by [`LogStream::crash`] and the injected
    /// tail loss: everything at and above `durable` is gone. Reservations
    /// live strictly above the watermark and die with the tail; the epoch
    /// bump makes their late fills (and drop glue) inert. Dead ranges below
    /// the watermark are durable holes and survive.
    fn cut_at_durable(&mut self) {
        let durable = self.durable;
        self.data.cut_tail(durable);
        self.head = self.tail; // retire every outstanding slot
        self.dead.truncate_from(durable);
        self.epoch += 1;
    }

    /// `from` as a read position: clamped to the durable watermark and
    /// moved past any dead range covering it. A position below the start
    /// names bytes that no longer exist.
    fn read_start(&self, from: Lsn) -> Result<u64> {
        if from.0 < self.start {
            return Err(PmpError::LogTruncated {
                requested: from,
                start: Lsn(self.start),
            });
        }
        Ok(self.dead.next_live(from.0.min(self.durable), self.durable))
    }
}

/// The mutable core of a stream, shared with outstanding reservations so
/// their drop glue can reach it.
#[derive(Debug)]
struct StreamState {
    inner: TrackedMutex<LogInner>,
    /// Signalled by [`LogStream::fill`] (and by reservation abandonment);
    /// [`LogStream::sync_to`] waits here for in-flight fills below its
    /// target (encoding is microseconds).
    fill_cv: TrackedCondvar,
}

impl Default for StreamState {
    fn default() -> Self {
        StreamState {
            inner: TrackedMutex::new(LOG_INNER, LogInner::default()),
            fill_cv: TrackedCondvar::new(),
        }
    }
}

/// A byte range assigned by [`LogStream::reserve`], to be completed by
/// exactly one [`LogStream::fill`].
///
/// A live unfilled reservation blocks the durability watermark (that is
/// what keeps groups atomic). Dropping one without filling it — only a
/// panic path does that — releases the watermark instead of wedging the
/// stream: the range is marked dead and skipped by readers.
#[derive(Debug)]
#[must_use = "an unfilled reservation blocks the durability watermark"]
pub struct LogReservation {
    start: Lsn,
    len: usize,
    /// Ring sequence number of this reservation's slot.
    seq: u64,
    epoch: u64,
    state: Arc<StreamState>,
    filled: bool,
}

impl Drop for LogReservation {
    fn drop(&mut self) {
        if self.filled {
            return;
        }
        let mut g = self.state.inner.lock();
        if self.epoch != g.epoch {
            return; // the crash truncation already reclaimed the range
        }
        let slot = &mut g.slots[(self.seq % RESERVATION_SLOTS as u64) as usize];
        debug_assert_eq!(slot.state, SlotState::Pending, "reservation consumed twice");
        slot.state = SlotState::Dead;
        if self.len > 0 {
            g.dead.insert(self.start.0, self.start.0 + self.len as u64);
        }
        g.advance_head();
        drop(g);
        // Syncers parked below this range (and reservers waiting for a
        // free slot) can now re-evaluate.
        self.state.fill_cv.notify_all();
    }
}

impl LogReservation {
    /// Byte offset where the reserved range begins.
    pub fn start(&self) -> Lsn {
        self.start
    }

    /// Reserved length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the reserved range (the group's force target).
    pub fn end(&self) -> Lsn {
        self.start.advance(self.len as u64)
    }
}

/// A chunk of durable log data returned by [`LogStream::read_chunk`].
#[derive(Debug, Clone)]
pub struct ReadChunk {
    /// Byte offset of `data[0]` in the stream.
    pub start: Lsn,
    /// One past the last byte returned.
    pub end: Lsn,
    pub data: Vec<u8>,
}

impl ReadChunk {
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// One consistent reading of a stream's retention state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRetention {
    /// First retained byte.
    pub start: Lsn,
    /// Highest position a storage checkpoint has covered; above `start`
    /// only while a hold pins the bytes in between.
    pub storage_checkpoint: Lsn,
    /// end − start: what the stream keeps in memory.
    pub retained_bytes: u64,
    /// The part of it that is dead reservation padding.
    pub dead_bytes: u64,
    pub live_holds: usize,
}

/// A reader's claim on the stream from [`lsn`](Self::lsn) on:
/// [`LogStream::truncate_below`] never frees past the lowest live hold.
/// The reader moves its hold forward as it consumes; dropping it releases
/// the claim.
#[derive(Debug)]
pub struct LogHold {
    state: Arc<StreamState>,
    id: u64,
}

impl LogHold {
    /// The position this hold pins.
    pub fn lsn(&self) -> Lsn {
        let g = self.state.inner.lock();
        let &(_, lsn) = g
            .holds
            .iter()
            .find(|&&(id, _)| id == self.id)
            .expect("a live hold is registered");
        Lsn(lsn)
    }

    /// Release everything below `to` (a hold never moves backwards).
    pub fn advance(&self, to: Lsn) {
        let mut g = self.state.inner.lock();
        let hold = g
            .holds
            .iter_mut()
            .find(|(id, _)| *id == self.id)
            .expect("a live hold is registered");
        hold.1 = hold.1.max(to.0);
    }
}

impl Drop for LogHold {
    fn drop(&mut self) {
        self.state
            .inner
            .lock()
            .holds
            .retain(|&(id, _)| id != self.id);
    }
}

/// One node's redo log stream on shared storage.
#[derive(Debug)]
pub struct LogStream {
    state: Arc<StreamState>,
    cfg: StorageLatencyConfig,
    appends: Counter,
    syncs: Counter,
    /// Raw (pre-codec) bytes of the records written to this stream.
    logical_bytes: Counter,
    /// Bytes physically occupied on storage (compressed frames + raw data;
    /// reservation tails released by `fill_prefix` are not counted).
    physical_bytes: Counter,
    /// Bytes newly made durable by fsync barriers (the fsync-bytes meter).
    synced_bytes: Counter,
    /// Simulated storage time charged directly by this stream (ns); ring
    /// batch charges are accounted by `pmp-io` into the page-store stats.
    charged_ns: Counter,
}

impl LogStream {
    pub fn new(cfg: StorageLatencyConfig) -> Self {
        LogStream {
            state: Arc::new(StreamState::default()),
            cfg,
            appends: Counter::new(),
            syncs: Counter::new(),
            logical_bytes: Counter::new(),
            physical_bytes: Counter::new(),
            synced_bytes: Counter::new(),
            charged_ns: Counter::new(),
        }
    }

    /// Append `bytes`, returning the Lsn (byte offset) where they begin.
    /// Buffered only — cheap; durability is paid at sync time.
    pub fn append(&self, bytes: &[u8]) -> Lsn {
        self.appends.inc();
        self.logical_bytes.add(bytes.len() as u64);
        self.physical_bytes.add(bytes.len() as u64);
        let mut g = self.state.inner.lock();
        let at = g.data.grow(bytes.len());
        g.data.write(at, bytes);
        Lsn(at)
    }

    /// Assign the next `len` bytes of the stream to the caller without
    /// writing them yet. The caller completes the range with
    /// [`fill`](Self::fill); until then the durability watermark stops
    /// before it.
    pub fn reserve(&self, len: usize) -> LogReservation {
        self.appends.inc();
        let mut g = self.state.inner.lock();
        // Ring full: wait for the oldest reservations to fill or die. No
        // deadlock — fillers never need the caller's ordering lock, and no
        // latency is charged (this is flow control, not I/O).
        while g.tail - g.head >= RESERVATION_SLOTS as u64 {
            self.state.fill_cv.wait(&mut g);
        }
        let start = g.data.grow(len);
        let seq = g.tail;
        g.tail += 1;
        g.slots[(seq % RESERVATION_SLOTS as u64) as usize] = ReservationSlot {
            start,
            state: SlotState::Pending,
        };
        let epoch = g.epoch;
        drop(g);
        LogReservation {
            start: Lsn(start),
            len,
            seq,
            epoch,
            state: Arc::clone(&self.state),
            filled: false,
        }
    }

    /// Copy the encoded bytes of a reservation into place and release the
    /// durability watermark past it. `bytes` must be exactly the reserved
    /// length. If the owning node crashed between reserve and fill (the
    /// simulator truncates the stream), the bytes are dropped — exactly as
    /// an unsynced tail would be.
    pub fn fill(&self, res: LogReservation, bytes: &[u8]) {
        assert_eq!(bytes.len(), res.len, "fill must match the reserved length");
        self.fill_prefix(res, bytes, bytes.len());
    }

    /// Fill the leading `bytes.len()` bytes of a reservation and release the
    /// durability watermark past the *whole* reserved range; the unwritten
    /// tail becomes a dead range that readers skip. This is how compressed
    /// redo frames land: the group reserves worst-case (uncompressed) space
    /// under the ordering lock, compresses outside it, and gives the saved
    /// tail back here. `logical_len` is the raw pre-codec byte count, for
    /// the bytes-on-storage meters.
    pub fn fill_prefix(&self, mut res: LogReservation, bytes: &[u8], logical_len: usize) {
        assert!(
            bytes.len() <= res.len,
            "fill_prefix exceeds the reserved length"
        );
        res.filled = true; // defuse the abandonment drop glue
        let mut g = self.state.inner.lock();
        if res.epoch != g.epoch {
            return; // reservation died in a crash; a new one may own the range
        }
        g.data.write(res.start.0, bytes);
        let slot = &mut g.slots[(res.seq % RESERVATION_SLOTS as u64) as usize];
        debug_assert_eq!(slot.state, SlotState::Pending, "reservation filled twice");
        slot.state = SlotState::Filled;
        if bytes.len() < res.len {
            g.dead.insert(
                res.start.0 + bytes.len() as u64,
                res.start.0 + res.len as u64,
            );
        }
        g.advance_head();
        drop(g);
        self.logical_bytes.add(logical_len as u64);
        self.physical_bytes.add(bytes.len() as u64);
        self.state.fill_cv.notify_all();
    }

    /// Current end of the stream (next append/reserve position).
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.state.inner.lock().data.end)
    }

    /// First retained byte of the stream; reads below it fail with
    /// [`PmpError::LogTruncated`].
    pub fn start_lsn(&self) -> Lsn {
        Lsn(self.state.inner.lock().start)
    }

    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.state.inner.lock().durable)
    }

    /// Current crash epoch. Bumped by every [`crash`](Self::crash); a
    /// writer that captures the epoch before its first append and compares
    /// after its last sync can tell whether a crash truncated any of its
    /// records in between (LSN comparisons cannot — truncation reuses byte
    /// offsets, so post-crash appends can push the durable watermark past
    /// a record that was discarded).
    pub fn epoch(&self) -> u64 {
        self.state.inner.lock().epoch
    }

    /// Base nanoseconds one log read costs, excluding the per-byte
    /// bandwidth term charged on the bytes actually returned.
    pub fn read_latency_ns(&self) -> u64 {
        self.cfg.charge_ns(self.cfg.read_ns)
    }

    /// Base nanoseconds one fsync barrier costs, excluding the byte term
    /// charged on the bytes the barrier newly persists.
    pub fn sync_latency_ns(&self) -> u64 {
        self.cfg.charge_ns(self.cfg.sync_ns)
    }

    /// Bandwidth cost of moving `bytes` physical bytes of log data.
    pub fn byte_latency_ns(&self, bytes: usize) -> u64 {
        self.cfg.byte_ns(bytes)
    }

    /// Force the completed prefix of the stream to storage. Returns the new
    /// durable watermark. Charges one sync latency (the fsync round-trip)
    /// plus the bandwidth term for the bytes newly persisted.
    pub fn sync(&self) -> Lsn {
        let (lsn, newly) = self.sync_uncharged_bytes();
        let charge = self.sync_latency_ns() + self.cfg.byte_ns(newly as usize);
        self.charged_ns.add(charge);
        precise_wait_ns(charge);
        lsn
    }

    /// Completion half of a ring-submitted sync: the `pmp-io` worker
    /// charges the fsync round-trip at batch granularity.
    pub fn sync_uncharged(&self) -> Lsn {
        self.sync_uncharged_bytes().0
    }

    /// [`sync_uncharged`](Self::sync_uncharged) plus the number of *stored*
    /// bytes the barrier newly made durable (the ring's byte-charging
    /// input). Dead padding — the unwritten tail a compressed frame leaves
    /// in its worst-case reservation — holds no data and is never shipped,
    /// so it is excluded: a compressed WAL fsyncs compressed bytes.
    pub fn sync_uncharged_bytes(&self) -> (Lsn, u64) {
        self.syncs.inc();
        let mut g = self.state.inner.lock();
        let before = g.durable;
        g.durable = g.durable.max(g.completed());
        // Dead ranges never straddle the durable watermark (both are slot
        // boundaries), so every range overlapping the new span starts in it.
        let durable = g.durable;
        let newly = (durable - before) - g.dead.bytes_within(before, durable);
        self.synced_bytes.add(newly);
        (Lsn(g.durable), newly)
    }

    /// Group-commit-friendly sync: if `target` is already durable (some
    /// other committer's sync covered us) return immediately without paying
    /// the fsync cost; otherwise wait out any fills still in flight below
    /// `target` and sync everything completed.
    pub fn sync_to(&self, target: Lsn) -> Lsn {
        if let Some(covered) = self.await_fills_below(target) {
            return covered;
        }
        self.sync()
    }

    /// `sync_to` with the fsync latency charged by a ring worker.
    pub fn sync_to_uncharged(&self, target: Lsn) -> Lsn {
        self.sync_to_uncharged_bytes(target).0
    }

    /// [`sync_to_uncharged`](Self::sync_to_uncharged) plus the bytes newly
    /// persisted (0 when another committer's barrier already covered us).
    pub fn sync_to_uncharged_bytes(&self, target: Lsn) -> (Lsn, u64) {
        if let Some(covered) = self.await_fills_below(target) {
            return (covered, 0);
        }
        self.sync_uncharged_bytes()
    }

    /// Shared front half of `sync_to`: returns `Some(durable)` if `target`
    /// is already covered, else waits for in-flight fills below `target`
    /// and returns `None` (caller must sync).
    fn await_fills_below(&self, target: Lsn) -> Option<Lsn> {
        let mut g = self.state.inner.lock();
        if g.durable >= target.0 {
            return Some(Lsn(g.durable));
        }
        // A fill below `target` is a memcpy already in progress on
        // another thread; wait for it rather than syncing short. The
        // bound through `data.len()` keeps a crash-truncated stream
        // from waiting forever, and abandoned reservations count as
        // completed (dead), so a leaked one cannot wedge us either.
        loop {
            let reachable = target.0.min(g.data.end);
            if g.completed() >= reachable {
                return None;
            }
            self.state.fill_cv.wait(&mut g);
        }
    }

    /// Simulate the owning node crashing: the unsynced tail is lost, synced
    /// data survives (storage is disaggregated and node-failure-independent).
    pub fn crash(&self) {
        self.state.inner.lock().cut_at_durable();
        self.state.fill_cv.notify_all();
    }

    /// Record a scan-start hint: every change logged below `at` is
    /// reflected in shared storage *or in volatile shared state* — the DBP —
    /// whose loss epoch is `relies_on`. Durable metadata (a real system
    /// stores it in the log header). Frees nothing: a hint is only as good
    /// as the volatile state behind it, so the bytes below it must stay
    /// readable (see [`scan_start`](Self::scan_start)).
    pub fn set_checkpoint(&self, at: Lsn, relies_on: u64) {
        let mut g = self.state.inner.lock();
        debug_assert!(at.0 <= g.durable, "checkpoint beyond durable data");
        if at.0 >= g.checkpoint {
            g.checkpoint = at.0;
            g.checkpoint_relies_on = relies_on;
        }
    }

    /// The last recorded scan-start hint (never below the start).
    pub fn checkpoint(&self) -> Lsn {
        Lsn(self.state.inner.lock().checkpoint)
    }

    /// Where recovery of the owning node starts its scan: at the hint if
    /// the volatile state it relied on is still the current one
    /// (`epoch_now`), else at the start of the stream — what a storage
    /// checkpoint guarantees regardless.
    pub fn scan_start(&self, epoch_now: u64) -> Lsn {
        let g = self.state.inner.lock();
        if g.checkpoint_relies_on == epoch_now {
            Lsn(g.checkpoint)
        } else {
            Lsn(g.start)
        }
    }

    /// Storage checkpoint: every change logged below `at` is in shared
    /// storage, so those bytes are freed — up to the durable watermark and
    /// never past a live [`LogHold`]. Returns the new start.
    pub fn truncate_below(&self, at: Lsn) -> Lsn {
        let mut g = self.state.inner.lock();
        let covered = at.0.min(g.durable);
        g.storage_checkpoint = g.storage_checkpoint.max(covered);
        let slowest_hold = g.holds.iter().map(|&(_, lsn)| lsn).min();
        let cut = covered.min(slowest_hold.unwrap_or(u64::MAX));
        if cut > g.start {
            g.start = cut;
            g.checkpoint = g.checkpoint.max(cut);
            g.data.free_below(cut);
            g.dead.drop_below(cut);
        }
        Lsn(g.start)
    }

    /// Pin the stream from its current start on, for a reader that will
    /// consume it from there.
    pub fn hold(&self) -> LogHold {
        let mut g = self.state.inner.lock();
        let id = g.next_hold;
        g.next_hold += 1;
        let start = g.start;
        g.holds.push((id, start));
        LogHold {
            state: Arc::clone(&self.state),
            id,
        }
    }

    /// What the stream holds right now, for the stats report.
    pub fn retention(&self) -> LogRetention {
        let g = self.state.inner.lock();
        LogRetention {
            start: Lsn(g.start),
            storage_checkpoint: Lsn(g.storage_checkpoint),
            retained_bytes: g.data.end - g.start,
            dead_bytes: g.dead.total_bytes(),
            live_holds: g.holds.len(),
        }
    }

    /// Read up to `max_bytes` of *durable* data starting at `from`, paying
    /// one storage read latency. Used by chunked recovery (§4.4).
    ///
    /// Dead ranges (abandoned reservations) hold no decodable bytes and are
    /// never returned: a read starting inside one begins at its end (the
    /// chunk's `start` then exceeds `from`), and a read running into one
    /// stops short of it. Offsets are preserved — the hole's LSNs are
    /// simply skipped, and an empty chunk still means "no durable data at
    /// or after `from`". A `from` below [`start_lsn`](Self::start_lsn) is
    /// not a hole: those bytes were freed, and the read fails with
    /// [`PmpError::LogTruncated`] rather than begin somewhere else.
    pub fn read_chunk(&self, from: Lsn, max_bytes: usize) -> Result<ReadChunk> {
        let chunk = self.read_chunk_uncharged(from, max_bytes)?;
        self.charge_read(&chunk);
        Ok(chunk)
    }

    fn charge_read(&self, chunk: &ReadChunk) {
        let charge = self.read_latency_ns() + self.cfg.byte_ns(chunk.data.len());
        self.charged_ns.add(charge);
        precise_wait_ns(charge);
    }

    /// Completion half of a ring-submitted log read (latency already
    /// charged at batch granularity by the `pmp-io` worker).
    pub fn read_chunk_uncharged(&self, from: Lsn, max_bytes: usize) -> Result<ReadChunk> {
        let g = self.state.inner.lock();
        let start = g.read_start(from)?;
        let end = (start.saturating_add(max_bytes as u64))
            .min(g.durable)
            .min(g.dead.next_start(start));
        let mut data = Vec::with_capacity((end - start) as usize);
        g.data.read_into(start, end, &mut data);
        Ok(ReadChunk {
            start: Lsn(start),
            end: Lsn(end),
            data,
        })
    }

    /// Gather read: like [`read_chunk_uncharged`](Self::read_chunk_uncharged)
    /// but *continues across* dead ranges, concatenating the filled spans
    /// between them until `max_bytes` of data are collected or the durable
    /// watermark is reached. With compressed redo frames every group leaves
    /// a dead tail behind it, so a stop-at-hole read would degenerate to one
    /// I/O per frame; the ring's `LogRead` uses this instead (one charged
    /// round-trip per chunk, however many holes it straddles). `end - start`
    /// may exceed `data.len()` — the skipped holes' LSNs; the next read
    /// starts at `end` as usual.
    pub fn read_gather(&self, from: Lsn, max_bytes: usize) -> Result<ReadChunk> {
        let chunk = self.read_gather_uncharged(from, max_bytes)?;
        self.charge_read(&chunk);
        Ok(chunk)
    }

    /// Uncharged gather read (the `pmp-io` worker charges at batch
    /// granularity; `read_gather` is the direct charged form).
    pub fn read_gather_uncharged(&self, from: Lsn, max_bytes: usize) -> Result<ReadChunk> {
        let g = self.state.inner.lock();
        let start = g.read_start(from)?;
        let mut pos = start;
        let mut data = Vec::new();
        while pos < g.durable && data.len() < max_bytes {
            let next_dead = g.dead.next_start(pos);
            let span_end = pos
                .saturating_add((max_bytes - data.len()) as u64)
                .min(g.durable)
                .min(next_dead);
            g.data.read_into(pos, span_end, &mut data);
            pos = span_end;
            if pos == next_dead {
                pos = g.dead.next_live(pos, g.durable);
            } else {
                break; // hit the durable watermark or max_bytes
            }
        }
        Ok(ReadChunk {
            start: Lsn(start),
            end: Lsn(pos),
            data,
        })
    }

    /// Test-only failure injection: truncate the durable stream `bytes`
    /// *stored* bytes short, simulating a storage-side tail loss that cuts
    /// into what the node believed durable (e.g. mid-frame). Dead
    /// reservation padding holds no stored bytes, so each removed byte
    /// first skips any dead tail above it — truncating by 1 always
    /// destroys real frame data, never just a hole. Never cuts below the
    /// start (those bytes are already gone). Outstanding reservations die
    /// and the epoch bumps, exactly as in [`crash`](Self::crash).
    pub fn truncate_durable_for_injection(&self, bytes: u64) {
        let mut g = self.state.inner.lock();
        let mut new_durable = g.durable;
        for _ in 0..bytes {
            // Skip trailing dead padding (ranges can abut) so the byte we
            // drop below is a stored one. `e >= new_durable` (not `>`)
            // catches a range ending exactly at the watermark.
            while let Some((s, e)) = g.dead.last_starting_below(new_durable) {
                if e >= new_durable && s < new_durable {
                    new_durable = s;
                } else {
                    break;
                }
            }
            if new_durable == g.start {
                break;
            }
            new_durable -= 1;
        }
        g.durable = new_durable;
        g.checkpoint = g.checkpoint.min(new_durable);
        g.storage_checkpoint = g.storage_checkpoint.min(new_durable);
        g.cut_at_durable();
        drop(g);
        self.state.fill_cv.notify_all();
    }

    pub fn append_count(&self) -> u64 {
        self.appends.get()
    }

    pub fn sync_count(&self) -> u64 {
        self.syncs.get()
    }

    /// Raw (pre-codec) bytes written to this stream.
    pub fn logical_byte_count(&self) -> u64 {
        self.logical_bytes.get()
    }

    /// Bytes physically occupying storage (post-codec frames + raw data).
    pub fn physical_byte_count(&self) -> u64 {
        self.physical_bytes.get()
    }

    /// Bytes newly persisted by fsync barriers (the fsync-bytes meter).
    pub fn synced_byte_count(&self) -> u64 {
        self.synced_bytes.get()
    }

    /// Simulated storage time (ns) charged directly by this stream.
    pub fn charged_io_ns(&self) -> u64 {
        self.charged_ns.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> LogStream {
        LogStream::new(StorageLatencyConfig::disabled())
    }

    fn dead(ranges: &[(u64, u64)]) -> DeadRanges {
        let mut d = DeadRanges::default();
        for &(start, end) in ranges {
            d.insert(start, end);
        }
        d
    }

    #[test]
    fn dead_ranges_stay_sorted_under_out_of_order_inserts() {
        // Fills complete almost, not exactly, in stream order.
        let d = dead(&[(10, 12), (30, 35), (20, 22), (5, 6), (40, 41), (36, 40)]);
        assert_eq!(
            d.0,
            [(5, 6), (10, 12), (20, 22), (30, 35), (36, 40), (40, 41)]
        );
        // A crash truncates and the offsets are handed out again: the new
        // range at a recorded start replaces the old one.
        let mut d = d;
        d.insert(30, 33);
        d.insert(41, 50);
        assert_eq!(d.0[3..], [(30, 33), (36, 40), (40, 41), (41, 50)]);
    }

    #[test]
    fn dead_ranges_answer_covering_and_next_live() {
        let d = dead(&[(10, 12), (20, 25), (25, 30), (30, 31), (50, 60)]);
        assert_eq!(d.last_starting_below(10), None);
        assert_eq!(d.last_starting_below(11), Some((10, 12)));
        assert_eq!(d.last_starting_below(u64::MAX), Some((50, 60)));
        assert_eq!(dead(&[]).last_starting_below(7), None);

        assert_eq!(d.next_start(0), 10);
        assert_eq!(d.next_start(10), 10);
        assert_eq!(d.next_start(11), 20);
        assert_eq!(d.next_start(51), u64::MAX);

        // Outside every range: stays put. Inside one: its end. Abutting
        // ranges are hopped in one call.
        assert_eq!(d.next_live(9, 100), 9);
        assert_eq!(d.next_live(12, 100), 12);
        assert_eq!(d.next_live(10, 100), 12);
        assert_eq!(d.next_live(20, 100), 31);
        assert_eq!(d.next_live(27, 100), 31);
        // Never past the limit, and no livelock on a range that straddles it.
        assert_eq!(d.next_live(20, 28), 28);
        assert_eq!(d.next_live(55, 55), 55);
        assert_eq!(d.next_live(55, 52), 55);
    }

    #[test]
    fn dead_ranges_count_bytes_and_truncate() {
        let mut d = dead(&[(10, 12), (20, 25), (25, 30), (50, 60)]);
        assert_eq!(d.bytes_within(0, 100), 2 + 5 + 5 + 10);
        assert_eq!(d.bytes_within(12, 50), 10);
        assert_eq!(d.bytes_within(20, 25), 5);
        assert_eq!(
            d.bytes_within(11, 20),
            0,
            "only ranges starting in the span"
        );
        assert_eq!(d.bytes_within(50, 55), 5, "clipped at the span's end");
        assert_eq!(d.bytes_within(30, 30), 0);

        d.truncate_from(25);
        assert_eq!(d.0, [(10, 12), (20, 25)]);
        d.truncate_from(11);
        assert_eq!(d.0, [(10, 12)], "a range that starts below the cut stays");
        d.truncate_from(0);
        assert!(d.0.is_empty());
    }

    #[test]
    fn lsn_is_byte_offset() {
        let s = stream();
        assert_eq!(s.append(b"abc"), Lsn(0));
        assert_eq!(s.append(b"defgh"), Lsn(3));
        assert_eq!(s.end_lsn(), Lsn(8));
    }

    #[test]
    fn sync_makes_data_durable() {
        let s = stream();
        s.append(b"abc");
        assert_eq!(s.durable_lsn(), Lsn(0));
        assert_eq!(s.sync(), Lsn(3));
        assert_eq!(s.durable_lsn(), Lsn(3));
    }

    #[test]
    fn crash_loses_only_unsynced_tail() {
        let s = stream();
        s.append(b"durable!");
        s.sync();
        s.append(b"volatile");
        s.crash();
        assert_eq!(s.end_lsn(), Lsn(8));
        let chunk = s.read_chunk(Lsn(0), 1024).unwrap();
        assert_eq!(chunk.data, b"durable!");
    }

    #[test]
    fn sync_to_skips_when_already_durable() {
        let s = stream();
        s.append(b"aaaa");
        s.sync();
        let syncs_before = s.sync_count();
        assert_eq!(s.sync_to(Lsn(4)), Lsn(4));
        assert_eq!(s.sync_count(), syncs_before, "covered sync must be free");
        s.append(b"bb");
        assert_eq!(s.sync_to(Lsn(6)), Lsn(6));
        assert_eq!(s.sync_count(), syncs_before + 1);
    }

    #[test]
    fn read_chunk_respects_durability_and_bounds() {
        let s = stream();
        s.append(b"0123456789");
        s.sync();
        s.append(b"unsynced");
        let c = s.read_chunk(Lsn(0), 4).unwrap();
        assert_eq!(c.data, b"0123");
        assert_eq!((c.start, c.end), (Lsn(0), Lsn(4)));
        let c = s.read_chunk(Lsn(4), 100).unwrap();
        assert_eq!(c.data, b"456789", "must stop at the durable watermark");
        let c = s.read_chunk(Lsn(10), 100).unwrap();
        assert!(c.is_empty());
        // Reads past the durable end clamp instead of panicking.
        let c = s.read_chunk(Lsn(99), 10).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn concurrent_appends_never_interleave_within_record() {
        use std::sync::Arc;
        let s = Arc::new(stream());
        let handles: Vec<_> = (0..4u8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.append(&[t; 16]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        s.sync();
        let c = s.read_chunk(Lsn(0), usize::MAX).unwrap();
        assert_eq!(c.data.len(), 4 * 100 * 16);
        // Every 16-byte record is homogeneous: appends are atomic.
        for rec in c.data.chunks(16) {
            assert!(rec.iter().all(|b| *b == rec[0]));
        }
    }

    #[test]
    fn reserve_fill_roundtrip() {
        let s = stream();
        let r1 = s.reserve(4);
        let r2 = s.reserve(2);
        assert_eq!(r1.start(), Lsn(0));
        assert_eq!(r2.start(), Lsn(4));
        assert_eq!(r1.end(), Lsn(4));
        assert_eq!(s.end_lsn(), Lsn(6));
        // Fill out of order: the watermark only opens once the prefix is in.
        s.fill(r2, b"EF");
        s.fill(r1, b"ABCD");
        s.sync();
        assert_eq!(s.durable_lsn(), Lsn(6));
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"ABCDEF");
    }

    #[test]
    fn sync_stops_before_unfilled_reservation() {
        let s = stream();
        let r1 = s.reserve(4);
        s.fill(r1, b"ABCD");
        let _r2 = s.reserve(8); // never filled
        let r3 = s.reserve(2);
        s.fill(r3, b"YZ");
        s.sync();
        assert_eq!(
            s.durable_lsn(),
            Lsn(4),
            "durability must stop at the first unfilled reservation"
        );
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"ABCD");
    }

    #[test]
    fn sync_to_waits_for_inflight_fill() {
        use std::sync::Arc;
        use std::time::Duration;
        let s = Arc::new(stream());
        let r = s.reserve(4);
        let s2 = Arc::clone(&s);
        let filler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            s2.fill(r, b"ABCD");
        });
        // sync_to must block until the fill lands, then cover it.
        assert_eq!(s.sync_to(Lsn(4)), Lsn(4));
        filler.join().unwrap();
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"ABCD");
    }

    #[test]
    fn dropped_reservation_releases_watermark_and_reads_skip_hole() {
        let s = stream();
        let r1 = s.reserve(4);
        s.fill(r1, b"ABCD");
        let r2 = s.reserve(8);
        let r3 = s.reserve(2);
        s.fill(r3, b"YZ");
        drop(r2); // abandoned (simulates a panic between reserve and fill)
        s.sync();
        assert_eq!(
            s.durable_lsn(),
            Lsn(14),
            "a dead range must not block durability"
        );
        // Readers skip the hole: offsets are preserved, bytes not invented.
        let c = s.read_chunk(Lsn(0), 100).unwrap();
        assert_eq!(c.data, b"ABCD");
        assert_eq!((c.start, c.end), (Lsn(0), Lsn(4)));
        let c = s.read_chunk(c.end, 100).unwrap();
        assert_eq!(c.data, b"YZ");
        assert_eq!((c.start, c.end), (Lsn(12), Lsn(14)));
        // A read from inside the hole starts at its end.
        let c = s.read_chunk(Lsn(6), 100).unwrap();
        assert_eq!(c.data, b"YZ");
        let c = s.read_chunk(Lsn(14), 100).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn sync_to_unblocked_by_abandoned_reservation() {
        use std::sync::Arc;
        use std::time::Duration;
        let s = Arc::new(stream());
        let r1 = s.reserve(4);
        let abandoned = s.reserve(8);
        s.fill(r1, b"ABCD");
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            drop(abandoned);
        });
        // Must not hang even though the middle reservation is never filled.
        assert_eq!(s.sync_to(Lsn(12)), Lsn(12));
        dropper.join().unwrap();
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"ABCD");
    }

    #[test]
    fn crash_keeps_durable_holes_and_drops_tail_holes() {
        let s = stream();
        let r1 = s.reserve(4);
        s.fill(r1, b"ABCD");
        let mid = s.reserve(4);
        let r3 = s.reserve(2);
        s.fill(r3, b"YZ");
        drop(mid); // hole [4, 8) below the (soon) durable watermark
        s.sync();
        assert_eq!(s.durable_lsn(), Lsn(10));
        let tail = s.reserve(4);
        drop(tail); // hole above the watermark: dies with the crash
        s.crash();
        assert_eq!(s.end_lsn(), Lsn(10));
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"ABCD");
        assert_eq!(s.read_chunk(Lsn(4), 100).unwrap().data, b"YZ");
        // Fresh reservations reuse the truncated tail offsets cleanly.
        let r = s.reserve(2);
        assert_eq!(r.start(), Lsn(10));
        s.fill(r, b"ok");
        s.sync();
        assert_eq!(s.read_chunk(Lsn(10), 100).unwrap().data, b"ok");
    }

    #[test]
    fn reservation_dropped_after_crash_is_inert() {
        let s = stream();
        s.append(b"abcd");
        s.sync();
        let dead = s.reserve(4);
        s.crash();
        let fresh = s.reserve(4);
        drop(dead); // stale epoch: must not mark the fresh range dead
        s.fill(fresh, b"WXYZ");
        s.sync();
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"abcdWXYZ");
    }

    #[test]
    fn crash_drops_unfilled_reservations_and_late_fills_are_ignored() {
        let s = stream();
        s.append(b"durable!");
        s.sync();
        let r = s.reserve(4);
        s.crash();
        assert_eq!(s.end_lsn(), Lsn(8));
        // The reservation died with the tail; a late fill is a no-op.
        s.fill(r, b"WXYZ");
        assert_eq!(s.end_lsn(), Lsn(8));
        s.sync();
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"durable!");
    }

    #[test]
    fn reserve_blocks_when_slot_ring_is_full_and_resumes_on_fill() {
        use std::sync::Arc;
        use std::time::Duration;
        let s = Arc::new(stream());
        // Exhaust every slot in the fixed ring.
        let mut outstanding: Vec<LogReservation> =
            (0..RESERVATION_SLOTS).map(|_| s.reserve(1)).collect();
        let s2 = Arc::clone(&s);
        let blocked = std::thread::spawn(move || s2.reserve(2));
        // The reserver must be parked, not failing or spinning through.
        std::thread::sleep(Duration::from_millis(30));
        assert!(!blocked.is_finished(), "reserve must block on a full ring");
        // Fill the oldest slot: head advances, a slot frees, reserve wakes.
        let oldest = outstanding.remove(0);
        s.fill(oldest, b"A");
        let late = blocked.join().unwrap();
        assert_eq!(late.start(), Lsn(RESERVATION_SLOTS as u64));
        s.fill(late, b"ZZ");
        for r in outstanding {
            s.fill(r, b"B");
        }
        s.sync();
        assert_eq!(s.durable_lsn(), Lsn(RESERVATION_SLOTS as u64 + 2));
    }

    #[test]
    fn slot_ring_reuses_slots_across_many_generations() {
        let s = stream();
        // Push well past RESERVATION_SLOTS reservations through the ring in
        // FIFO-but-out-of-order-fill patterns; completed() must stay exact.
        for round in 0..3 * RESERVATION_SLOTS {
            let a = s.reserve(1);
            let b = s.reserve(1);
            s.fill(b, b"y"); // out of order: watermark must wait for `a`
            assert_eq!(s.sync(), Lsn(2 * round as u64));
            s.fill(a, b"x");
        }
        s.sync();
        assert_eq!(s.durable_lsn(), Lsn(6 * RESERVATION_SLOTS as u64));
    }

    #[test]
    fn reservation_after_crash_restarts_at_truncated_end() {
        let s = stream();
        s.append(b"abcd");
        s.sync();
        let dead = s.reserve(4);
        s.crash();
        let fresh = s.reserve(2);
        assert_eq!(fresh.start(), Lsn(4), "reservations restart at the cut");
        s.fill(fresh, b"ef");
        s.fill(dead, b"WXYZ"); // overlaps the dead range; must be ignored
        s.sync();
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"abcdef");
    }

    #[test]
    fn fill_prefix_dead_ranges_tail_and_watermark_covers_reservation() {
        let s = stream();
        let r = s.reserve(10);
        let end = r.end();
        s.fill_prefix(r, b"abc", 8); // 3 physical bytes carrying 8 logical
        assert_eq!(s.sync(), end, "watermark covers the whole reservation");
        // A plain chunk read stops at the dead tail; the follow-up read
        // hops over it and lands at the durable end.
        let chunk = s.read_chunk(Lsn(0), 100).unwrap();
        assert_eq!(chunk.data, b"abc");
        assert_eq!(chunk.end, Lsn(3));
        let after = s.read_chunk(chunk.end, 100).unwrap();
        assert!(after.data.is_empty());
        assert_eq!(after.end, Lsn(10), "next read hops the dead tail");
        assert_eq!(s.logical_byte_count(), 8);
        assert_eq!(s.physical_byte_count(), 3);
    }

    #[test]
    fn gather_read_concatenates_spans_across_dead_tails() {
        let s = stream();
        for payload in [&b"one"[..], b"two", b"three"] {
            let r = s.reserve(8); // every frame leaves a dead tail
            s.fill_prefix(r, payload, payload.len());
        }
        s.sync();
        let chunk = s.read_gather_uncharged(Lsn(0), 1024).unwrap();
        assert_eq!(chunk.data, b"onetwothree");
        assert_eq!(chunk.start, Lsn(0));
        assert_eq!(chunk.end, Lsn(24), "end covers the skipped holes");
        // Starting inside a dead range hops forward to live data.
        let tail = s.read_gather_uncharged(Lsn(4), 1024).unwrap();
        assert_eq!(tail.data, b"twothree");
        // A small budget stops mid-stream and resumes exactly at `end`.
        let first = s.read_gather_uncharged(Lsn(0), 4).unwrap();
        assert_eq!(first.data, b"onet");
        let rest = s.read_gather_uncharged(first.end, 1024).unwrap();
        assert_eq!(rest.data, b"wothree");
    }

    #[test]
    fn gather_read_respects_durable_watermark() {
        let s = stream();
        s.append(b"live");
        s.sync();
        let r = s.reserve(4);
        let chunk = s.read_gather_uncharged(Lsn(0), 1024).unwrap();
        assert_eq!(chunk.data, b"live", "pending reservation is invisible");
        s.fill(r, b"more");
        s.sync();
        assert_eq!(
            s.read_gather_uncharged(Lsn(0), 1024).unwrap().data,
            b"livemore"
        );
    }

    #[test]
    fn truncate_durable_injection_cuts_tail_and_kills_reservations() {
        let s = stream();
        s.append(b"abcdefgh");
        s.sync();
        let stale = s.reserve(4);
        s.truncate_durable_for_injection(3);
        assert_eq!(s.durable_lsn(), Lsn(5));
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"abcde");
        s.fill(stale, b"XXXX"); // stale epoch: inert
        let fresh = s.reserve(2);
        assert_eq!(fresh.start(), Lsn(5), "writes restart at the cut");
        s.fill(fresh, b"fg");
        s.sync();
        assert_eq!(s.read_chunk(Lsn(0), 100).unwrap().data, b"abcdefg");
    }

    #[test]
    fn truncate_durable_injection_skips_dead_padding() {
        let s = stream();
        s.append(b"abc");
        let r = s.reserve(8);
        s.fill_prefix(r, b"XY", 2); // stored [3,5), dead tail [5,11)
        s.sync();
        assert_eq!(s.durable_lsn(), Lsn(11));
        // Removing one byte must cut a *stored* byte: the dead tail is
        // skipped, so the cut lands inside the frame body, not the hole.
        s.truncate_durable_for_injection(1);
        assert_eq!(s.durable_lsn(), Lsn(4));
        let chunk = s.read_chunk(Lsn(0), 100).unwrap();
        assert_eq!(chunk.data, b"abcX");
        // Reads at and past the cut terminate (no dead-range livelock).
        assert!(s.read_chunk(Lsn(4), 100).unwrap().is_empty());
        assert!(s.read_gather_uncharged(Lsn(4), 100).unwrap().is_empty());
    }

    #[test]
    fn sync_meters_newly_durable_bytes() {
        let s = stream();
        s.append(b"abcd");
        s.sync();
        assert_eq!(s.synced_byte_count(), 4);
        s.sync(); // nothing new
        assert_eq!(s.synced_byte_count(), 4);
        s.append(b"ef");
        s.sync();
        assert_eq!(s.synced_byte_count(), 6);
    }

    #[test]
    fn sync_meters_stored_bytes_not_dead_padding() {
        let s = stream();
        let r = s.reserve(8);
        s.fill_prefix(r, b"abc", 3); // stored [0,3), dead tail [3,8)
        s.append(b"de");
        s.sync();
        assert_eq!(s.durable_lsn(), Lsn(10));
        assert_eq!(
            s.synced_byte_count(),
            5,
            "the fsync bandwidth charge covers stored bytes only"
        );
    }

    // ---- a stream with a start --------------------------------------------

    /// A stream of `n` 8-byte records "rec00000", "rec00001", …, synced.
    fn numbered(n: usize) -> LogStream {
        let s = stream();
        for i in 0..n {
            s.append(format!("rec{i:05}").as_bytes());
        }
        s.sync();
        s
    }

    #[test]
    fn read_below_the_start_is_a_typed_error() {
        let s = numbered(4);
        assert_eq!(s.truncate_below(Lsn(16)), Lsn(16));
        assert_eq!(s.start_lsn(), Lsn(16));
        for from in [Lsn(15), Lsn::ZERO] {
            let truncated = PmpError::LogTruncated {
                requested: from,
                start: Lsn(16),
            };
            // Never a silent skip to the start.
            assert_eq!(s.read_chunk(from, 100).unwrap_err(), truncated);
            assert_eq!(s.read_gather(from, 100).unwrap_err(), truncated);
        }
        assert_eq!(
            s.read_chunk(Lsn(16), 100).unwrap().data,
            b"rec00002rec00003"
        );
    }

    #[test]
    fn lsn_stays_the_byte_offset_across_a_cut() {
        let s = numbered(3);
        let (end, durable) = (s.end_lsn(), s.durable_lsn());
        s.truncate_below(Lsn(16));
        assert_eq!((s.end_lsn(), s.durable_lsn()), (end, durable));
        assert_eq!(
            s.append(b"rec00003"),
            Lsn(24),
            "appends continue at the end"
        );
        let r = s.reserve(8);
        assert_eq!(r.start(), Lsn(32));
        s.fill(r, b"rec00004");
        assert_eq!(s.sync(), Lsn(40));
        let chunk = s.read_chunk(Lsn(16), 100).unwrap();
        assert_eq!((chunk.start, chunk.end), (Lsn(16), Lsn(40)));
        assert_eq!(chunk.data, b"rec00002rec00003rec00004");
        let r = s.retention();
        assert_eq!((r.start, r.retained_bytes), (Lsn(16), 24));
        assert_eq!(r.storage_checkpoint, Lsn(16));
    }

    #[test]
    fn truncation_stops_at_the_durable_watermark_and_is_monotone() {
        let s = numbered(2);
        s.append(b"unsynced");
        let pending = s.reserve(8);
        // Asking for more than is durable — into the unsynced tail, into a
        // pending reservation — frees only what is durable.
        assert_eq!(s.truncate_below(pending.end()), Lsn(16));
        assert_eq!(s.truncate_below(Lsn(8)), Lsn(16), "never moves back");
        assert_eq!(s.checkpoint(), Lsn(16), "start ≤ checkpoint");
        s.fill(pending, b"reserved");
        s.sync();
        assert_eq!(
            s.read_chunk(Lsn(16), 100).unwrap().data,
            b"unsyncedreserved"
        );
    }

    #[test]
    fn a_dead_range_straddling_the_cut_keeps_its_part_above() {
        let s = stream();
        s.append(b"abcd");
        let r = s.reserve(8);
        s.fill_prefix(r, b"XY", 2); // stored [4,6), dead [6,12)
        s.append(b"tail"); // [12,16)
        s.sync();
        assert_eq!(s.retention().dead_bytes, 6);
        assert_eq!(s.truncate_below(Lsn(9)), Lsn(9), "a cut inside the hole");
        assert_eq!(s.retention().dead_bytes, 3);
        // From the start the reader hops the rest of the hole, as ever.
        let chunk = s.read_chunk(Lsn(9), 100).unwrap();
        assert_eq!(
            (chunk.start, chunk.data.as_slice()),
            (Lsn(12), &b"tail"[..])
        );
        assert_eq!(s.read_gather(Lsn(9), 100).unwrap().data, b"tail");
        // Ranges wholly below a cut leave the index.
        let r = s.reserve(4);
        s.fill_prefix(r, b"Z", 1); // dead [17,20)
        s.sync();
        s.truncate_below(Lsn(20));
        assert_eq!(s.retention().dead_bytes, 0);
    }

    #[test]
    fn crash_and_injected_tail_loss_after_a_truncation() {
        let s = numbered(4);
        s.truncate_below(Lsn(16));
        s.append(b"volatile");
        let stale = s.reserve(8);
        s.crash();
        assert_eq!((s.start_lsn(), s.end_lsn()), (Lsn(16), Lsn(32)));
        s.fill(stale, b"XXXXXXXX"); // inert
        assert_eq!(
            s.read_chunk(Lsn(16), 100).unwrap().data,
            b"rec00002rec00003"
        );
        // Injected loss never reaches below the start, however much is asked.
        s.truncate_durable_for_injection(3);
        assert_eq!(s.durable_lsn(), Lsn(29));
        s.truncate_durable_for_injection(1_000);
        assert_eq!((s.start_lsn(), s.durable_lsn()), (Lsn(16), Lsn(16)));
        assert_eq!(s.checkpoint(), Lsn(16));
        assert!(s.read_chunk(Lsn(16), 100).unwrap().is_empty());
        assert_eq!(s.append(b"again"), Lsn(16), "writes restart at the cut");
    }

    #[test]
    fn a_hold_pins_the_stream_until_it_advances_or_drops() {
        let s = numbered(6);
        let hold = s.hold();
        assert_eq!(hold.lsn(), Lsn(0));
        assert_eq!(s.truncate_below(Lsn(32)), Lsn(0), "pinned at the hold");
        let r = s.retention();
        assert_eq!((r.storage_checkpoint, r.live_holds), (Lsn(32), 1));
        assert_eq!(s.read_chunk(Lsn(0), 8).unwrap().data, b"rec00000");

        hold.advance(Lsn(16));
        hold.advance(Lsn(8)); // a hold never moves back
        assert_eq!(hold.lsn(), Lsn(16));
        assert_eq!(s.truncate_below(Lsn(32)), Lsn(16));

        // The slowest of several holds decides.
        let second = s.hold();
        assert_eq!(second.lsn(), Lsn(16));
        hold.advance(Lsn(40));
        assert_eq!(s.truncate_below(Lsn(40)), Lsn(16));
        drop(second);
        assert_eq!(s.truncate_below(Lsn(40)), Lsn(40));
        drop(hold);
        assert_eq!(s.retention().live_holds, 0);
        assert_eq!(s.truncate_below(Lsn(48)), Lsn(48));
    }

    #[test]
    fn scan_start_trusts_the_hint_only_under_its_epoch() {
        let s = numbered(4);
        s.truncate_below(Lsn(8));
        s.set_checkpoint(Lsn(24), 3);
        assert_eq!(s.checkpoint(), Lsn(24));
        assert_eq!(s.scan_start(3), Lsn(24));
        assert_eq!(s.scan_start(4), Lsn(8), "the state it relied on is gone");
        // A later hint under the new epoch is trusted again; an older LSN
        // never replaces a newer one.
        s.set_checkpoint(Lsn(16), 4);
        assert_eq!(s.scan_start(4), Lsn(8));
        s.set_checkpoint(Lsn(32), 4);
        assert_eq!(s.scan_start(4), Lsn(32));
        // A cut past the hint carries it along.
        s.truncate_below(Lsn(32));
        s.append(b"more");
        s.sync();
        assert_eq!((s.scan_start(4), s.scan_start(9)), (Lsn(32), Lsn(32)));
    }

    #[test]
    fn records_span_segments_and_a_cut_frees_whole_segments() {
        let s = stream();
        let record: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        // 8 records of 100 000 B cross the 256 KiB segment boundaries at
        // odd offsets, by append and by reserve/fill alike.
        for i in 0..8 {
            if i % 2 == 0 {
                s.append(&record);
            } else {
                let r = s.reserve(record.len());
                s.fill(r, &record);
            }
        }
        s.sync();
        let all = s.read_chunk(Lsn::ZERO, usize::MAX).unwrap();
        assert_eq!(all.data.len(), 800_000);
        assert!(all.data.chunks(100_000).all(|c| c == record));
        let segments = |s: &LogStream| s.state.inner.lock().data.segs.len();
        assert_eq!(segments(&s), 800_000usize.div_ceil(SEGMENT_BYTES));

        s.truncate_below(Lsn(700_000));
        assert_eq!(segments(&s), 2, "segments wholly below the cut are gone");
        let tail = s.read_chunk(Lsn(700_000), usize::MAX).unwrap();
        assert_eq!(tail.data, record);
        // A cut that lands on the end, at a segment boundary or not, leaves
        // at most the one segment the start is in.
        s.truncate_below(Lsn(800_000));
        assert!(segments(&s) <= 1);
        assert_eq!(s.retention().retained_bytes, 0);
        assert_eq!(s.append(&record), Lsn(800_000));
        s.sync();
        assert_eq!(s.read_chunk(Lsn(800_000), usize::MAX).unwrap().data, record);
    }
}
