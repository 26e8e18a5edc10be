//! Redo (write-ahead) log records, §4.4.
//!
//! The engine logs physiological records: row-level ops applied to a named
//! page, full page images for structural changes (page creation and
//! splits), transaction outcome markers, and `UndoWrite` records that make
//! the undo store recoverable ("undo logs are also protected by its redo
//! logs").
//!
//! Every page-touching record carries the LLSN stamped into the page at
//! generation time; recovery applies a record iff `record.llsn >
//! page.llsn`, which both makes replay idempotent and implements the LLSN
//! partial order across nodes.

use pmp_common::{
    Cts, GlobalTrxId, Llsn, NodeId, PageId, PmpError, Result, SlotId, TableId, TrxId,
};

use crate::codec::{Reader, Writer};
use crate::page::{InternalPage, LeafPage, Page, PageKind};
use crate::row::{IndexKey, Row, RowHeader, RowValue};
use crate::undo::{UndoPtr, UndoRecord};

/// A redo record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RedoRecord {
    /// LLSN of the page change; `Llsn::ZERO` for non-page records.
    pub llsn: Llsn,
    /// Target page; `PageId::NULL` for non-page records.
    pub page: PageId,
    pub table: TableId,
    pub op: RedoOp,
}

/// Record bodies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RedoOp {
    /// Full page image: page creation and structure modification.
    PageImage(Page),
    /// Insert a row into a leaf.
    InsertRow(Row),
    /// Replace the header + value of an existing row.
    UpdateRow {
        key: IndexKey,
        header: RowHeader,
        value: RowValue,
    },
    /// Physically remove a row (rollback of an insert).
    RemoveRow { key: IndexKey },
    /// Transaction committed (durability marker, carrying the commit
    /// timestamp so log consumers — the standby — can track the TSO).
    Commit { trx: GlobalTrxId, cts: Cts },
    /// Transaction rolled back to completion.
    Rollback { trx: GlobalTrxId },
    /// An undo record was written; lets recovery rebuild the undo store.
    UndoWrite { ptr: UndoPtr, record: UndoRecord },
}

impl RedoRecord {
    pub fn is_page_op(&self) -> bool {
        !self.page.is_null()
    }
}

// ---- encoding ----------------------------------------------------------

const TAG_PAGE_IMAGE: u8 = 1;
const TAG_INSERT_ROW: u8 = 2;
const TAG_UPDATE_ROW: u8 = 3;
const TAG_REMOVE_ROW: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_ROLLBACK: u8 = 6;
const TAG_UNDO_WRITE: u8 = 7;

fn put_gid(w: &mut Writer, gid: GlobalTrxId) {
    w.put_u16(gid.node.0);
    w.put_u64(gid.trx.0);
    w.put_u32(gid.slot.0);
    w.put_u64(gid.version);
}

fn get_gid(r: &mut Reader<'_>) -> Result<GlobalTrxId> {
    Ok(GlobalTrxId {
        node: NodeId(r.get_u16()?),
        trx: TrxId(r.get_u64()?),
        slot: SlotId(r.get_u32()?),
        version: r.get_u64()?,
    })
}

fn put_undo_ptr(w: &mut Writer, p: UndoPtr) {
    w.put_u16(p.node.0);
    w.put_u64(p.seq);
}

fn get_undo_ptr(r: &mut Reader<'_>) -> Result<UndoPtr> {
    Ok(UndoPtr {
        node: NodeId(r.get_u16()?),
        seq: r.get_u64()?,
    })
}

fn put_header(w: &mut Writer, h: &RowHeader) {
    put_gid(w, h.trx);
    w.put_u64(h.cts.0);
    put_undo_ptr(w, h.undo);
    w.put_bool(h.deleted);
}

fn get_header(r: &mut Reader<'_>) -> Result<RowHeader> {
    Ok(RowHeader {
        trx: get_gid(r)?,
        cts: Cts(r.get_u64()?),
        undo: get_undo_ptr(r)?,
        deleted: r.get_bool()?,
    })
}

fn put_value(w: &mut Writer, v: &RowValue) {
    w.put_u32(v.0.len() as u32);
    for c in &v.0 {
        w.put_u64(*c);
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<RowValue> {
    let n = r.get_u32()? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        cols.push(r.get_u64()?);
    }
    Ok(RowValue(cols))
}

fn put_row(w: &mut Writer, row: &Row) {
    w.put_u128(row.key);
    put_header(w, &row.header);
    put_value(w, &row.value);
}

fn get_row(r: &mut Reader<'_>) -> Result<Row> {
    Ok(Row {
        key: r.get_u128()?,
        header: get_header(r)?,
        value: get_value(r)?,
    })
}

fn put_page(w: &mut Writer, page: &Page) {
    w.put_u64(page.id.0);
    w.put_u64(page.llsn.0);
    w.put_u64(page.next.0);
    w.put_u16(page.level);
    match page.high {
        Some(high) => {
            w.put_bool(true);
            w.put_u128(high);
        }
        None => w.put_bool(false),
    }
    match &page.kind {
        PageKind::Leaf(leaf) => {
            w.put_u8(0);
            w.put_u32(leaf.rows.len() as u32);
            for row in &leaf.rows {
                put_row(w, row);
            }
        }
        PageKind::Internal(node) => {
            w.put_u8(1);
            w.put_u32(node.keys.len() as u32);
            for k in &node.keys {
                w.put_u128(*k);
            }
            w.put_u32(node.children.len() as u32);
            for c in &node.children {
                w.put_u64(c.0);
            }
        }
    }
}

/// The page codec in `pmp-storage` compresses the serialized image, not
/// the in-memory structure; the redo wire encoding doubles as that image
/// (it is the only canonical byte form a `Page` has).
impl pmp_storage::StorageImage for Page {
    fn storage_image(&self) -> Vec<u8> {
        let mut w = Writer::new();
        put_page(&mut w, self);
        w.into_vec()
    }

    fn version(&self) -> u64 {
        self.llsn.0
    }
}

fn get_page(r: &mut Reader<'_>) -> Result<Page> {
    let id = PageId(r.get_u64()?);
    let llsn = Llsn(r.get_u64()?);
    let next = PageId(r.get_u64()?);
    let level = r.get_u16()?;
    let high = if r.get_bool()? {
        Some(r.get_u128()?)
    } else {
        None
    };
    let kind = match r.get_u8()? {
        0 => {
            let n = r.get_u32()? as usize;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(get_row(r)?);
            }
            PageKind::Leaf(LeafPage { rows })
        }
        1 => {
            let nk = r.get_u32()? as usize;
            let mut keys = Vec::with_capacity(nk);
            for _ in 0..nk {
                keys.push(r.get_u128()?);
            }
            let nc = r.get_u32()? as usize;
            let mut children = Vec::with_capacity(nc);
            for _ in 0..nc {
                children.push(PageId(r.get_u64()?));
            }
            PageKind::Internal(InternalPage { keys, children })
        }
        t => return Err(PmpError::internal(format!("bad page kind tag {t}"))),
    };
    Ok(Page {
        id,
        llsn,
        next,
        high,
        level,
        kind,
    })
}

// Encoded sizes of the fixed-width building blocks (kept next to the
// `put_*` helpers above; `encoded_len` must mirror `encode_into` exactly —
// a debug assertion in `encode_into` pins the two together).
const GID_LEN: usize = 2 + 8 + 4 + 8;
const UNDO_PTR_LEN: usize = 2 + 8;
const HEADER_LEN: usize = GID_LEN + 8 + UNDO_PTR_LEN + 1;

fn value_len(v: &RowValue) -> usize {
    4 + 8 * v.0.len()
}

fn row_len(row: &Row) -> usize {
    16 + HEADER_LEN + value_len(&row.value)
}

fn page_len(page: &Page) -> usize {
    let mut n = 8 + 8 + 8 + 2; // id, llsn, next, level
    n += 1 + if page.high.is_some() { 16 } else { 0 };
    n += 1; // kind tag
    match &page.kind {
        PageKind::Leaf(leaf) => {
            n += 4;
            for row in &leaf.rows {
                n += row_len(row);
            }
        }
        PageKind::Internal(node) => {
            n += 4 + 16 * node.keys.len();
            n += 4 + 8 * node.children.len();
        }
    }
    n
}

impl RedoRecord {
    /// Exact number of bytes [`encode_into`](Self::encode_into) appends
    /// (length prefix included). Lets the WAL reserve its byte range in the
    /// log stream under the append lock and move the actual encoding
    /// outside it.
    pub fn encoded_len(&self) -> usize {
        let body = 8 + 8 + 4 + 1 // llsn, page, table, tag
            + match &self.op {
                RedoOp::PageImage(p) => page_len(p),
                RedoOp::InsertRow(row) => row_len(row),
                RedoOp::UpdateRow { value, .. } => 16 + HEADER_LEN + value_len(value),
                RedoOp::RemoveRow { .. } => 16,
                RedoOp::Commit { .. } => GID_LEN + 8,
                RedoOp::Rollback { .. } => GID_LEN,
                RedoOp::UndoWrite { record, .. } => {
                    UNDO_PTR_LEN
                        + GID_LEN
                        + 4
                        + 16
                        + 1
                        + match &record.prev {
                            Some((_, v)) => HEADER_LEN + value_len(v),
                            None => 0,
                        }
                        + UNDO_PTR_LEN
                }
            };
        4 + body
    }

    /// Encode with a `u32` length prefix so streams can be decoded
    /// incrementally.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let mut w = Writer::new();
        w.put_u64(self.llsn.0);
        w.put_u64(self.page.0);
        w.put_u32(self.table.0);
        match &self.op {
            RedoOp::PageImage(p) => {
                w.put_u8(TAG_PAGE_IMAGE);
                put_page(&mut w, p);
            }
            RedoOp::InsertRow(row) => {
                w.put_u8(TAG_INSERT_ROW);
                put_row(&mut w, row);
            }
            RedoOp::UpdateRow { key, header, value } => {
                w.put_u8(TAG_UPDATE_ROW);
                w.put_u128(*key);
                put_header(&mut w, header);
                put_value(&mut w, value);
            }
            RedoOp::RemoveRow { key } => {
                w.put_u8(TAG_REMOVE_ROW);
                w.put_u128(*key);
            }
            RedoOp::Commit { trx, cts } => {
                w.put_u8(TAG_COMMIT);
                put_gid(&mut w, *trx);
                w.put_u64(cts.0);
            }
            RedoOp::Rollback { trx } => {
                w.put_u8(TAG_ROLLBACK);
                put_gid(&mut w, *trx);
            }
            RedoOp::UndoWrite { ptr, record } => {
                w.put_u8(TAG_UNDO_WRITE);
                put_undo_ptr(&mut w, *ptr);
                put_gid(&mut w, record.trx);
                w.put_u32(record.table.0);
                w.put_u128(record.key);
                match &record.prev {
                    Some((h, v)) => {
                        w.put_bool(true);
                        put_header(&mut w, h);
                        put_value(&mut w, v);
                    }
                    None => w.put_bool(false),
                }
                put_undo_ptr(&mut w, record.trx_prev);
            }
        }
        let body = w.into_vec();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        debug_assert_eq!(
            out.len() - start,
            self.encoded_len(),
            "encoded_len must mirror encode_into"
        );
    }

    /// Decode one record from `buf`. Returns the record and bytes consumed,
    /// or `Ok(None)` when `buf` holds only a partial record (the chunked
    /// recovery reader then refills from the next chunk).
    pub fn decode_from(buf: &[u8]) -> Result<Option<(RedoRecord, usize)>> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        if buf.len() < 4 + len {
            return Ok(None);
        }
        let mut r = Reader::new(&buf[4..4 + len]);
        let llsn = Llsn(r.get_u64()?);
        let page = PageId(r.get_u64()?);
        let table = TableId(r.get_u32()?);
        let op = match r.get_u8()? {
            TAG_PAGE_IMAGE => RedoOp::PageImage(get_page(&mut r)?),
            TAG_INSERT_ROW => RedoOp::InsertRow(get_row(&mut r)?),
            TAG_UPDATE_ROW => RedoOp::UpdateRow {
                key: r.get_u128()?,
                header: get_header(&mut r)?,
                value: get_value(&mut r)?,
            },
            TAG_REMOVE_ROW => RedoOp::RemoveRow { key: r.get_u128()? },
            TAG_COMMIT => RedoOp::Commit {
                trx: get_gid(&mut r)?,
                cts: Cts(r.get_u64()?),
            },
            TAG_ROLLBACK => RedoOp::Rollback {
                trx: get_gid(&mut r)?,
            },
            TAG_UNDO_WRITE => {
                let ptr = get_undo_ptr(&mut r)?;
                let trx = get_gid(&mut r)?;
                let rec_table = TableId(r.get_u32()?);
                let key = r.get_u128()?;
                let prev = if r.get_bool()? {
                    Some((get_header(&mut r)?, get_value(&mut r)?))
                } else {
                    None
                };
                let trx_prev = get_undo_ptr(&mut r)?;
                RedoOp::UndoWrite {
                    ptr,
                    record: UndoRecord {
                        trx,
                        table: rec_table,
                        key,
                        prev,
                        trx_prev,
                    },
                }
            }
            t => return Err(PmpError::internal(format!("bad redo tag {t}"))),
        };
        Ok(Some((
            RedoRecord {
                llsn,
                page,
                table,
                op,
            },
            4 + len,
        )))
    }

    /// Apply a page-op record to `page`, respecting the LLSN rule: apply
    /// iff `self.llsn > page.llsn`. Returns whether the record was applied.
    pub fn apply_to(&self, page: &mut Page) -> bool {
        debug_assert!(self.is_page_op());
        if self.llsn <= page.llsn {
            return false;
        }
        match &self.op {
            RedoOp::PageImage(image) => {
                *page = image.clone();
                // The image itself carries the LLSN; keep the larger.
                page.llsn = page.llsn.max(self.llsn);
            }
            RedoOp::InsertRow(row) => {
                let leaf = page.as_leaf_mut();
                match leaf.search(row.key) {
                    // Replay after a partially-applied history may find the
                    // key present; the record's version wins.
                    Ok(i) => leaf.rows[i] = row.clone(),
                    Err(i) => leaf.rows.insert(i, row.clone()),
                }
                page.llsn = self.llsn;
            }
            RedoOp::UpdateRow { key, header, value } => {
                let leaf = page.as_leaf_mut();
                if let Some(row) = leaf.get_mut(*key) {
                    row.header = *header;
                    row.value = value.clone();
                }
                page.llsn = self.llsn;
            }
            RedoOp::RemoveRow { key } => {
                let leaf = page.as_leaf_mut();
                if let Ok(i) = leaf.search(*key) {
                    leaf.rows.remove(i);
                }
                page.llsn = self.llsn;
            }
            _ => unreachable!("non-page op applied to page"),
        }
        true
    }
}

// ---- compressed log framing --------------------------------------------
//
// With log compression on, the WAL wraps each group of records in one frame:
//
//   [u32 body_len][u8 codec_tag][u32 raw_len][payload: body_len - 5 bytes]
//
// `codec_tag` says whether the payload is the raw record bytes (the codec
// did not win on this group) or a compressed image of them; `raw_len` is
// the decoded size either way, so readers can pre-size and validate. The
// `u32` prefix covers tag + raw_len + payload, mirroring `RedoRecord`'s
// own length-prefix discipline so the chunked recovery reader can treat a
// partial frame at the durable tail exactly like a partial record.

/// Payload is the raw record bytes, stored uncompressed.
const FRAME_RAW: u8 = 0;
/// Payload is compressed with the cluster's configured codec.
const FRAME_COMPRESSED: u8 = 1;

/// Frame codec for compressed redo groups.
pub struct LogFrame;

impl LogFrame {
    /// Fixed framing bytes around the payload: length prefix + codec tag +
    /// raw length. The WAL reserves `OVERHEAD + raw_len` per group and
    /// returns the unused tail to the stream as a dead range.
    pub const OVERHEAD: usize = 4 + 1 + 4;

    /// Frame `raw` (one group of concatenated records), compressing with
    /// `codec` when that actually saves bytes. The result never exceeds
    /// `OVERHEAD + raw.len()`.
    pub fn encode(codec: &pmp_storage::Codec, raw: &[u8]) -> Vec<u8> {
        let comp = codec.compress(raw);
        let (tag, payload) = if comp.len() < raw.len() {
            (FRAME_COMPRESSED, comp)
        } else {
            (FRAME_RAW, raw.to_vec())
        };
        let mut out = Vec::with_capacity(Self::OVERHEAD + payload.len());
        out.extend_from_slice(&((1 + 4 + payload.len()) as u32).to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode one frame from `buf`: returns the raw record bytes and the
    /// frame's encoded size, or `Ok(None)` when `buf` holds only a partial
    /// frame (the chunked reader refills — or, at the durable tail, treats
    /// it as a torn frame and stops cleanly).
    pub fn decode(codec: &pmp_storage::Codec, buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        if body_len < 5 {
            return Err(PmpError::internal(format!(
                "bad log frame body length {body_len}"
            )));
        }
        if buf.len() < 4 + body_len {
            return Ok(None);
        }
        let tag = buf[4];
        let raw_len = u32::from_le_bytes(buf[5..9].try_into().unwrap()) as usize;
        let payload = &buf[9..4 + body_len];
        let raw = match tag {
            FRAME_RAW => {
                if payload.len() != raw_len {
                    return Err(PmpError::internal("raw log frame length mismatch"));
                }
                payload.to_vec()
            }
            FRAME_COMPRESSED => codec.decompress(payload, raw_len)?,
            t => return Err(PmpError::internal(format!("bad log frame tag {t}"))),
        };
        Ok(Some((raw, 4 + body_len)))
    }
}

/// Incremental decoder over one redo stream's byte format: raw
/// concatenated records, or [`LogFrame`]-wrapped groups when the stream
/// was written with log compression on. Recovery and the standby shipping loop
/// hold one per stream and feed it gathered chunks.
#[derive(Debug, Clone, Copy)]
pub struct LogDecoder {
    framed: bool,
    codec: pmp_storage::Codec,
}

impl LogDecoder {
    pub fn new(comp: pmp_common::CompressionConfig) -> Self {
        LogDecoder {
            framed: comp.log_enabled(),
            codec: pmp_storage::Codec::new(comp.compression),
        }
    }

    /// The pre-compression raw-record format.
    pub fn raw() -> Self {
        Self::new(pmp_common::CompressionConfig::off())
    }

    pub fn framed(&self) -> bool {
        self.framed
    }

    /// Decode every complete record (or frame of records) at the head of
    /// `carry`, invoking `f` per record in stream order; consumed bytes are
    /// drained, any partial tail stays for the next chunk. A frame always
    /// holds whole records — a record torn *inside* a frame is corruption,
    /// not a chunk boundary.
    pub fn drain(
        &self,
        carry: &mut Vec<u8>,
        f: &mut impl FnMut(RedoRecord) -> Result<()>,
    ) -> Result<()> {
        let mut offset = 0;
        if self.framed {
            while let Some((raw, used)) = LogFrame::decode(&self.codec, &carry[offset..])? {
                let mut rpos = 0;
                while let Some((rec, rused)) = RedoRecord::decode_from(&raw[rpos..])? {
                    rpos += rused;
                    f(rec)?;
                }
                if rpos != raw.len() {
                    return Err(PmpError::internal("partial record inside a log frame"));
                }
                offset += used;
            }
        } else {
            while let Some((rec, used)) = RedoRecord::decode_from(&carry[offset..])? {
                offset += used;
                f(rec)?;
            }
        }
        carry.drain(..offset);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_common::CSN_INIT;

    fn gid(node: u16, trx: u64) -> GlobalTrxId {
        GlobalTrxId {
            node: NodeId(node),
            trx: TrxId(trx),
            slot: SlotId(trx as u32),
            version: trx,
        }
    }

    fn sample_row(key: IndexKey) -> Row {
        Row {
            key,
            header: RowHeader {
                trx: gid(1, 7),
                cts: CSN_INIT,
                undo: UndoPtr {
                    node: NodeId(1),
                    seq: 3,
                },
                deleted: false,
            },
            value: RowValue(vec![key as u64, 42]),
        }
    }

    fn roundtrip(rec: &RedoRecord) -> RedoRecord {
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        assert_eq!(buf.len(), rec.encoded_len(), "encoded_len must be exact");
        let (out, consumed) = RedoRecord::decode_from(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        out
    }

    #[test]
    fn roundtrip_every_variant() {
        let mut leaf = Page::new_leaf(PageId(9));
        leaf.llsn = Llsn(4);
        leaf.next = PageId(11);
        leaf.high = Some(50);
        leaf.as_leaf_mut().insert(sample_row(5));
        let internal = Page::new_internal(PageId(10), 1, vec![100], vec![PageId(9), PageId(11)]);

        let records = vec![
            RedoRecord {
                llsn: Llsn(5),
                page: PageId(9),
                table: TableId(1),
                op: RedoOp::PageImage(leaf),
            },
            RedoRecord {
                llsn: Llsn(6),
                page: PageId(10),
                table: TableId(1),
                op: RedoOp::PageImage(internal),
            },
            RedoRecord {
                llsn: Llsn(7),
                page: PageId(9),
                table: TableId(1),
                op: RedoOp::InsertRow(sample_row(8)),
            },
            RedoRecord {
                llsn: Llsn(8),
                page: PageId(9),
                table: TableId(1),
                op: RedoOp::UpdateRow {
                    key: 8,
                    header: sample_row(8).header,
                    value: RowValue(vec![1, 2, 3]),
                },
            },
            RedoRecord {
                llsn: Llsn(9),
                page: PageId(9),
                table: TableId(1),
                op: RedoOp::RemoveRow { key: 8 },
            },
            RedoRecord {
                llsn: Llsn::ZERO,
                page: PageId::NULL,
                table: TableId(0),
                op: RedoOp::Commit {
                    trx: gid(2, 11),
                    cts: Cts(99),
                },
            },
            RedoRecord {
                llsn: Llsn::ZERO,
                page: PageId::NULL,
                table: TableId(0),
                op: RedoOp::Rollback { trx: gid(2, 12) },
            },
            RedoRecord {
                llsn: Llsn::ZERO,
                page: PageId::NULL,
                table: TableId(1),
                op: RedoOp::UndoWrite {
                    ptr: UndoPtr {
                        node: NodeId(1),
                        seq: 44,
                    },
                    record: UndoRecord {
                        trx: gid(1, 7),
                        table: TableId(1),
                        key: 5,
                        prev: Some((sample_row(5).header, RowValue(vec![9]))),
                        trx_prev: UndoPtr::NULL,
                    },
                },
            },
        ];
        for rec in &records {
            assert_eq!(&roundtrip(rec), rec);
        }
    }

    #[test]
    fn undo_write_without_prev_roundtrips() {
        let rec = RedoRecord {
            llsn: Llsn::ZERO,
            page: PageId::NULL,
            table: TableId(1),
            op: RedoOp::UndoWrite {
                ptr: UndoPtr {
                    node: NodeId(0),
                    seq: 1,
                },
                record: UndoRecord {
                    trx: gid(0, 1),
                    table: TableId(1),
                    key: 77,
                    prev: None,
                    trx_prev: UndoPtr {
                        node: NodeId(0),
                        seq: 0,
                    },
                },
            },
        };
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn partial_buffers_return_none() {
        let rec = RedoRecord {
            llsn: Llsn(1),
            page: PageId(1),
            table: TableId(1),
            op: RedoOp::RemoveRow { key: 1 },
        };
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        for cut in [0, 1, 3, buf.len() - 1] {
            assert!(RedoRecord::decode_from(&buf[..cut]).unwrap().is_none());
        }
    }

    #[test]
    fn decode_stream_of_records() {
        let mut buf = Vec::new();
        for k in 0..5u128 {
            RedoRecord {
                llsn: Llsn(k as u64 + 1),
                page: PageId(1),
                table: TableId(1),
                op: RedoOp::RemoveRow { key: k },
            }
            .encode_into(&mut buf);
        }
        let mut pos = 0;
        let mut count = 0;
        while let Some((rec, used)) = RedoRecord::decode_from(&buf[pos..]).unwrap() {
            assert_eq!(rec.llsn, Llsn(count + 1));
            pos += used;
            count += 1;
        }
        assert_eq!(count, 5);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn apply_respects_llsn_rule() {
        let mut page = Page::new_leaf(PageId(1));
        page.llsn = Llsn(10);
        let stale = RedoRecord {
            llsn: Llsn(10),
            page: PageId(1),
            table: TableId(1),
            op: RedoOp::InsertRow(sample_row(1)),
        };
        assert!(!stale.apply_to(&mut page), "llsn <= page.llsn must skip");
        assert_eq!(page.entry_count(), 0);

        let fresh = RedoRecord {
            llsn: Llsn(11),
            page: PageId(1),
            table: TableId(1),
            op: RedoOp::InsertRow(sample_row(1)),
        };
        assert!(fresh.apply_to(&mut page));
        assert_eq!(page.entry_count(), 1);
        assert_eq!(page.llsn, Llsn(11));
    }

    #[test]
    fn apply_sequence_rebuilds_page() {
        let mut page = Page::new_leaf(PageId(1));
        let ops = vec![
            (1, RedoOp::InsertRow(sample_row(1))),
            (2, RedoOp::InsertRow(sample_row(2))),
            (
                3,
                RedoOp::UpdateRow {
                    key: 1,
                    header: sample_row(1).header,
                    value: RowValue(vec![999]),
                },
            ),
            (4, RedoOp::RemoveRow { key: 2 }),
        ];
        for (llsn, op) in ops {
            let rec = RedoRecord {
                llsn: Llsn(llsn),
                page: PageId(1),
                table: TableId(1),
                op,
            };
            assert!(rec.apply_to(&mut page));
        }
        let leaf = page.as_leaf();
        assert_eq!(leaf.rows.len(), 1);
        assert_eq!(leaf.rows[0].value, RowValue(vec![999]));
    }

    #[test]
    fn log_frame_roundtrips_and_detects_partials() {
        use pmp_common::Compression;
        use pmp_storage::Codec;
        for kind in [
            Compression::Off,
            Compression::Lz4Like,
            Compression::DictLike,
        ] {
            let codec = Codec::new(kind);
            let mut raw = Vec::new();
            for k in 0..20u128 {
                RedoRecord {
                    llsn: Llsn(k as u64 + 1),
                    page: PageId(1),
                    table: TableId(1),
                    op: RedoOp::RemoveRow { key: k },
                }
                .encode_into(&mut raw);
            }
            let frame = LogFrame::encode(&codec, &raw);
            assert!(frame.len() <= LogFrame::OVERHEAD + raw.len());
            if kind != Compression::Off {
                assert!(
                    frame.len() < raw.len(),
                    "repetitive records must compress ({kind:?})"
                );
            }
            let (decoded, used) = LogFrame::decode(&codec, &frame).unwrap().unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(decoded, raw);
            // Every strict prefix is a partial frame, not an error.
            for cut in [0usize, 3, 8, frame.len() - 1] {
                assert!(LogFrame::decode(&codec, &frame[..cut]).unwrap().is_none());
            }
        }
    }

    #[test]
    fn log_frame_rejects_corrupt_tags() {
        use pmp_common::Compression;
        use pmp_storage::Codec;
        let codec = Codec::new(Compression::Lz4Like);
        let mut frame = LogFrame::encode(&codec, b"some raw record bytes here");
        frame[4] = 9; // bogus codec tag
        assert!(LogFrame::decode(&codec, &frame).is_err());
    }
}
