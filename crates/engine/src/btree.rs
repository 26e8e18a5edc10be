//! The multi-node B-link tree over PLocked pages.
//!
//! Traversal never holds one page's PLock while acquiring another's (no
//! coupling): each page carries a high fence key and a right-sibling link,
//! so a traverser that raced a split simply moves right. That discipline is
//! what keeps the cross-node locking deadlock-free: PLocks are only ever
//! held while *waiting* in one direction (child → parent during splits),
//! and descents never hold-and-wait at all.
//!
//! Splits are bottom-up, one atomic mini-transaction per level:
//!
//! 1. split the full page under its X PLock (one atomic redo group with
//!    both page images), force the log, and register the new right sibling
//!    in the DBP *before* it can become reachable from another node;
//! 2. insert the separator into the parent level in a separate
//!    mini-transaction, splitting full ancestors the same way (recursion).
//!
//! Root splits grow the tree *in place*: the root page id never changes, so
//! the catalog root pointer is immutable and concurrent traversers are
//! unaffected.
//!
//! Physical consistency across nodes is exactly the paper's PLock story
//! (§4.3.1): S to read a page, X to modify it, structure changes hold their
//! X PLocks for the duration of the mini-transaction.

use pmp_common::sync::sched_point;
use pmp_common::{GlobalTrxId, PageId, PmpError, Result, TableId};
use pmp_pmfs::PLockMode;

use crate::node::NodeEngine;
use crate::page::{LeafPage, Page, PageKind};
use crate::redo::{RedoOp, RedoRecord};
use crate::row::IndexKey;
use crate::scheduler::with_parking_disabled;

/// What a modify closure decided, given the write-latched leaf.
pub enum ModifyVerdict<R> {
    /// Mutations were applied to the page; log `page_ops` for it (each op
    /// gets its own LLSN) preceded by `pre_records` (non-page records such
    /// as `UndoWrite`) in the same atomic group.
    Apply {
        result: R,
        page_ops: Vec<RedoOp>,
        pre_records: Vec<RedoRecord>,
    },
    /// Nothing was changed (pure read outcome, e.g. "key not found").
    NoChange(R),
    /// The closure wants to insert but the leaf is full. The closure must
    /// not have mutated anything.
    NeedSplit,
    /// The row is write-locked by an active transaction; the caller must
    /// wait and retry outside all latches. No mutations happened.
    Conflict(GlobalTrxId),
}

/// Outcome of [`leaf_modify`].
pub enum WriteResult<R> {
    Done(R),
    Conflict(GlobalTrxId),
}

/// Read the leaf covering `key` under its S PLock and read latch.
pub fn leaf_read<R>(
    engine: &NodeEngine,
    root: PageId,
    key: IndexKey,
    f: impl FnOnce(&Page) -> R,
) -> Result<R> {
    let mut current = root;
    loop {
        let _guard = engine.plock(current, PLockMode::S)?;
        let frame = engine.frame(current)?;
        let page = frame.page.read();
        if current == root {
            engine.set_root_hint(root, page.is_leaf());
        }
        if !page.covers(key) {
            current = page.next;
            continue;
        }
        match &page.kind {
            PageKind::Internal(node) => {
                current = node.child_for(key);
            }
            PageKind::Leaf(_) => return Ok(f(&page)),
        }
    }
}

/// Modify the leaf covering `key` under its X PLock and write latch. The
/// closure may run several times (after splits or right-moves); it must be
/// side-effect-free on every run that does not return `Apply`.
pub fn leaf_modify<R>(
    engine: &NodeEngine,
    table: TableId,
    root: PageId,
    key: IndexKey,
    f: &mut dyn FnMut(&mut Page) -> ModifyVerdict<R>,
) -> Result<WriteResult<R>> {
    let mut current = root;
    let mut expect_leaf = engine.root_hint(root);
    loop {
        enum Step<R> {
            Goto { page: PageId, expect_leaf: bool },
            RetryWithX,
            Split,
            Out(WriteResult<R>),
        }
        let step = {
            let mode = if expect_leaf {
                PLockMode::X
            } else {
                PLockMode::S
            };
            let _guard = engine.plock(current, mode)?;
            let frame = engine.frame(current)?;

            // Route under the read latch first.
            let routed = {
                let page = frame.page.read();
                if current == root {
                    engine.set_root_hint(root, page.is_leaf());
                }
                if !page.covers(key) {
                    Some(Step::Goto {
                        page: page.next,
                        expect_leaf: page.is_leaf(),
                    })
                } else {
                    match &page.kind {
                        PageKind::Internal(node) => Some(Step::Goto {
                            page: node.child_for(key),
                            expect_leaf: page.level == 1,
                        }),
                        PageKind::Leaf(_) if mode != PLockMode::X => Some(Step::RetryWithX),
                        PageKind::Leaf(_) => None,
                    }
                }
            };
            match routed {
                Some(step) => step,
                None => {
                    // We hold the X PLock; take the write latch and
                    // re-validate (a same-node thread may have split it).
                    let mut page = frame.page.write();
                    if !page.covers(key) {
                        Step::Goto {
                            page: page.next,
                            expect_leaf: true,
                        }
                    } else if let PageKind::Internal(node) = &page.kind {
                        // Root growth converted this page in place between
                        // our read and write latches (it still covers the
                        // key, so the `covers` re-check alone misses it):
                        // route down instead of modifying an internal page.
                        Step::Goto {
                            page: node.child_for(key),
                            expect_leaf: page.level == 1,
                        }
                    } else {
                        match f(&mut page) {
                            ModifyVerdict::Apply {
                                result,
                                page_ops,
                                pre_records,
                            } => {
                                let page_id = page.id;
                                let page_ref = &mut *page;
                                let end = engine.wal.log_atomic(|clock| {
                                    let mut recs = pre_records;
                                    for op in page_ops {
                                        let llsn = clock.next();
                                        page_ref.llsn = llsn;
                                        recs.push(RedoRecord {
                                            llsn,
                                            page: page_id,
                                            table,
                                            op,
                                        });
                                    }
                                    recs
                                });
                                frame.mark_dirty(end, page.llsn);
                                Step::Out(WriteResult::Done(result))
                            }
                            ModifyVerdict::NoChange(r) => Step::Out(WriteResult::Done(r)),
                            ModifyVerdict::Conflict(holder) => {
                                Step::Out(WriteResult::Conflict(holder))
                            }
                            ModifyVerdict::NeedSplit => Step::Split,
                        }
                    }
                }
            }
            // `_guard`, `frame` and all latches drop here.
        };
        match step {
            Step::Goto {
                page,
                expect_leaf: e,
            } => {
                current = page;
                expect_leaf = e;
            }
            Step::RetryWithX => {
                expect_leaf = true;
            }
            Step::Split => {
                split_for(engine, table, root, key)?;
                current = root;
                expect_leaf = engine.root_hint(root);
            }
            Step::Out(out) => return Ok(out),
        }
    }
}

/// Scan leaves starting at the one covering `from`, following sibling
/// links. `f` is called per leaf under S PLock + read latch; return `false`
/// to stop.
pub fn scan_from(
    engine: &NodeEngine,
    root: PageId,
    from: IndexKey,
    mut f: impl FnMut(&Page) -> bool,
) -> Result<()> {
    let mut current = root;
    let mut at_leaf_level = false;
    while !current.is_null() {
        let _guard = engine.plock(current, PLockMode::S)?;
        let frame = engine.frame(current)?;
        let page = frame.page.read();
        if !at_leaf_level {
            // Still descending to the leaf that covers `from`.
            if !page.covers(from) {
                current = page.next;
                continue;
            }
            match &page.kind {
                PageKind::Internal(node) => {
                    current = node.child_for(from);
                    continue;
                }
                PageKind::Leaf(_) => at_leaf_level = true,
            }
        }
        // Warm the sibling through the io ring while the visitor works on
        // this leaf: by the time the scan advances, the storage latency has
        // (partly) elapsed off-thread. Cancelled if the visitor stops the
        // scan before reaching the sibling.
        let pending = engine.prefetch(page.next);
        if !f(&page) {
            if let Some(token) = pending {
                engine.cancel_prefetch(token);
            }
            return Ok(());
        }
        current = page.next;
    }
    Ok(())
}

/// Ancestor stack collected on the way down: `(level, page_id)`.
type Ancestors = Vec<(u16, PageId)>;

/// Split whatever full page currently blocks an insert of `key`, then
/// return so the caller re-descends. The caller must not hold any PLock
/// guards on the affected path.
fn split_for(engine: &NodeEngine, table: TableId, root: PageId, key: IndexKey) -> Result<()> {
    let (leaf_id, ancestors) = descend_collect(engine, root, key)?;
    split_page(engine, table, root, leaf_id, &ancestors, key)
}

/// S-lock descent that records the internal ancestor at each level.
fn descend_collect(
    engine: &NodeEngine,
    root: PageId,
    key: IndexKey,
) -> Result<(PageId, Ancestors)> {
    let mut ancestors = Ancestors::new();
    let mut current = root;
    loop {
        let _guard = engine.plock(current, PLockMode::S)?;
        let frame = engine.frame(current)?;
        let page = frame.page.read();
        if !page.covers(key) {
            current = page.next;
            continue;
        }
        match &page.kind {
            PageKind::Internal(node) => {
                ancestors.push((page.level, current));
                current = node.child_for(key);
            }
            PageKind::Leaf(_) => return Ok((current, ancestors)),
        }
    }
}

/// Split `page_id` if (still) full and covering `key_hint`. Handles the
/// root-in-place growth case and recursively ensures the parent has room
/// for the new separator.
fn split_page(
    engine: &NodeEngine,
    table: TableId,
    root: PageId,
    page_id: PageId,
    ancestors: &Ancestors,
    key_hint: IndexKey,
) -> Result<()> {
    let split_out = {
        let _guard = engine.plock(page_id, PLockMode::X)?;
        let frame = engine.frame(page_id)?;
        let mut page = frame.page.write();
        if !page.covers(key_hint) || !engine.is_full(&page) {
            return Ok(()); // raced: someone else already split
        }
        // Cheaper than splitting: purge tombstones whose delete every view
        // already sees (space reclamation; delete-heavy workloads would
        // otherwise grow the tree with dead rows forever).
        if page.is_leaf() && purge_tombstones(engine, table, &frame, &mut page) {
            return Ok(());
        }
        if page_id == root {
            return root_split(engine, table, &frame, &mut page);
        }

        let new_id = engine.shared.storage.page_store().allocate_page_id();
        let (separator, mut right) = carve_right(&mut page, new_id);

        let page_ref = &mut *page;
        let right_ref = &mut right;
        let end = engine.wal.log_atomic(|clock| {
            page_ref.llsn = clock.next();
            right_ref.llsn = clock.next();
            vec![
                RedoRecord {
                    llsn: page_ref.llsn,
                    page: page_id,
                    table,
                    op: RedoOp::PageImage(page_ref.clone()),
                },
                RedoRecord {
                    llsn: right_ref.llsn,
                    page: new_id,
                    table,
                    op: RedoOp::PageImage(right_ref.clone()),
                },
            ]
        });
        frame.mark_dirty(end, page.llsn);
        // WAL rule: the new page's image must be durable before the page
        // is pushed anywhere (install_new_page registers it in the DBP).
        // (Mid-split the statement cannot unwind: wait as a thread.)
        if with_parking_disabled(|| engine.wal.force(end, &mut None))? < end {
            return Err(PmpError::NodeUnavailable { node: engine.node });
        }
        let parent_level = page.level + 1;
        // Install the new right sibling BEFORE the left page's write latch
        // drops. Same-node transactions share the node's PLock, so the
        // latch is all that hides left's updated `next` pointer: releasing
        // it first opens a window where a reader chases `next` to a page
        // that is in neither the LBP, the DBP, nor storage and aborts with
        // "missing from shared storage". (Root splits already install the
        // children under the root's latch for the same reason.)
        engine.install_new_page(right);
        sched_point("btree.split.install-window");
        drop(page);
        (separator, new_id, parent_level)
        // `_guard` drops: the split mini-transaction is complete.
    };

    let (separator, new_id, parent_level) = split_out;
    insert_separator(
        engine,
        table,
        root,
        ancestors,
        parent_level,
        separator,
        new_id,
    )
}

/// Physically remove every tombstone in a full leaf whose delete is
/// visible to all current views (committed CTS below the broadcast global
/// minimum view, §4.1): no snapshot can ever need the row or its version
/// chain again. Returns whether any row was reclaimed (logged as one page
/// image).
fn purge_tombstones(
    engine: &NodeEngine,
    table: TableId,
    frame: &std::sync::Arc<crate::lbp::Frame>,
    page: &mut Page,
) -> bool {
    let min_view = engine.tit.load_global_min_view();
    if min_view.0 == 0 {
        return false; // no consolidated view broadcast yet
    }
    let mut purged: Vec<crate::undo::UndoPtr> = Vec::new();
    {
        let leaf = page.as_leaf_mut();
        leaf.rows.retain(|row| {
            if !row.header.deleted {
                return true;
            }
            let cts = if !row.header.cts.is_init() {
                row.header.cts
            } else if row.header.trx.is_none() {
                pmp_common::CSN_MIN
            } else {
                engine.trx_cts(row.header.trx)
            };
            if cts != pmp_common::CSN_MAX && !cts.is_init() && cts < min_view {
                if !row.header.undo.is_null() {
                    purged.push(row.header.undo);
                }
                false // reclaim
            } else {
                true
            }
        });
    }
    if purged.is_empty() {
        return false;
    }
    let page_id = page.id;
    let page_ref = &mut *page;
    let end = engine.wal.log_atomic(|clock| {
        page_ref.llsn = clock.next();
        vec![RedoRecord {
            llsn: page_ref.llsn,
            page: page_id,
            table,
            op: RedoOp::PageImage(page_ref.clone()),
        }]
    });
    frame.mark_dirty(end, page.llsn);
    true
}

/// Grow the tree in place: the old root's contents move into two fresh
/// children and the root becomes a (taller) internal page.
fn root_split(
    engine: &NodeEngine,
    table: TableId,
    frame: &std::sync::Arc<crate::lbp::Frame>,
    page: &mut Page,
) -> Result<()> {
    let store = engine.shared.storage.page_store();
    let left_id = store.allocate_page_id();
    let right_id = store.allocate_page_id();

    // Carve the upper half into `right`; the lower half becomes `left`.
    let (separator, mut right) = carve_right(page, right_id);
    let mut left = Page {
        id: left_id,
        llsn: page.llsn,
        next: right_id,
        high: Some(separator),
        level: page.level,
        kind: page.kind.clone(),
    };
    // The root spans the whole level: its children are fenced between
    // themselves but the level's extremes stay open.
    right.next = PageId::NULL;
    right.high = None;

    let child_level = page.level;
    let root_id = page.id;
    *page = Page::new_internal(
        root_id,
        child_level + 1,
        vec![separator],
        vec![left_id, right_id],
    );

    let left_ref = &mut left;
    let right_ref = &mut right;
    let page_ref = &mut *page;
    let end = engine.wal.log_atomic(|clock| {
        left_ref.llsn = clock.next();
        right_ref.llsn = clock.next();
        page_ref.llsn = clock.next();
        vec![
            RedoRecord {
                llsn: left_ref.llsn,
                page: left_id,
                table,
                op: RedoOp::PageImage(left_ref.clone()),
            },
            RedoRecord {
                llsn: right_ref.llsn,
                page: right_id,
                table,
                op: RedoOp::PageImage(right_ref.clone()),
            },
            RedoRecord {
                llsn: page_ref.llsn,
                page: root_id,
                table,
                op: RedoOp::PageImage(page_ref.clone()),
            },
        ]
    });
    frame.mark_dirty(end, page.llsn);
    // WAL rule, as in the non-root split: no DBP install without durable
    // images.
    if with_parking_disabled(|| engine.wal.force(end, &mut None))? < end {
        return Err(PmpError::NodeUnavailable { node: engine.node });
    }
    engine.install_new_page(left);
    engine.install_new_page(right);
    engine.set_root_hint(root_id, false);
    Ok(())
}

/// Split the upper half of `page` into a new page `new_id`, B-link style:
/// the new right sibling inherits the old fence and sibling link, the left
/// half gets `separator` as its fence and the new page as its sibling.
fn carve_right(page: &mut Page, new_id: PageId) -> (IndexKey, Page) {
    let (separator, right_kind) = match &mut page.kind {
        PageKind::Leaf(leaf) => {
            let (sep, upper) = leaf.split_upper();
            (sep, PageKind::Leaf(LeafPage { rows: upper }))
        }
        PageKind::Internal(node) => {
            let (sep, upper) = node.split_upper();
            (sep, PageKind::Internal(upper))
        }
    };
    let right = Page {
        id: new_id,
        llsn: page.llsn,
        next: page.next,
        high: page.high,
        level: page.level,
        kind: right_kind,
    };
    page.next = new_id;
    page.high = Some(separator);
    (separator, right)
}

/// Insert `separator → new_child` into the internal level `level`,
/// splitting full ancestors as needed.
fn insert_separator(
    engine: &NodeEngine,
    table: TableId,
    root: PageId,
    ancestors: &Ancestors,
    level: u16,
    separator: IndexKey,
    new_child: PageId,
) -> Result<()> {
    let mut current = ancestors
        .iter()
        .find(|(l, _)| *l == level)
        .map(|(_, id)| *id)
        .unwrap_or(root);
    loop {
        enum SepAction {
            Goto(PageId),
            SplitSelf,
        }
        let action = {
            let _guard = engine.plock(current, PLockMode::X)?;
            let frame = engine.frame(current)?;
            let mut page = frame.page.write();
            if page.level > level {
                SepAction::Goto(page.as_internal().child_for(separator))
            } else if page.level < level {
                return Err(PmpError::internal(format!(
                    "separator insert landed below target level ({} < {level})",
                    page.level
                )));
            } else if !page.covers(separator) {
                SepAction::Goto(page.next)
            } else if page.as_internal().keys.binary_search(&separator).is_ok() {
                return Ok(()); // idempotent re-run: already inserted
            } else if engine.is_full(&page) {
                SepAction::SplitSelf
            } else {
                let idx = page.as_internal().child_index_for(separator);
                page.as_internal_mut()
                    .insert_split(idx, separator, new_child);
                let page_id = page.id;
                let page_ref = &mut *page;
                let end = engine.wal.log_atomic(|clock| {
                    page_ref.llsn = clock.next();
                    vec![RedoRecord {
                        llsn: page_ref.llsn,
                        page: page_id,
                        table,
                        op: RedoOp::PageImage(page_ref.clone()),
                    }]
                });
                frame.mark_dirty(end, page.llsn);
                return Ok(());
            }
            // Guards drop before we act.
        };
        match action {
            SepAction::Goto(next) => current = next,
            SepAction::SplitSelf => {
                split_page(engine, table, root, current, ancestors, separator)?;
                // Retry at the same position; coverage checks route us.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{LeafPage, PageKind};
    use crate::row::{Row, RowValue};
    use pmp_common::Llsn;

    fn leaf_with_keys(id: u64, keys: &[u128]) -> Page {
        let mut page = Page::new_leaf(PageId(id));
        for &k in keys {
            page.as_leaf_mut()
                .insert(Row::bootstrap(k, RowValue::new(vec![k as u64])));
        }
        page
    }

    #[test]
    fn carve_right_links_siblings_and_fences() {
        let mut left = leaf_with_keys(1, &[10, 20, 30, 40]);
        left.next = PageId(99);
        left.high = Some(1000);
        left.llsn = Llsn(5);

        let (sep, right) = carve_right(&mut left, PageId(2));
        assert_eq!(sep, 30);
        // Left half: fenced at the separator, linked to the new page.
        assert_eq!(left.high, Some(30));
        assert_eq!(left.next, PageId(2));
        assert_eq!(left.as_leaf().rows.len(), 2);
        // Right half: inherits the old fence and sibling.
        assert_eq!(right.high, Some(1000));
        assert_eq!(right.next, PageId(99));
        assert_eq!(right.level, left.level);
        assert!(right.as_leaf().rows.iter().all(|r| r.key >= sep));
        assert!(left.as_leaf().rows.iter().all(|r| r.key < sep));
    }

    #[test]
    fn carve_right_internal_promotes_separator() {
        let mut node = Page::new_internal(
            PageId(1),
            1,
            vec![10, 20, 30, 40],
            vec![PageId(11), PageId(12), PageId(13), PageId(14), PageId(15)],
        );
        let (sep, right) = carve_right(&mut node, PageId(2));
        assert_eq!(sep, 30);
        // The promoted separator appears in NEITHER half (it moves up),
        // but routing across the fence stays exhaustive.
        assert!(!node.as_internal().keys.contains(&30));
        assert!(!right.as_internal().keys.contains(&30));
        assert_eq!(node.as_internal().child_for(25), PageId(13));
        assert_eq!(right.as_internal().child_for(35), PageId(14));
        assert_eq!(node.high, Some(30));
        assert_eq!(right.high, None);
    }

    #[test]
    fn modify_verdict_shapes_are_side_effect_free_markers() {
        // NeedSplit / Conflict are pure routing decisions: constructing and
        // matching them must not require any page context.
        let v: ModifyVerdict<()> = ModifyVerdict::NeedSplit;
        assert!(matches!(v, ModifyVerdict::NeedSplit));
        let v: ModifyVerdict<()> = ModifyVerdict::Conflict(pmp_common::GlobalTrxId::NONE);
        assert!(matches!(v, ModifyVerdict::Conflict(_)));
        // Leaf pages carved from kind clones stay structurally equal.
        let leaf = LeafPage::default();
        assert!(matches!(PageKind::Leaf(leaf), PageKind::Leaf(_)));
    }
}
