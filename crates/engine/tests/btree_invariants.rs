//! Structural invariants of the multi-node B-link tree, checked after
//! randomized and concurrent histories.

use std::collections::HashSet;
use std::sync::Arc;

use pmp_common::{ClusterConfig, NodeId, PageId};
use pmp_engine::page::PageKind;
use pmp_engine::row::RowValue;
use pmp_engine::shared::Shared;
use pmp_engine::NodeEngine;

fn cluster(nodes: u16) -> (Arc<Shared>, Vec<Arc<NodeEngine>>) {
    let shared = Shared::new(ClusterConfig::test(nodes as usize));
    let engines = (0..nodes)
        .map(|i| NodeEngine::start(Arc::clone(&shared), NodeId(i)))
        .collect();
    (shared, engines)
}

/// Walk the whole tree through one engine, checking every B-link invariant:
/// fences nest, sibling chains are sorted and terminated, internal
/// separators route into children whose key ranges respect them, and every
/// key appears exactly once at leaf level. Returns the number of keys seen.
fn check_tree(engine: &Arc<NodeEngine>, root: PageId) -> usize {
    use pmp_pmfs::PLockMode;

    // Collect the leftmost page of every level from the root.
    let mut level_heads = Vec::new();
    let mut current = root;
    loop {
        let _g = engine.plock(current, PLockMode::S).unwrap();
        let frame = engine.frame(current).unwrap();
        let page = frame.page.read();
        level_heads.push((page.level, current));
        match &page.kind {
            PageKind::Internal(node) => current = node.children[0],
            PageKind::Leaf(_) => break,
        }
    }

    // Walk each level left-to-right via sibling pointers.
    let mut keys_seen = 0;
    let mut seen_pages = HashSet::new();
    for &(level, head) in &level_heads {
        let mut current = head;
        let mut last_high: Option<u128> = None;
        let mut last_key: Option<u128> = None;
        while !current.is_null() {
            assert!(seen_pages.insert(current), "page {current} linked twice");
            let _g = engine.plock(current, PLockMode::S).unwrap();
            let frame = engine.frame(current).unwrap();
            let page = frame.page.read();
            assert_eq!(page.level, level, "sibling chain must stay on-level");

            // Fences nest: this page starts where the previous ended.
            if let Some(prev_high) = last_high {
                let first_key = match &page.kind {
                    PageKind::Leaf(l) => l.rows.first().map(|r| r.key),
                    PageKind::Internal(i) => i.keys.first().copied(),
                };
                if let Some(k) = first_key {
                    assert!(
                        k >= prev_high,
                        "keys must not fall below the previous page's fence"
                    );
                }
            }
            match &page.kind {
                PageKind::Leaf(l) => {
                    for row in &l.rows {
                        if let Some(prev) = last_key {
                            assert!(row.key > prev, "leaf keys must be globally sorted");
                        }
                        assert!(page.covers(row.key), "row outside its page's fence");
                        last_key = Some(row.key);
                        keys_seen += 1;
                    }
                }
                PageKind::Internal(i) => {
                    assert_eq!(i.children.len(), i.keys.len() + 1);
                    for pair in i.keys.windows(2) {
                        assert!(pair[0] < pair[1], "separators must be sorted");
                    }
                    for k in &i.keys {
                        assert!(page.covers(*k), "separator outside fence");
                    }
                }
            }
            if page.next.is_null() {
                assert_eq!(page.high, None, "rightmost page must be unfenced");
            } else {
                assert!(page.high.is_some(), "non-rightmost page needs a fence");
            }
            last_high = page.high;
            current = page.next;
        }
    }
    keys_seen
}

#[test]
fn sequential_inserts_build_a_valid_multilevel_tree() {
    let (shared, engines) = cluster(1);
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let mut txn = engines[0].begin().unwrap();
    for k in 0..3_000u64 {
        txn.insert(meta.id, k, RowValue::new(vec![k])).unwrap();
    }
    txn.commit().unwrap();
    assert_eq!(check_tree(&engines[0], meta.root), 3_000);
}

#[test]
fn random_inserts_from_all_nodes_keep_invariants() {
    let (shared, engines) = cluster(3);
    let meta = shared.create_table("t", 1, &[]).unwrap();

    let handles: Vec<_> = engines
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            let engine = Arc::clone(engine);
            let table = meta.id;
            std::thread::spawn(move || {
                // Interleaved random-ish keys so splits happen everywhere
                // and separators propagate concurrently.
                for j in 0..800u64 {
                    let key =
                        j.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64) % 1_000_000;
                    let mut txn = engine.begin().unwrap();
                    // Collisions across the hash are possible: upsert.
                    match txn.insert(table, key, RowValue::new(vec![key])) {
                        Ok(()) => txn.commit().map(|_| ()).unwrap(),
                        Err(pmp_common::PmpError::DuplicateKey) => {
                            txn.commit().map(|_| ()).unwrap()
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Check from every node: each sees the same valid structure.
    let n = check_tree(&engines[0], meta.root);
    assert!(n > 2_000, "most of the 2400 inserts are distinct ({n})");
    for engine in &engines[1..] {
        assert_eq!(check_tree(engine, meta.root), n);
    }
}

#[test]
fn llsn_is_monotone_per_page_across_nodes() {
    // After cross-node updates of the same rows, every page's LLSN must
    // exceed any LLSN previously observed for it — spot-checked by
    // scanning redo records per page.
    use pmp_common::Lsn;
    use pmp_engine::redo::LogDecoder;
    use std::collections::HashMap;

    let (shared, engines) = cluster(2);
    let meta = shared.create_table("t", 1, &[]).unwrap();
    let mut txn = engines[0].begin().unwrap();
    for k in 0..200u64 {
        txn.insert(meta.id, k, RowValue::new(vec![0])).unwrap();
    }
    txn.commit().unwrap();

    for round in 1..=5u64 {
        let engine = &engines[(round % 2) as usize];
        let mut txn = engine.begin().unwrap();
        for k in (0..200u64).step_by(7) {
            txn.update(meta.id, k, RowValue::new(vec![round])).unwrap();
        }
        txn.commit().unwrap();
    }

    // Merge both logs: per page, LLSNs in (cross-node) generation order.
    // Within a file byte order == generation order; across files we sort
    // all records per page by LLSN and verify strict monotonicity (no
    // duplicate LLSN for one page — each page update got a fresh stamp).
    let mut per_page: HashMap<pmp_common::PageId, Vec<u64>> = HashMap::new();
    let dec = LogDecoder::new(shared.config.compression);
    for node in [NodeId(0), NodeId(1)] {
        let stream = shared.storage.redo_stream(node);
        stream.sync();
        let mut carry = stream.read_gather(Lsn::ZERO, usize::MAX).unwrap().data;
        dec.drain(&mut carry, &mut |rec| {
            if rec.is_page_op() {
                per_page.entry(rec.page).or_default().push(rec.llsn.0);
            }
            Ok(())
        })
        .unwrap();
        assert!(carry.is_empty(), "whole log decodes cleanly");
    }
    for (page, mut llsns) in per_page {
        let len = llsns.len();
        llsns.sort_unstable();
        llsns.dedup();
        assert_eq!(len, llsns.len(), "duplicate LLSN for {page}");
    }
}
