//! Seeded input generation: a SplitMix64 stream and the sysbench-style
//! transaction mixes over the "N private table groups + 1 shared group"
//! layout of the paper's §5.1. The program under test only ever sees the
//! keys produced here.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state word, full period,
/// passes BigCrush — ample for key selection, and small enough to keep in
/// this file so the benchmark needs no `rand`.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` by multiply-shift (bias < n / 2^64).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Rows a range select returns; scan starts are drawn so a full range
/// always exists, which makes "exactly `SCAN_LEN` rows" an output check.
pub const SCAN_LEN: usize = 100;

/// Where the tables live: group `g < nodes` is node `g`'s private group;
/// group `nodes`, present when `shared_group` is set, is shared by every
/// node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    pub nodes: usize,
    pub shared_group: bool,
    pub tables_per_group: usize,
    pub rows_per_table: u64,
}

impl Layout {
    pub fn shared_group_index(&self) -> usize {
        self.nodes
    }

    pub fn group_count(&self) -> usize {
        self.nodes + self.shared_group as usize
    }

    pub fn table_count(&self) -> usize {
        self.group_count() * self.tables_per_group
    }

    pub fn table_index(&self, group: usize, slot: usize) -> usize {
        group * self.tables_per_group + slot
    }

    pub fn group_of(&self, table: usize) -> usize {
        table / self.tables_per_group
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 10 point selects + 1 range select.
    ReadOnly,
    /// 2 updates + delete/insert of one key.
    WriteOnly,
    /// `ReadOnly` followed by `WriteOnly`.
    ReadWrite,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Scan,
    Update,
    Delete,
    Insert,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub table: usize,
    pub key: u64,
}

/// The longest mix (`ReadWrite`): 10 + 1 + 2 + 2 statements.
pub const MAX_OPS: usize = 15;

/// One generated transaction, held inline so the measured loop allocates
/// nothing for it.
#[derive(Clone, Copy, Debug)]
pub struct TxnSpec {
    ops: [Op; MAX_OPS],
    len: usize,
}

impl TxnSpec {
    pub fn ops(&self) -> &[Op] {
        &self.ops[..self.len]
    }
}

/// Per-client transaction generator.
#[derive(Clone, Debug)]
pub struct TxnGen {
    rng: SplitMix64,
    layout: Layout,
    mix: Mix,
    /// Percentage of selects and updates aimed at the shared group.
    shared_pct: u64,
    /// The client's node, i.e. its private group.
    node: usize,
}

impl TxnGen {
    pub fn new(seed: u64, client: usize, layout: Layout, mix: Mix, shared_pct: u64) -> Self {
        assert!(shared_pct <= 100 && (layout.shared_group || shared_pct == 0));
        assert!(client < layout.nodes);
        assert!(layout.rows_per_table > SCAN_LEN as u64);
        // Decorrelate the clients' streams: one SplitMix64 step over a
        // client-dependent state, not `seed + client`.
        let mut mixer =
            SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        TxnGen {
            rng: SplitMix64::new(mixer.next_u64()),
            layout,
            mix,
            shared_pct,
            node: client,
        }
    }

    /// A table for a select or an update: of the shared group with
    /// probability `shared_pct`, else of the client's own.
    fn table(&mut self) -> usize {
        if self.rng.below(100) < self.shared_pct {
            self.table_of(self.layout.shared_group_index())
        } else {
            self.table_of(self.node)
        }
    }

    fn table_of(&mut self, group: usize) -> usize {
        let slot = self.rng.below(self.layout.tables_per_group as u64) as usize;
        self.layout.table_index(group, slot)
    }

    fn key(&mut self) -> u64 {
        self.rng.below(self.layout.rows_per_table)
    }

    pub fn next_txn(&mut self) -> TxnSpec {
        let filler = Op {
            kind: OpKind::Get,
            table: 0,
            key: 0,
        };
        let mut t = TxnSpec {
            ops: [filler; MAX_OPS],
            len: 0,
        };
        let mut push = |kind, table, key| {
            t.ops[t.len] = Op { kind, table, key };
            t.len += 1;
        };
        if self.mix != Mix::WriteOnly {
            for _ in 0..10 {
                let (table, key) = (self.table(), self.key());
                push(OpKind::Get, table, key);
            }
            let table = self.table();
            let start = self
                .rng
                .below(self.layout.rows_per_table - SCAN_LEN as u64 + 1);
            push(OpKind::Scan, table, start);
        }
        if self.mix != Mix::ReadOnly {
            for _ in 0..2 {
                let (table, key) = (self.table(), self.key());
                push(OpKind::Update, table, key);
            }
            // Always a table of the client's own group: while one node
            // deletes and re-inserts a key, the engine lets another node's
            // select miss the row (README.md, "What the benchmark found"),
            // and a benchmark runs on workloads whose every operation
            // succeeds.
            let (table, key) = (self.table_of(self.node), self.key());
            push(OpKind::Delete, table, key);
            push(OpKind::Insert, table, key);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYOUT: Layout = Layout {
        nodes: 2,
        shared_group: true,
        tables_per_group: 4,
        rows_per_table: 10_000,
    };

    fn stream(seed: u64, client: usize, n: usize) -> Vec<Op> {
        let mut g = TxnGen::new(seed, client, LAYOUT, Mix::ReadWrite, 50);
        (0..n).flat_map(|_| g.next_txn().ops().to_vec()).collect()
    }

    #[test]
    fn same_seed_same_key_stream() {
        assert_eq!(stream(7, 0, 200), stream(7, 0, 200));
        assert_ne!(stream(7, 0, 200), stream(8, 0, 200));
        assert_ne!(stream(7, 0, 200), stream(7, 1, 200));
    }

    #[test]
    fn half_of_selects_and_updates_hit_the_shared_group() {
        let is_shared = |o: &Op| LAYOUT.group_of(o.table) == LAYOUT.shared_group_index();
        let (moving, aimed): (Vec<Op>, Vec<Op>) = stream(1, 1, 4_000)
            .into_iter()
            .partition(|o| matches!(o.kind, OpKind::Delete | OpKind::Insert));
        let share = aimed.iter().filter(|o| is_shared(o)).count() as f64 / aimed.len() as f64;
        assert!((0.48..0.52).contains(&share), "shared share {share}");
        // Delete + insert stay in the client's own group.
        assert!(moving.iter().all(|o| LAYOUT.group_of(o.table) == 1));
    }

    #[test]
    fn private_statements_stay_in_the_clients_group() {
        for client in 0..2 {
            for op in stream(3, client, 500) {
                let group = LAYOUT.group_of(op.table);
                assert!(group == client || group == LAYOUT.shared_group_index());
                assert!(op.table < LAYOUT.table_count());
            }
        }
        let mut private_only = TxnGen::new(3, 1, LAYOUT, Mix::WriteOnly, 0);
        for _ in 0..500 {
            for op in private_only.next_txn().ops() {
                assert_eq!(LAYOUT.group_of(op.table), 1);
            }
        }
    }

    #[test]
    fn keys_and_scan_ranges_stay_in_bounds() {
        for op in stream(5, 0, 2_000) {
            assert!(op.key < LAYOUT.rows_per_table);
            if op.kind == OpKind::Scan {
                assert!(op.key + SCAN_LEN as u64 <= LAYOUT.rows_per_table);
            }
        }
    }

    #[test]
    fn mixes_have_the_sysbench_statement_counts() {
        let count = |mix| {
            let mut g = TxnGen::new(9, 0, LAYOUT, mix, 0);
            let t = g.next_txn();
            let writes = t
                .ops()
                .iter()
                .filter(|o| !matches!(o.kind, OpKind::Get | OpKind::Scan))
                .count();
            (t.ops().len(), writes)
        };
        assert_eq!(count(Mix::ReadOnly), (11, 0));
        assert_eq!(count(Mix::WriteOnly), (4, 4));
        assert_eq!(count(Mix::ReadWrite), (15, 4));
        // Delete and insert name the same key, so cardinality is kept.
        let mut g = TxnGen::new(9, 0, LAYOUT, Mix::WriteOnly, 50);
        let t = g.next_txn();
        let (d, i) = (t.ops()[2], t.ops()[3]);
        assert_eq!((d.kind, i.kind), (OpKind::Delete, OpKind::Insert));
        assert_eq!((d.table, d.key), (i.table, i.key));
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = SplitMix64::new(42);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.below(10) as usize] += 1;
        }
        for b in buckets {
            assert!((9_000..11_000).contains(&b), "bucket {b}");
        }
    }
}
