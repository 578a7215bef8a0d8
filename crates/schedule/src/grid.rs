//! The paper's 2-D placement table (control steps × FU index), one per
//! functional-unit class.

use std::collections::BTreeMap;

use hls_dfg::{Dfg, FuClass, NodeId};

use crate::{CStep, FuIndex};

/// Occupant record of one grid cell.
///
/// Almost every occupied cell holds exactly one operation; only cells
/// shared under mutual exclusion (paper §5.1) spill into the side map,
/// so the dense per-cell storage stays one word wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellOcc {
    Empty,
    One(NodeId),
    /// Two or more occupants — the list lives in [`Grid::shared`].
    Shared,
}

/// Occupancy table for one FU class: the "grid table" of Figure 1, where
/// an operation occupies `(FU index, control step)` cells.
///
/// The grid optionally wraps control steps modulo a functional-pipelining
/// latency `L`: "for a given latency L, the operations scheduled into
/// control step `t + k·L` run concurrently" (paper §5.5.2), so occupancy
/// conflicts are evaluated on `(step − 1) mod L`.
///
/// Mutual exclusion is honoured: a cell may hold several operations as
/// long as they are pairwise mutually exclusive (paper §5.1).
///
/// # Representation
///
/// Occupancy is a flat, column-major bitset (`wpc` words per column, one
/// bit per `(step, fu)` cell), so the hot [`Grid::is_free_for`] probe is
/// a bounds check plus a mask test. Occupant identity lives in a dense
/// one-word-per-cell side table, with a `BTreeMap` only for the rare
/// mutually-exclusive shared cells. Columns are materialised on first
/// touch, so a grid whose `max_fu` budget later grows (local
/// rescheduling) never reallocates more than it uses.
#[derive(Debug, Clone)]
pub struct Grid {
    class: FuClass,
    cs: u32,
    max_fu: u32,
    latency: Option<u32>,
    /// Height of the wrap space: `latency.unwrap_or(cs)` rows.
    rows: u32,
    /// Occupancy words per column.
    wpc: usize,
    /// Materialised columns (`≤ max_fu`).
    cols: u32,
    /// `cols × wpc` occupancy words; a set bit means "≥ 1 occupant".
    occ: Vec<u64>,
    /// `cols × rows` occupant records.
    cell: Vec<CellOcc>,
    /// Occupant lists of mutually-exclusive shared cells, keyed by
    /// `(wrapped row, fu)` in occupancy order.
    shared: BTreeMap<(u32, u32), Vec<NodeId>>,
    /// `NodeId`-indexed placements (grown on demand).
    placements: Vec<Option<(CStep, FuIndex, u8)>>,
    placed: usize,
    /// Placements per materialised column, for the high-water mark.
    col_counts: Vec<u32>,
    /// Highest column currently in use (maintained, not scanned).
    hwm: u32,
}

impl Grid {
    /// An empty grid for `class` with `cs` steps and at most `max_fu`
    /// unit columns.
    ///
    /// # Panics
    ///
    /// Panics if `cs` or `max_fu` is zero.
    pub fn new(class: FuClass, cs: u32, max_fu: u32) -> Self {
        assert!(cs >= 1 && max_fu >= 1, "grid dimensions are 1-based");
        Grid {
            class,
            cs,
            max_fu,
            latency: None,
            rows: cs,
            wpc: (cs as usize).div_ceil(64),
            cols: 0,
            occ: Vec::new(),
            cell: Vec::new(),
            shared: BTreeMap::new(),
            placements: Vec::new(),
            placed: 0,
            col_counts: Vec::new(),
            hwm: 0,
        }
    }

    /// Enables modulo-`latency` occupancy for functional pipelining.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn with_latency(mut self, latency: u32) -> Self {
        assert!(latency >= 1, "latency must be positive");
        debug_assert!(self.placed == 0, "latency is fixed before placement");
        self.latency = Some(latency);
        self.rows = latency;
        self.wpc = (latency as usize).div_ceil(64);
        self
    }

    /// The FU class this grid belongs to.
    pub fn class(&self) -> FuClass {
        self.class
    }

    /// Number of control steps.
    pub fn control_steps(&self) -> u32 {
        self.cs
    }

    /// Column budget (`max_j`).
    pub fn max_fu(&self) -> u32 {
        self.max_fu
    }

    /// Raises the column budget (local rescheduling may discover that
    /// the initial `max_j` estimate was too small when it was derived
    /// from ASAP/ALAP concurrency rather than a user constraint).
    pub fn grow_max_fu(&mut self, max_fu: u32) {
        self.max_fu = self.max_fu.max(max_fu);
    }

    /// 0-based wrapped row of a 1-based step.
    fn row(&self, step: u32) -> u32 {
        match self.latency {
            Some(l) => (step - 1) % l,
            None => step - 1,
        }
    }

    /// Materialises storage up to column `col` (0-based).
    fn ensure_col(&mut self, col: u32) {
        if col >= self.cols {
            let cols = col + 1;
            self.occ.resize(cols as usize * self.wpc, 0);
            self.cell
                .resize(cols as usize * self.rows as usize, CellOcc::Empty);
            self.col_counts.resize(cols as usize, 0);
            self.cols = cols;
        }
    }

    /// Occupants of the cell `(step, fu)` (after wrap-around).
    pub fn occupants(&self, step: CStep, fu: FuIndex) -> &[NodeId] {
        let col = fu.get() - 1;
        if col >= self.cols {
            return &[];
        }
        let row = self.row(step.get());
        match &self.cell[(col * self.rows + row) as usize] {
            CellOcc::Empty => &[],
            CellOcc::One(node) => std::slice::from_ref(node),
            CellOcc::Shared => &self.shared[&(row + 1, fu.get())],
        }
    }

    /// Whether any cell in the `cycles`-step span starting at `step` on
    /// column `col` (0-based, materialised) is occupied.
    fn span_occupied(&self, col: u32, step: CStep, cycles: u8) -> bool {
        let base = col as usize * self.wpc;
        if self.latency.is_none() {
            // Contiguous rows: test whole words of the column bitset.
            let mut r = (step.get() - 1) as usize;
            let end = r + cycles as usize;
            while r < end {
                let span = (64 - r % 64).min(end - r);
                let mask = (!0u64 >> (64 - span)) << (r % 64);
                if self.occ[base + r / 64] & mask != 0 {
                    return true;
                }
                r += span;
            }
            false
        } else {
            (0..cycles as u32).any(|c| {
                let r = self.row(step.get() + c) as usize;
                self.occ[base + r / 64] >> (r % 64) & 1 == 1
            })
        }
    }

    /// Whether `node` (occupying `cycles` steps from `step` on column
    /// `fu`) can be placed: all its cells are inside the grid and every
    /// current occupant is mutually exclusive with it.
    pub fn is_free_for(
        &self,
        dfg: &Dfg,
        node: NodeId,
        step: CStep,
        fu: FuIndex,
        cycles: u8,
    ) -> bool {
        if fu.get() > self.max_fu {
            return false;
        }
        if step.finish(cycles).get() > self.cs {
            return false;
        }
        let col = fu.get() - 1;
        if col >= self.cols || !self.span_occupied(col, step, cycles) {
            return true;
        }
        // Something is there. A node that excludes nothing can never
        // share a cell, so only branched nodes walk the occupant lists.
        if !dfg.has_exclusions(node) {
            return false;
        }
        for c in 0..cycles as u32 {
            for &occ in self.occupants(step.offset(c), fu) {
                if !dfg.mutually_exclusive(node, occ) {
                    return false;
                }
            }
        }
        true
    }

    /// The start steps in `[earliest, latest]` at which `node`
    /// (occupying `cycles` steps) is free on each of the first
    /// `columns` columns — [`Grid::is_free_for`] for the whole window at
    /// once, a word of 64 steps at a time.
    ///
    /// Columns past `max_fu` are left out, columns never touched are
    /// entirely free, and starts whose span would overrun the time
    /// constraint are outside the window. An occupied cell blocks the
    /// spans over it unless `node` is mutually exclusive with every
    /// occupant.
    pub fn free_starts(
        &self,
        dfg: &Dfg,
        node: NodeId,
        earliest: CStep,
        latest: CStep,
        cycles: u8,
        columns: u32,
    ) -> FreeStarts {
        let columns = columns.min(self.max_fu);
        let lo = earliest.get();
        let last = latest
            .get()
            .min((self.cs + 1).saturating_sub(cycles as u32));
        let len = if last >= lo { last - lo + 1 } else { 0 };
        let words = (len as usize).div_ceil(64);
        let mut bits = vec![!0u64; columns as usize * words];
        let tail = match len % 64 {
            0 => !0u64,
            r => (1u64 << r) - 1,
        };
        // Mask word `w` covers the starts `lo + 64·w ..`; the `c`-th
        // cells of those spans are the 64 occupancy bits from step-space
        // row `r`. Which two words and what shift that takes is the same
        // in every column, so it is worked out once.
        let mut reads = Vec::with_capacity(words * cycles as usize);
        for w in 0..words {
            let valid = if w + 1 == words { tail } else { !0 };
            for c in 0..cycles as usize {
                let r = (lo - 1) as usize + 64 * w + c;
                reads.push((w, c as u32, r / 64, r % 64, valid));
            }
        }
        // A node that excludes nothing can never share a cell, so only
        // branched nodes look at who occupies the blocking cells.
        let shares = dfg.has_exclusions(node);
        let mut unrolled = Vec::new();
        for (col, masks) in (0..columns.min(self.cols)).zip(bits.chunks_mut(words.max(1))) {
            let fu = FuIndex::new(col + 1);
            let base = col as usize * self.wpc;
            let mut column = &self.occ[base..base + self.wpc];
            if self.latency.is_some() {
                // Unroll the wrapped rows into step space first.
                unrolled.clear();
                unrolled.resize((self.cs as usize).div_ceil(64), 0u64);
                for step in lo..=self.cs.min((last + cycles as u32).saturating_sub(1)) {
                    let r = self.row(step) as usize;
                    let s = (step - 1) as usize;
                    unrolled[s / 64] |= (column[r / 64] >> (r % 64) & 1) << (s % 64);
                }
                column = &unrolled;
            }
            let word = |i: usize| column.get(i).copied().unwrap_or(0);
            for &(w, c, i, shift, valid) in &reads {
                let high = if shift == 0 {
                    0
                } else {
                    word(i + 1) << (64 - shift)
                };
                // Bit `k`: the `c`-th cell of the span starting at step
                // `lo + 64·w + k`.
                let mut occupied = (word(i) >> shift | high) & valid;
                if shares {
                    let mut cells = occupied;
                    while cells != 0 {
                        let k = cells.trailing_zeros();
                        cells &= cells - 1;
                        let step = CStep::new(lo + 64 * w as u32 + k + c);
                        if self
                            .occupants(step, fu)
                            .iter()
                            .all(|&o| dfg.mutually_exclusive(node, o))
                        {
                            occupied &= !(1 << k);
                        }
                    }
                }
                masks[w] &= !occupied;
            }
        }
        if words > 0 {
            for masks in bits.chunks_mut(words) {
                masks[words - 1] &= tail;
            }
        }
        FreeStarts {
            lo,
            len,
            words,
            columns,
            bits,
        }
    }

    /// Places `node` at `(step, fu)` for `cycles` steps.
    ///
    /// # Panics
    ///
    /// Panics if the node is already placed or the cells are outside the
    /// grid — schedulers check [`Grid::is_free_for`] first, so either is
    /// a scheduler bug.
    pub fn occupy(&mut self, node: NodeId, step: CStep, fu: FuIndex, cycles: u8) {
        if node.index() >= self.placements.len() {
            self.placements.resize(node.index() + 1, None);
        }
        assert!(
            self.placements[node.index()].is_none(),
            "node {node} is already placed"
        );
        assert!(fu.get() <= self.max_fu, "column {fu} beyond max_fu");
        assert!(
            step.finish(cycles).get() <= self.cs,
            "placement overruns the time constraint"
        );
        let col = fu.get() - 1;
        self.ensure_col(col);
        for c in 0..cycles as u32 {
            let row = self.row(step.get() + c);
            self.occ[col as usize * self.wpc + row as usize / 64] |= 1 << (row % 64);
            let cell = &mut self.cell[(col * self.rows + row) as usize];
            match *cell {
                CellOcc::Empty => *cell = CellOcc::One(node),
                CellOcc::One(first) => {
                    *cell = CellOcc::Shared;
                    self.shared.insert((row + 1, fu.get()), vec![first, node]);
                }
                CellOcc::Shared => {
                    self.shared
                        .get_mut(&(row + 1, fu.get()))
                        .expect("shared cell has a list")
                        .push(node);
                }
            }
        }
        self.placements[node.index()] = Some((step, fu, cycles));
        self.placed += 1;
        self.col_counts[col as usize] += 1;
        self.hwm = self.hwm.max(fu.get());
    }

    /// Removes `node`'s placement (local rescheduling). Returns the old
    /// `(step, fu)` if it was placed.
    ///
    /// Cell and column state is fully reclaimed: no empty occupant lists
    /// linger and the high-water mark drops with the vacated column.
    pub fn vacate(&mut self, node: NodeId) -> Option<(CStep, FuIndex)> {
        let (step, fu, cycles) = self.placements.get_mut(node.index())?.take()?;
        let col = fu.get() - 1;
        for c in 0..cycles as u32 {
            let row = self.row(step.get() + c);
            let cell = &mut self.cell[(col * self.rows + row) as usize];
            match *cell {
                // Already cleared: a multi-cycle op whose span wraps
                // around a short latency touches the same row twice.
                CellOcc::Empty => {}
                CellOcc::One(n) => {
                    debug_assert_eq!(n, node, "cell occupant matches placement");
                    *cell = CellOcc::Empty;
                    self.occ[col as usize * self.wpc + row as usize / 64] &= !(1 << (row % 64));
                }
                CellOcc::Shared => {
                    let key = (row + 1, fu.get());
                    let list = self.shared.get_mut(&key).expect("shared cell has a list");
                    list.retain(|&n| n != node);
                    match list.len() {
                        0 => {
                            self.shared.remove(&key);
                            *cell = CellOcc::Empty;
                            self.occ[col as usize * self.wpc + row as usize / 64] &=
                                !(1 << (row % 64));
                        }
                        1 => {
                            *cell = CellOcc::One(list[0]);
                            self.shared.remove(&key);
                        }
                        _ => {}
                    }
                }
            }
        }
        self.placed -= 1;
        self.col_counts[col as usize] -= 1;
        while self.hwm > 0 && self.col_counts[self.hwm as usize - 1] == 0 {
            self.hwm -= 1;
        }
        Some((step, fu))
    }

    /// The placement of `node`, if any.
    pub fn placement(&self, node: NodeId) -> Option<(CStep, FuIndex)> {
        self.placements
            .get(node.index())
            .and_then(|p| p.map(|(s, f, _)| (s, f)))
    }

    /// Number of placed nodes.
    pub fn placed_count(&self) -> usize {
        self.placed
    }

    /// Highest column index in use (the FU count this grid implies) —
    /// O(1), maintained on occupy/vacate.
    pub fn columns_used(&self) -> u32 {
        self.hwm
    }

    /// Iterates over placements `(node, step, fu)` in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, CStep, FuIndex)> + '_ {
        self.placements
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|(s, f, _)| (NodeId::from_index(i), s, f)))
    }
}

/// Where one node fits on a [`Grid`]: for each visible column, a bitmask
/// over the start-step window `[lo, lo + len)` whose bit `i` is set iff
/// the node fits at step `lo + i` on that column. Built by
/// [`Grid::free_starts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeStarts {
    lo: u32,
    /// Start steps in the window (0 when it is empty).
    len: u32,
    /// Mask words per column.
    words: usize,
    columns: u32,
    /// `columns × words` masks, column-major.
    bits: Vec<u64>,
}

impl FreeStarts {
    fn column(&self, fu: FuIndex) -> &[u64] {
        let col = (fu.get() - 1) as usize;
        if col >= self.columns as usize {
            return &[];
        }
        &self.bits[col * self.words..(col + 1) * self.words]
    }

    /// Number of free `(step, column)` cells.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the node fits at `(step, fu)`.
    pub fn contains(&self, step: CStep, fu: FuIndex) -> bool {
        let Some(i) = step.get().checked_sub(self.lo).filter(|&i| i < self.len) else {
            return false;
        };
        let i = i as usize;
        self.column(fu)
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The earliest step at which the node fits on each column, as
    /// `(step, fu)` in column order; columns with no free cell are
    /// skipped.
    pub fn firsts(&self) -> impl Iterator<Item = (CStep, FuIndex)> + '_ {
        self.bits
            .chunks_exact(self.words.max(1))
            .zip(1..)
            .filter_map(|(masks, fu)| {
                let i = masks.iter().position(|&w| w != 0)?;
                let step = self.lo + 64 * i as u32 + masks[i].trailing_zeros();
                Some((CStep::new(step), FuIndex::new(fu)))
            })
    }

    /// Every free cell as `(step, fu)`, in step order and, within a step,
    /// column order.
    pub fn positions(&self) -> impl Iterator<Item = (CStep, FuIndex)> + '_ {
        (0..self.len).flat_map(move |i| {
            (1..=self.columns).filter_map(move |fu| {
                let (step, fu) = (CStep::new(self.lo + i), FuIndex::new(fu));
                self.contains(step, fu).then_some((step, fu))
            })
        })
    }

    /// The steps of `[lo, through]` at which no column is free — steps
    /// past the window included.
    pub fn full_steps(&self, through: CStep) -> Vec<CStep> {
        let mut open = vec![0u64; self.words];
        for masks in self.bits.chunks(self.words.max(1)) {
            for (o, &m) in open.iter_mut().zip(masks) {
                *o |= m;
            }
        }
        (self.lo..=through.get())
            .filter(|&step| {
                let i = (step - self.lo) as usize;
                i >= self.len as usize || open[i / 64] >> (i % 64) & 1 == 0
            })
            .map(CStep::new)
            .collect()
    }
}

/// Equality compares the logical content (dimensions and placements),
/// not the lazily-materialised storage.
impl PartialEq for Grid {
    fn eq(&self, other: &Self) -> bool {
        self.class == other.class
            && self.cs == other.cs
            && self.max_fu == other.max_fu
            && self.latency == other.latency
            && self.placed == other.placed
            && self.iter().eq(other.iter())
    }
}

impl Eq for Grid {}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;
    use proptest::prelude::*;

    /// The original `BTreeMap`-backed grid, kept verbatim as a
    /// differential-testing oracle for the dense implementation.
    struct ReferenceGrid {
        cs: u32,
        max_fu: u32,
        latency: Option<u32>,
        cells: BTreeMap<(u32, u32), Vec<NodeId>>,
        placements: BTreeMap<NodeId, (CStep, FuIndex, u8)>,
    }

    impl ReferenceGrid {
        fn new(cs: u32, max_fu: u32) -> Self {
            ReferenceGrid {
                cs,
                max_fu,
                latency: None,
                cells: BTreeMap::new(),
                placements: BTreeMap::new(),
            }
        }

        fn with_latency(mut self, latency: u32) -> Self {
            self.latency = Some(latency);
            self
        }

        fn wrap(&self, step: u32) -> u32 {
            match self.latency {
                Some(l) => (step - 1) % l + 1,
                None => step,
            }
        }

        fn occupants(&self, step: CStep, fu: FuIndex) -> &[NodeId] {
            self.cells
                .get(&(self.wrap(step.get()), fu.get()))
                .map(Vec::as_slice)
                .unwrap_or(&[])
        }

        fn is_free_for(
            &self,
            dfg: &Dfg,
            node: NodeId,
            step: CStep,
            fu: FuIndex,
            cycles: u8,
        ) -> bool {
            if fu.get() > self.max_fu || step.finish(cycles).get() > self.cs {
                return false;
            }
            for c in 0..cycles as u32 {
                for &occ in self.occupants(step.offset(c), fu) {
                    if !dfg.mutually_exclusive(node, occ) {
                        return false;
                    }
                }
            }
            true
        }

        fn occupy(&mut self, node: NodeId, step: CStep, fu: FuIndex, cycles: u8) {
            for c in 0..cycles as u32 {
                self.cells
                    .entry((self.wrap(step.offset(c).get()), fu.get()))
                    .or_default()
                    .push(node);
            }
            self.placements.insert(node, (step, fu, cycles));
        }

        fn vacate(&mut self, node: NodeId) -> Option<(CStep, FuIndex)> {
            let (step, fu, cycles) = self.placements.remove(&node)?;
            for c in 0..cycles as u32 {
                if let Some(cell) = self
                    .cells
                    .get_mut(&(self.wrap(step.offset(c).get()), fu.get()))
                {
                    cell.retain(|&n| n != node);
                }
            }
            Some((step, fu))
        }

        fn columns_used(&self) -> u32 {
            self.placements
                .values()
                .map(|&(_, f, _)| f.get())
                .max()
                .unwrap_or(0)
        }
    }

    fn exclusive_pair() -> (Dfg, NodeId, NodeId, NodeId) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let branch = b.begin_branch();
        b.enter_arm(branch, 0);
        b.op("t", OpKind::Add, &[x, y]).unwrap();
        b.exit_arm();
        b.enter_arm(branch, 1);
        b.op("e", OpKind::Add, &[x, y]).unwrap();
        b.exit_arm();
        b.op("u", OpKind::Add, &[x, y]).unwrap();
        let g = b.finish().unwrap();
        let t = g.node_by_name("t").unwrap();
        let e = g.node_by_name("e").unwrap();
        let u = g.node_by_name("u").unwrap();
        (g, t, e, u)
    }

    #[test]
    fn occupied_cell_blocks_non_exclusive_ops() {
        let (g, t, e, u) = exclusive_pair();
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 4, 2);
        grid.occupy(t, CStep::new(1), FuIndex::new(1), 1);
        // Mutually exclusive `e` can share the cell; unrelated `u` cannot.
        assert!(grid.is_free_for(&g, e, CStep::new(1), FuIndex::new(1), 1));
        assert!(!grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(1), 1));
        assert!(grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(2), 1));
        grid.occupy(e, CStep::new(1), FuIndex::new(1), 1);
        assert_eq!(grid.occupants(CStep::new(1), FuIndex::new(1)).len(), 2);
    }

    #[test]
    fn bounds_are_enforced() {
        let (g, t, _, _) = exclusive_pair();
        let grid = Grid::new(FuClass::Op(OpKind::Add), 3, 2);
        assert!(!grid.is_free_for(&g, t, CStep::new(1), FuIndex::new(3), 1));
        assert!(!grid.is_free_for(&g, t, CStep::new(3), FuIndex::new(1), 2));
        assert!(grid.is_free_for(&g, t, CStep::new(3), FuIndex::new(1), 1));
    }

    #[test]
    fn multicycle_occupies_consecutive_cells() {
        let (g, t, _, u) = exclusive_pair();
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 4, 1);
        grid.occupy(t, CStep::new(2), FuIndex::new(1), 2);
        assert!(!grid.is_free_for(&g, u, CStep::new(2), FuIndex::new(1), 1));
        assert!(!grid.is_free_for(&g, u, CStep::new(3), FuIndex::new(1), 1));
        assert!(grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(1), 1));
        assert!(grid.is_free_for(&g, u, CStep::new(4), FuIndex::new(1), 1));
    }

    #[test]
    fn vacate_restores_the_cell() {
        let (g, t, _, u) = exclusive_pair();
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 4, 1);
        grid.occupy(t, CStep::new(1), FuIndex::new(1), 1);
        assert_eq!(grid.vacate(t), Some((CStep::new(1), FuIndex::new(1))));
        assert!(grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(1), 1));
        assert_eq!(grid.vacate(t), None);
        assert_eq!(grid.placed_count(), 0);
    }

    #[test]
    fn vacate_reclaims_shared_cells() {
        let (g, t, e, u) = exclusive_pair();
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 4, 1);
        grid.occupy(t, CStep::new(1), FuIndex::new(1), 1);
        grid.occupy(e, CStep::new(1), FuIndex::new(1), 1);
        assert!(
            grid.shared.len() == 1,
            "two occupants spill to the side map"
        );
        grid.vacate(t);
        assert!(
            grid.shared.is_empty(),
            "single occupant returns to dense storage"
        );
        assert_eq!(grid.occupants(CStep::new(1), FuIndex::new(1)), &[e]);
        grid.vacate(e);
        assert!(grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(1), 1));
        assert!(
            grid.cell.iter().all(|c| *c == CellOcc::Empty),
            "no lingering cells"
        );
    }

    #[test]
    fn latency_wrap_detects_modulo_conflicts() {
        let (g, t, _, u) = exclusive_pair();
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 6, 1).with_latency(2);
        grid.occupy(t, CStep::new(1), FuIndex::new(1), 1);
        // Steps 3 and 5 collide with step 1 modulo L=2.
        assert!(!grid.is_free_for(&g, u, CStep::new(3), FuIndex::new(1), 1));
        assert!(!grid.is_free_for(&g, u, CStep::new(5), FuIndex::new(1), 1));
        assert!(grid.is_free_for(&g, u, CStep::new(2), FuIndex::new(1), 1));
    }

    #[test]
    fn columns_used_tracks_peak() {
        let (_, t, e, u) = exclusive_pair();
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 4, 3);
        assert_eq!(grid.columns_used(), 0);
        grid.occupy(t, CStep::new(1), FuIndex::new(1), 1);
        grid.occupy(u, CStep::new(1), FuIndex::new(3), 1);
        grid.occupy(e, CStep::new(2), FuIndex::new(2), 1);
        assert_eq!(grid.columns_used(), 3);
        assert_eq!(grid.placed_count(), 3);
    }

    #[test]
    fn columns_used_drops_after_vacating_the_peak() {
        let (_, t, e, u) = exclusive_pair();
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 4, 3);
        grid.occupy(t, CStep::new(1), FuIndex::new(1), 1);
        grid.occupy(u, CStep::new(1), FuIndex::new(3), 1);
        grid.occupy(e, CStep::new(2), FuIndex::new(2), 1);
        grid.vacate(u);
        assert_eq!(grid.columns_used(), 2);
        grid.vacate(e);
        assert_eq!(grid.columns_used(), 1);
        grid.vacate(t);
        assert_eq!(grid.columns_used(), 0);
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_placement_panics() {
        let (_, t, _, _) = exclusive_pair();
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 4, 1);
        grid.occupy(t, CStep::new(1), FuIndex::new(1), 1);
        grid.occupy(t, CStep::new(2), FuIndex::new(1), 1);
    }

    #[test]
    fn grow_max_fu_never_shrinks() {
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 4, 2);
        grid.grow_max_fu(5);
        assert_eq!(grid.max_fu(), 5);
        grid.grow_max_fu(3);
        assert_eq!(grid.max_fu(), 5);
    }

    /// A graph of `n` adds where nodes in the same arm-pair layer are
    /// mutually exclusive — rich enough to exercise shared cells.
    fn branchy_graph(n: usize) -> (Dfg, Vec<NodeId>) {
        let mut b = DfgBuilder::new("branchy");
        let x = b.input("x");
        let y = b.input("y");
        let mut names = Vec::new();
        let mut i = 0;
        while i < n {
            if n - i >= 2 && i % 3 == 0 {
                let branch = b.begin_branch();
                b.enter_arm(branch, 0);
                b.op(&format!("a{i}"), OpKind::Add, &[x, y]).unwrap();
                b.exit_arm();
                b.enter_arm(branch, 1);
                b.op(&format!("b{i}"), OpKind::Add, &[x, y]).unwrap();
                b.exit_arm();
                names.push(format!("a{i}"));
                names.push(format!("b{i}"));
                i += 2;
            } else {
                b.op(&format!("u{i}"), OpKind::Add, &[x, y]).unwrap();
                names.push(format!("u{i}"));
                i += 1;
            }
        }
        let g = b.finish().unwrap();
        let ids = names.iter().map(|s| g.node_by_name(s).unwrap()).collect();
        (g, ids)
    }

    proptest! {
        /// Differential test: random occupy/vacate/probe sequences give
        /// identical answers from the dense grid and the reference.
        #[test]
        fn dense_grid_matches_reference(
            ops in proptest::collection::vec((0usize..12, 1u32..9, 1u32..5, 1u8..3, 0u8..3), 1..60),
            latency in 0u32..4,
        ) {
            let (g, nodes) = branchy_graph(12);
            let cs = 8;
            let max_fu = 4;
            let (mut dense, mut reference) = if latency > 0 {
                (
                    Grid::new(FuClass::Op(OpKind::Add), cs, max_fu).with_latency(latency),
                    ReferenceGrid::new(cs, max_fu).with_latency(latency),
                )
            } else {
                (
                    Grid::new(FuClass::Op(OpKind::Add), cs, max_fu),
                    ReferenceGrid::new(cs, max_fu),
                )
            };
            for &(ni, step, fu, cycles, action) in &ops {
                let node = nodes[ni];
                let (step, fu) = (CStep::new(step), FuIndex::new(fu));
                match action {
                    // Probe.
                    0 => prop_assert_eq!(
                        dense.is_free_for(&g, node, step, fu, cycles),
                        reference.is_free_for(&g, node, step, fu, cycles)
                    ),
                    // Occupy (when legal in the reference semantics).
                    1 => {
                        if dense.placement(node).is_none()
                            && reference.is_free_for(&g, node, step, fu, cycles)
                        {
                            dense.occupy(node, step, fu, cycles);
                            reference.occupy(node, step, fu, cycles);
                        }
                    }
                    // Vacate.
                    _ => {
                        let got = dense.vacate(node);
                        prop_assert_eq!(got, reference.vacate(node));
                    }
                }
                prop_assert_eq!(dense.columns_used(), reference.columns_used());
                prop_assert_eq!(dense.placed_count(), reference.placements.len());
                for s in 1..=cs {
                    for f in 1..=max_fu {
                        prop_assert_eq!(
                            dense.occupants(CStep::new(s), FuIndex::new(f)),
                            reference.occupants(CStep::new(s), FuIndex::new(f)),
                            "occupants diverge at ({}, {})", s, f
                        );
                    }
                }
            }
        }
    }
}
