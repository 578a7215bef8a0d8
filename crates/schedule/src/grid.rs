//! The paper's 2-D placement table (control steps × unit index): one
//! per functional-unit class in MFS, and in MFSA one whose columns are
//! the ALU instances and one per memory bank whose columns are its
//! ports.

use std::collections::BTreeMap;

use hls_dfg::{Dfg, NodeId};

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

/// The path class an occupant that excludes nothing is tallied under.
const PLAIN: u32 = u32::MAX;

/// The path class `node` is tallied under: [`PLAIN`] when it excludes
/// nothing (`plain`), else its branch-path class.
fn tally_class(dfg: &Dfg, node: NodeId, plain: bool) -> u32 {
    match plain {
        true => PLAIN,
        false => dfg
            .path_class(node)
            .expect("a node with exclusions is on a branch path"),
    }
}

/// Tally key of an occupied cell none of whose occupants is plain: the
/// distinct branch-path classes of its occupants. A new occupant may
/// share the cell iff its class excludes each of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Signature {
    /// Every occupant is on one path class.
    Class(u32),
    /// Two or more classes, interned in [`Grid::sets`].
    Set(u32),
}

/// Occupancy table of one set of units: the "grid table" of Figure 1,
/// where an operation occupies `(unit index, control step)` cells. The
/// units are the columns of one FU class (MFS), the ALU instances of an
/// MFSA run, or the ports of one memory bank; the grid itself does not
/// know which.
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
/// Occupancy is step-major: one row of words per wrapped step, one bit
/// per materialised column, so [`Grid::retain_free`] answers a whole
/// step of a caller's columns with a few word operations, and
/// [`Grid::free_starts`] (a window of steps) and [`Grid::is_free_for`]
/// (one column) ask the same rule. Beside each row the grid keeps its
/// number of occupied columns and a *plain* row of the cells that some
/// occupant excluding nothing holds: such a cell can never be shared,
/// so only the other occupied cells are walked for mutual exclusion.
/// Those other cells are also tallied per row by their occupants'
/// path classes ([`Signature`]), so [`Grid::free_cells`] sizes a
/// single-cycle move frame in one read per step plus one exclusion
/// test per signature in the row. Occupant identity lives in a dense
/// one-word-per-cell side table, with a `BTreeMap` only for the rare
/// mutually-exclusive shared cells. Columns are materialised on first
/// touch, so a grid whose `max_fu` budget later grows (local
/// rescheduling) never stores more than it uses; the rows are re-laid
/// out whenever the materialised columns cross a 64-column boundary.
#[derive(Debug, Clone)]
pub struct Grid {
    cs: u32,
    max_fu: u32,
    latency: Option<u32>,
    /// Height of the wrap space: `latency.unwrap_or(cs)` rows.
    rows: u32,
    /// Materialised columns (`≤ max_fu`).
    cols: u32,
    /// Occupancy words per row: `⌈cols / 64⌉`.
    stride: usize,
    /// `rows × stride` occupancy words; bit `col` of row `r` set means
    /// "cell `(r, col)` has ≥ 1 occupant".
    occ: Vec<u64>,
    /// Set bits of each occupancy row (occupied columns per row).
    row_counts: Vec<u32>,
    /// `rows × stride` words laid out like `occ`: bit `col` of row `r`
    /// set means "some occupant of `(r, col)` excludes nothing", so
    /// the cell can never be shared.
    plain: Vec<u64>,
    /// Per wrapped row, the occupied cells that are not plain, counted
    /// by signature. Empty until the first occupant with exclusions, so
    /// a branch-free graph allocates nothing.
    tallies: Vec<Vec<(Signature, u32)>>,
    /// The class sets of [`Signature::Set`], sorted, and their ids.
    sets: Vec<Vec<u32>>,
    set_ids: BTreeMap<Vec<u32>, u32>,
    /// `cols × rows` occupant records.
    cell: Vec<CellOcc>,
    /// Occupant lists of mutually-exclusive shared cells, keyed by
    /// `(wrapped row, fu)` in occupancy order.
    shared: BTreeMap<(u32, u32), Vec<NodeId>>,
    /// `NodeId`-indexed placements (grown on demand): start, column,
    /// cycles, and whether the node excludes nothing.
    placements: Vec<Option<(CStep, FuIndex, u8, bool)>>,
    placed: usize,
    /// Placements per materialised column, for the high-water mark.
    col_counts: Vec<u32>,
    /// Highest column currently in use (maintained, not scanned).
    hwm: u32,
}

impl Grid {
    /// An empty grid with `cs` steps and at most `max_fu` unit columns.
    ///
    /// # Panics
    ///
    /// Panics if `cs` or `max_fu` is zero.
    pub fn new(cs: u32, max_fu: u32) -> Self {
        assert!(cs >= 1 && max_fu >= 1, "grid dimensions are 1-based");
        Grid {
            cs,
            max_fu,
            latency: None,
            rows: cs,
            cols: 0,
            stride: 0,
            occ: Vec::new(),
            row_counts: vec![0; cs as usize],
            plain: Vec::new(),
            tallies: Vec::new(),
            sets: Vec::new(),
            set_ids: BTreeMap::new(),
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
        self.row_counts = vec![0; latency as usize];
        self
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

    /// Sets or clears the occupancy bit of `(row, col)`, counting the
    /// row's occupied columns on a change of the bit only (a shared
    /// cell is one occupied column).
    fn mark(&mut self, row: u32, col: u32, occupied: bool) {
        let word = &mut self.occ[row as usize * self.stride + col as usize / 64];
        let bit = 1u64 << (col % 64);
        if (*word & bit != 0) != occupied {
            *word ^= bit;
            let count = &mut self.row_counts[row as usize];
            if occupied {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
    }

    /// Sets or clears the plain bit of `(row, col)`.
    fn mark_plain(&mut self, row: u32, col: u32, plain: bool) {
        let word = &mut self.plain[row as usize * self.stride + col as usize / 64];
        let bit = 1u64 << (col % 64);
        if plain {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The tally key of an occupied cell whose occupants have the path
    /// classes `classes` (sorted and deduplicated in place): `None` when
    /// one of them is plain, since such a cell is never shared.
    fn signature(&mut self, classes: &mut Vec<u32>) -> Option<Signature> {
        classes.sort_unstable();
        classes.dedup();
        match classes[..] {
            [] => None,
            [.., PLAIN] => None,
            [c] => Some(Signature::Class(c)),
            _ => {
                let next = self.sets.len() as u32;
                let id = *self.set_ids.entry(classes.clone()).or_insert(next);
                if id == next {
                    self.sets.push(classes.clone());
                }
                Some(Signature::Set(id))
            }
        }
    }

    /// Moves one cell of row `row` from tally key `old` to `new`.
    fn retally(&mut self, row: u32, old: Option<Signature>, new: Option<Signature>) {
        if old == new {
            return;
        }
        if self.tallies.is_empty() {
            self.tallies = vec![Vec::new(); self.rows as usize];
        }
        let tally = &mut self.tallies[row as usize];
        if let Some(old) = old {
            let i = tally
                .iter()
                .position(|&(sig, _)| sig == old)
                .expect("a tallied cell has an entry");
            tally[i].1 -= 1;
            if tally[i].1 == 0 {
                tally.swap_remove(i);
            }
        }
        if let Some(new) = new {
            match tally.iter_mut().find(|(sig, _)| *sig == new) {
                Some((_, n)) => *n += 1,
                None => tally.push((new, 1)),
            }
        }
    }

    /// The path class placed `node` is tallied under.
    fn class_of(&self, dfg: &Dfg, node: NodeId) -> u32 {
        let (.., plain) = self.placements[node.index()].expect("occupants are placed");
        tally_class(dfg, node, plain)
    }

    /// Whether a node on path class `class` may share every cell tallied
    /// under `sig`.
    fn shares_signature(&self, dfg: &Dfg, class: u32, sig: Signature) -> bool {
        match sig {
            Signature::Class(c) => dfg.paths_exclusive(class, c),
            Signature::Set(i) => self.sets[i as usize]
                .iter()
                .all(|&c| dfg.paths_exclusive(class, c)),
        }
    }

    /// The plain words of the wrapped row holding `step`.
    #[cfg(test)]
    fn plain_row(&self, step: u32) -> &[u64] {
        let base = self.row(step) as usize * self.stride;
        &self.plain[base..base + self.stride]
    }

    /// Materialises storage up to column `col` (0-based), re-laying the
    /// occupancy rows out when they need another word.
    fn ensure_col(&mut self, col: u32) {
        if col < self.cols {
            return;
        }
        let cols = col + 1;
        let stride = (cols as usize).div_ceil(64);
        if stride != self.stride {
            let relaid = |rows: &[u64]| {
                let mut wide = vec![0u64; self.rows as usize * stride];
                if self.stride > 0 {
                    for (new, old) in wide
                        .chunks_exact_mut(stride)
                        .zip(rows.chunks_exact(self.stride))
                    {
                        new[..old.len()].copy_from_slice(old);
                    }
                }
                wide
            };
            self.occ = relaid(&self.occ);
            self.plain = relaid(&self.plain);
            self.stride = stride;
        }
        self.cell
            .resize(cols as usize * self.rows as usize, CellOcc::Empty);
        self.col_counts.resize(cols as usize, 0);
        self.cols = cols;
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

    /// Whether `node` may share every occupied cell of step `step` on
    /// column `fu` — true only when it excludes each occupant.
    fn shares_with_all(&self, dfg: &Dfg, node: NodeId, step: CStep, fu: FuIndex) -> bool {
        self.occupants(step, fu)
            .iter()
            .all(|&o| dfg.mutually_exclusive(node, o))
    }

    /// Whether `node` (occupying `cycles` steps from `step` on column
    /// `fu`) can be placed: all its cells are inside the grid and every
    /// current occupant is mutually exclusive with it — the one-column
    /// case of [`Grid::retain_free`].
    pub fn is_free_for(
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
        let col = fu.get() - 1;
        let mut word = [1u64 << (col % 64)];
        self.retain_unoccupied(dfg, node, step, cycles, col as usize / 64, &mut word);
        word[0] != 0
    }

    /// Narrows the column set `columns` — bit `b` of word `w` stands for
    /// column `64·w + b + 1` — to the columns on which `node` fits from
    /// `step` for `cycles` steps: [`Grid::is_free_for`] for a whole set
    /// of columns, written in place, so a caller that asks at every step
    /// allocates nothing.
    ///
    /// Columns past `max_fu` are cleared, and every column when the span
    /// would overrun the time constraint; columns never touched are
    /// free. An occupied cell blocks the span over it unless `node` is
    /// mutually exclusive with every occupant, and only the caller's
    /// columns are ever walked for that.
    pub fn retain_free(
        &self,
        dfg: &Dfg,
        node: NodeId,
        step: CStep,
        cycles: u8,
        columns: &mut [u64],
    ) {
        if step.finish(cycles).get() > self.cs {
            columns.fill(0);
            return;
        }
        let budget = self.max_fu as usize;
        for (w, word) in columns.iter_mut().enumerate().skip(budget / 64) {
            *word &= if w == budget / 64 {
                (1u64 << (budget % 64)) - 1
            } else {
                0
            };
        }
        self.retain_unoccupied(dfg, node, step, cycles, 0, columns);
    }

    /// The free-cell rule behind every query of the grid: clears from
    /// `columns`, the words of a column set from word `first` on, each
    /// column with a cell among the `cycles` steps from `step` that
    /// `node` cannot share.
    ///
    /// A node that excludes nothing can never share a cell, so it drops
    /// every occupied column. A node with exclusions drops the plain
    /// cells (some occupant excludes nothing) and walks the occupants
    /// only of the other occupied cells it still holds.
    fn retain_unoccupied(
        &self,
        dfg: &Dfg,
        node: NodeId,
        step: CStep,
        cycles: u8,
        first: usize,
        columns: &mut [u64],
    ) {
        let live = self.stride.saturating_sub(first).min(columns.len());
        let shares = dfg.has_exclusions(node);
        for c in 0..cycles as u32 {
            let s = step.offset(c);
            let base = self.row(s.get()) as usize * self.stride + first;
            for (w, free) in columns[..live].iter_mut().enumerate() {
                let occ = self.occ[base + w];
                if !shares {
                    *free &= !occ;
                    continue;
                }
                *free &= !(occ & self.plain[base + w]);
                for bit in ones(*free & occ) {
                    let fu = FuIndex::new(64 * (first + w) as u32 + bit + 1);
                    if !self.shares_with_all(dfg, node, s, fu) {
                        *free &= !(1 << bit);
                    }
                }
            }
        }
    }

    /// The start steps in `[earliest, latest]` at which `node`
    /// (occupying `cycles` steps) is free on each of the first
    /// `columns` columns — [`Grid::retain_free`] at each start of the
    /// window, a row of 64 columns at a time.
    ///
    /// Columns past `max_fu` are left out, columns never touched are
    /// entirely free, and starts whose span would overrun the time
    /// constraint are outside the window. An occupied cell blocks the
    /// spans over it unless `node` is mutually exclusive with every
    /// occupant.
    ///
    /// Each start's row is the visible columns minus the `cycles`
    /// occupancy rows its span covers: `O(range × cycles × columns /
    /// 64)` word operations.
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
        let words = (columns as usize).div_ceil(64);
        let tail = match columns % 64 {
            0 => !0u64,
            r => (1u64 << r) - 1,
        };
        let mut bits = vec![!0u64; len as usize * words];
        for (start, row) in (lo..).zip(bits.chunks_exact_mut(words.max(1))) {
            row[words - 1] = tail;
            self.retain_unoccupied(dfg, node, CStep::new(start), cycles, 0, row);
        }
        FreeStarts {
            lo,
            len,
            words,
            columns,
            bits,
        }
    }

    /// The size and the earliest cell of the move frame of the
    /// unplaced single-cycle `node`, over the start steps `[earliest,
    /// latest]` and the first `columns` columns: the number of
    /// `(step, column)` cells it fits in and the one with the smallest
    /// `(step, fu)` — what [`Grid::free_starts`] would give by
    /// [`FreeStarts::count`] and [`FreeStarts::earliest`].
    ///
    /// Every occupied column must be visible for the counts to size the
    /// frame, so the answer is `None` when some occupant lies past the
    /// visible columns, and also when `node` has exclusions and is
    /// placed (it cannot share its own cells). Otherwise each step
    /// costs one read of its row's occupied-column count — plus, for a
    /// node with exclusions, one exclusion test per signature tallied
    /// in the row — and the earliest cell one scan of the first row
    /// with room: `O(range · signatures + columns / 64)`.
    pub fn free_cells(
        &self,
        dfg: &Dfg,
        node: NodeId,
        earliest: CStep,
        latest: CStep,
        columns: u32,
    ) -> Option<(usize, Option<(CStep, FuIndex)>)> {
        let columns = columns.min(self.max_fu);
        if self.hwm > columns {
            return None;
        }
        // The class of a node that may share cells.
        let class = if dfg.has_exclusions(node) {
            if self.placement(node).is_some() {
                return None;
            }
            dfg.path_class(node)
        } else {
            None
        };
        let mut size = 0;
        let mut first = None;
        for step in earliest.get()..=latest.get().min(self.cs) {
            let row = self.row(step) as usize;
            let mut free = columns - self.row_counts[row];
            if let (Some(class), Some(tally)) = (class, self.tallies.get(row)) {
                for &(sig, n) in tally {
                    if self.shares_signature(dfg, class, sig) {
                        free += n;
                    }
                }
            }
            size += free as usize;
            if free > 0 && first.is_none() {
                first = Some(step);
            }
        }
        let first = first.map(|step| {
            // Every occupied column is visible, so the lowest cell of a
            // row with room that `node` fits in is a visible column.
            let base = self.row(step) as usize * self.stride;
            let col = (0..self.stride)
                .find_map(|w| {
                    let (occ, plain) = (self.occ[base + w], self.plain[base + w]);
                    let open = if class.is_some() {
                        !(occ & plain)
                    } else {
                        !occ
                    };
                    ones(open).find_map(|bit| {
                        let col = 64 * w as u32 + bit;
                        (occ >> bit & 1 == 0
                            || self.shares_with_all(
                                dfg,
                                node,
                                CStep::new(step),
                                FuIndex::new(col + 1),
                            ))
                        .then_some(col)
                    })
                })
                .unwrap_or(64 * self.stride as u32);
            (CStep::new(step), FuIndex::new(col + 1))
        });
        Some((size, first))
    }

    /// Places `node` at `(step, fu)` for `cycles` steps. The node's
    /// exclusions decide whether its cells become plain (unshareable).
    ///
    /// # Panics
    ///
    /// Panics if the node is already placed or the cells are outside the
    /// grid — schedulers check [`Grid::is_free_for`] first, so either is
    /// a scheduler bug.
    pub fn occupy(&mut self, dfg: &Dfg, node: NodeId, step: CStep, fu: FuIndex, cycles: u8) {
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
        let plain = !dfg.has_exclusions(node);
        let class = tally_class(dfg, node, plain);
        self.ensure_col(col);
        self.placements[node.index()] = Some((step, fu, cycles, plain));
        for c in 0..cycles as u32 {
            let row = self.row(step.get() + c);
            self.mark(row, col, true);
            if plain {
                self.mark_plain(row, col, true);
            }
            let key = (row + 1, fu.get());
            let at = (col * self.rows + row) as usize;
            // The classes of the cell's earlier occupants, when it has any.
            let mut classes = match self.cell[at] {
                CellOcc::Empty => {
                    self.cell[at] = CellOcc::One(node);
                    if !plain {
                        self.retally(row, None, Some(Signature::Class(class)));
                    }
                    continue;
                }
                CellOcc::One(first) => {
                    self.cell[at] = CellOcc::Shared;
                    self.shared.insert(key, vec![first, node]);
                    vec![self.class_of(dfg, first)]
                }
                CellOcc::Shared => {
                    let classes = self.shared[&key]
                        .iter()
                        .map(|&o| self.class_of(dfg, o))
                        .collect();
                    self.shared
                        .get_mut(&key)
                        .expect("shared cell has a list")
                        .push(node);
                    classes
                }
            };
            let old = self.signature(&mut classes);
            classes.push(class);
            let new = self.signature(&mut classes);
            self.retally(row, old, new);
        }
        self.placed += 1;
        self.col_counts[col as usize] += 1;
        self.hwm = self.hwm.max(fu.get());
    }

    /// Removes `node`'s placement (local rescheduling). Returns the old
    /// `(step, fu)` if it was placed.
    ///
    /// Cell and column state is fully reclaimed: no empty occupant lists
    /// linger, the high-water mark drops with the vacated column, and a
    /// shared cell's plain bit and signature are recomputed from its
    /// remaining occupants, whose path classes `dfg` gives.
    pub fn vacate(&mut self, dfg: &Dfg, node: NodeId) -> Option<(CStep, FuIndex)> {
        let (step, fu, cycles, plain) = self.placements.get_mut(node.index())?.take()?;
        let class = tally_class(dfg, node, plain);
        let col = fu.get() - 1;
        for c in 0..cycles as u32 {
            let row = self.row(step.get() + c);
            let at = (col * self.rows + row) as usize;
            match self.cell[at] {
                CellOcc::One(n) if n == node => {
                    self.cell[at] = CellOcc::Empty;
                    self.mark(row, col, false);
                    self.mark_plain(row, col, false);
                    if class != PLAIN {
                        self.retally(row, Some(Signature::Class(class)), None);
                    }
                }
                // Already cleared: a multi-cycle op whose span wraps
                // around a short latency touches the same row twice, and
                // the first visit removed it (leaving any co-occupant).
                CellOcc::Empty | CellOcc::One(_) => {}
                CellOcc::Shared => {
                    let key = (row + 1, fu.get());
                    let mut list = self.shared.remove(&key).expect("shared cell has a list");
                    let mut old: Vec<u32> = list
                        .iter()
                        .map(|&o| {
                            if o == node {
                                class
                            } else {
                                self.class_of(dfg, o)
                            }
                        })
                        .collect();
                    list.retain(|&n| n != node);
                    let mut new: Vec<u32> = list.iter().map(|&o| self.class_of(dfg, o)).collect();
                    let plain = new.contains(&PLAIN);
                    let (old, new) = (self.signature(&mut old), self.signature(&mut new));
                    self.retally(row, old, new);
                    match list[..] {
                        [] => {
                            self.cell[at] = CellOcc::Empty;
                            self.mark(row, col, false);
                        }
                        [one] => self.cell[at] = CellOcc::One(one),
                        _ => {
                            self.shared.insert(key, list);
                        }
                    }
                    self.mark_plain(row, col, plain);
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
            .and_then(|p| p.map(|(s, f, ..)| (s, f)))
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
            .filter_map(|(i, p)| p.map(|(s, f, ..)| (NodeId::from_index(i), s, f)))
    }
}

/// Where one node fits on a [`Grid`]: for each start step of the window
/// `[lo, lo + len)`, a bitmask over the visible columns whose bit `c` is
/// set iff the node fits at that step on column `c + 1`. Built by
/// [`Grid::free_starts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeStarts {
    lo: u32,
    /// Start steps in the window (0 when it is empty).
    len: u32,
    /// Mask words per step.
    words: usize,
    columns: u32,
    /// `len × words` masks, step-major.
    bits: Vec<u64>,
}

impl FreeStarts {
    /// The column masks of each start step, in step order.
    fn rows(&self) -> impl Iterator<Item = (u32, &[u64])> + '_ {
        (self.lo..).zip(self.bits.chunks_exact(self.words.max(1)))
    }

    /// Number of visible columns.
    pub fn columns(&self) -> u32 {
        self.columns
    }

    /// Number of start steps in the window.
    pub fn steps(&self) -> u32 {
        self.len
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
        let col = fu.get() - 1;
        col < self.columns
            && self.bits[i as usize * self.words + col as usize / 64] >> (col % 64) & 1 == 1
    }

    /// The free cell with the smallest `(step, fu)`: the first step with
    /// a free column, then its lowest column.
    pub fn earliest(&self) -> Option<(CStep, FuIndex)> {
        self.rows().find_map(|(step, masks)| {
            let w = masks.iter().position(|&m| m != 0)?;
            let fu = 64 * w as u32 + masks[w].trailing_zeros() + 1;
            Some((CStep::new(step), FuIndex::new(fu)))
        })
    }

    /// The free cell with the smallest `(fu, step)`: the lowest column
    /// free at any step, then the first step it is free at.
    pub fn leftmost(&self) -> Option<(CStep, FuIndex)> {
        let mut open = vec![0u64; self.words];
        for (_, masks) in self.rows() {
            for (o, &m) in open.iter_mut().zip(masks) {
                *o |= m;
            }
        }
        let w = open.iter().position(|&m| m != 0)?;
        let bit = open[w].trailing_zeros();
        let (step, _) = self.rows().find(|(_, masks)| masks[w] >> bit & 1 == 1)?;
        Some((CStep::new(step), FuIndex::new(64 * w as u32 + bit + 1)))
    }

    /// Every free cell as `(step, fu)`, in step order and, within a step,
    /// column order.
    pub fn positions(&self) -> impl Iterator<Item = (CStep, FuIndex)> + '_ {
        self.rows().flat_map(|(step, masks)| {
            masks.iter().enumerate().flat_map(move |(w, &m)| {
                ones(m).map(move |bit| (CStep::new(step), FuIndex::new(64 * w as u32 + bit + 1)))
            })
        })
    }

    /// The steps of `[lo, through]` at which no column is free — steps
    /// past the window included.
    pub fn full_steps(&self, through: CStep) -> Vec<CStep> {
        (self.lo..=through.get())
            .filter(|&step| {
                let i = (step - self.lo) as usize;
                i >= self.len as usize
                    || self.bits[i * self.words..(i + 1) * self.words]
                        .iter()
                        .all(|&m| m == 0)
            })
            .map(CStep::new)
            .collect()
    }
}

/// The set bits of `word`, lowest first.
fn ones(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            bit
        })
    })
}

/// Equality compares the logical content (dimensions and placements),
/// not the lazily-materialised storage.
impl PartialEq for Grid {
    fn eq(&self, other: &Self) -> bool {
        self.cs == other.cs
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

        fn grow_max_fu(&mut self, max_fu: u32) {
            self.max_fu = self.max_fu.max(max_fu);
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
        let mut grid = Grid::new(4, 2);
        grid.occupy(&g, t, CStep::new(1), FuIndex::new(1), 1);
        // Mutually exclusive `e` can share the cell; unrelated `u` cannot.
        assert!(grid.is_free_for(&g, e, CStep::new(1), FuIndex::new(1), 1));
        assert!(!grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(1), 1));
        assert!(grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(2), 1));
        grid.occupy(&g, e, CStep::new(1), FuIndex::new(1), 1);
        assert_eq!(grid.occupants(CStep::new(1), FuIndex::new(1)).len(), 2);
    }

    #[test]
    fn bounds_are_enforced() {
        let (g, t, _, _) = exclusive_pair();
        let grid = Grid::new(3, 2);
        assert!(!grid.is_free_for(&g, t, CStep::new(1), FuIndex::new(3), 1));
        assert!(!grid.is_free_for(&g, t, CStep::new(3), FuIndex::new(1), 2));
        assert!(grid.is_free_for(&g, t, CStep::new(3), FuIndex::new(1), 1));
    }

    #[test]
    fn multicycle_occupies_consecutive_cells() {
        let (g, t, _, u) = exclusive_pair();
        let mut grid = Grid::new(4, 1);
        grid.occupy(&g, t, CStep::new(2), FuIndex::new(1), 2);
        assert!(!grid.is_free_for(&g, u, CStep::new(2), FuIndex::new(1), 1));
        assert!(!grid.is_free_for(&g, u, CStep::new(3), FuIndex::new(1), 1));
        assert!(grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(1), 1));
        assert!(grid.is_free_for(&g, u, CStep::new(4), FuIndex::new(1), 1));
    }

    #[test]
    fn vacate_restores_the_cell() {
        let (g, t, _, u) = exclusive_pair();
        let mut grid = Grid::new(4, 1);
        grid.occupy(&g, t, CStep::new(1), FuIndex::new(1), 1);
        assert_eq!(grid.vacate(&g, t), Some((CStep::new(1), FuIndex::new(1))));
        assert!(grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(1), 1));
        assert_eq!(grid.vacate(&g, t), None);
        assert_eq!(grid.placed_count(), 0);
    }

    #[test]
    fn vacate_reclaims_shared_cells() {
        let (g, t, e, u) = exclusive_pair();
        let mut grid = Grid::new(4, 1);
        grid.occupy(&g, t, CStep::new(1), FuIndex::new(1), 1);
        grid.occupy(&g, e, CStep::new(1), FuIndex::new(1), 1);
        assert!(
            grid.shared.len() == 1,
            "two occupants spill to the side map"
        );
        grid.vacate(&g, t);
        assert!(
            grid.shared.is_empty(),
            "single occupant returns to dense storage"
        );
        assert_eq!(grid.occupants(CStep::new(1), FuIndex::new(1)), &[e]);
        grid.vacate(&g, e);
        assert!(grid.is_free_for(&g, u, CStep::new(1), FuIndex::new(1), 1));
        assert!(
            grid.cell.iter().all(|c| *c == CellOcc::Empty),
            "no lingering cells"
        );
    }

    #[test]
    fn latency_wrap_detects_modulo_conflicts() {
        let (g, t, _, u) = exclusive_pair();
        let mut grid = Grid::new(6, 1).with_latency(2);
        grid.occupy(&g, t, CStep::new(1), FuIndex::new(1), 1);
        // Steps 3 and 5 collide with step 1 modulo L=2.
        assert!(!grid.is_free_for(&g, u, CStep::new(3), FuIndex::new(1), 1));
        assert!(!grid.is_free_for(&g, u, CStep::new(5), FuIndex::new(1), 1));
        assert!(grid.is_free_for(&g, u, CStep::new(2), FuIndex::new(1), 1));
    }

    #[test]
    fn columns_used_tracks_peak() {
        let (g, t, e, u) = exclusive_pair();
        let mut grid = Grid::new(4, 3);
        assert_eq!(grid.columns_used(), 0);
        grid.occupy(&g, t, CStep::new(1), FuIndex::new(1), 1);
        grid.occupy(&g, u, CStep::new(1), FuIndex::new(3), 1);
        grid.occupy(&g, e, CStep::new(2), FuIndex::new(2), 1);
        assert_eq!(grid.columns_used(), 3);
        assert_eq!(grid.placed_count(), 3);
    }

    #[test]
    fn columns_used_drops_after_vacating_the_peak() {
        let (g, t, e, u) = exclusive_pair();
        let mut grid = Grid::new(4, 3);
        grid.occupy(&g, t, CStep::new(1), FuIndex::new(1), 1);
        grid.occupy(&g, u, CStep::new(1), FuIndex::new(3), 1);
        grid.occupy(&g, e, CStep::new(2), FuIndex::new(2), 1);
        grid.vacate(&g, u);
        assert_eq!(grid.columns_used(), 2);
        grid.vacate(&g, e);
        assert_eq!(grid.columns_used(), 1);
        grid.vacate(&g, t);
        assert_eq!(grid.columns_used(), 0);
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_placement_panics() {
        let (g, t, _, _) = exclusive_pair();
        let mut grid = Grid::new(4, 1);
        grid.occupy(&g, t, CStep::new(1), FuIndex::new(1), 1);
        grid.occupy(&g, t, CStep::new(2), FuIndex::new(1), 1);
    }

    #[test]
    fn grow_max_fu_never_shrinks() {
        let mut grid = Grid::new(4, 2);
        grid.grow_max_fu(5);
        assert_eq!(grid.max_fu(), 5);
        grid.grow_max_fu(3);
        assert_eq!(grid.max_fu(), 5);
    }

    /// A graph of `n` adds in groups, in rotation: a two-arm branch, an
    /// unconditional add, a three-arm branch, and a branch whose first
    /// arm holds an add and a nested two-arm branch while its second arm
    /// holds one add. Cells can then be shared by two arms and still by
    /// a third, and a shared cell's occupants span several path classes
    /// of which a newcomer may exclude some but not all.
    fn branchy_graph(n: usize) -> (Dfg, Vec<NodeId>) {
        let mut b = DfgBuilder::new("branchy");
        let x = b.input("x");
        let y = b.input("y");
        let mut names = Vec::new();
        // One add named `name`, or with `arms > 0` a new branch with one
        // add per arm.
        let mut adds = |b: &mut DfgBuilder, name: String, arms: u32| {
            let branch = b.begin_branch();
            for arm in 0..arms.max(1) {
                let name = if arms == 0 {
                    name.clone()
                } else {
                    b.enter_arm(branch, arm);
                    format!("{name}.{arm}")
                };
                b.op(&name, OpKind::Add, &[x, y]).unwrap();
                names.push(name);
                if arms > 0 {
                    b.exit_arm();
                }
            }
        };
        let sizes = [2, 1, 3, 4];
        let (mut i, mut group) = (0, 0);
        while i < n {
            let size = sizes[group % sizes.len()];
            group += 1;
            if n - i < size {
                continue;
            }
            match size {
                1 => adds(&mut b, format!("u{i}"), 0),
                2 | 3 => adds(&mut b, format!("b{i}"), size as u32),
                _ => {
                    let outer = b.begin_branch();
                    b.enter_arm(outer, 0);
                    adds(&mut b, format!("o{i}"), 0);
                    adds(&mut b, format!("b{i}"), 2);
                    b.exit_arm();
                    b.enter_arm(outer, 1);
                    adds(&mut b, format!("e{i}"), 0);
                    b.exit_arm();
                }
            }
            i += size;
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
                    Grid::new(cs, max_fu).with_latency(latency),
                    ReferenceGrid::new(cs, max_fu).with_latency(latency),
                )
            } else {
                (
                    Grid::new(cs, max_fu),
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
                            dense.occupy(&g, node, step, fu, cycles);
                            reference.occupy(node, step, fu, cycles);
                        }
                    }
                    // Vacate.
                    _ => {
                        let got = dense.vacate(&g, node);
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

        /// The step-major index on grids that grow past 64 and 128
        /// columns — through `grow_max_fu` and occupancy of the newest,
        /// highest columns — so the rows are re-laid out mid-script,
        /// with and without a latency wrap. Probes, occupant lists and
        /// whole-window `free_starts` masks must match the reference
        /// and its cell-by-cell enumeration.
        #[test]
        fn wide_grid_matches_reference(
            ops in proptest::collection::vec((0usize..12, 1u32..9, 0u32..1000, 1u8..3, 0u8..5), 1..60),
            start_fu in 1u32..70,
            latency in 0u32..4,
        ) {
            let (g, nodes) = branchy_graph(12);
            let cs = 8;
            let mut max_fu = start_fu;
            let (mut dense, mut reference) = (
                Grid::new(cs, max_fu),
                ReferenceGrid::new(cs, max_fu),
            );
            if latency > 0 {
                dense = dense.with_latency(latency);
                reference = reference.with_latency(latency);
            }
            for &(ni, step, f, cycles, action) in &ops {
                let node = nodes[ni];
                // Mostly the highest columns, where growth happens.
                let fu = FuIndex::new(max_fu - f % max_fu.min(8));
                let step = CStep::new(step);
                match action {
                    0 => prop_assert_eq!(
                        dense.is_free_for(&g, node, step, fu, cycles),
                        reference.is_free_for(&g, node, step, fu, cycles)
                    ),
                    1 | 2 => {
                        if dense.placement(node).is_none()
                            && reference.is_free_for(&g, node, step, fu, cycles)
                        {
                            dense.occupy(&g, node, step, fu, cycles);
                            reference.occupy(node, step, fu, cycles);
                        }
                    }
                    3 => {
                        prop_assert_eq!(dense.vacate(&g, node), reference.vacate(node));
                    }
                    _ => {
                        max_fu += 1 + f % 70;
                        dense.grow_max_fu(max_fu);
                        reference.grow_max_fu(max_fu);
                    }
                }
                prop_assert_eq!(dense.columns_used(), reference.columns_used());
                let columns = max_fu + 2;
                let starts =
                    dense.free_starts(&g, node, CStep::FIRST, CStep::new(cs), cycles, columns);
                let cells: Vec<(CStep, FuIndex)> = (1..=cs)
                    .flat_map(|s| (1..=columns).map(move |f| (CStep::new(s), FuIndex::new(f))))
                    .filter(|&(s, f)| reference.is_free_for(&g, node, s, f, cycles))
                    .collect();
                prop_assert_eq!(starts.positions().collect::<Vec<_>>(), cells.clone());
                prop_assert_eq!(starts.count(), cells.len());
                for &(s, f) in &cells {
                    prop_assert!(dense.is_free_for(&g, node, s, f, cycles));
                }
                // A caller's sparse column set, past the budget and the
                // horizon too, narrowed in place.
                let pattern = 0x9249_2492_4924_9249u64.rotate_left(f % 64);
                let mask = vec![pattern; (columns as usize).div_ceil(64)];
                for s in (1..=cs + 1).map(CStep::new) {
                    let mut free = mask.clone();
                    dense.retain_free(&g, node, s, cycles, &mut free);
                    for col in 0..64 * mask.len() as u32 {
                        let fu = FuIndex::new(col + 1);
                        let want = pattern >> (col % 64) & 1 == 1
                            && reference.is_free_for(&g, node, s, fu, cycles);
                        prop_assert_eq!(free[col as usize / 64] >> (col % 64) & 1 == 1, want);
                    }
                }
            }
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

        /// The count query against the masks it replaces: on grids
        /// driven through occupy (shared cells of mutually exclusive
        /// ops, multi-cycle spans, a latency wrap), vacate (of shared
        /// and wrapped multi-cycle spans) and growth past 64 columns,
        /// `free_cells` of a single-cycle node — one that excludes
        /// nothing, or one with exclusions, read off the signature
        /// tallies — equals `free_starts(..).count()` and `.earliest()`
        /// over random windows and widths. It is `None` exactly when
        /// some occupant lies past the visible columns or the node has
        /// exclusions and is placed.
        #[test]
        fn free_cells_match_free_starts(
            ops in proptest::collection::vec((0usize..12, 1u32..9, 0u32..1000, 1u8..3, 0u8..5), 1..60),
            probes in proptest::collection::vec((1u32..10, 0u32..10, 0u32..200), 1..5),
            start_fu in 1u32..70,
            latency in 0u32..4,
        ) {
            let (g, nodes) = branchy_graph(12);
            let cs = 8;
            let mut max_fu = start_fu;
            let mut grid = Grid::new(cs, max_fu);
            if latency > 0 {
                grid = grid.with_latency(latency);
            }
            for (k, &(ni, step, f, cycles, action)) in ops.iter().enumerate() {
                let node = nodes[ni];
                let fu = FuIndex::new(max_fu - f % max_fu.min(8));
                let step = CStep::new(step);
                match action {
                    0..=2 => {
                        if grid.placement(node).is_none() && grid.is_free_for(&g, node, step, fu, cycles) {
                            grid.occupy(&g, node, step, fu, cycles);
                        }
                    }
                    3 => {
                        grid.vacate(&g, node);
                    }
                    _ => {
                        max_fu += 1 + f % 70;
                        grid.grow_max_fu(max_fu);
                    }
                }
                let (lo, span, width) = probes[k % probes.len()];
                let (earliest, latest) = (CStep::new(lo), CStep::new(lo + span));
                // Widths around the occupied columns, past them and past
                // the budget.
                let columns = match width % 4 {
                    0 => grid.columns_used().max(1),
                    1 => grid.columns_used().saturating_sub(1 + width % 3).max(1),
                    2 => max_fu,
                    _ => width.max(1),
                };
                // Every node in turn, placed or not, shifted by the step so
                // each node meets every script position.
                let probe = nodes[(k + step.get() as usize) % nodes.len()];
                let counted = grid.free_cells(&g, probe, earliest, latest, columns);
                if grid.columns_used() > columns.min(max_fu)
                    || g.has_exclusions(probe) && grid.placement(probe).is_some()
                {
                    prop_assert_eq!(counted, None);
                } else {
                    let starts = grid.free_starts(&g, probe, earliest, latest, 1, columns);
                    prop_assert_eq!(counted, Some((starts.count(), starts.earliest())));
                }
            }
        }

        /// Nodes with exclusions read plain cells off the plain mask and
        /// walk only the other occupied cells: their `free_starts` must
        /// equal a per-cell `is_free_for` scan, on grids that mix plain
        /// and exclusive occupants, share cells, wrap, grow past 64
        /// columns, and vacate shared and multi-cycle spans (which
        /// recomputes the plain bits).
        #[test]
        fn plain_mask_free_starts_match_the_cell_scan(
            ops in proptest::collection::vec((0usize..12, 1u32..9, 0u32..1000, 1u8..3, 0u8..5), 1..60),
            start_fu in 1u32..70,
            latency in 0u32..4,
        ) {
            let (g, nodes) = branchy_graph(12);
            let branched: Vec<NodeId> = nodes.iter().copied().filter(|&n| g.has_exclusions(n)).collect();
            let cs = 8;
            let mut max_fu = start_fu;
            let mut grid = Grid::new(cs, max_fu);
            if latency > 0 {
                grid = grid.with_latency(latency);
            }
            for (k, &(ni, step, f, cycles, action)) in ops.iter().enumerate() {
                let node = nodes[ni];
                let fu = FuIndex::new(max_fu - f % max_fu.min(8));
                let step = CStep::new(step);
                match action {
                    0..=2 => {
                        if grid.placement(node).is_none() && grid.is_free_for(&g, node, step, fu, cycles) {
                            grid.occupy(&g, node, step, fu, cycles);
                        }
                    }
                    3 => {
                        grid.vacate(&g, node);
                    }
                    _ => {
                        max_fu += 1 + f % 70;
                        grid.grow_max_fu(max_fu);
                    }
                }
                let probe = branched[k % branched.len()];
                let columns = max_fu + 2;
                let starts = grid.free_starts(&g, probe, CStep::FIRST, CStep::new(cs), cycles, columns);
                let cells: Vec<(CStep, FuIndex)> = (1..=cs)
                    .flat_map(|s| (1..=columns).map(move |f| (CStep::new(s), FuIndex::new(f))))
                    .filter(|&(s, f)| grid.is_free_for(&g, probe, s, f, cycles))
                    .collect();
                prop_assert_eq!(starts.positions().collect::<Vec<_>>(), cells);
            }
        }
    }

    #[test]
    fn vacate_recomputes_the_plain_bit_of_a_shared_cell() {
        // A plain node whose two-cycle span wraps onto one row of a
        // latency-1 grid shares the cell with itself; an exclusive pair
        // shares a cell without a plain occupant.
        let (g, t, e, u) = exclusive_pair();
        let mut grid = Grid::new(4, 2).with_latency(1);
        grid.occupy(&g, u, CStep::new(1), FuIndex::new(1), 2);
        assert_eq!(grid.plain_row(1), &[1]);
        grid.occupy(&g, t, CStep::new(1), FuIndex::new(2), 1);
        grid.occupy(&g, e, CStep::new(1), FuIndex::new(2), 1);
        assert_eq!(grid.plain_row(1), &[1], "exclusive occupants are not plain");
        assert_eq!(
            grid.free_cells(&g, u, CStep::new(1), CStep::new(4), 2),
            Some((0, None))
        );
        grid.vacate(&g, u);
        assert_eq!(grid.plain_row(1), &[0]);
        grid.vacate(&g, t);
        assert_eq!(grid.occupants(CStep::new(1), FuIndex::new(2)), &[e]);
        assert_eq!(
            grid.free_cells(&g, u, CStep::new(1), CStep::new(4), 2),
            Some((4, Some((CStep::new(1), FuIndex::new(1)))))
        );
        assert_eq!(
            grid.free_cells(&g, u, CStep::new(1), CStep::new(4), 1),
            None
        );
    }

    #[test]
    fn signature_tallies_follow_shared_cells() {
        let (g, _) = branchy_graph(10);
        let n = |name: &str| g.node_by_name(name).unwrap();
        let mut grid = Grid::new(2, 2);
        // Each unplaced node's counted frame against its masks.
        let frame = |grid: &Grid, node| {
            let counted = grid.free_cells(&g, node, CStep::FIRST, CStep::new(2), 2);
            let starts = grid.free_starts(&g, node, CStep::FIRST, CStep::new(2), 1, 2);
            assert_eq!(counted, Some((starts.count(), starts.earliest())));
            counted.unwrap()
        };
        let at = |step, fu| Some((CStep::new(step), FuIndex::new(fu)));
        for (name, step) in [("b3.0", 1), ("b3.1", 1), ("o6", 2), ("e6", 2)] {
            grid.occupy(&g, n(name), CStep::new(step), FuIndex::new(1), 1);
        }
        // Two arms of a three-arm branch share (1, 1), which the third
        // arm may still join; the outer arms of the nested group share
        // (2, 1), which the inner arms may not, as they do not exclude
        // the outer first arm.
        assert_eq!(frame(&grid, n("b3.2")), (3, at(1, 1)));
        assert_eq!(frame(&grid, n("b6.0")), (2, at(1, 2)));
        assert_eq!(frame(&grid, n("u2")), (2, at(1, 2)));
        grid.vacate(&g, n("o6"));
        assert_eq!(frame(&grid, n("b6.0")), (3, at(1, 2)));
        grid.occupy(&g, n("b6.0"), CStep::new(2), FuIndex::new(1), 1);
        assert_eq!(frame(&grid, n("b6.1")), (3, at(1, 2)));
        assert_eq!(frame(&grid, n("o6")), (2, at(1, 2)));
        for name in ["b3.0", "b3.1", "e6", "b6.0"] {
            grid.vacate(&g, n(name));
        }
        assert!(grid.tallies.iter().all(Vec::is_empty), "{:?}", grid.tallies);
        // Plain occupants tally nothing.
        let mut plain = Grid::new(2, 2);
        plain.occupy(&g, n("u2"), CStep::FIRST, FuIndex::new(1), 2);
        assert!(plain.tallies.is_empty());
    }
}
