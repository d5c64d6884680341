//! Row-based standard-cell placement.
//!
//! A placement assigns every cell of a netlist to a *slot*: a row index and an
//! ordinal position within that row. Cells in a row are packed left-to-right
//! with no overlap, so the x coordinate of a cell is the sum of the widths of
//! the cells to its left; the y coordinate is the row index times the common
//! row height. This is the layout model used by the SimE allocation operator
//! ("sorted individual best fit" inserts a cell at the best slot) and by the
//! Type II row-wise domain decomposition.
//!
//! # Mixed-size layouts
//!
//! Fixed cells (pad rings, multi-row macro blocks) never enter the packed
//! rows. Their positions are a *deterministic function of the netlist*: pads
//! line up at negative x outside the packing region, macros become **blocked
//! spans** — per-row intervals that row packing flows around, exactly as if
//! an invisible cell occupied them. Every constructor derives this fixed
//! layout from the netlist, so two placements of the same circuit always
//! agree on where the fixed cells sit (which is what lets a `.pl` round-trip
//! validate fixed positions instead of trusting the file). Circuits without
//! fixed cells have no blocked spans and pack bitwise identically to the
//! original gap-free model.
//!
//! # Blocked row packing
//!
//! SimE collapses rows fast: on large circuits one row can hold thousands of
//! cells after a few iterations, and allocation edits such rows tens of
//! thousands of times per iteration. Re-packing the whole row suffix on
//! every edit would make each edit pay for the length of the row, so a
//! gap-free row is split into **blocks**: runs of about 64 (`BLOCK_CELLS`)
//! consecutive cells that share an absolute `base` (the left edge of the
//! run). Each cell stores its block, its slot in the block and its centre
//! relative to the block; [`Placement::x_of`] is `base + rel` and
//! [`Placement::index_in_row`] is `first + slot`. An insert, remove or swap
//! re-packs only the block it lands in and then rewrites the `first`/`base`
//! entries of the row's later blocks — `O(block + row / 64)` instead of
//! `O(row)`. A block splits in half when an insertion grows it past 128
//! cells, and a block that shrinks to a sliver merges into a neighbour.
//!
//! **Exactness.** Cell widths are integers, so every left edge is an exact
//! integer and every centre an exact half-integer double (far below 2⁵³).
//! A base is an integer prefix sum and a relative centre an integer partial
//! sum plus half a width, so `base + rel` rounds nowhere and equals the
//! from-scratch left-to-right prefix sum bit for bit. Coordinates,
//! trajectories and work counts are therefore independent of where the
//! block boundaries fall.
//!
//! **Detached cells.** A ripped-up cell ([`Placement::remove_cell`]) and a
//! fixed cell belong to a sentinel block with base `0.0` whose relative
//! coordinate is the cell's absolute x, so a ripped-up cell keeps its last
//! coordinates (allocation scores its nets against them) and
//! [`Placement::index_in_row`] fails fast for it.
//!
//! **Spanned rows.** A row with blocked spans keeps a single block with base
//! `0.0` and the eager suffix re-pack: packing around a span depends on the
//! absolute cursor, so the row cannot be cut into independently based runs.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use vlsi_netlist::{CellId, CellKind, Netlist};

/// Source of unique placement identities (see [`Placement::uid`]). Identity
/// only gates cache reuse — it never influences the search — so a process-wide
/// atomic does not affect determinism.
static PLACEMENT_UID: AtomicU64 = AtomicU64::new(1);

fn next_placement_uid() -> u64 {
    PLACEMENT_UID.fetch_add(1, Ordering::Relaxed)
}

/// Target number of cells per block of a gap-free row (see the module docs):
/// constructors cut rows into runs of this many cells, an insertion splits a
/// block that grows past twice this size, and a removal merges a block that
/// falls below a quarter of it into a neighbour with room.
const BLOCK_CELLS: usize = 64;

/// Arena id of the sentinel block that detached (ripped-up and fixed) cells
/// belong to: base `0.0`, and a `first` ordinal no row reaches.
const DETACHED: u32 = 0;

/// A run of consecutive cells of one row sharing an absolute left edge.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Ordinal (within the row) of the block's first cell.
    first: u32,
    /// Number of cells in the block.
    len: u32,
    /// Absolute x of the block's left edge.
    base: f64,
    /// Packing cursor after the block's last cell, relative to `base`.
    extent: f64,
}

impl Block {
    const SENTINEL: Block = Block {
        first: u32::MAX,
        len: 0,
        base: 0.0,
        extent: 0.0,
    };

    fn empty() -> Block {
        Block {
            first: 0,
            len: 0,
            base: 0.0,
            extent: 0.0,
        }
    }
}

/// Where a cell sits: its block, its slot in the block and its centre x
/// relative to the block's base. One record per cell, so [`Placement::x_of`]
/// touches one cache line per cell.
#[derive(Debug, Clone, Copy)]
struct CellAt {
    /// Arena id of the block ([`DETACHED`] for ripped-up and fixed cells).
    block: u32,
    /// Ordinal within the block.
    slot: u32,
    /// Centre x relative to the block's base (absolute for detached cells,
    /// whose block has base `0.0`).
    rel: f64,
}

impl CellAt {
    const DETACHED: CellAt = CellAt {
        block: DETACHED,
        slot: 0,
        rel: 0.0,
    };
}

/// Height of a placement row in layout units. Standard cells share a common
/// height, so the value only scales the vertical component of wirelength.
pub const ROW_HEIGHT: f64 = 8.0;

/// A position a cell can occupy: a row and an insertion index within the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Slot {
    /// Row index, `0 ..< num_rows`.
    pub row: usize,
    /// Ordinal position within the row (0 = leftmost).
    pub index: usize,
}

/// Errors reported by placement validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A cell appears in no row.
    MissingCell(CellId),
    /// A cell appears more than once.
    DuplicateCell(CellId),
    /// The recorded row of a cell disagrees with the row lists.
    InconsistentRow(CellId),
    /// A fixed cell (pad, macro) appears inside a packed row.
    FixedCellInRow(CellId),
    /// The placement has a different number of cells than the netlist.
    CellCountMismatch {
        /// Cells in the placement.
        placed: usize,
        /// Cells in the netlist.
        expected: usize,
    },
    /// A cell's cached centre x coordinate differs from a from-scratch
    /// re-pack of its row.
    StaleCoordinate(CellId),
    /// A row's recorded movable width differs from the sum of its cells'
    /// widths (reported for empty rows too).
    RowWidthMismatch {
        /// Row index.
        row: usize,
        /// Width the placement records for the row.
        recorded: u64,
        /// Sum of the widths of the row's cells.
        actual: u64,
    },
    /// A row's cached right extent differs from a from-scratch re-pack.
    StaleRowExtent(usize),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::MissingCell(c) => write!(f, "cell {c} is not placed"),
            PlacementError::DuplicateCell(c) => write!(f, "cell {c} is placed more than once"),
            PlacementError::InconsistentRow(c) => {
                write!(f, "cell {c} row bookkeeping is inconsistent")
            }
            PlacementError::FixedCellInRow(c) => {
                write!(f, "fixed cell {c} appears inside a packed row")
            }
            PlacementError::CellCountMismatch { placed, expected } => {
                write!(f, "placement has {placed} cells, netlist has {expected}")
            }
            PlacementError::StaleCoordinate(c) => {
                write!(f, "cell {c} x coordinate disagrees with its row packing")
            }
            PlacementError::RowWidthMismatch {
                row,
                recorded,
                actual,
            } => write!(
                f,
                "row {row} records width {recorded}, its cells sum to {actual}"
            ),
            PlacementError::StaleRowExtent(row) => {
                write!(f, "row {row} extent disagrees with its packing")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A legal row-based placement of all cells of a netlist.
///
/// The structure keeps per-cell coordinates so that cost evaluation is cheap.
/// Gap-free rows are stored as blocks of about 64 cells (see the
/// module docs), so a single-slot edit re-packs one block and shifts the
/// bases of the row's later blocks instead of re-packing the row suffix.
/// Note: deliberately **not** `Serialize`/`Deserialize`. The `uid` field
/// must be unique per live object (incremental caches key on it), so a
/// derived round-trip that restored a stored uid verbatim could alias two
/// placements and make [`crate::kernel::NetLengthCache`] skip rows that
/// actually changed. If persistence is ever needed, serialize the row lists
/// and rebuild through [`Placement::from_rows`], which assigns a fresh uid.
#[derive(Debug)]
pub struct Placement {
    /// Cells of each row, in left-to-right order.
    rows: Vec<Vec<CellId>>,
    /// Row of each cell (kept across a rip-up, like the coordinates).
    cell_row: Vec<u32>,
    /// Block, slot and relative centre of each cell.
    cell_at: Vec<CellAt>,
    /// Cached width of each cell (copied from the netlist to avoid lookups).
    cell_width: Vec<u32>,
    /// Total movable width of each row (fixed cells are not row members).
    row_width: Vec<u64>,
    /// `true` for cells that are pre-placed and excluded from the rows.
    fixed: Vec<bool>,
    /// Per-row blocked intervals `[lo, hi)` (macro footprints), sorted by
    /// start and pairwise disjoint. Row packing flows around them.
    blocked: Vec<Vec<(f64, f64)>>,
    /// Packing cursor after the last movable cell of each row — the row's
    /// right extent, including any gaps forced by blocked spans.
    row_extent: Vec<f64>,
    /// Block arena; entry [`DETACHED`] is the sentinel.
    blocks: Vec<Block>,
    /// Arena ids of each row's blocks, left to right. Never empty; only a
    /// row's sole block may be empty.
    row_blocks: Vec<Vec<u32>>,
    /// Recycled arena ids.
    free_blocks: Vec<u32>,
    /// Total width of all movable cells (denominator of `avg_row_width`).
    movable_total_width: u64,
    /// Unique identity of this placement object; refreshed on clone so
    /// incremental caches keyed on a placement never confuse two objects that
    /// share a mutation history (e.g. per-rank clones in Type II).
    uid: u64,
    /// Monotone mutation counter; bumped on every row edit.
    epoch: u64,
    /// For each row, the `epoch` at which it last changed. An incremental
    /// cost cache is valid for a row iff it has seen this epoch.
    row_epoch: Vec<u64>,
}

impl Clone for Placement {
    fn clone(&self) -> Self {
        Placement {
            rows: self.rows.clone(),
            cell_row: self.cell_row.clone(),
            cell_at: self.cell_at.clone(),
            cell_width: self.cell_width.clone(),
            row_width: self.row_width.clone(),
            fixed: self.fixed.clone(),
            blocked: self.blocked.clone(),
            row_extent: self.row_extent.clone(),
            blocks: self.blocks.clone(),
            row_blocks: self.row_blocks.clone(),
            free_blocks: self.free_blocks.clone(),
            movable_total_width: self.movable_total_width,
            uid: next_placement_uid(),
            epoch: self.epoch,
            row_epoch: self.row_epoch.clone(),
        }
    }
}

impl Placement {
    /// Creates a placement by dealing cells round-robin into `num_rows` rows
    /// in cell-id order. Deterministic; mainly useful for tests.
    pub fn round_robin(netlist: &Netlist, num_rows: usize) -> Self {
        assert!(num_rows > 0, "a placement needs at least one row");
        let order: Vec<CellId> = netlist.cell_ids().collect();
        Self::from_order(netlist, num_rows, &order)
    }

    /// Creates a random initial placement: cells are shuffled and dealt into
    /// rows so that row widths stay balanced.
    pub fn random<R: Rng + ?Sized>(netlist: &Netlist, num_rows: usize, rng: &mut R) -> Self {
        assert!(num_rows > 0, "a placement needs at least one row");
        let mut order: Vec<CellId> = netlist.cell_ids().collect();
        order.shuffle(rng);
        Self::from_order(netlist, num_rows, &order)
    }

    /// Builds a placement by dealing `order` into rows, always appending to
    /// the currently narrowest row (greedy width balancing). Fixed cells in
    /// `order` are skipped — their positions come from the deterministic
    /// fixed layout, never from the deal.
    pub fn from_order(netlist: &Netlist, num_rows: usize, order: &[CellId]) -> Self {
        assert!(num_rows > 0, "a placement needs at least one row");
        let mut p = Placement::empty(netlist, num_rows);
        for &cell in order {
            if p.fixed[cell.index()] {
                continue;
            }
            let row = (0..num_rows)
                .min_by_key(|&r| p.row_width[r])
                .expect("num_rows > 0");
            p.rows[row].push(cell);
            p.cell_row[cell.index()] = row as u32;
            p.row_width[row] += p.cell_width[cell.index()] as u64;
        }
        for r in 0..num_rows {
            p.rebuild_row(r);
        }
        p
    }

    /// Shared constructor core: an all-rows-empty placement with the fixed
    /// layout (pad positions, macro blocked spans) already derived from the
    /// netlist.
    fn empty(netlist: &Netlist, num_rows: usize) -> Self {
        let n = netlist.num_cells();
        let (positions, blocked) = default_fixed_layout(netlist, num_rows);
        let movable_total_width = netlist
            .cells()
            .iter()
            .filter(|c| !c.fixed)
            .map(|c| c.width as u64)
            .sum();
        let mut blocks = vec![Block::SENTINEL];
        blocks.extend((0..num_rows).map(|_| Block::empty()));
        let mut p = Placement {
            rows: vec![Vec::with_capacity(n / num_rows + 1); num_rows],
            cell_row: vec![0; n],
            cell_at: vec![CellAt::DETACHED; n],
            cell_width: netlist.cells().iter().map(|c| c.width).collect(),
            row_width: vec![0; num_rows],
            fixed: netlist.cells().iter().map(|c| c.fixed).collect(),
            blocked,
            row_extent: vec![0.0; num_rows],
            blocks,
            row_blocks: (1..=num_rows as u32).map(|b| vec![b]).collect(),
            free_blocks: Vec::new(),
            movable_total_width,
            uid: next_placement_uid(),
            epoch: 0,
            row_epoch: vec![0; num_rows],
        };
        for (cell, cx, row) in positions {
            p.cell_at[cell.index()].rel = cx;
            p.cell_row[cell.index()] = row;
        }
        p
    }

    /// Rebuilds a placement from explicit per-row cell orderings (used by the
    /// Type II domain decomposition when merging the partial placements
    /// returned by the slaves).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty. Call [`Placement::validate`] afterwards to
    /// check that every cell appears exactly once.
    pub fn from_rows(netlist: &Netlist, rows: Vec<Vec<CellId>>) -> Self {
        assert!(!rows.is_empty(), "a placement needs at least one row");
        let mut p = Placement::empty(netlist, rows.len());
        p.rows = rows;
        for r in 0..p.rows.len() {
            let cells = std::mem::take(&mut p.rows[r]);
            let mut width = 0u64;
            for &cell in &cells {
                p.cell_row[cell.index()] = r as u32;
                width += p.cell_width[cell.index()] as u64;
            }
            p.row_width[r] = width;
            p.rows[r] = cells;
            p.rebuild_row(r);
        }
        p
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of placed cells.
    pub fn num_cells(&self) -> usize {
        self.cell_row.len()
    }

    /// The cells of a row in left-to-right order.
    #[inline]
    pub fn row(&self, row: usize) -> &[CellId] {
        &self.rows[row]
    }

    /// Row currently containing `cell`.
    #[inline]
    pub fn row_of(&self, cell: CellId) -> usize {
        self.cell_row[cell.index()] as usize
    }

    /// Ordinal index of `cell` within its row. O(1): the block's first
    /// ordinal plus the cell's slot in the block, because
    /// `slot_of`/`trial_position` sit under the allocation trial loop.
    #[inline]
    pub fn index_in_row(&self, cell: CellId) -> usize {
        let at = self.cell_at[cell.index()];
        let idx = self.blocks[at.block as usize].first as usize + at.slot as usize;
        // Always-on fail-fast: an unplaced cell (e.g. a double remove_cell)
        // must panic here, not silently evict whichever cell sits at a stale
        // ordinal (a detached cell's sentinel ordinal is out of range). O(1),
        // negligible next to the mutations that call this.
        assert_eq!(
            self.rows[self.row_of(cell)].get(idx).copied(),
            Some(cell),
            "cell {cell} is not placed at its cached ordinal"
        );
        idx
    }

    /// Slot currently occupied by `cell`.
    pub fn slot_of(&self, cell: CellId) -> Slot {
        Slot {
            row: self.row_of(cell),
            index: self.index_in_row(cell),
        }
    }

    /// Centre x coordinate of `cell` (the first component of
    /// [`Placement::position`], without computing the y coordinate): its
    /// block's base plus its relative centre, exact (see the module docs).
    #[inline]
    pub fn x_of(&self, cell: CellId) -> f64 {
        let at = self.cell_at[cell.index()];
        self.blocks[at.block as usize].base + at.rel
    }

    /// Centre coordinates of `cell` in layout units.
    #[inline]
    pub fn position(&self, cell: CellId) -> (f64, f64) {
        (
            self.x_of(cell),
            (self.cell_row[cell.index()] as f64 + 0.5) * ROW_HEIGHT,
        )
    }

    /// Total movable width of `row` (blocked spans and fixed cells excluded).
    #[inline]
    pub fn row_width(&self, row: usize) -> u64 {
        self.row_width[row]
    }

    /// Right extent of `row`: the packing cursor after its last movable
    /// cell, including any gaps forced by blocked spans. Equals
    /// [`Placement::row_width`] exactly when the row has no blocked spans.
    #[inline]
    pub fn row_extent(&self, row: usize) -> f64 {
        self.row_extent[row]
    }

    /// `true` when `cell` is pre-placed (pad, macro) and excluded from the
    /// packed rows.
    #[inline]
    pub fn is_fixed(&self, cell: CellId) -> bool {
        self.fixed[cell.index()]
    }

    /// The blocked intervals `[lo, hi)` of `row`, sorted by start and
    /// pairwise disjoint (macro footprints the packing flows around).
    #[inline]
    pub fn blocked_spans(&self, row: usize) -> &[(f64, f64)] {
        &self.blocked[row]
    }

    /// Maximum row width — the layout `Width` used by the width constraint.
    pub fn width(&self) -> u64 {
        self.row_width.iter().copied().max().unwrap_or(0)
    }

    /// Average row width `w_avg = Σ movable cell widths / num_rows`, the
    /// minimum possible layout width. Fixed cells sit outside the packed
    /// rows, so they do not count against the width constraint.
    pub fn avg_row_width(&self) -> f64 {
        self.movable_total_width as f64 / self.num_rows() as f64
    }

    /// `true` if the layout width satisfies `Width − w_avg ≤ α · w_avg`.
    pub fn width_within(&self, alpha: f64) -> bool {
        (self.width() as f64) <= (1.0 + alpha) * self.avg_row_width()
    }

    /// Removes `cell` from its row and returns the slot it occupied. The
    /// cell keeps its row and x coordinate (detached, see the module docs)
    /// until it is inserted again.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is fixed — fixed cells are never row members — or
    /// not currently placed.
    pub fn remove_cell(&mut self, cell: CellId) -> Slot {
        assert!(
            !self.fixed[cell.index()],
            "fixed cell {cell} cannot be moved"
        );
        let slot = self.slot_of(cell);
        let (pos, at) = self.locate(slot.row, slot.index);
        let b = self.row_blocks[slot.row][pos];
        self.cell_at[cell.index()] = CellAt {
            rel: self.x_of(cell),
            ..CellAt::DETACHED
        };
        self.rows[slot.row].remove(slot.index);
        self.row_width[slot.row] -= self.cell_width[cell.index()] as u64;
        self.blocks[b as usize].len -= 1;
        self.repack_block(slot.row, b, at);
        let pos = self.coalesce(slot.row, pos);
        self.reflow_after(slot.row, pos);
        self.touch(slot.row);
        slot
    }

    /// Inserts a previously removed `cell` at `slot`. The insertion index is
    /// clamped to the current row length.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is fixed — fixed cells are never row members.
    pub fn insert_cell(&mut self, cell: CellId, slot: Slot) {
        assert!(
            !self.fixed[cell.index()],
            "fixed cell {cell} cannot be moved"
        );
        let row = slot.row;
        let index = slot.index.min(self.rows[row].len());
        let (pos, at) = self.locate(row, index);
        let b = self.row_blocks[row][pos];
        self.rows[row].insert(index, cell);
        self.cell_row[cell.index()] = row as u32;
        self.row_width[row] += self.cell_width[cell.index()] as u64;
        self.blocks[b as usize].len += 1;
        self.repack_block(row, b, at);
        if self.blocks[b as usize].len as usize > 2 * BLOCK_CELLS && self.blocked[row].is_empty() {
            self.split_block(row, pos);
        }
        self.reflow_after(row, pos);
        self.touch(row);
    }

    /// Moves `cell` to `slot` (remove + insert).
    pub fn move_cell(&mut self, cell: CellId, slot: Slot) {
        self.remove_cell(cell);
        self.insert_cell(cell, slot);
    }

    /// Swaps the slots of two cells (a classical SA/TS/GA move). Re-packs
    /// only the (at most two) blocks holding the swapped slots.
    ///
    /// # Panics
    ///
    /// Panics if either cell is fixed — fixed cells are never row members.
    pub fn swap_cells(&mut self, a: CellId, b: CellId) {
        assert!(
            !self.fixed[a.index()] && !self.fixed[b.index()],
            "fixed cells cannot be swapped"
        );
        if a == b {
            return;
        }
        let sa = self.slot_of(a);
        let sb = self.slot_of(b);
        self.rows[sa.row][sa.index] = b;
        self.rows[sb.row][sb.index] = a;
        self.cell_row[a.index()] = sb.row as u32;
        self.cell_row[b.index()] = sa.row as u32;
        let wa = self.cell_width[a.index()] as u64;
        let wb = self.cell_width[b.index()] as u64;
        if sa.row != sb.row {
            self.row_width[sa.row] = self.row_width[sa.row] - wa + wb;
            self.row_width[sb.row] = self.row_width[sb.row] - wb + wa;
            for s in [sa, sb] {
                let (pos, at) = self.locate(s.row, s.index);
                self.repack_block(s.row, self.row_blocks[s.row][pos], at);
                self.reflow_after(s.row, pos);
                self.touch(s.row);
            }
        } else {
            let row = sa.row;
            let (lo, at_lo) = self.locate(row, sa.index.min(sb.index));
            let (hi, at_hi) = self.locate(row, sa.index.max(sb.index));
            self.repack_block(row, self.row_blocks[row][lo], at_lo);
            if hi != lo {
                self.repack_block(row, self.row_blocks[row][hi], at_hi);
            }
            self.reflow_after(row, lo);
            self.touch(row);
        }
    }

    /// Hypothetical centre position of `cell` if it were inserted at `slot`,
    /// without modifying the placement. Used by allocation to evaluate trial
    /// positions cheaply. The cell must currently be *removed* from the
    /// placement for the returned x coordinate to be exact; if it is still
    /// placed in the same row the estimate ignores its own width.
    pub fn trial_position(&self, cell: CellId, slot: Slot) -> (f64, f64) {
        let row = &self.rows[slot.row];
        let index = slot.index.min(row.len());
        // O(1) via the cached centre coordinate of the left neighbour: its
        // right edge is the insertion point (advanced past any blocked span
        // the cell would overlap). Cell widths are integers, so every
        // centre/edge is an exact half-integer double and this matches a
        // from-scratch prefix-sum repack bit for bit.
        let x = if index == 0 {
            0.0
        } else {
            let prev = row[index - 1];
            self.x_of(prev) + self.cell_width[prev.index()] as f64 / 2.0
        };
        let w = self.cell_width[cell.index()] as f64;
        let x = next_free(&self.blocked[slot.row], x, w);
        (x + w / 2.0, (slot.row as f64 + 0.5) * ROW_HEIGHT)
    }

    /// Number of insertion slots currently available in `row` (one more than
    /// the number of cells in it).
    pub fn slots_in_row(&self, row: usize) -> usize {
        self.rows[row].len() + 1
    }

    /// Checks structural invariants against the netlist: every cell placed
    /// exactly once, bookkeeping consistent, and every placed cell's x
    /// coordinate and ordinal and every row's width and extent equal (bit
    /// for bit) to a from-scratch left-to-right re-pack of the row lists.
    pub fn validate(&self, netlist: &Netlist) -> Result<(), PlacementError> {
        if self.cell_row.len() != netlist.num_cells() {
            return Err(PlacementError::CellCountMismatch {
                placed: self.cell_row.len(),
                expected: netlist.num_cells(),
            });
        }
        let mut seen = vec![false; netlist.num_cells()];
        for (r, row) in self.rows.iter().enumerate() {
            let mut width = 0u64;
            let mut x = 0.0;
            for (i, &cell) in row.iter().enumerate() {
                let c = cell.index();
                if self.fixed[c] {
                    return Err(PlacementError::FixedCellInRow(cell));
                }
                if seen[c] {
                    return Err(PlacementError::DuplicateCell(cell));
                }
                seen[c] = true;
                let at = self.cell_at[c];
                if self.cell_row[c] as usize != r
                    || self.blocks[at.block as usize].first as usize + at.slot as usize != i
                {
                    return Err(PlacementError::InconsistentRow(cell));
                }
                let w = self.cell_width[c] as f64;
                let left = next_free(&self.blocked[r], x, w);
                if self.x_of(cell).to_bits() != (left + w / 2.0).to_bits() {
                    return Err(PlacementError::StaleCoordinate(cell));
                }
                x = left + w;
                width += self.cell_width[c] as u64;
            }
            if width != self.row_width[r] {
                return Err(PlacementError::RowWidthMismatch {
                    row: r,
                    recorded: self.row_width[r],
                    actual: width,
                });
            }
            if self.row_extent[r].to_bits() != x.to_bits() {
                return Err(PlacementError::StaleRowExtent(r));
            }
        }
        for (i, &s) in seen.iter().enumerate() {
            if !s && !self.fixed[i] {
                return Err(PlacementError::MissingCell(CellId::from(i)));
            }
        }
        Ok(())
    }

    /// Identity of this placement object. Fresh per construction and per
    /// clone; incremental caches use it to detect that they are looking at a
    /// different placement than the one they were synchronised with.
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The epoch at which `row` last changed (monotone across the whole
    /// placement). Together with [`Placement::uid`] this is the invalidation
    /// signal for incremental net-length caches: a row's cells can only move
    /// (x or y) through an edit of that row, which bumps this value.
    #[inline]
    pub fn row_epoch(&self, row: usize) -> u64 {
        self.row_epoch[row]
    }

    /// Records a mutation of `row` in its epoch.
    fn touch(&mut self, row: usize) {
        self.epoch += 1;
        self.row_epoch[row] = self.epoch;
    }

    /// Re-cuts `row` into fresh blocks from its cell list — runs of
    /// [`BLOCK_CELLS`] cells, or one block for a spanned row — packs them,
    /// and records the mutation in the row's epoch.
    fn rebuild_row(&mut self, row: usize) {
        let mut ids = std::mem::take(&mut self.row_blocks[row]);
        self.free_blocks.append(&mut ids);
        let n = self.rows[row].len();
        let run = if self.blocked[row].is_empty() {
            BLOCK_CELLS
        } else {
            n.max(1)
        };
        let mut first = 0;
        loop {
            let len = run.min(n - first);
            let b = self.alloc_block(Block {
                first: first as u32,
                len: len as u32,
                ..Block::empty()
            });
            self.repack_block(row, b, 0);
            ids.push(b);
            first += len;
            if first == n {
                break;
            }
        }
        self.row_blocks[row] = ids;
        self.reflow_after(row, 0);
        self.touch(row);
    }

    /// Takes a block id from the free list (or grows the arena).
    fn alloc_block(&mut self, block: Block) -> u32 {
        match self.free_blocks.pop() {
            Some(b) => {
                self.blocks[b as usize] = block;
                b
            }
            None => {
                self.blocks.push(block);
                (self.blocks.len() - 1) as u32
            }
        }
    }

    /// The position (in `row_blocks[row]`) of the block holding ordinal
    /// `index` of `row`, and the slot of `index` in that block. An index one
    /// past the end of the row maps to one past the end of its last block.
    fn locate(&self, row: usize, index: usize) -> (usize, usize) {
        let ids = &self.row_blocks[row];
        let pos = ids.partition_point(|&b| self.blocks[b as usize].first as usize <= index) - 1;
        (pos, index - self.blocks[ids[pos] as usize].first as usize)
    }

    /// Re-packs block `b` of `row` from slot `at` on, resuming from the
    /// (untouched) left neighbour's right edge: relative centres, slots and
    /// block ids of the suffix, then the block's extent. The block's `first`
    /// and `len` must already describe its cells in the row list.
    fn repack_block(&mut self, row: usize, b: u32, at: usize) {
        let Block {
            first, len, base, ..
        } = self.blocks[b as usize];
        let cells = &self.rows[row][first as usize..(first + len) as usize];
        let blocked = &self.blocked[row];
        // Blocked spans are absolute; only a spanned row's sole block (base
        // 0.0) packs around them.
        debug_assert!(blocked.is_empty() || base == 0.0);
        let mut x = match at.checked_sub(1).map(|i| cells[i].index()) {
            None => 0.0,
            Some(prev) => self.cell_at[prev].rel + self.cell_width[prev] as f64 / 2.0,
        };
        for (slot, &cell) in cells.iter().enumerate().skip(at) {
            let c = cell.index();
            let w = self.cell_width[c] as f64;
            let left = next_free(blocked, x, w);
            self.cell_at[c] = CellAt {
                block: b,
                slot: slot as u32,
                rel: left + w / 2.0,
            };
            x = left + w;
        }
        self.blocks[b as usize].extent = x;
    }

    /// Rewrites `first`/`base` of the blocks after position `pos` of `row`
    /// from their left neighbours, then the row extent. Bases are integer
    /// prefix sums, so this reproduces a from-scratch pack exactly.
    fn reflow_after(&mut self, row: usize, pos: usize) {
        let ids = &self.row_blocks[row];
        let mut prev = self.blocks[ids[pos] as usize];
        for &b in &ids[pos + 1..] {
            let block = &mut self.blocks[b as usize];
            block.first = prev.first + prev.len;
            block.base = prev.base + prev.extent;
            prev = *block;
        }
        self.row_extent[row] = prev.base + prev.extent;
    }

    /// Splits the block at position `pos` of `row` in half; the right half
    /// becomes a new block whose base [`Placement::reflow_after`] sets.
    fn split_block(&mut self, row: usize, pos: usize) {
        let b = self.row_blocks[row][pos];
        let Block { first, len, .. } = self.blocks[b as usize];
        let keep = len / 2;
        let last = self.rows[row][(first + keep - 1) as usize].index();
        let left = &mut self.blocks[b as usize];
        left.len = keep;
        left.extent = self.cell_at[last].rel + self.cell_width[last] as f64 / 2.0;
        let nb = self.alloc_block(Block {
            first: first + keep,
            len: len - keep,
            ..Block::empty()
        });
        self.row_blocks[row].insert(pos + 1, nb);
        self.repack_block(row, nb, 0);
    }

    /// After a removal shrank the block at position `pos` of `row`: folds a
    /// sliver block (under a quarter of [`BLOCK_CELLS`]) into a neighbour
    /// with room, or drops it when empty, so a drained row does not keep
    /// one block per cell. Returns the position [`Placement::reflow_after`]
    /// must start from.
    fn coalesce(&mut self, row: usize, pos: usize) -> usize {
        let ids = &self.row_blocks[row];
        let len = self.blocks[ids[pos] as usize].len as usize;
        if ids.len() == 1 || len >= BLOCK_CELLS / 4 {
            return pos;
        }
        let fits = |p: usize| self.blocks[ids[p] as usize].len as usize + len <= BLOCK_CELLS;
        let into = if pos > 0 && fits(pos - 1) {
            pos - 1
        } else if pos + 1 < ids.len() && fits(pos + 1) {
            pos
        } else if len == 0 {
            // Drop the empty block. Its left neighbour (or, at the row
            // start, its right neighbour re-anchored at the origin) is where
            // the reflow resumes.
            let b = self.row_blocks[row].remove(pos);
            self.free_blocks.push(b);
            if pos == 0 {
                let head = &mut self.blocks[self.row_blocks[row][0] as usize];
                head.first = 0;
                head.base = 0.0;
            }
            return pos.saturating_sub(1);
        } else {
            return pos;
        };
        // Append the right block's cells to the left one.
        let (keep, gone) = (self.row_blocks[row][into], self.row_blocks[row][into + 1]);
        let at = self.blocks[keep as usize].len;
        self.blocks[keep as usize].len += self.blocks[gone as usize].len;
        self.row_blocks[row].remove(into + 1);
        self.free_blocks.push(gone);
        self.repack_block(row, keep, at as usize);
        into
    }
}

/// Advances `x` to the smallest left edge `>= x` where a cell of `width`
/// avoids every blocked interval. `blocked` is sorted by start and pairwise
/// disjoint; with no intervals the cursor is returned unchanged, which keeps
/// fixed-free circuits bitwise identical to the gap-free packing.
#[inline]
fn next_free(blocked: &[(f64, f64)], mut x: f64, width: f64) -> f64 {
    for &(lo, hi) in blocked {
        if x + width <= lo {
            break;
        }
        if x < hi {
            x = hi;
        }
    }
    x
}

/// Clearance between the pad ring and the packing region (x = 0).
const PAD_CLEARANCE: f64 = 8.0;

/// Spacing between successive macro blocks sharing a row, so their footprints
/// stay distinct intervals (narrow movable cells may pack into the gap).
const MACRO_GAP: u64 = 4;

/// Per fixed cell its `(cell, centre x, pin row)`, plus the per-row blocked
/// intervals macro footprints carve out of the packing region.
type FixedLayout = (Vec<(CellId, f64, u32)>, Vec<Vec<(f64, f64)>>);

/// Derives the deterministic fixed layout of a circuit: per fixed cell its
/// `(cell, centre x, pin row)`, plus the per-row blocked intervals macro
/// footprints carve out of the packing region.
///
/// Pads (fixed single-row non-macro cells) line up at negative x, dealt
/// round-robin across rows in cell-id order. Macros stagger down the rows —
/// the `j`-th macro of height `h` occupies rows `(j·h) mod (num_rows−h+1)`
/// onward — flush against the previous macro in those rows (plus a small
/// gap); their net pin sits on the middle row of the band. The layout is a
/// pure function of `(netlist, num_rows)`, so every placement of a circuit
/// agrees on it.
fn default_fixed_layout(netlist: &Netlist, num_rows: usize) -> FixedLayout {
    let mut positions = Vec::new();
    let mut blocked: Vec<Vec<(f64, f64)>> = vec![Vec::new(); num_rows];
    let mut pad_cursor: Vec<u64> = vec![0; num_rows];
    let mut macro_cursor: Vec<u64> = vec![0; num_rows];
    let mut pads = 0usize;
    let mut macros = 0usize;
    for (i, cell) in netlist.cells().iter().enumerate() {
        if !cell.fixed {
            continue;
        }
        let id = CellId::from(i);
        let w = cell.width as u64;
        if cell.height <= 1 && cell.kind != CellKind::Macro {
            // Pad ring: parked left of the packing region.
            let row = pads % num_rows;
            let cx = -(PAD_CLEARANCE + pad_cursor[row] as f64 + cell.width as f64 / 2.0);
            pad_cursor[row] += w;
            positions.push((id, cx, row as u32));
            pads += 1;
        } else {
            // Macro block: a blocked span across `h` consecutive rows.
            let h = (cell.height as usize).min(num_rows);
            let band = (macros * h) % (num_rows - h + 1);
            let left = (band..band + h)
                .map(|r| macro_cursor[r])
                .max()
                .expect("h >= 1");
            for r in band..band + h {
                blocked[r].push((left as f64, (left + w) as f64));
                macro_cursor[r] = left + w + MACRO_GAP;
            }
            let pin_row = (band + h / 2).min(num_rows - 1) as u32;
            positions.push((id, left as f64 + cell.width as f64 / 2.0, pin_row));
            macros += 1;
        }
    }
    (positions, blocked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};

    fn netlist() -> Netlist {
        CircuitGenerator::new(GeneratorConfig::sized("layout_test", 120, 3)).generate()
    }

    fn mixed_netlist() -> Netlist {
        use vlsi_netlist::generator::MixedSizeSpec;
        let cfg = GeneratorConfig::sized("layout_mixed", 160, 7).with_mixed(MixedSizeSpec {
            num_macros: 3,
            macro_height: 3,
            pad_ring: true,
        });
        CircuitGenerator::new(cfg).generate()
    }

    #[test]
    fn round_robin_places_every_cell_once() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 7);
        p.validate(&nl).unwrap();
        assert_eq!(p.num_rows(), 7);
        let placed: usize = (0..7).map(|r| p.row(r).len()).sum();
        assert_eq!(placed, nl.num_cells());
    }

    #[test]
    fn random_placement_is_legal_and_balanced() {
        let nl = netlist();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = Placement::random(&nl, 6, &mut rng);
        p.validate(&nl).unwrap();
        let widths: Vec<u64> = (0..6).map(|r| p.row_width(r)).collect();
        let max = *widths.iter().max().unwrap() as f64;
        let min = *widths.iter().min().unwrap() as f64;
        assert!(
            max - min <= 16.0,
            "greedy balancing should keep rows within one max cell width: {widths:?}"
        );
    }

    #[test]
    fn positions_reflect_row_packing() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 5);
        for r in 0..p.num_rows() {
            let mut x = 0.0;
            for &cell in p.row(r) {
                let w = nl.cell(cell).width as f64;
                let (cx, cy) = p.position(cell);
                assert!((cx - (x + w / 2.0)).abs() < 1e-9);
                assert!((cy - (r as f64 + 0.5) * ROW_HEIGHT).abs() < 1e-9);
                x += w;
            }
            assert_eq!(x as u64, p.row_width(r));
        }
    }

    #[test]
    fn remove_insert_roundtrip_preserves_legality() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        let cell = CellId(10);
        let slot = p.remove_cell(cell);
        assert!(p.validate(&nl).is_err(), "cell is temporarily missing");
        p.insert_cell(cell, slot);
        p.validate(&nl).unwrap();
    }

    #[test]
    fn move_cell_relocates() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        let cell = CellId(3);
        let target = Slot { row: 4, index: 0 };
        p.move_cell(cell, target);
        p.validate(&nl).unwrap();
        assert_eq!(p.row_of(cell), 4);
        assert_eq!(p.index_in_row(cell), 0);
    }

    #[test]
    fn swap_cells_across_rows_updates_widths() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        // find two cells in different rows with different widths
        let a = p.row(0)[0];
        let b = p.row(1)[0];
        let before: u64 = (0..5).map(|r| p.row_width(r)).sum();
        p.swap_cells(a, b);
        p.validate(&nl).unwrap();
        assert_eq!(p.row_of(a), 1);
        assert_eq!(p.row_of(b), 0);
        let after: u64 = (0..5).map(|r| p.row_width(r)).sum();
        assert_eq!(before, after, "total width is conserved by swaps");
    }

    #[test]
    fn swap_with_self_is_a_noop() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        let a = p.row(0)[0];
        let before = p.clone();
        p.swap_cells(a, a);
        assert_eq!(p.row_of(a), before.row_of(a));
        assert_eq!(p.index_in_row(a), before.index_in_row(a));
    }

    #[test]
    fn trial_position_matches_actual_insertion() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        let cell = p.row(2)[1];
        p.remove_cell(cell);
        let slot = Slot { row: 3, index: 2 };
        let predicted = p.trial_position(cell, slot);
        p.insert_cell(cell, slot);
        let actual = p.position(cell);
        assert!((predicted.0 - actual.0).abs() < 1e-9);
        assert!((predicted.1 - actual.1).abs() < 1e-9);
    }

    #[test]
    fn width_constraint_helper() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 5);
        // Round-robin in id order is not balanced by width, but with alpha
        // large enough the constraint always holds.
        assert!(p.width_within(10.0));
        assert!(p.width() as f64 >= p.avg_row_width());
    }

    #[test]
    fn from_rows_roundtrips_an_existing_placement() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 6);
        let rows: Vec<Vec<CellId>> = (0..6).map(|r| p.row(r).to_vec()).collect();
        let q = Placement::from_rows(&nl, rows);
        q.validate(&nl).unwrap();
        for c in nl.cell_ids() {
            assert_eq!(p.row_of(c), q.row_of(c));
            assert_eq!(p.position(c), q.position(c));
        }
        assert_eq!(p.width(), q.width());
    }

    #[test]
    fn fixed_cells_stay_out_of_rows_and_packing_avoids_blocked_spans() {
        let nl = mixed_netlist();
        let p = Placement::round_robin(&nl, 6);
        p.validate(&nl).unwrap();
        // Only movable cells are dealt into rows.
        let placed: usize = (0..6).map(|r| p.row(r).len()).sum();
        let movable = nl.cells().iter().filter(|c| !c.fixed).count();
        assert!(movable < nl.num_cells(), "circuit has fixed cells");
        assert_eq!(placed, movable);
        // Movable cells never overlap a blocked span, and the row extent
        // accounts for the packing gaps the spans force.
        let mut spans_seen = 0;
        for r in 0..p.num_rows() {
            spans_seen += p.blocked_spans(r).len();
            for &cell in p.row(r) {
                let w = nl.cell(cell).width as f64;
                let left = p.x_of(cell) - w / 2.0;
                for &(lo, hi) in p.blocked_spans(r) {
                    assert!(
                        left + w <= lo || left >= hi,
                        "cell {cell} [{left}, {}) overlaps blocked [{lo}, {hi}) in row {r}",
                        left + w
                    );
                }
            }
            assert!(p.row_extent(r) >= p.row_width(r) as f64);
        }
        assert!(spans_seen > 0, "macros produce blocked spans");
        // Pads park left of the packing region; macros sit inside it.
        for (i, c) in nl.cells().iter().enumerate() {
            let id = CellId::from(i);
            assert_eq!(p.is_fixed(id), c.fixed);
            if c.fixed && c.kind != vlsi_netlist::CellKind::Macro {
                assert!(p.x_of(id) < 0.0, "pad {id} must sit at negative x");
            }
            if c.kind == vlsi_netlist::CellKind::Macro {
                assert!(p.x_of(id) >= 0.0);
            }
        }
    }

    #[test]
    fn fixed_layout_is_identical_across_constructors() {
        let nl = mixed_netlist();
        let a = Placement::round_robin(&nl, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let b = Placement::random(&nl, 6, &mut rng);
        for (i, c) in nl.cells().iter().enumerate() {
            if c.fixed {
                let id = CellId::from(i);
                assert_eq!(a.position(id), b.position(id));
            }
        }
        for r in 0..6 {
            assert_eq!(a.blocked_spans(r), b.blocked_spans(r));
        }
    }

    #[test]
    fn trial_position_matches_insertion_around_blocked_spans() {
        let nl = mixed_netlist();
        let mut p = Placement::round_robin(&nl, 6);
        let row = (0..6)
            .find(|&r| !p.blocked_spans(r).is_empty())
            .expect("some row is blocked");
        for index in 0..p.slots_in_row(row).min(12) {
            let cell = p.row((row + 1) % 6)[0];
            p.remove_cell(cell);
            let predicted = p.trial_position(cell, Slot { row, index });
            p.insert_cell(cell, Slot { row, index });
            let actual = p.position(cell);
            assert_eq!(predicted.0.to_bits(), actual.0.to_bits());
            assert_eq!(predicted.1.to_bits(), actual.1.to_bits());
            p.move_cell(
                cell,
                Slot {
                    row: (row + 1) % 6,
                    index: 0,
                },
            );
        }
    }

    #[test]
    fn suffix_rebuild_matches_full_rebuild_with_blocked_spans() {
        let nl = mixed_netlist();
        let mut p = Placement::round_robin(&nl, 6);
        let row = (0..6)
            .find(|&r| !p.blocked_spans(r).is_empty())
            .expect("some row is blocked");
        let cell = p.row(row)[p.row(row).len() / 2];
        p.move_cell(cell, Slot { row, index: 0 });
        let rows: Vec<Vec<CellId>> = (0..6).map(|r| p.row(r).to_vec()).collect();
        let q = Placement::from_rows(&nl, rows);
        for c in nl.cell_ids() {
            assert_eq!(p.position(c).0.to_bits(), q.position(c).0.to_bits());
            assert_eq!(p.position(c).1.to_bits(), q.position(c).1.to_bits());
        }
        for r in 0..6 {
            assert_eq!(p.row_extent(r).to_bits(), q.row_extent(r).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "cannot be moved")]
    fn moving_a_fixed_cell_panics() {
        let nl = mixed_netlist();
        let fixed = nl
            .cell_ids()
            .find(|&c| nl.cell(c).fixed)
            .expect("circuit has fixed cells");
        let mut p = Placement::round_robin(&nl, 6);
        p.remove_cell(fixed);
    }

    #[test]
    fn blocks_split_when_a_row_grows_and_coalesce_when_it_drains() {
        let nl = CircuitGenerator::new(GeneratorConfig::sized("layout_blocks", 1200, 9)).generate();
        let mut p = Placement::round_robin(&nl, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        // Every cell of rows 1..4 moves into row 0 at a random slot.
        for r in 1..4 {
            while let Some(&cell) = p.row(r).first() {
                let index = rng.gen_range(0..p.slots_in_row(0));
                p.move_cell(cell, Slot { row: 0, index });
            }
        }
        let blocks = p.row_blocks[0].len();
        assert!(
            (1200 / (2 * BLOCK_CELLS)..=1200 / BLOCK_CELLS + 1).contains(&blocks),
            "{blocks} blocks for 1,200 cells"
        );
        assert!(p.row_blocks[0]
            .iter()
            .all(|&b| p.blocks[b as usize].len as usize <= 2 * BLOCK_CELLS));
        // Drain row 0 from random slots: slivers merge and empty blocks go,
        // so the block count tracks the row length down to one block.
        while !p.row(0).is_empty() {
            let cell = p.row(0)[rng.gen_range(0..p.row(0).len())];
            let row = rng.gen_range(1..4);
            p.move_cell(cell, Slot { row, index: 0 });
            let len = p.row(0).len();
            assert!(p.row_blocks[0].len() <= len.div_ceil(BLOCK_CELLS / 4).max(1) + 1);
        }
        assert_eq!(p.row_blocks[0].len(), 1);
        p.validate(&nl).unwrap();
    }

    #[test]
    #[should_panic(expected = "not placed at its cached ordinal")]
    fn removing_a_ripped_up_cell_twice_panics() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 4);
        let cell = p.row(2)[3];
        p.remove_cell(cell);
        p.remove_cell(cell);
    }

    #[test]
    fn pure_circuits_have_no_blocked_spans_and_full_extent() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 5);
        for r in 0..5 {
            assert!(p.blocked_spans(r).is_empty());
            assert_eq!(p.row_extent(r).to_bits(), (p.row_width(r) as f64).to_bits());
        }
    }

    #[test]
    fn validate_reports_a_width_mismatch_on_an_empty_row() {
        let nl = netlist();
        let mut rows = vec![Vec::new(); 3];
        rows[0] = nl.cell_ids().collect();
        let mut p = Placement::from_rows(&nl, rows);
        p.validate(&nl).unwrap();
        p.row_width[2] = 5;
        let err = p.validate(&nl).unwrap_err();
        assert_eq!(
            err,
            PlacementError::RowWidthMismatch {
                row: 2,
                recorded: 5,
                actual: 0
            }
        );
        assert_eq!(err.to_string(), "row 2 records width 5, its cells sum to 0");
    }

    #[test]
    fn validate_compares_coordinates_ordinals_and_extents_with_a_repack() {
        let nl = netlist();
        // One 120-cell row: two blocks.
        let mut p = Placement::round_robin(&nl, 1);
        assert_eq!(p.row_blocks[0].len(), 2);
        p.validate(&nl).unwrap();
        let cell = p.row(0)[5];
        p.cell_at[cell.index()].rel += 1.0;
        let err = p.validate(&nl).unwrap_err();
        assert_eq!(err, PlacementError::StaleCoordinate(cell));
        assert!(err.to_string().contains("x coordinate"));
        p.cell_at[cell.index()].rel -= 1.0;
        // A later block whose base missed a shift moves all of its cells.
        let second = p.row_blocks[0][1] as usize;
        let first_of_second = p.row(0)[p.blocks[second].first as usize];
        p.blocks[second].base += 2.0;
        assert_eq!(
            p.validate(&nl).unwrap_err(),
            PlacementError::StaleCoordinate(first_of_second)
        );
        p.blocks[second].base -= 2.0;
        p.cell_at[cell.index()].slot += 1;
        assert_eq!(
            p.validate(&nl).unwrap_err(),
            PlacementError::InconsistentRow(cell)
        );
        p.cell_at[cell.index()].slot -= 1;
        p.row_extent[0] += 0.5;
        let err = p.validate(&nl).unwrap_err();
        assert_eq!(err, PlacementError::StaleRowExtent(0));
        assert!(err.to_string().contains("row 0 extent"));
        p.row_extent[0] -= 0.5;
        p.validate(&nl).unwrap();
    }

    #[test]
    fn validate_detects_duplicates_and_missing() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 4);
        let cell = p.row(0)[0];
        p.remove_cell(cell);
        assert_eq!(
            p.validate(&nl).unwrap_err(),
            PlacementError::MissingCell(cell)
        );
        // Insert twice to create a duplicate.
        p.insert_cell(cell, Slot { row: 0, index: 0 });
        p.rows[1].push(cell);
        assert_eq!(
            p.validate(&nl).unwrap_err(),
            PlacementError::DuplicateCell(cell)
        );
    }
}
