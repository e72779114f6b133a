//! The bi-directional physical-to-machine translation table (Figs. 6-9).
//!
//! Machine pages `0..N` are the on-package slots; machine pages `N..total`
//! are the off-package DIMM locations ("MSBs of physical memory addresses
//! are used to decode the target location"). The table has one row per
//! on-package slot. Row `n` encodes, in a single entry, *both* directions
//! of a swap:
//!
//! * `Own` — slot `n` holds its own macro page `n` (an **OF** page). This
//!   is the boot state ("the right column ... is initialized to contain the
//!   same value as its left column counterpart").
//! * `Swapped(m)` (`m >= N`) — slot `n` holds macro page `m` (an **MF**
//!   page, found by the CAM function), while page `n`'s own data lives at
//!   `m`'s off-package home (page `n` is **MS**, found by the RAM
//!   function).
//! * `Empty` — slot `n` is the sacrificed slot of the N-1 design; page
//!   `n`'s data lives at the reserved ghost page Ω (page `n` is the
//!   **Ghost** page).
//!
//! Pages `>= N` with no CAM entry are **OS** pages at their own home.
//!
//! The paper's invariant — "if macro page n (n < N) is located in the
//! on-package region, it can only be in the position of the n-th row" —
//! makes the single-entry encoding sound: an on-package slot can only hold
//! its own page or a high page, so the RAM and CAM functions never
//! disagree.
//!
//! Two flags refine the translation during migration:
//!
//! * **P bit** (pending, Fig. 7): while set on row `n`, the RAM function is
//!   bypassed and page `n` translates to Ω regardless of the row state
//!   ("the left column is always translated to Ω instead, while the CAM
//!   function still works").
//! * **F bit + bitmap** (filling, Fig. 9): the slot is receiving a page
//!   sub-block by sub-block; accesses to already-filled sub-blocks are
//!   served on-package, the rest route to the recorded source location.

use hmm_sim_base::addr::{MacroPageId, SubBlockId};
use hmm_sim_base::fxhash::FxHashMap;

/// A macro-page-sized machine location: `< N` → on-package slot,
/// `>= N` → off-package DIMM page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachinePage(pub u64);

/// State of one translation-table row (one on-package slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowState {
    /// Slot holds its own page (OF).
    Own,
    /// Slot holds the given high page (MF); the row's own page is MS at
    /// that page's home.
    Swapped(u64),
    /// The sacrificed slot (N-1 design); the row's own page is the Ghost
    /// page, resident at Ω.
    Empty,
}

/// Live-migration fill progress for one slot.
#[derive(Debug, Clone)]
pub struct FillState {
    /// The page arriving into this slot.
    pub page: u64,
    /// Where its not-yet-copied sub-blocks still live.
    pub source: MachinePage,
    bitmap: Vec<u64>,
    filled: u32,
    total: u32,
}

impl FillState {
    fn new(page: u64, source: MachinePage, sub_blocks: u32) -> Self {
        assert!(sub_blocks >= 1);
        Self {
            page,
            source,
            bitmap: vec![0; sub_blocks.div_ceil(64) as usize],
            filled: 0,
            total: sub_blocks,
        }
    }

    /// Map a real sub-block index onto the bitmap granularity: a
    /// single-bit bitmap (the conservative N-1 all-or-nothing switch)
    /// folds every sub-block onto bit 0.
    #[inline]
    fn bit_index(&self, sub: SubBlockId) -> u32 {
        if self.total == 1 {
            0
        } else {
            debug_assert!(sub.0 < self.total);
            sub.0
        }
    }

    /// Has this sub-block arrived?
    #[inline]
    pub fn is_filled(&self, sub: SubBlockId) -> bool {
        let i = self.bit_index(sub);
        self.bitmap[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    fn mark(&mut self, sub: SubBlockId) -> bool {
        let i = self.bit_index(sub);
        let w = &mut self.bitmap[(i / 64) as usize];
        let bit = 1u64 << (i % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.filled += 1;
        }
        self.filled == self.total
    }

    /// Fraction of sub-blocks already present.
    pub fn progress(&self) -> f64 {
        self.filled as f64 / self.total as f64
    }
}

#[derive(Debug, Clone)]
struct Row {
    state: RowState,
    p_bit: bool,
    fill: Option<FillState>,
    /// In Fig. 8(c)/(d) the partner page's CAM entry moves to the empty
    /// slot while this row's RAM state must keep pointing at the partner's
    /// home. While suppressed, the row's `Swapped` entry serves only the
    /// RAM function.
    cam_suppressed: bool,
    /// Where the row's own page was parked when the slot was drained for
    /// quarantine (a reserved spare page). While set, the P-bit/Empty
    /// translation goes here instead of Ω.
    parked: Option<u64>,
    /// The slot was retired from the migration pool after exceeding its
    /// uncorrectable-error budget. Quarantined rows stay `Empty` forever
    /// and are never picked as the fill target of a swap.
    quarantined: bool,
}

/// The translation table.
#[derive(Debug, Clone)]
pub struct TranslationTable {
    slots: u64,
    total_pages: u64,
    /// The reserved ghost page Ω: the highest macro page of the space,
    /// reserved by the hardware driver at boot (Section III-A footnote).
    ghost: u64,
    rows: Vec<Row>,
    /// CAM function: high page -> slot holding it.
    cam: FxHashMap<u64, u32>,
    /// Reserved spare pages just below Ω, used to park the occupants of
    /// quarantined slots.
    spares_total: u32,
    /// Spares handed out so far.
    next_spare: u32,
    /// Mutation epoch: bumped by every primitive that can change a
    /// translation, so lookup caches in front of the table
    /// ([`crate::tcache::TranslationCache`]) can validate entries with a
    /// single compare instead of subscribing to individual updates.
    generation: u64,
}

impl TranslationTable {
    /// Identity-mapped table over `slots` on-package slots and
    /// `total_pages` macro pages. With `sacrifice_slot` (the N-1 designs),
    /// the last slot starts `Empty` and its page lives at Ω.
    pub fn new(slots: u64, total_pages: u64, sacrifice_slot: bool) -> Self {
        Self::with_spares(slots, total_pages, sacrifice_slot, 0)
    }

    /// Like [`TranslationTable::new`], additionally reserving `spares`
    /// pages just below Ω as parking space for quarantined-slot
    /// occupants. The reserved pages (spares plus Ω) are invisible to the
    /// program; the caller must size the machine space to cover them.
    pub fn with_spares(slots: u64, total_pages: u64, sacrifice_slot: bool, spares: u32) -> Self {
        assert!(slots >= 2, "need at least two on-package slots");
        assert!(
            total_pages > slots + 1 + spares as u64,
            "need off-package pages plus the ghost page plus {spares} spares"
        );
        let mut rows = vec![
            Row {
                state: RowState::Own,
                p_bit: false,
                fill: None,
                cam_suppressed: false,
                parked: None,
                quarantined: false,
            };
            slots as usize
        ];
        if sacrifice_slot {
            rows[slots as usize - 1].state = RowState::Empty;
        }
        Self {
            slots,
            total_pages,
            ghost: total_pages - 1,
            rows,
            cam: FxHashMap::default(),
            spares_total: spares,
            next_spare: 0,
            generation: 0,
        }
    }

    /// Current mutation epoch. Any value change means previously observed
    /// translations may be stale; equality guarantees they are not (the
    /// sole exception is fill-bitmap progress, which only ever affects the
    /// filling page itself — a page [`TranslationTable::translate_stable`]
    /// refuses to vouch for).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    fn bump(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Number of on-package slots N.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// The reserved ghost machine page Ω.
    pub fn ghost(&self) -> MachinePage {
        MachinePage(self.ghost)
    }

    /// Is this machine page inside the on-package region?
    #[inline]
    pub fn is_on_package(&self, mp: MachinePage) -> bool {
        mp.0 < self.slots
    }

    /// First reserved (non-program-visible) page: the spares and Ω live
    /// at `first_reserved_page()..total_pages`.
    pub fn first_reserved_page(&self) -> u64 {
        self.ghost - self.spares_total as u64
    }

    /// Is `page` reserved (a spare or the ghost page Ω)? Reserved pages
    /// must never be picked as swap candidates.
    #[inline]
    pub fn is_reserved(&self, page: u64) -> bool {
        page >= self.first_reserved_page()
    }

    /// Is at least one spare page still unallocated?
    pub fn spare_available(&self) -> bool {
        self.next_spare < self.spares_total
    }

    /// Hand out the next reserved spare page for a quarantine drain.
    pub fn allocate_spare(&mut self) -> Option<MachinePage> {
        if !self.spare_available() {
            return None;
        }
        let p = self.first_reserved_page() + self.next_spare as u64;
        self.next_spare += 1;
        Some(MachinePage(p))
    }

    /// Has this slot been retired from the migration pool?
    pub fn is_quarantined(&self, slot: u32) -> bool {
        self.rows[slot as usize].quarantined
    }

    /// Number of quarantined slots.
    pub fn quarantined_count(&self) -> u64 {
        self.rows.iter().filter(|r| r.quarantined).count() as u64
    }

    /// Current state of a row.
    pub fn row_state(&self, slot: u32) -> RowState {
        self.rows[slot as usize].state
    }

    /// Is the row's P bit set?
    pub fn p_bit(&self, slot: u32) -> bool {
        self.rows[slot as usize].p_bit
    }

    /// Fill progress of a row, if a fill is active.
    pub fn fill_state(&self, slot: u32) -> Option<&FillState> {
        self.rows[slot as usize].fill.as_ref()
    }

    /// The slot currently holding `page` (CAM function), if any.
    pub fn cam_lookup(&self, page: u64) -> Option<u32> {
        self.cam.get(&page).copied()
    }

    /// The macro page whose data currently occupies `slot`, or `None` for
    /// the empty slot. This is what the LRU monitor evicts.
    pub fn occupant(&self, slot: u32) -> Option<u64> {
        match self.rows[slot as usize].state {
            RowState::Own => Some(slot as u64),
            RowState::Swapped(m) => Some(m),
            RowState::Empty => None,
        }
    }

    /// The slot in `Empty` state, if any (idle N-1 table has exactly
    /// one). Quarantined slots are also `Empty` but are permanently out
    /// of the pool, so they don't count.
    pub fn empty_slot(&self) -> Option<u32> {
        self.rows
            .iter()
            .position(|r| r.state == RowState::Empty && !r.quarantined)
            .map(|i| i as u32)
    }

    /// Translate one access (the paper's two additional clock cycles are
    /// charged by the controller, not here).
    pub fn translate(&self, page: MacroPageId, sub: SubBlockId) -> MachinePage {
        let p = page.0;
        debug_assert!(p < self.total_pages, "page {p} out of range");
        if p < self.slots {
            // RAM function.
            let row = &self.rows[p as usize];
            if let Some(f) = &row.fill {
                if f.page == p {
                    return if f.is_filled(sub) { MachinePage(p) } else { f.source };
                }
            }
            if row.p_bit {
                return MachinePage(row.parked.unwrap_or(self.ghost));
            }
            match row.state {
                RowState::Own => MachinePage(p),
                RowState::Swapped(m) => MachinePage(m),
                RowState::Empty => MachinePage(row.parked.unwrap_or(self.ghost)),
            }
        } else {
            // CAM function.
            if let Some(&slot) = self.cam.get(&p) {
                let row = &self.rows[slot as usize];
                if let Some(f) = &row.fill {
                    if f.page == p {
                        return if f.is_filled(sub) { MachinePage(slot as u64) } else { f.source };
                    }
                }
                MachinePage(slot as u64)
            } else {
                MachinePage(p)
            }
        }
    }

    /// Translate a page whose mapping does not depend on the sub-block, or
    /// `None` while the page is the target of an active fill (its F bitmap
    /// decides per sub-block). A `Some` result stays valid until
    /// [`TranslationTable::generation`] changes, which is what makes it
    /// safe to hold in a lookup cache.
    pub fn translate_stable(&self, page: MacroPageId) -> Option<MachinePage> {
        let p = page.0;
        debug_assert!(p < self.total_pages, "page {p} out of range");
        if p < self.slots {
            // RAM function.
            let row = &self.rows[p as usize];
            if let Some(f) = &row.fill {
                if f.page == p {
                    return None;
                }
            }
            if row.p_bit {
                return Some(MachinePage(row.parked.unwrap_or(self.ghost)));
            }
            Some(match row.state {
                RowState::Own => MachinePage(p),
                RowState::Swapped(m) => MachinePage(m),
                RowState::Empty => MachinePage(row.parked.unwrap_or(self.ghost)),
            })
        } else {
            // CAM function.
            if let Some(&slot) = self.cam.get(&p) {
                let row = &self.rows[slot as usize];
                if let Some(f) = &row.fill {
                    if f.page == p {
                        return None;
                    }
                }
                Some(MachinePage(slot as u64))
            } else {
                Some(MachinePage(p))
            }
        }
    }

    // ---- mutation primitives used by the migration engine ----
    //
    // Each mirrors one of the paper's table updates; preconditions are
    // asserted because a violation is a bug in the engine's sequencing,
    // never a runtime condition.

    /// Begin filling `page` (a high page) into the empty slot `slot`,
    /// arriving from `source`. Sets the row to `Swapped(page)` with the
    /// P bit (paper: "a new link B-to-C is updated ... the P bit of this
    /// row is set to 1") and an F-bitmap of `sub_blocks` entries.
    pub fn begin_fill_into_empty(
        &mut self,
        slot: u32,
        page: u64,
        source: MachinePage,
        sub_blocks: u32,
    ) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        assert_eq!(row.state, RowState::Empty, "fill target must be the empty slot");
        assert!(!row.quarantined, "quarantined slots never rejoin the pool");
        assert!(page >= self.slots, "only high pages enter via the empty slot");
        assert!(row.fill.is_none());
        row.state = RowState::Swapped(page);
        row.p_bit = true;
        row.fill = Some(FillState::new(page, source, sub_blocks));
        let prev = self.cam.insert(page, slot);
        assert!(prev.is_none(), "page {page} already CAM-mapped");
    }

    /// Suppress this row's CAM entry: the partner page's entry is about to
    /// be re-created at the empty slot (Fig. 8c/d step 1), but this row's
    /// RAM state must keep translating its own page to the partner's home
    /// until the restore step. Panics unless the row is `Swapped`.
    pub fn suppress_cam(&mut self, slot: u32) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        let RowState::Swapped(partner) = row.state else {
            panic!("only swapped rows have a CAM entry to suppress");
        };
        assert!(!row.cam_suppressed, "CAM already suppressed on slot {slot}");
        row.cam_suppressed = true;
        let removed = self.cam.remove(&partner);
        assert_eq!(removed, Some(slot), "CAM out of sync for page {partner}");
    }

    /// Begin restoring the row's own page into `slot` (Fig. 8c/d step 2:
    /// "copy data B back to its original slot"). The row must currently be
    /// `Swapped(partner)` with its CAM entry suppressed (the partner's data
    /// was re-homed to the empty slot by the previous step).
    pub fn begin_restore_own(&mut self, slot: u32, source: MachinePage, sub_blocks: u32) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        let RowState::Swapped(_) = row.state else {
            panic!("restore target must be a swapped slot");
        };
        assert!(row.cam_suppressed, "suppress_cam must precede begin_restore_own");
        assert!(row.fill.is_none());
        row.state = RowState::Own;
        row.cam_suppressed = false;
        row.fill = Some(FillState::new(slot as u64, source, sub_blocks));
    }

    /// Record the arrival of one sub-block into `slot`. Returns true when
    /// the fill is complete (the F bit resets: "when all the bits in the
    /// bit map become 1, the F bit is reset").
    pub fn mark_sub_block_filled(&mut self, slot: u32, sub: SubBlockId) -> bool {
        let row = &mut self.rows[slot as usize];
        let fill = row.fill.as_mut().expect("no fill in progress");
        let done = fill.mark(sub);
        if done {
            row.fill = None;
        }
        done
    }

    /// Clear the P bit (the reverse copy finished).
    pub fn clear_p(&mut self, slot: u32) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        assert!(row.p_bit, "P bit not set on slot {slot}");
        row.p_bit = false;
    }

    /// Set the P bit (Fig. 8b/d: the row's own data has been parked at Ω
    /// while its slot drains).
    pub fn set_p(&mut self, slot: u32) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        assert!(!row.p_bit, "P bit already set on slot {slot}");
        assert!(row.state != RowState::Empty);
        row.p_bit = true;
    }

    /// Retire a slot to `Empty` (its occupant has been copied out; the
    /// row's own page now lives at Ω — it is the new Ghost page).
    pub fn retire_to_empty(&mut self, slot: u32) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        assert!(row.fill.is_none(), "cannot retire a filling slot");
        if let RowState::Swapped(m) = row.state {
            if !row.cam_suppressed {
                let removed = self.cam.remove(&m);
                assert_eq!(removed, Some(slot));
            }
        }
        row.state = RowState::Empty;
        row.p_bit = false;
        row.cam_suppressed = false;
    }

    /// Directly set a row to `Swapped(page)` without a fill (used by the
    /// halting N design, which completes the whole exchange before any
    /// table update).
    pub fn set_swapped(&mut self, slot: u32, page: u64) {
        self.bump();
        assert!(page >= self.slots);
        let row = &mut self.rows[slot as usize];
        assert!(row.fill.is_none());
        if let RowState::Swapped(old) = row.state {
            let removed = self.cam.remove(&old);
            assert_eq!(removed, Some(slot));
        }
        row.state = RowState::Swapped(page);
        let prev = self.cam.insert(page, slot);
        assert!(prev.is_none(), "page {page} already CAM-mapped");
    }

    /// Directly set a row to `Own` without a fill (N design).
    pub fn set_own(&mut self, slot: u32) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        assert!(row.fill.is_none());
        if let RowState::Swapped(old) = row.state {
            let removed = self.cam.remove(&old);
            assert_eq!(removed, Some(slot));
        }
        row.state = RowState::Own;
    }

    // ---- rollback and quarantine primitives ----
    //
    // Inverses of the begin-ops above, used when a swap aborts mid-flight
    // and the engine walks the P/F state machine backwards, plus the two
    // operations of a quarantine drain.

    /// Undo [`TranslationTable::begin_fill_into_empty`]: the fill is
    /// abandoned, the CAM entry withdrawn and the slot returns to `Empty`
    /// (whatever sub-blocks already arrived are discarded — the source
    /// copy is still intact, so the page's single valid home moves back).
    pub fn abort_fill_into_empty(&mut self, slot: u32) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        let RowState::Swapped(page) = row.state else {
            panic!("abort_fill target is not mid-fill");
        };
        assert!(row.p_bit, "fill rows carry the P bit until the ghost drains");
        row.state = RowState::Empty;
        row.p_bit = false;
        row.fill = None;
        let removed = self.cam.remove(&page);
        assert_eq!(removed, Some(slot), "CAM out of sync for page {page}");
    }

    /// Undo [`TranslationTable::suppress_cam`]: re-create the partner
    /// page's CAM entry at this row.
    pub fn unsuppress_cam(&mut self, slot: u32) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        let RowState::Swapped(partner) = row.state else {
            panic!("only swapped rows can re-own a CAM entry");
        };
        assert!(row.cam_suppressed, "CAM not suppressed on slot {slot}");
        row.cam_suppressed = false;
        let prev = self.cam.insert(partner, slot);
        assert!(prev.is_none(), "page {partner} already CAM-mapped");
    }

    /// Undo [`TranslationTable::begin_restore_own`]: the restore is
    /// abandoned and the row returns to `Swapped(partner)` with its CAM
    /// entry suppressed (as it was between the suppress and restore
    /// steps). `partner` is the high page whose home still holds the
    /// row's own data.
    pub fn abort_restore_own(&mut self, slot: u32, partner: u64) {
        self.bump();
        let row = &mut self.rows[slot as usize];
        assert_eq!(row.state, RowState::Own, "abort_restore target is not mid-restore");
        assert!(!row.cam_suppressed);
        assert!(partner >= self.slots);
        row.state = RowState::Swapped(partner);
        row.cam_suppressed = true;
        row.fill = None;
    }

    /// Set the P bit with a parked destination: the row's own data has
    /// been copied to the reserved spare page (quarantine drain of a
    /// `Swapped` slot) and translates there while the occupant drains.
    pub fn set_p_parked(&mut self, slot: u32, spare: MachinePage) {
        self.bump();
        assert!(self.is_reserved(spare.0) && spare.0 != self.ghost, "park target must be a spare");
        let row = &mut self.rows[slot as usize];
        assert!(!row.p_bit, "P bit already set on slot {slot}");
        assert!(matches!(row.state, RowState::Swapped(_)), "parked drains leave swapped rows");
        assert!(row.parked.is_none());
        row.p_bit = true;
        row.parked = Some(spare.0);
    }

    /// Retire `slot` from the migration pool for good: its own page now
    /// lives at the spare, any occupant has been drained, and the row is
    /// permanently `Empty` + quarantined.
    pub fn quarantine_row(&mut self, slot: u32, spare: MachinePage) {
        self.bump();
        assert!(self.is_reserved(spare.0) && spare.0 != self.ghost, "park target must be a spare");
        let row = &mut self.rows[slot as usize];
        assert!(!row.quarantined, "slot {slot} already quarantined");
        assert!(row.fill.is_none(), "cannot quarantine a filling slot");
        assert!(!row.cam_suppressed);
        if let RowState::Swapped(m) = row.state {
            let removed = self.cam.remove(&m);
            assert_eq!(removed, Some(slot));
        }
        row.state = RowState::Empty;
        row.p_bit = false;
        row.quarantined = true;
        row.parked = Some(spare.0);
    }

    /// Serialize the table's dynamic state (snapshot/resume support).
    /// Geometry (`slots`, `total_pages`, `ghost`, `spares_total`) is
    /// rebuilt from configuration on load; the CAM is reconstructed from
    /// the rows, restoring exactly the `check_invariants` relationship.
    pub fn save_state(&self, w: &mut hmm_sim_base::snap::SnapWriter) {
        w.u32(self.next_spare);
        w.u64(self.generation);
        w.usize(self.rows.len());
        for row in &self.rows {
            match row.state {
                RowState::Own => w.u8(0),
                RowState::Swapped(m) => {
                    w.u8(1);
                    w.u64(m);
                }
                RowState::Empty => w.u8(2),
            }
            w.bool(row.p_bit);
            match &row.fill {
                None => w.bool(false),
                Some(f) => {
                    w.bool(true);
                    w.u64(f.page);
                    w.u64(f.source.0);
                    w.u64s(&f.bitmap);
                    w.u32(f.filled);
                    w.u32(f.total);
                }
            }
            w.bool(row.cam_suppressed);
            match row.parked {
                None => w.bool(false),
                Some(p) => {
                    w.bool(true);
                    w.u64(p);
                }
            }
            w.bool(row.quarantined);
        }
    }

    /// Restore table state saved by [`TranslationTable::save_state`] onto
    /// a freshly constructed table with the same geometry.
    pub fn load_state(
        &mut self,
        r: &mut hmm_sim_base::snap::SnapReader<'_>,
    ) -> hmm_sim_base::snap::SnapResult<()> {
        self.next_spare = r.u32()?;
        self.generation = r.u64()?;
        let n = r.usize()?;
        if n != self.rows.len() {
            return Err(format!("row count mismatch: expected {}", self.rows.len()));
        }
        for row in &mut self.rows {
            row.state = match r.u8()? {
                0 => RowState::Own,
                1 => RowState::Swapped(r.u64()?),
                2 => RowState::Empty,
                t => return Err(format!("invalid row-state tag {t}")),
            };
            row.p_bit = r.bool()?;
            row.fill = if r.bool()? {
                let page = r.u64()?;
                let source = MachinePage(r.u64()?);
                let bitmap = r.u64s()?;
                let filled = r.u32()?;
                let total = r.u32()?;
                Some(FillState { page, source, bitmap, filled, total })
            } else {
                None
            };
            row.cam_suppressed = r.bool()?;
            row.parked = if r.bool()? { Some(r.u64()?) } else { None };
            row.quarantined = r.bool()?;
        }
        self.cam.clear();
        for (i, row) in self.rows.iter().enumerate() {
            if let RowState::Swapped(m) = row.state {
                if !row.cam_suppressed {
                    self.cam.insert(m, i as u32);
                }
            }
        }
        Ok(())
    }

    /// Verify the paper's structural invariants; used by tests and
    /// property tests. `idle` additionally requires no in-flight migration
    /// state (no P/F bits) and, for N-1 tables, exactly one empty slot.
    pub fn check_invariants(&self, idle: bool, n_minus_one: bool) -> Result<(), String> {
        let mut seen = FxHashMap::default();
        let mut parked_seen = FxHashMap::default();
        let mut empties = 0;
        for (i, row) in self.rows.iter().enumerate() {
            match row.state {
                RowState::Own => {}
                RowState::Swapped(m) => {
                    if m < self.slots {
                        return Err(format!(
                            "slot {i} holds low page {m}; low pages may only live in their own slot"
                        ));
                    }
                    if self.is_reserved(m) {
                        return Err(format!("slot {i} claims reserved page {m}"));
                    }
                    if row.cam_suppressed {
                        if idle {
                            return Err(format!("slot {i} has residual CAM suppression"));
                        }
                    } else {
                        if let Some(prev) = seen.insert(m, i) {
                            return Err(format!("page {m} mapped by slots {prev} and {i}"));
                        }
                        if self.cam.get(&m) != Some(&(i as u32)) {
                            return Err(format!("CAM out of sync for page {m}"));
                        }
                    }
                }
                RowState::Empty if row.quarantined => {}
                RowState::Empty => empties += 1,
            }
            if row.quarantined {
                if row.state != RowState::Empty {
                    return Err(format!("quarantined slot {i} is not empty"));
                }
                if row.parked.is_none() {
                    return Err(format!("quarantined slot {i} has nowhere to park its page"));
                }
                if row.p_bit || row.fill.is_some() {
                    return Err(format!("quarantined slot {i} has residual P/F state"));
                }
            }
            if let Some(pk) = row.parked {
                if !self.is_reserved(pk) || pk == self.ghost {
                    return Err(format!("slot {i} parked at non-spare page {pk}"));
                }
                if !row.quarantined && !row.p_bit {
                    return Err(format!("slot {i} parked without quarantine or pending drain"));
                }
                if let Some(prev) = parked_seen.insert(pk, i) {
                    return Err(format!("spare {pk} parks slots {prev} and {i}"));
                }
            }
            if idle && (row.p_bit || row.fill.is_some()) {
                return Err(format!("slot {i} has residual P/F state while idle"));
            }
        }
        if self.cam.len() != seen.len() {
            return Err("CAM contains stale entries".into());
        }
        if idle && n_minus_one && empties != 1 {
            return Err(format!(
                "idle N-1 table must have exactly one empty slot, found {empties}"
            ));
        }
        if !n_minus_one && empties != 0 {
            return Err(format!("N table must have no empty slots, found {empties}"));
        }
        Ok(())
    }

    /// Full consistency check, run after every table-mutating state
    /// transition in debug builds (and by the property tests in any
    /// build): the structural invariants of
    /// [`TranslationTable::check_invariants`], fill records that agree
    /// with their rows, and the paper's availability claim itself —
    /// every program-visible page has exactly **one** valid home at
    /// every instant, even mid-swap, mid-rollback or mid-drain.
    pub fn validate(&self, n_minus_one: bool) -> Result<(), String> {
        self.check_invariants(false, n_minus_one)?;
        for (i, row) in self.rows.iter().enumerate() {
            if let Some(f) = &row.fill {
                let consistent =
                    f.page == i as u64 || matches!(row.state, RowState::Swapped(m) if m == f.page);
                if !consistent {
                    return Err(format!("slot {i} fill record names page {} it does not hold", {
                        f.page
                    }));
                }
            }
        }
        // One-valid-home: the translation of the program-visible space is
        // injective (checked at sub-block 0; other sub-blocks differ only
        // in picking the fill target vs. the fill source, both of which
        // are exclusive to the same page).
        let mut homes = FxHashMap::default();
        for p in 0..self.first_reserved_page() {
            let mp = self.translate(MacroPageId(p), SubBlockId(0));
            if let Some(prev) = homes.insert(mp, p) {
                return Err(format!(
                    "pages {prev} and {p} both translate to machine page {}",
                    mp.0
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(p: u64) -> MacroPageId {
        MacroPageId(p)
    }

    fn sub(s: u32) -> SubBlockId {
        SubBlockId(s)
    }

    /// 8 slots, 32 total pages, ghost = 31.
    fn table() -> TranslationTable {
        TranslationTable::new(8, 32, true)
    }

    #[test]
    fn boot_state_is_identity_with_one_empty() {
        let t = table();
        t.check_invariants(true, true).unwrap();
        assert_eq!(t.empty_slot(), Some(7));
        // Low pages 0..7 map to their own slots (except the ghost page 7).
        for p in 0..7 {
            assert_eq!(t.translate(page(p), sub(0)), MachinePage(p));
            assert!(t.is_on_package(t.translate(page(p), sub(0))));
        }
        // The sacrificed slot's own page lives at the ghost Ω = 31.
        assert_eq!(t.translate(page(7), sub(0)), MachinePage(31));
        // High pages are at their own homes.
        assert_eq!(t.translate(page(20), sub(0)), MachinePage(20));
        assert!(!t.is_on_package(t.translate(page(20), sub(0))));
    }

    #[test]
    fn fill_into_empty_follows_bitmap() {
        let mut t = table();
        // Page 20 starts arriving into the empty slot 7, 4 sub-blocks.
        t.begin_fill_into_empty(7, 20, MachinePage(20), 4);
        // Not-yet-copied sub-blocks still route to the source.
        assert_eq!(t.translate(page(20), sub(0)), MachinePage(20));
        assert!(!t.mark_sub_block_filled(7, sub(0)));
        assert_eq!(t.translate(page(20), sub(0)), MachinePage(7), "filled sub-block is on-package");
        assert_eq!(t.translate(page(20), sub(1)), MachinePage(20), "unfilled still off-package");
        // P bit: RAM lookups of the slot's own page go to the ghost.
        assert_eq!(t.translate(page(7), sub(0)), MachinePage(31));
        // Finish the fill.
        assert!(!t.mark_sub_block_filled(7, sub(1)));
        assert!(!t.mark_sub_block_filled(7, sub(2)));
        assert!(t.mark_sub_block_filled(7, sub(3)));
        assert_eq!(t.translate(page(20), sub(2)), MachinePage(7));
    }

    #[test]
    fn full_case_a_sequence_reaches_consistent_state() {
        // Fig. 8(a): hot OS page 20, cold OF page 3, empty slot 7.
        let mut t = table();
        // Step 1: copy 20 into slot 7.
        t.begin_fill_into_empty(7, 20, MachinePage(20), 1);
        t.mark_sub_block_filled(7, sub(0));
        // Step 2: copy ghost data (page 7's) to home(20); then clear P.
        t.clear_p(7);
        // Page 7's data is now at home(20).
        assert_eq!(t.translate(page(7), sub(0)), MachinePage(20));
        // Step 3: copy page 3 to Ω; slot 3 becomes the new empty slot.
        t.retire_to_empty(3);
        assert_eq!(t.translate(page(3), sub(0)), MachinePage(31));
        assert_eq!(t.empty_slot(), Some(3));
        assert_eq!(t.translate(page(20), sub(0)), MachinePage(7));
        t.check_invariants(true, true).unwrap();
    }

    #[test]
    fn full_case_b_sequence() {
        // Prepare: page 20 in slot 7 (so row 7 is Swapped(20)), empty at 3.
        let mut t = table();
        t.begin_fill_into_empty(7, 20, MachinePage(20), 1);
        t.mark_sub_block_filled(7, sub(0));
        t.clear_p(7);
        t.retire_to_empty(3);
        t.check_invariants(true, true).unwrap();

        // Fig. 8(b): hot OS page 21 arrives; LRU is MF page 20 in slot 7.
        t.begin_fill_into_empty(3, 21, MachinePage(21), 1);
        t.mark_sub_block_filled(3, sub(0));
        t.clear_p(3); // ghost (page 3's data) copied to home(21)
        assert_eq!(t.translate(page(3), sub(0)), MachinePage(21));
        // Step 3: page 7's data (at home(20)) parks at Ω; P bit set.
        t.set_p(7);
        assert_eq!(t.translate(page(7), sub(0)), MachinePage(31));
        // Accesses to 20 still reach slot 7 ("the P bit only prevents the
        // address translation from A to C").
        assert_eq!(t.translate(page(20), sub(0)), MachinePage(7));
        // Step 4: 20's data drains home; slot 7 retires to empty.
        t.retire_to_empty(7);
        assert_eq!(t.translate(page(20), sub(0)), MachinePage(20));
        assert_eq!(t.translate(page(7), sub(0)), MachinePage(31));
        t.check_invariants(true, true).unwrap();
    }

    #[test]
    fn full_case_c_sequence() {
        // Prepare: page 20 swapped into slot 2 => page 2 is MS at home(20).
        let mut t = table();
        t.begin_fill_into_empty(7, 20, MachinePage(20), 1);
        t.mark_sub_block_filled(7, sub(0));
        t.clear_p(7);
        t.retire_to_empty(2);
        // Move 20 from slot 7 to... actually build the MS state directly:
        // we need row 2 = Swapped(20). Simplest: fresh table + N-design ops.
        let mut t = TranslationTable::new(8, 32, true);
        t.set_swapped(2, 20); // page 2's data at home(20), 20 in slot 2
        t.check_invariants(true, true).unwrap();

        // Fig. 8(c): hot MS page 2 (at home(20)) returns; LRU is OF page 4.
        // Step 1: move 20's CAM entry aside, then copy its data (slot 2)
        // into the empty slot 7.
        t.suppress_cam(2);
        t.begin_fill_into_empty(7, 20, MachinePage(2), 1);
        // CAM(20) during the fill: unfilled sub-blocks come from slot 2.
        assert_eq!(t.translate(page(20), sub(0)), MachinePage(2));
        t.mark_sub_block_filled(7, sub(0));
        assert_eq!(t.translate(page(20), sub(0)), MachinePage(7));
        // Step 2: restore page 2 into its own slot from home(20).
        t.begin_restore_own(2, MachinePage(20), 1);
        assert_eq!(t.translate(page(2), sub(0)), MachinePage(20), "still filling");
        t.mark_sub_block_filled(2, sub(0));
        assert_eq!(t.translate(page(2), sub(0)), MachinePage(2));
        // Step 3: ghost data (page 7's) copied to home(20); clear P.
        t.clear_p(7);
        assert_eq!(t.translate(page(7), sub(0)), MachinePage(20));
        // Step 4: LRU page 4 parks at Ω; slot 4 becomes empty.
        t.retire_to_empty(4);
        assert_eq!(t.translate(page(4), sub(0)), MachinePage(31));
        t.check_invariants(true, true).unwrap();
    }

    #[test]
    fn n_design_direct_ops() {
        let mut t = TranslationTable::new(8, 32, false);
        t.check_invariants(true, false).unwrap();
        t.set_swapped(3, 25);
        assert_eq!(t.translate(page(25), sub(0)), MachinePage(3));
        assert_eq!(t.translate(page(3), sub(0)), MachinePage(25));
        t.check_invariants(true, false).unwrap();
        t.set_own(3);
        assert_eq!(t.translate(page(25), sub(0)), MachinePage(25));
        assert_eq!(t.translate(page(3), sub(0)), MachinePage(3));
        t.check_invariants(true, false).unwrap();
    }

    #[test]
    fn occupants_reflect_state() {
        let mut t = table();
        assert_eq!(t.occupant(0), Some(0));
        assert_eq!(t.occupant(7), None);
        t.begin_fill_into_empty(7, 20, MachinePage(20), 1);
        assert_eq!(t.occupant(7), Some(20));
    }

    #[test]
    #[should_panic(expected = "fill target must be the empty slot")]
    fn cannot_fill_into_occupied_slot() {
        let mut t = table();
        t.begin_fill_into_empty(0, 20, MachinePage(20), 1);
    }

    #[test]
    #[should_panic(expected = "already CAM-mapped")]
    fn cannot_double_map_a_page() {
        let mut t = TranslationTable::new(8, 32, false);
        t.set_swapped(0, 20);
        t.set_swapped(1, 20);
    }

    #[test]
    fn invariants_catch_stale_cam() {
        let mut t = table();
        t.begin_fill_into_empty(7, 20, MachinePage(20), 1);
        // Mid-migration state is not idle-clean.
        assert!(t.check_invariants(true, true).is_err());
        assert!(t.check_invariants(false, true).is_ok());
    }

    #[test]
    fn big_bitmap_paths() {
        // A 4 MB page with 4 KB sub-blocks: 1024 bits across 16 words.
        let mut t = table();
        t.begin_fill_into_empty(7, 20, MachinePage(20), 1024);
        for i in 0..1023 {
            assert!(!t.mark_sub_block_filled(7, sub(i)));
        }
        let f = t.fill_state(7).unwrap();
        assert!((f.progress() - 1023.0 / 1024.0).abs() < 1e-9);
        assert!(t.mark_sub_block_filled(7, sub(1023)));
        assert!(t.fill_state(7).is_none(), "F bit resets when the bitmap is full");
    }

    #[test]
    fn mark_same_sub_block_twice_is_idempotent() {
        let mut t = table();
        t.begin_fill_into_empty(7, 20, MachinePage(20), 2);
        assert!(!t.mark_sub_block_filled(7, sub(0)));
        assert!(!t.mark_sub_block_filled(7, sub(0)));
        assert!(t.mark_sub_block_filled(7, sub(1)));
    }
}
