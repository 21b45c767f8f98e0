//! DRAM bank state, stored structure-of-arrays.
//!
//! Each bank tracks which row (if any) is open and when it is next able
//! to deliver data. Timing is kept in nanoseconds — the bank's native
//! domain — and the page policy is *open page*: a row stays open after an
//! access until a conflicting access or a refresh closes it, so
//! consecutive accesses to the same row are hits.
//!
//! Bank state is not stored as a `Vec` of per-bank structs but as one
//! [`BankPool`]: five contiguous parallel arrays (`open_row` plus four
//! timing fields) covering every bank of every *unit* (pseudo-channel) an
//! owner holds (32 units for the stock system), mirroring the flat
//! `StampedRing` design of the queue substrate. The controller's hot
//! operations (`classify` for FR-FCFS ranking, refresh row-close, the
//! row-state walk of `execute_burst`) then touch dense cache lines
//! instead of pointer-chasing a heap of tiny structs. Mutable access
//! flows through two borrowed views: [`BanksViewMut`] (a contiguous run
//! of units, splittable along execution-domain boundaries) and
//! [`BanksMut`] (one unit, what `PchDram` operates on).

use crate::config::Timings;

/// Sentinel in the `open_row` array: no row open. Real row indices are
/// bounded by capacity/row size and can never reach `u64::MAX`.
const NO_ROW: u64 = u64::MAX;

/// Outcome of presenting an access to a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank was idle (no row open); pays ACTIVATE + CAS.
    Closed,
    /// A different row was open; pays PRECHARGE + ACTIVATE + CAS.
    Miss,
}

/// Bank state for many units (pseudo-channels) in one structure-of-arrays
/// allocation. Unit `u`'s banks live at indices
/// `u * banks_per_unit .. (u + 1) * banks_per_unit` of every array, so an
/// owner that ticks its controllers in unit order walks each array
/// front to back.
#[derive(Debug, Clone)]
pub struct BankPool {
    units: usize,
    banks_per_unit: usize,
    open_row: Box<[u64]>,
    /// Earliest next activate (set by auto-precharge under the closed
    /// page policy).
    ready_at: Box<[f64]>,
    /// Time at which the currently open row's data can first appear on the
    /// bus (covers tRCD+tCL after an activate).
    row_data_ready: Box<[f64]>,
    /// Earliest time a precharge may start (tRAS after the activate).
    precharge_ok_at: Box<[f64]>,
    /// Time until which the open row is needed by in-flight column
    /// accesses; precharge must additionally wait tRTP past this.
    row_busy_until: Box<[f64]>,
}

impl BankPool {
    /// A pool of `units × banks_per_unit` banks, all closed.
    pub fn new(units: usize, banks_per_unit: usize) -> BankPool {
        let n = units * banks_per_unit;
        BankPool {
            units,
            banks_per_unit,
            open_row: vec![NO_ROW; n].into_boxed_slice(),
            ready_at: vec![0.0; n].into_boxed_slice(),
            row_data_ready: vec![0.0; n].into_boxed_slice(),
            precharge_ok_at: vec![0.0; n].into_boxed_slice(),
            row_busy_until: vec![0.0; n].into_boxed_slice(),
        }
    }

    /// Number of units (pseudo-channels) in the pool.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Banks per unit.
    pub fn banks_per_unit(&self) -> usize {
        self.banks_per_unit
    }

    /// Mutable view of one unit's banks.
    pub fn unit_mut(&mut self, unit: usize) -> BanksMut<'_> {
        self.view_mut().into_unit_mut(unit)
    }

    /// Mutable view over every unit (splittable with
    /// [`BanksViewMut::chunks_mut`]).
    pub fn view_mut(&mut self) -> BanksViewMut<'_> {
        BanksViewMut {
            units: self.units,
            banks_per_unit: self.banks_per_unit,
            open_row: &mut self.open_row,
            ready_at: &mut self.ready_at,
            row_data_ready: &mut self.row_data_ready,
            precharge_ok_at: &mut self.precharge_ok_at,
            row_busy_until: &mut self.row_busy_until,
        }
    }
}

/// Mutable bank state for a contiguous run of units — the splittable
/// intermediate between a [`BankPool`] and the single-unit [`BanksMut`]
/// that `PchDram` operates on. Holds only slice borrows, so views of
/// disjoint unit ranges can be lent to different execution domains.
#[derive(Debug)]
pub struct BanksViewMut<'a> {
    units: usize,
    banks_per_unit: usize,
    open_row: &'a mut [u64],
    ready_at: &'a mut [f64],
    row_data_ready: &'a mut [f64],
    precharge_ok_at: &'a mut [f64],
    row_busy_until: &'a mut [f64],
}

impl<'a> BanksViewMut<'a> {
    /// Number of units in this view.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Reborrows one unit's banks (view-local unit index).
    pub fn unit_mut(&mut self, unit: usize) -> BanksMut<'_> {
        let bpu = self.banks_per_unit;
        let r = unit * bpu..(unit + 1) * bpu;
        BanksMut {
            open_row: &mut self.open_row[r.clone()],
            ready_at: &mut self.ready_at[r.clone()],
            row_data_ready: &mut self.row_data_ready[r.clone()],
            precharge_ok_at: &mut self.precharge_ok_at[r.clone()],
            row_busy_until: &mut self.row_busy_until[r],
        }
    }

    /// Consumes the view, yielding one unit's banks with the full view
    /// lifetime (view-local unit index).
    pub fn into_unit_mut(self, unit: usize) -> BanksMut<'a> {
        let bpu = self.banks_per_unit;
        let r = unit * bpu..(unit + 1) * bpu;
        BanksMut {
            open_row: &mut self.open_row[r.clone()],
            ready_at: &mut self.ready_at[r.clone()],
            row_data_ready: &mut self.row_data_ready[r.clone()],
            precharge_ok_at: &mut self.precharge_ok_at[r.clone()],
            row_busy_until: &mut self.row_busy_until[r],
        }
    }

    /// Splits into disjoint contiguous sub-views of `units_per_chunk`
    /// units each (must divide the view's unit count). Implemented as a
    /// zip of per-array `chunks_mut`, so each sub-view stays a set of
    /// plain slices.
    pub fn chunks_mut(self, units_per_chunk: usize) -> impl Iterator<Item = BanksViewMut<'a>> {
        assert!(units_per_chunk > 0, "chunks_mut: zero units per chunk");
        assert!(
            self.units.is_multiple_of(units_per_chunk),
            "chunks_mut: {} units not divisible by {units_per_chunk}",
            self.units,
        );
        let bpu = self.banks_per_unit;
        let n = units_per_chunk * bpu;
        self.open_row
            .chunks_mut(n)
            .zip(self.ready_at.chunks_mut(n))
            .zip(self.row_data_ready.chunks_mut(n))
            .zip(self.precharge_ok_at.chunks_mut(n))
            .zip(self.row_busy_until.chunks_mut(n))
            .map(
                move |(
                    (((open_row, ready_at), row_data_ready), precharge_ok_at),
                    row_busy_until,
                )| {
                    BanksViewMut {
                        units: units_per_chunk,
                        banks_per_unit: bpu,
                        open_row,
                        ready_at,
                        row_data_ready,
                        precharge_ok_at,
                        row_busy_until,
                    }
                },
            )
    }
}

/// Mutable bank state for one unit (pseudo-channel): the slices of the
/// pool's parallel arrays covering that unit's banks, plus the DRAM
/// row-management arithmetic that used to live on a per-bank struct.
#[derive(Debug)]
pub struct BanksMut<'a> {
    open_row: &'a mut [u64],
    ready_at: &'a mut [f64],
    row_data_ready: &'a mut [f64],
    precharge_ok_at: &'a mut [f64],
    row_busy_until: &'a mut [f64],
}

impl BanksMut<'_> {
    /// Number of banks in the unit.
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// `true` when the unit has no banks (never in practice; present for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.open_row.is_empty()
    }

    /// The currently open row of `bank`, if any.
    #[inline]
    pub fn open_row(&self, bank: usize) -> Option<u64> {
        let r = self.open_row[bank];
        if r == NO_ROW {
            None
        } else {
            Some(r)
        }
    }

    /// Whether an access to `(bank, row)` at this moment would be a hit,
    /// closed access, or miss — without changing state. Used by FR-FCFS
    /// scheduling to rank candidates; the hot path is one load and two
    /// compares against the dense `open_row` array.
    #[inline]
    pub fn classify(&self, bank: usize, row: u64) -> PageOutcome {
        let open = self.open_row[bank];
        if open == row {
            PageOutcome::Hit
        } else if open == NO_ROW {
            PageOutcome::Closed
        } else {
            PageOutcome::Miss
        }
    }

    /// Performs the row-management part of an access to `(bank, row)`
    /// starting no earlier than `now` ns. `activate_floor` is the
    /// channel-level earliest-activate constraint (tRRD / tFAW, computed
    /// by the PCH). Returns `(outcome, data_ready, activate)` where
    /// `data_ready` is the earliest time data can be on the bus and
    /// `activate` the ACTIVATE command time, if one was issued. The
    /// data-bus occupancy itself is handled by the PCH.
    pub fn access(
        &mut self,
        t: &Timings,
        bank: usize,
        now: f64,
        activate_floor: f64,
        row: u64,
    ) -> (PageOutcome, f64, Option<f64>) {
        let outcome = self.classify(bank, row);
        match outcome {
            PageOutcome::Hit => (outcome, now.max(self.row_data_ready[bank]), None),
            PageOutcome::Closed => {
                let activate = now.max(activate_floor).max(self.ready_at[bank]);
                self.open_row[bank] = row;
                self.precharge_ok_at[bank] = activate + t.t_ras;
                self.row_data_ready[bank] = activate + t.t_rcd + t.t_cl;
                (outcome, self.row_data_ready[bank], Some(activate))
            }
            PageOutcome::Miss => {
                // Precharge may not start before tRAS has elapsed, nor
                // before the in-flight column accesses of the old row
                // have completed (plus tRTP).
                let precharge =
                    now.max(self.precharge_ok_at[bank]).max(self.row_busy_until[bank] + t.t_rtp);
                let activate = (precharge + t.t_rp).max(activate_floor);
                self.open_row[bank] = row;
                self.precharge_ok_at[bank] = activate + t.t_ras;
                self.row_data_ready[bank] = activate + t.t_rcd + t.t_cl;
                (outcome, self.row_data_ready[bank], Some(activate))
            }
        }
    }

    /// Records that a column access to `bank`'s open row completes at `t`
    /// (its data leaves the bus then); the row may not be precharged
    /// earlier.
    #[inline]
    pub fn note_data_end(&mut self, bank: usize, t: f64) {
        self.row_busy_until[bank] = self.row_busy_until[bank].max(t);
    }

    /// Auto-precharges `bank` after an access completing at `data_end`
    /// (closed page policy): the row closes and the next activate must
    /// wait for tRTP + tRP past the data (and tRAS from the activate).
    pub fn auto_precharge(&mut self, t: &Timings, bank: usize, data_end: f64) {
        let precharge = (data_end + t.t_rtp).max(self.precharge_ok_at[bank]);
        self.open_row[bank] = NO_ROW;
        self.ready_at[bank] = precharge + t.t_rp;
    }

    /// Closes the open row of `bank` (refresh does this to every bank).
    #[inline]
    pub fn close(&mut self, bank: usize) {
        self.open_row[bank] = NO_ROW;
    }

    /// Closes every bank's open row — one dense fill of the contiguous
    /// `open_row` slice (the refresh path).
    #[inline]
    pub fn close_all(&mut self) {
        self.open_row.fill(NO_ROW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Timings {
        Timings::default()
    }

    /// One-bank pool: the per-bank arithmetic tests drive bank 0.
    fn one() -> BankPool {
        BankPool::new(1, 1)
    }

    #[test]
    fn closed_access_pays_rcd_plus_cl() {
        let mut pool = one();
        let mut b = pool.unit_mut(0);
        let (o, ready, act) = b.access(&t(), 0, 100.0, 0.0, 5);
        assert_eq!(act, Some(100.0));
        assert_eq!(o, PageOutcome::Closed);
        assert!((ready - (100.0 + 28.0)).abs() < 1e-9);
        assert_eq!(b.open_row(0), Some(5));
    }

    #[test]
    fn hit_is_immediate_after_first_data() {
        let mut pool = one();
        let mut b = pool.unit_mut(0);
        let (_, first, _) = b.access(&t(), 0, 0.0, 0.0, 5);
        let (o, ready, act) = b.access(&t(), 0, first + 10.0, 0.0, 5);
        assert_eq!(act, None);
        assert_eq!(o, PageOutcome::Hit);
        assert!((ready - (first + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn hit_before_row_ready_waits() {
        let mut pool = one();
        let mut b = pool.unit_mut(0);
        let (_, first, _) = b.access(&t(), 0, 0.0, 0.0, 5);
        // A second access issued immediately still waits for the row.
        let (o, ready, _) = b.access(&t(), 0, 1.0, 0.0, 5);
        assert_eq!(o, PageOutcome::Hit);
        assert!((ready - first).abs() < 1e-9);
    }

    #[test]
    fn miss_pays_precharge_activate_cas_and_respects_tras() {
        let tm = t();
        let mut pool = one();
        let mut b = pool.unit_mut(0);
        b.access(&tm, 0, 0.0, 0.0, 1); // activate at 0, precharge_ok at tRAS=33
                                       // Conflicting access at 5 ns: precharge must wait until 33.
        let (o, ready, _) = b.access(&tm, 0, 5.0, 0.0, 2);
        assert_eq!(o, PageOutcome::Miss);
        let expect = 33.0 + tm.t_rp + tm.t_rcd + tm.t_cl;
        assert!((ready - expect).abs() < 1e-9, "ready {ready} expect {expect}");
        assert_eq!(b.open_row(0), Some(2));
    }

    #[test]
    fn miss_after_tras_starts_immediately() {
        let tm = t();
        let mut pool = one();
        let mut b = pool.unit_mut(0);
        b.access(&tm, 0, 0.0, 0.0, 1);
        let (o, ready, _) = b.access(&tm, 0, 100.0, 0.0, 2);
        assert_eq!(o, PageOutcome::Miss);
        let expect = 100.0 + tm.t_rp + tm.t_rcd + tm.t_cl;
        assert!((ready - expect).abs() < 1e-9);
    }

    #[test]
    fn close_resets_to_closed_state() {
        let tm = t();
        let mut pool = one();
        let mut b = pool.unit_mut(0);
        b.access(&tm, 0, 0.0, 0.0, 1);
        b.close(0);
        assert_eq!(b.open_row(0), None);
        let (o, _, _) = b.access(&tm, 0, 200.0, 0.0, 1);
        assert_eq!(o, PageOutcome::Closed);
    }

    #[test]
    fn classify_does_not_mutate() {
        let tm = t();
        let mut pool = one();
        let mut b = pool.unit_mut(0);
        b.access(&tm, 0, 0.0, 0.0, 1);
        assert_eq!(b.classify(0, 1), PageOutcome::Hit);
        assert_eq!(b.classify(0, 2), PageOutcome::Miss);
        assert_eq!(b.open_row(0), Some(1));
    }

    #[test]
    fn units_are_disjoint() {
        let tm = t();
        let mut pool = BankPool::new(3, 4);
        pool.unit_mut(1).access(&tm, 2, 0.0, 0.0, 7);
        assert_eq!(pool.unit_mut(1).open_row(2), Some(7));
        for u in [0, 2] {
            let unit = pool.unit_mut(u);
            for bank in 0..4 {
                assert_eq!(unit.open_row(bank), None, "unit {u} bank {bank}");
            }
        }
    }

    #[test]
    fn views_split_units_contiguously() {
        let tm = t();
        let mut pool = BankPool::new(4, 2);
        // Mark bank 1 of every unit with the unit index as the row.
        for u in 0..4 {
            pool.unit_mut(u).access(&tm, 1, 0.0, 0.0, u as u64 + 10);
        }
        let views: Vec<_> = pool.view_mut().chunks_mut(2).collect();
        assert_eq!(views.len(), 2);
        let mut seen = Vec::new();
        for mut v in views {
            assert_eq!(v.units(), 2);
            for local in 0..2 {
                seen.push(v.unit_mut(local).open_row(1).unwrap());
            }
        }
        assert_eq!(seen, vec![10, 11, 12, 13]);
    }

    #[test]
    fn close_all_closes_only_this_unit() {
        let tm = t();
        let mut pool = BankPool::new(2, 3);
        pool.unit_mut(0).access(&tm, 0, 0.0, 0.0, 1);
        pool.unit_mut(1).access(&tm, 0, 0.0, 0.0, 2);
        pool.unit_mut(0).close_all();
        assert_eq!(pool.unit_mut(0).open_row(0), None);
        assert_eq!(pool.unit_mut(1).open_row(0), Some(2));
    }
}
