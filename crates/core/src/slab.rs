//! Struct-of-arrays candidate storage — the DP kernel.
//!
//! The [`CandidateSlab`] stores every candidate list of a solve as four
//! parallel columns (`q`, `c`, `s`, `pred`; 28 bytes per candidate), so
//! the hot operations are linear column sweeps:
//!
//! * **wire propagation** shears all three lanes in one memory pass
//!   through the delay model's batched
//!   [`wire_shear`](DelayModel::wire_shear) hook (one virtual dispatch per
//!   wire instead of one per candidate), then re-prunes with one monotone
//!   in-place pass;
//! * **dominance pruning** (the merge's monotone stack and the wire
//!   re-prune) compares plain `f64` lanes instead of struct fields;
//! * **`AddBuffer`** scans and hull walks run over the `q`/`c` columns
//!   directly (see [`crate::buffering`]'s slab variants), and its betas
//!   are staged in columns ([`BetaList`]) and merged list to list;
//! * **merge and merge-insert** are each one walk that writes by index
//!   into columns sized once up front — fast on the short lists of clock
//!   trees and small nets as well as on long ones.
//!
//! A lane of the DP may add **passenger** columns ([`Passenger`]): values
//! that move with every candidate and are transformed at wires, merges and
//! buffers, but never steer a pruning or selection rule of the `(Q, C)`
//! recursion. The skew lane's sink-delay [`Window`] is one; every other
//! lane carries `()`, which compiles each passenger hook away.
//!
//! Lists are identified by [`SlabList`] handles (u32 indices into a pool of
//! column slots with a freelist); [`SlabView`] borrows the columns of one
//! list. A list that outlives its slab — a [`SubtreeCache`] snapshot —
//! leaves as owned [`Columns`] through [`CandidateSlab::store`] and comes back through
//! [`CandidateSlab::load`]: one copy per lane each way, no conversion.
//!
//! The array-of-structs oracle (`crate::oracle`) runs the same arithmetic
//! expression by expression, in the same order, over `Vec<Candidate>`;
//! the unit tests here compare every operation with its oracle
//! counterpart bit for bit, and `tests/oracle_equivalence.rs` whole
//! solves.
//!
//! [`SubtreeCache`]: crate::SubtreeCache

use fastbuf_rctree::delay::DelayModel;

use crate::arena::{PredArena, PredEntry, PredRef};
use crate::candidate::Candidate;
use crate::hull::prunes_middle_vals;
use crate::stats::SolveStats;

/// Bytes of column storage per candidate (three `f64` lanes + one `u32`
/// pred lane) — the unit of [`CandidateSlab::peak_bytes`].
const BYTES_PER_CANDIDATE: usize = 8 * 3 + 4;

/// Passenger columns: extra per-candidate values that ride the slab (see
/// the module docs). Storage moves them with every candidate; `wire`,
/// `merge` and `buffer` are the DP's three transforms. The provided
/// methods are the empty passenger `()`: no columns, nothing to do.
pub(crate) trait Passenger: Default + std::fmt::Debug {
    /// One candidate's passenger values.
    type Row: Copy + Default + std::fmt::Debug;
    fn get(&self, _i: usize) -> Self::Row {
        Self::Row::default()
    }
    fn put(&mut self, _i: usize, _row: Self::Row) {}
    fn push(&mut self, _row: Self::Row) {}
    fn truncate(&mut self, _n: usize) {}
    /// Grows to at least `n` rows (never shrinks).
    fn ensure_len(&mut self, _n: usize) {}
    /// Moves rows `from..end` to start at row `to`.
    fn copy_within(&mut self, _from: usize, _end: usize, _to: usize) {}
    /// Copies `src[from..to]` over rows `at..`.
    fn copy_run(&mut self, _at: usize, _src: &Self, _from: usize, _to: usize) {}
    /// Appends `src[..n]`.
    fn extend_from(&mut self, _src: &Self, _n: usize) {}
    /// The wire step of resistance `r` and capacitance `cw`, given the
    /// loads `c` before the wire.
    fn wire(&mut self, _model: &dyn DelayModel, _r: f64, _cw: f64, _c: &[f64]) {}
    /// The spread row `i` commits to (the skew lane's window width).
    fn width(&self, _i: usize) -> f64 {
        0.0
    }
    /// The row of a merged pair.
    fn merge(a: Self::Row, _b: Self::Row) -> Self::Row {
        a
    }
    /// The row of a buffered candidate: its `α`'s row behind a buffer
    /// stage of delay `stage`.
    fn buffer(alpha: Self::Row, _stage: f64) -> Self::Row {
        alpha
    }
}

impl Passenger for () {
    type Row = ();
}

/// The skew lane's passengers: per candidate, the minimum and maximum
/// delay `(lo, hi)` from its node to any sink of its subtree. A wire adds
/// its delay `d` (the `d` the wire subtracts from `q`) to both ends, a
/// buffer its stage delay `k + r·C(α)`, and a merge takes `min`/`max`, so
/// the width `hi − lo` only ever grows, and only at merges.
#[derive(Debug, Default)]
pub(crate) struct Window(Vec<(f64, f64)>);

impl Passenger for Window {
    type Row = (f64, f64);
    #[inline]
    fn get(&self, i: usize) -> (f64, f64) {
        self.0[i]
    }
    #[inline]
    fn put(&mut self, i: usize, row: (f64, f64)) {
        self.0[i] = row;
    }
    #[inline]
    fn push(&mut self, row: (f64, f64)) {
        self.0.push(row);
    }
    #[inline]
    fn truncate(&mut self, n: usize) {
        self.0.truncate(n);
    }
    #[inline]
    fn ensure_len(&mut self, n: usize) {
        if self.0.len() < n {
            self.0.resize(n, (0.0, 0.0));
        }
    }
    #[inline]
    fn copy_within(&mut self, from: usize, end: usize, to: usize) {
        self.0.copy_within(from..end, to);
    }
    #[inline]
    fn copy_run(&mut self, at: usize, src: &Self, from: usize, to: usize) {
        self.0[at..at + (to - from)].copy_from_slice(&src.0[from..to]);
    }
    #[inline]
    fn extend_from(&mut self, src: &Self, n: usize) {
        self.0.extend_from_slice(&src.0[..n]);
    }
    #[inline]
    fn width(&self, i: usize) -> f64 {
        self.0[i].1 - self.0[i].0
    }
    #[inline]
    fn wire(&mut self, model: &dyn DelayModel, r: f64, cw: f64, c: &[f64]) {
        for (w, &load) in self.0.iter_mut().zip(c) {
            let d = model.wire_delay(r, cw, load);
            *w = (w.0 + d, w.1 + d);
        }
    }
    #[inline]
    fn merge(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
        (a.0.min(b.0), a.1.max(b.1))
    }
    #[inline]
    fn buffer(alpha: (f64, f64), stage: f64) -> (f64, f64) {
        (alpha.0 + stage, alpha.1 + stage)
    }
}

/// Handle to one candidate list inside a [`CandidateSlab`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SlabList(u32);

impl SlabList {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Borrowed columns of one slab list, in nonredundant `(Q, C)` order.
#[derive(Debug)]
pub(crate) struct SlabView<'a, P: Passenger = ()> {
    /// Slack column (seconds).
    pub q: &'a [f64],
    /// Downstream-capacitance column (farads).
    pub c: &'a [f64],
    /// Stage-wire-delay column (seconds).
    pub s: &'a [f64],
    /// Predecessor-reference column.
    pub pred: &'a [PredRef],
    /// Passenger columns.
    pub x: &'a P,
}

impl<P: Passenger> SlabView<'_, P> {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    /// Materializes candidate `i` (for boundary code and `make_beta`).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Candidate {
        Candidate {
            q: self.q[i],
            c: self.c[i],
            s: self.s[i],
            pred: self.pred[i],
        }
    }

    /// Candidate `i`'s passenger row.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> P::Row {
        self.x.get(i)
    }
}

/// One candidate list as parallel columns: a slab slot, or a list held
/// outside any slab (a cache snapshot).
#[derive(Debug, Default)]
pub(crate) struct Columns<P: Passenger = ()> {
    pub(crate) q: Vec<f64>,
    pub(crate) c: Vec<f64>,
    pub(crate) s: Vec<f64>,
    pub(crate) pred: Vec<PredRef>,
    pub(crate) x: P,
}

/// Lists up to this length are rebuilt whole by a merge-insert and swapped
/// in; longer ones stage only the head up to the last insertion and splice
/// it over the shared tail (see `op_microbench` for the crossover).
const SHORT_LIST: usize = 48;

impl<P: Passenger> Columns<P> {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    #[inline]
    fn clear(&mut self) {
        self.truncate(0);
    }

    /// Appends a candidate with the default passenger row.
    #[inline]
    pub(crate) fn push(&mut self, q: f64, c: f64, s: f64, pred: PredRef) {
        self.push_row(q, c, s, pred, P::Row::default());
    }

    #[inline]
    fn push_row(&mut self, q: f64, c: f64, s: f64, pred: PredRef, x: P::Row) {
        self.q.push(q);
        self.c.push(c);
        self.s.push(s);
        self.pred.push(pred);
        self.x.push(x);
    }

    #[inline]
    fn truncate(&mut self, n: usize) {
        self.q.truncate(n);
        self.c.truncate(n);
        self.s.truncate(n);
        self.pred.truncate(n);
        self.x.truncate(n);
    }

    /// Grows every lane to at least `n` elements (never shrinks), so a
    /// rebuild can write by index behind its own cursor and truncate once
    /// at the end instead of pushing element by element.
    #[inline]
    fn ensure_len(&mut self, n: usize) {
        if self.q.len() < n {
            self.q.resize(n, 0.0);
            self.c.resize(n, 0.0);
            self.s.resize(n, 0.0);
            self.pred.resize(n, PredRef::NONE);
            self.x.ensure_len(n);
        }
    }

    /// Overwrites lane `i`, which must be below the length.
    #[inline]
    fn put(&mut self, i: usize, q: f64, c: f64, s: f64, pred: PredRef, x: P::Row) {
        self.q[i] = q;
        self.c[i] = c;
        self.s[i] = s;
        self.pred[i] = pred;
        self.x.put(i, x);
    }

    /// Copies lane `from` over lane `to` (compaction step).
    #[inline]
    fn copy_lane(&mut self, from: usize, to: usize) {
        self.q[to] = self.q[from];
        self.c[to] = self.c[from];
        self.s[to] = self.s[from];
        self.pred[to] = self.pred[from];
        self.x.put(to, self.x.get(from));
    }

    /// Copies `src[from..to]` over lanes `at..` (which must exist) and
    /// returns the index past the copy.
    #[inline]
    fn copy_run(&mut self, at: usize, src: &Columns<P>, from: usize, to: usize) -> usize {
        let end = at + (to - from);
        if to - from <= 4 {
            // Tiny run: four slice copies cost more than they save.
            for (k, i) in (from..to).enumerate() {
                self.put(
                    at + k,
                    src.q[i],
                    src.c[i],
                    src.s[i],
                    src.pred[i],
                    src.x.get(i),
                );
            }
            return end;
        }
        self.q[at..end].copy_from_slice(&src.q[from..to]);
        self.c[at..end].copy_from_slice(&src.c[from..to]);
        self.s[at..end].copy_from_slice(&src.s[from..to]);
        self.pred[at..end].copy_from_slice(&src.pred[from..to]);
        self.x.copy_run(at, &src.x, from, to);
        end
    }

    /// Appends `src[..n]` (one `memcpy` per lane).
    #[inline]
    fn extend_from(&mut self, src: &Columns<P>, n: usize) {
        self.q.extend_from_slice(&src.q[..n]);
        self.c.extend_from_slice(&src.c[..n]);
        self.s.extend_from_slice(&src.s[..n]);
        self.pred.extend_from_slice(&src.pred[..n]);
        self.x.extend_from(&src.x, n);
    }

    /// Replaces the first `tail_start` elements with `head[..top]` while
    /// keeping the tail `[tail_start..]`: the tail moves as one `memmove`
    /// per lane when the head differs in length from the span it replaces,
    /// and does not move at all when the lengths match.
    fn splice_head(&mut self, head: &Columns<P>, top: usize, tail_start: usize) {
        debug_assert!(tail_start <= self.len() && top <= head.len());
        let old_len = self.len();
        let new_len = top + (old_len - tail_start);
        if top > tail_start {
            self.ensure_len(new_len);
        }
        if top != tail_start {
            self.q.copy_within(tail_start..old_len, top);
            self.c.copy_within(tail_start..old_len, top);
            self.s.copy_within(tail_start..old_len, top);
            self.pred.copy_within(tail_start..old_len, top);
            self.x.copy_within(tail_start, old_len, top);
            self.truncate(new_len);
        }
        self.copy_run(0, head, 0, top);
    }

    /// The index of the first candidate with the least `key`, by total
    /// order. The list must not be empty.
    fn first_min(&self, key: impl Fn(&Self, usize) -> f64) -> usize {
        let mut least = 0usize;
        for i in 1..self.len() {
            if key(self, i).total_cmp(&key(self, least)) == std::cmp::Ordering::Less {
                least = i;
            }
        }
        least
    }
}

/// The merge-insert walk: the union of the staircases `old` and
/// `inc` in `c` order (on equal `c` the better `q` first, `old` first on a
/// full tie), every element through the dominance push of
/// [`BetaList::push_pruned`], with the stack
/// top's `(q, c)` carried in registers. Writes by index into `out`, grown
/// to `old.len() + inc.len()`.
///
/// Stops once `inc` is exhausted, after skipping the prefix of `old` the
/// stack top dominates. Everything from there on would be pushed
/// verbatim: nothing left in `old` can tie the top's `c` with a better `q`
/// (it would have been taken before the top), and `old` is a strict
/// staircase. Returns the staged head length and the index where that
/// shared tail of `old` starts.
fn merge_insert_walk<P: Passenger>(
    out: &mut Columns<P>,
    old: &Columns<P>,
    inc: &Columns<P>,
) -> (usize, usize) {
    let (on, ni) = (old.len(), inc.len());
    let n = on + ni;
    out.ensure_len(n);
    let (oq, oc, os, op) = (&old.q[..on], &old.c[..on], &old.s[..on], &old.pred[..on]);
    let (iq, ic, is, ip) = (&inc.q[..ni], &inc.c[..ni], &inc.s[..ni], &inc.pred[..ni]);
    let (wq, wc, ws, wp, wx) = (
        &mut out.q[..n],
        &mut out.c[..n],
        &mut out.s[..n],
        &mut out.pred[..n],
        &mut out.x,
    );
    let (mut i, mut j, mut top) = (0usize, 0usize, 0usize);
    let (mut tq, mut tc) = (0.0f64, 0.0f64);
    while j < ni {
        let take_old = i < on && {
            let (ac, bc) = (oc[i], ic[j]);
            if ac < bc {
                true
            } else if ac > bc {
                false
            } else {
                oq[i] >= iq[j]
            }
        };
        let (q, c, s, pred, x) = if take_old {
            i += 1;
            (oq[i - 1], oc[i - 1], os[i - 1], op[i - 1], old.x.get(i - 1))
        } else {
            j += 1;
            (iq[j - 1], ic[j - 1], is[j - 1], ip[j - 1], inc.x.get(j - 1))
        };
        if top > 0 {
            debug_assert!(c >= tc, "merge-insert requires c-sorted input");
            if q <= tq {
                continue; // dominated: no better slack at no smaller load
            }
            if c == tc {
                top -= 1; // same load, better slack: replace the top
            }
        }
        wq[top] = q;
        wc[top] = c;
        ws[top] = s;
        wp[top] = pred;
        wx.put(top, x);
        top += 1;
        (tq, tc) = (q, c);
    }
    if top > 0 {
        while i < on && oq[i] <= tq {
            i += 1;
        }
    }
    (top, i)
}

/// Staging columns for list rebuilds. `raw` is written by index and only
/// ever grows (never truncated), so steady state pays no fill; `rebuilt`
/// is swapped with the short list it rebuilds.
#[derive(Debug, Default)]
struct Staging<P: Passenger> {
    raw: Columns<P>,
    rebuilt: Columns<P>,
}

impl<P: Passenger> Staging<P> {
    /// Merge-inserts `inc` into `old` in place. A short list is rebuilt
    /// whole and the buffers swap; a long one stages only its head and
    /// splices it over the shared tail.
    fn merge_insert(&mut self, old: &mut Columns<P>, inc: &Columns<P>) {
        if inc.len() == 0 {
            return;
        }
        if old.len() <= SHORT_LIST {
            let rebuilt = &mut self.rebuilt;
            let (top, tail_start) = merge_insert_walk(rebuilt, old, inc);
            let top = rebuilt.copy_run(top, old, tail_start, old.len());
            rebuilt.truncate(top);
            std::mem::swap(old, rebuilt);
        } else {
            let (top, tail_start) = merge_insert_walk(&mut self.raw, old, inc);
            old.splice_head(&self.raw, top, tail_start);
        }
    }
}

/// A staircase of buffered candidates (`β`) staged in columns outside the
/// slab: the `AddBuffer` callers write betas here and merge the staged
/// list into a slab list in one walk. Staged lists do not count toward the
/// slab's live/peak accounting until merged or loaded.
#[derive(Debug, Default)]
pub(crate) struct BetaList<P: Passenger = ()>(Columns<P>);

impl<P: Passenger> BetaList<P> {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// Appends `beta` (with passenger row `x`) unless the last staged beta
    /// dominates it (no smaller `c`, no worse `q`); on equal `c` with a
    /// better `q` it replaces the last one. Betas must arrive in
    /// non-decreasing `c`.
    #[inline]
    pub(crate) fn push_pruned(&mut self, beta: Candidate, x: P::Row) {
        let cols = &mut self.0;
        if let Some(last) = cols.len().checked_sub(1) {
            debug_assert!(
                beta.c >= cols.c[last],
                "push_pruned requires c-sorted input"
            );
            if beta.q <= cols.q[last] {
                return;
            }
            if beta.c == cols.c[last] {
                cols.put(last, beta.q, beta.c, beta.s, beta.pred, x);
                return;
            }
        }
        cols.push_row(beta.q, beta.c, beta.s, beta.pred, x);
    }
}

/// Reusable `β` staging for the slab `AddBuffer` callers: `group` collects
/// one node's betas for one target list as they are generated, and
/// `targets` accumulates groups per target list (cost levels, polarity
/// lists) with merge-insert's union rule.
#[derive(Debug, Default)]
pub(crate) struct BetaStage<P: Passenger = ()> {
    pub(crate) group: BetaList<P>,
    pub(crate) targets: Vec<BetaList<P>>,
    staging: Staging<P>,
}

impl<P: Passenger> BetaStage<P> {
    /// Resets `targets` to `n` empty lists, keeping their storage.
    pub(crate) fn reset_targets(&mut self, n: usize) {
        self.targets.resize_with(n, BetaList::default);
        for target in &mut self.targets {
            target.clear();
        }
    }

    /// Unions `group` into `targets[t]` (the target wins full ties, as the
    /// older side of a merge-insert) and empties `group`.
    pub(crate) fn flush_group(&mut self, t: usize) {
        self.staging
            .merge_insert(&mut self.targets[t].0, &self.group.0);
        self.group.clear();
    }
}

/// Pool of struct-of-arrays candidate lists with recycled column storage.
///
/// One slab lives per solve context (inside
/// [`SolveWorkspace`](crate::SolveWorkspace)). Handles freed back to the slab keep their
/// column capacity, so a warm slab performs no steady-state allocation.
#[derive(Debug, Default)]
pub(crate) struct CandidateSlab<P: Passenger = ()> {
    slots: Vec<Columns<P>>,
    free: Vec<u32>,
    /// Staging columns for merge and merge-insert rebuilds.
    staging: Staging<P>,
    /// Candidates currently live across all allocated lists.
    live: usize,
    /// High-water mark of `live` since the last [`CandidateSlab::reset`].
    peak: usize,
}

impl<P: Passenger> CandidateSlab<P> {
    /// Frees every list and zeroes the live/peak accounting (column and
    /// slot allocations are retained). Called at the start of each solve.
    pub(crate) fn reset(&mut self) {
        self.free.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.clear();
            self.free.push(i as u32);
        }
        self.live = 0;
        self.peak = 0;
    }

    /// Peak bytes of live candidate columns since the last reset.
    pub(crate) fn peak_bytes(&self) -> usize {
        self.peak * BYTES_PER_CANDIDATE
    }

    #[inline]
    fn note(&mut self, old_len: usize, new_len: usize) {
        self.live = self.live + new_len - old_len;
        self.peak = self.peak.max(self.live);
    }

    /// Allocates an empty list.
    pub(crate) fn alloc(&mut self) -> SlabList {
        match self.free.pop() {
            Some(i) => SlabList(i),
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Columns::default());
                SlabList(i)
            }
        }
    }

    /// Frees `list`, recycling its column storage.
    pub(crate) fn free(&mut self, list: SlabList) {
        let n = self.slots[list.index()].len();
        self.note(n, 0);
        self.slots[list.index()].clear();
        self.free.push(list.0);
    }

    /// Number of candidates in `list`.
    #[inline]
    pub(crate) fn len(&self, list: SlabList) -> usize {
        self.slots[list.index()].len()
    }

    /// Borrows the columns of `list`.
    #[inline]
    pub(crate) fn view(&self, list: SlabList) -> SlabView<'_, P> {
        let cols = &self.slots[list.index()];
        SlabView {
            q: &cols.q,
            c: &cols.c,
            s: &cols.s,
            pred: &cols.pred,
            x: &cols.x,
        }
    }

    /// The singleton list of a sink: `Q = RAT`, `C = c_sink`, `s = 0`, and
    /// the default passenger row.
    pub(crate) fn sink(&mut self, q: f64, c: f64) -> SlabList {
        let list = self.alloc();
        self.slots[list.index()].push(q, c, 0.0, PredRef::NONE);
        self.note(0, 1);
        list
    }

    /// Allocates a fresh list holding a copy of `src` (a cache snapshot):
    /// one `memcpy` per lane.
    pub(crate) fn load(&mut self, src: &Columns<P>) -> SlabList {
        let list = self.alloc();
        let n = src.len();
        self.slots[list.index()].extend_from(src, n);
        self.note(0, n);
        list
    }

    /// Copies `list` out into `out`, replacing what `out` held but keeping
    /// its allocation (the list stays allocated; free the handle
    /// separately).
    pub(crate) fn store(&self, list: SlabList, out: &mut Columns<P>) {
        let src = &self.slots[list.index()];
        out.clear();
        out.extend_from(src, src.len());
    }

    /// Allocates a fresh list holding a copy of the staged `betas`.
    pub(crate) fn load_betas(&mut self, betas: &BetaList<P>) -> SlabList {
        self.load(&betas.0)
    }

    /// Wire propagation — the paper's "add a wire" operation:
    ///
    /// ```text
    /// Q ← Q − d(C)        C ← C + cw        s ← s + d(C)
    /// ```
    ///
    /// with `d` the model's wire delay from the *pre-shear* capacitance
    /// (the passengers see the same pre-shear loads first). The whole
    /// shear runs through one batched [`DelayModel::wire_shear`] call (one
    /// virtual dispatch per wire, one memory pass over the three lanes),
    /// then one in-place monotone pass restores the nonredundant
    /// invariant: the shear can push a high-`C` candidate's `Q` below a
    /// lower-`C` one's.
    pub(crate) fn add_wire(
        &mut self,
        list: SlabList,
        model: &dyn DelayModel,
        r: f64,
        cw: f64,
        stats: &mut SolveStats,
    ) {
        if r == 0.0 && cw == 0.0 {
            return;
        }
        let cols = &mut self.slots[list.index()];
        let n = cols.len();
        cols.x.wire(model, r, cw, &cols.c);
        model.wire_shear(r, cw, &mut cols.q, &mut cols.s, &mut cols.c);
        // The shear preserves c order (strictly increasing stays strictly
        // increasing under `+ cw`), so only the q invariant can break. In
        // the common case q stays strictly increasing and the list is
        // untouched; otherwise compact from the first violation (the kept
        // prefix is exactly what a single pass from the start would have
        // written there).
        let write = match cols.q.windows(2).position(|w| w[1] <= w[0]) {
            None => n,
            Some(v) => {
                let mut write = v + 1;
                for read in v + 1..n {
                    let (q, c) = (cols.q[read], cols.c[read]);
                    if q <= cols.q[write - 1] {
                        continue;
                    }
                    if c == cols.c[write - 1] {
                        cols.copy_lane(read, write - 1);
                        continue;
                    }
                    cols.copy_lane(read, write);
                    write += 1;
                }
                cols.truncate(write);
                write
            }
        };
        stats.slab_candidates_scanned += n as u64;
        stats.slab_candidates_pruned += (n - write) as u64;
        self.note(n, write);
    }

    /// Drops every candidate of `list` whose `key` exceeds `cap`, keeping
    /// the single least-bad one (the first minimum by total order) when
    /// all do, so the DP stays total. A non-finite `cap` prunes nothing.
    /// Returns the number removed.
    fn retain_at_most(
        &mut self,
        list: SlabList,
        cap: f64,
        key: impl Fn(&Columns<P>, usize) -> f64,
    ) -> usize {
        let cols = &mut self.slots[list.index()];
        if !cap.is_finite() || cols.len() == 0 {
            return 0;
        }
        let before = cols.len();
        if (0..before).all(|i| key(cols, i) > cap) {
            let best = cols.first_min(&key);
            cols.copy_lane(best, 0);
            cols.truncate(1);
            self.note(before, 1);
            return before - 1;
        }
        let mut write = 0usize;
        for read in 0..before {
            if key(cols, read) <= cap {
                if write != read {
                    cols.copy_lane(read, write);
                }
                write += 1;
            }
        }
        cols.truncate(write);
        self.note(before, write);
        before - write
    }

    /// Drops candidates whose stage wire delay `s` already exceeds `cap`
    /// (no driver can close their stage legally, and upstream wires only
    /// grow `s`); see `retain_at_most`. Returns the number removed.
    pub(crate) fn prune_slew(&mut self, list: SlabList, cap: f64) -> usize {
        self.retain_at_most(list, cap, |cols, i| cols.s[i])
    }

    /// The skew bound's prune: drops every candidate whose passenger
    /// width exceeds `bound` (width never shrinks upstream); see
    /// `retain_at_most`. Returns the number removed.
    pub(crate) fn prune_width(&mut self, list: SlabList, bound: f64) -> usize {
        self.retain_at_most(list, bound, |cols, i| cols.x.width(i))
    }

    /// Branch merge — the paper's third operation. Consumes `left` and
    /// `right` (their handles are freed) and returns the merged list:
    ///
    /// ```text
    /// Q = min(Q_l, Q_r)        C = C_l + C_r        s = max(s_l, s_r)
    /// ```
    ///
    /// Only `k₁ + k₂ − 1` of the `k₁·k₂` pairs can be nonredundant: each
    /// candidate is only worth pairing with the cheapest candidate of the
    /// other list whose `Q` does not cap it, which a two-pointer walk emits
    /// (Lillis et al. 1996), one [`PredEntry::Merge`] record each when
    /// tracking. A monotone stack prunes the emitted pairs, and candidates
    /// whose merged `s` exceeds `slew_cap` are pruned last.
    pub(crate) fn merge(
        &mut self,
        left: SlabList,
        right: SlabList,
        arena: &mut PredArena,
        track: bool,
        slew_cap: f64,
        stats: &mut SolveStats,
    ) -> SlabList {
        self.merge_impl(left, right, arena, track, slew_cap, stats, true)
    }

    /// [`CandidateSlab::merge`] that leaves both inputs allocated and
    /// untouched. Because the walk reads the inputs in place (no drain),
    /// keeping them costs nothing — this is what lets the cost lane's
    /// level convolution reuse one list across many merges.
    pub(crate) fn merge_keep(
        &mut self,
        left: SlabList,
        right: SlabList,
        arena: &mut PredArena,
        track: bool,
        stats: &mut SolveStats,
    ) -> SlabList {
        self.merge_impl(left, right, arena, track, f64::INFINITY, stats, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn merge_impl(
        &mut self,
        left: SlabList,
        right: SlabList,
        arena: &mut PredArena,
        track: bool,
        slew_cap: f64,
        stats: &mut SolveStats,
        consume: bool,
    ) -> SlabList {
        if self.len(left) == 0 {
            if consume {
                self.free(left);
                return right;
            }
            return self.copy_list(right);
        }
        if self.len(right) == 0 {
            if consume {
                self.free(right);
                return left;
            }
            return self.copy_list(left);
        }
        let out = self.alloc();
        // The walk writes by index into the staging columns, which only
        // ever grow, then the survivors are copied out in one `memcpy` per
        // lane (sizing the fresh list first would cost a fill instead).
        let cols = &mut self.staging.raw;
        let l = &self.slots[left.index()];
        let r = &self.slots[right.index()];
        let (ln, rn) = (l.len(), r.len());
        let (lq, lc, ls, lp) = (&l.q[..ln], &l.c[..ln], &l.s[..ln], &l.pred[..ln]);
        let (rq, rc, rs, rp) = (&r.q[..rn], &r.c[..rn], &r.s[..rn], &r.pred[..rn]);
        cols.ensure_len(ln + rn);
        let (mut i, mut j) = (0usize, 0usize);
        let (mut top, mut emitted) = (0usize, 0usize);
        // The walk and the prune fused into one pass: the two-pointer walk
        // emits the pairs in order (the partner on the other side is the
        // cheapest candidate not capping the emitted one; on a `q` tie
        // both sides advance), and each emitted pair meets the
        // monotone-stack prune at once instead of being staged first.
        // Once one side is exhausted, every remaining pair is dominated.
        while i < ln && j < rn {
            let (aq, bq) = (lq[i], rq[j]);
            let q = aq.min(bq);
            let c = lc[i] + rc[j];
            let s = ls[i].max(rs[j]);
            let x = P::merge(l.x.get(i), r.x.get(j));
            let pred = if track {
                arena.push(PredEntry::Merge {
                    left: lp[i],
                    right: rp[j],
                })
            } else {
                PredRef::NONE
            };
            emitted += 1;
            let dominated = top > 0 && q == cols.q[top - 1] && c >= cols.c[top - 1];
            if !dominated {
                while top > 0 && cols.c[top - 1] >= c {
                    top -= 1; // new candidate dominates the stack top
                }
                cols.put(top, q, c, s, pred, x);
                top += 1;
            }
            if aq <= bq {
                i += 1;
            }
            if bq <= aq {
                j += 1;
            }
        }
        let Self { slots, staging, .. } = self;
        slots[out.index()].extend_from(&staging.raw, top);
        stats.slab_candidates_pruned += (emitted - top) as u64;
        if consume {
            self.free(left);
            self.free(right);
        }
        self.note(0, top);
        self.prune_slew(out, slew_cap);
        out
    }

    /// Borrows two distinct slots, the first read-only and the second
    /// mutably.
    fn slot_pair(&mut self, read: SlabList, write: SlabList) -> (&Columns<P>, &mut Columns<P>) {
        let (ri, wi) = (read.index(), write.index());
        assert_ne!(ri, wi, "slot_pair requires distinct lists");
        if ri < wi {
            let (a, b) = self.slots.split_at_mut(wi);
            (&a[ri], &mut b[0])
        } else {
            let (a, b) = self.slots.split_at_mut(ri);
            (&b[0], &mut a[wi])
        }
    }

    /// Allocates a fresh list holding a copy of `src`'s candidates.
    pub(crate) fn copy_list(&mut self, src: SlabList) -> SlabList {
        let dst = self.alloc();
        debug_assert_ne!(dst, src);
        let (s, d) = self.slot_pair(src, dst);
        d.extend_from(s, s.len());
        let n = d.len();
        self.note(0, n);
        dst
    }

    /// Merges the staged `betas` (sorted by strictly increasing `C` — the
    /// `β_i` of `AddBuffer`) into `list` in O(len + betas), with the
    /// equal-`c` better-`q`-first tie rule (Theorem 2 of the paper).
    pub(crate) fn merge_insert(&mut self, list: SlabList, betas: &BetaList<P>) {
        debug_assert!(betas.0.c.windows(2).all(|w| w[0] < w[1]));
        self.merge_insert_cols(list, &betas.0);
    }

    /// Merge-inserts each staged target list into the list of the same
    /// index (`None` is an empty list, which the betas then start).
    pub(crate) fn insert_targets(
        &mut self,
        lists: &mut [Option<SlabList>],
        targets: &[BetaList<P>],
    ) {
        for (slot, betas) in lists.iter_mut().zip(targets) {
            if betas.is_empty() {
                continue;
            }
            match *slot {
                Some(list) => self.merge_insert(list, betas),
                None => *slot = Some(self.load_betas(betas)),
            }
        }
    }

    /// [`CandidateSlab::merge_insert`] where the incoming candidates are
    /// another slab list: merges `src` into `dst` (in place), leaving `src`
    /// untouched. Same walk, same equal-`c` tie rule.
    pub(crate) fn merge_insert_list(&mut self, dst: SlabList, src: SlabList) {
        debug_assert_ne!(dst, src);
        let inc = std::mem::take(&mut self.slots[src.index()]);
        self.merge_insert_cols(dst, &inc);
        self.slots[src.index()] = inc;
    }

    fn merge_insert_cols(&mut self, list: SlabList, inc: &Columns<P>) {
        let old_len = self.len(list);
        self.staging
            .merge_insert(&mut self.slots[list.index()], inc);
        let new_len = self.len(list);
        self.note(old_len, new_len);
    }

    /// Removes from `level` every candidate dominated by some `frontier`
    /// candidate at equal-or-smaller load (`f.c <= cand.c && f.q >= cand.q`)
    /// — the cost lane's three-dimensional dominance check. Both lists
    /// are `c`-ascending, so one linear sweep with a shared frontier cursor
    /// replaces a per-candidate binary search: the cursor
    /// only ever advances, and `frontier.q` ascends with `frontier.c`, so
    /// the entry just below the cursor is the best potential dominator.
    /// Returns the number removed.
    pub(crate) fn retain_undominated(
        &mut self,
        level: SlabList,
        frontier: SlabList,
        stats: &mut SolveStats,
    ) -> usize {
        let (f, l) = self.slot_pair(frontier, level);
        let n = l.len();
        let (mut fj, mut write) = (0usize, 0usize);
        for read in 0..n {
            let (q, c) = (l.q[read], l.c[read]);
            while fj < f.len() && f.c[fj] <= c {
                fj += 1;
            }
            let dominated = fj > 0 && f.q[fj - 1] >= q;
            if !dominated {
                if write != read {
                    l.copy_lane(read, write);
                }
                write += 1;
            }
        }
        l.truncate(write);
        stats.slab_candidates_scanned += n as u64;
        stats.slab_candidates_pruned += (n - write) as u64;
        self.note(n, write);
        n - write
    }

    /// The candidate index maximizing `Q − (k + r·C)` (ties to minimum
    /// `C`), or `None` on an empty list.
    pub(crate) fn best_driven(&self, list: SlabList, r: f64, k: f64) -> Option<usize> {
        let cols = &self.slots[list.index()];
        let mut best: Option<usize> = None;
        for i in 0..cols.len() {
            match best {
                None => best = Some(i),
                Some(b) => {
                    if cols.q[i] - k - r * cols.c[i] > cols.q[b] - k - r * cols.c[b] {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Root selection under two bounds in priority order: the
    /// [`best_driven`] candidate among those whose `first` key is within
    /// its cap and whose `second` key is within its cap, with
    /// `(true, true)`. Failing that, the first candidate with the least
    /// `second` key (by total order) among those meeting `first`, with
    /// `(true, false)`; failing that too, the first candidate with the
    /// least `first` key, with `false` and whether it meets `second`. A
    /// `<=` test rejects a NaN key. `list` must not be empty.
    ///
    /// [`best_driven`]: CandidateSlab::best_driven
    pub(crate) fn select_root(
        &self,
        list: SlabList,
        r: f64,
        k: f64,
        first: (f64, impl Fn(&Columns<P>, usize) -> f64),
        second: (f64, impl Fn(&Columns<P>, usize) -> f64),
    ) -> (usize, bool, bool) {
        let ((cap1, key1), (cap2, key2)) = (first, second);
        if !cap1.is_finite() && !cap2.is_finite() {
            let i = self.best_driven(list, r, k);
            return (i.expect("candidate lists are never empty"), true, true);
        }
        let cols = &self.slots[list.index()];
        let driven = |i: usize| cols.q[i] - k - r * cols.c[i];
        let less = |a: f64, b: f64| a.total_cmp(&b) == std::cmp::Ordering::Less;
        let mut best: Option<usize> = None;
        let mut least2: Option<(f64, usize)> = None;
        let mut least1: Option<(f64, usize)> = None;
        for i in 0..cols.len() {
            let (a, b) = (key1(cols, i), key2(cols, i));
            if least1.is_none_or(|(m, _)| less(a, m)) {
                least1 = Some((a, i));
            }
            if a <= cap1 {
                if least2.is_none_or(|(m, _)| less(b, m)) {
                    least2 = Some((b, i));
                }
                if b <= cap2 && best.is_none_or(|j| driven(i) > driven(j)) {
                    best = Some(i);
                }
            }
        }
        match (best, least2, least1) {
            (Some(i), ..) => (i, true, true),
            (None, Some((_, i)), _) => (i, true, false),
            (None, None, Some((_, i))) => (i, false, key2(cols, i) <= cap2),
            (None, None, None) => unreachable!("candidate lists are never empty"),
        }
    }

    /// Convex-prunes `list` in place, keeping only upper-hull candidates —
    /// the paper's `Convexpruning` as published, which
    /// [`Algorithm::LiShiPermanent`](crate::Algorithm::LiShiPermanent)
    /// applies to the propagated list. Returns the number removed.
    pub(crate) fn convex_prune(&mut self, list: SlabList) -> usize {
        let cols = &mut self.slots[list.index()];
        let before = cols.len();
        let mut top = 0usize; // hull size; lanes [..top] are the hull so far
        for i in 0..before {
            let (q, c) = (cols.q[i], cols.c[i]);
            while top >= 2
                && prunes_middle_vals(
                    cols.q[top - 2],
                    cols.c[top - 2],
                    cols.q[top - 1],
                    cols.c[top - 1],
                    q,
                    c,
                )
            {
                top -= 1;
            }
            cols.copy_lane(i, top);
            top += 1;
        }
        cols.truncate(top);
        self.note(before, top);
        before - top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, convex_prune_in_place, CandidateList};
    use fastbuf_rctree::delay::ElmoreModel;

    fn cand(q: f64, c: f64) -> Candidate {
        Candidate::new(q, c, PredRef::NONE)
    }

    fn list(points: &[(f64, f64)]) -> CandidateList {
        CandidateList::from_candidates(points.iter().map(|&(q, c)| cand(q, c)).collect())
    }

    /// The columns of an oracle list.
    fn columns(l: &CandidateList) -> Columns {
        let mut cols = Columns::default();
        for x in l {
            cols.push(x.q, x.c, x.s, x.pred);
        }
        cols
    }

    fn load(slab: &mut CandidateSlab, l: &CandidateList) -> SlabList {
        slab.load(&columns(l))
    }

    /// The oracle list a slab list holds.
    fn to_list(slab: &CandidateSlab, h: SlabList) -> CandidateList {
        let view = slab.view(h);
        CandidateList::from_sorted((0..view.len()).map(|i| view.get(i)).collect())
    }

    /// Deterministic pseudo-random staircase generator shared by the
    /// differential tests below.
    fn staircase(seed: u64, n: usize) -> CandidateList {
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let mut q = 0.0;
        let mut c = 0.0;
        let mut pts = Vec::new();
        for _ in 0..n {
            q += rnd() + 0.01;
            c += rnd() + 0.01;
            pts.push((q, c));
        }
        list(&pts)
    }

    fn bits(l: &CandidateList) -> Vec<(u64, u64, u64)> {
        l.iter()
            .map(|c| (c.q.to_bits(), c.c.to_bits(), c.s.to_bits()))
            .collect()
    }

    /// `store` replaces what its target held (a longer list leaves no
    /// tail behind), and `load` brings the same bits back.
    #[test]
    fn store_and_load_round_trip_every_lane() {
        let mut slab = CandidateSlab::default();
        let mut out = columns(&staircase(3, 25));
        for n in [17usize, 4, 30] {
            let src = staircase(7 + n as u64, n);
            let h = load(&mut slab, &src);
            slab.store(h, &mut out);
            assert_eq!(out.len(), n);
            let back = slab.load(&out);
            assert_eq!(full_bits(&to_list(&slab, back)), full_bits(&src));
        }
    }

    #[test]
    fn add_wire_matches_oracle_bits() {
        let mut stats = SolveStats::default();
        for seed in 1u64..20 {
            let mut expect = staircase(seed, 12);
            let mut slab = CandidateSlab::default();
            let h = load(&mut slab, &expect);
            let (r, cw) = (0.5 + seed as f64, 0.25 * seed as f64);
            expect.add_wire_model(&ElmoreModel, r, cw);
            slab.add_wire(h, &ElmoreModel, r, cw, &mut stats);
            assert_eq!(bits(&to_list(&slab, h)), bits(&expect), "seed {seed}");
        }
        assert!(stats.slab_candidates_scanned > 0);
    }

    #[test]
    fn prune_slew_matches_oracle() {
        let mk = || {
            CandidateList::from_sorted(vec![
                cand(1.0, 1.0).with_stage_delay(5.0),
                cand(2.0, 2.0).with_stage_delay(1.0),
                cand(3.0, 3.0).with_stage_delay(9.0),
            ])
        };
        for cap in [2.0, 0.5, f64::INFINITY] {
            let mut expect = mk();
            let removed_expect = expect.prune_slew(cap);
            let mut slab = CandidateSlab::default();
            let h = load(&mut slab, &mk());
            let removed = slab.prune_slew(h, cap);
            assert_eq!(removed, removed_expect, "cap {cap}");
            assert_eq!(bits(&to_list(&slab, h)), bits(&expect), "cap {cap}");
        }
    }

    #[test]
    fn convex_prune_matches_oracle() {
        for seed in 1u64..15 {
            let mut expect = staircase(seed, 20);
            let mut slab = CandidateSlab::default();
            let h = load(&mut slab, &expect);
            let removed_expect = convex_prune_in_place(&mut expect);
            let removed = slab.convex_prune(h);
            assert_eq!(removed, removed_expect, "seed {seed}");
            assert_eq!(bits(&to_list(&slab, h)), bits(&expect), "seed {seed}");
        }
    }

    #[test]
    fn best_driven_matches_oracle() {
        let l = staircase(3, 15);
        let mut slab = CandidateSlab::default();
        let h = load(&mut slab, &l);
        for r_tenth in 0..40 {
            let r = r_tenth as f64 * 0.1;
            let expect = l.best_driven(r, 0.3).unwrap();
            let idx = slab.best_driven(h, r, 0.3).unwrap();
            assert_eq!(slab.view(h).get(idx), *expect);
        }
    }

    #[test]
    fn free_and_reset_recycle_storage_and_track_peak() {
        let mut slab = CandidateSlab::default();
        let a = load(&mut slab, &staircase(1, 10));
        let b = load(&mut slab, &staircase(2, 6));
        assert_eq!(slab.peak_bytes(), 16 * BYTES_PER_CANDIDATE);
        slab.free(a);
        slab.free(b);
        // Peak is sticky until reset; live storage is back to zero.
        assert_eq!(slab.peak_bytes(), 16 * BYTES_PER_CANDIDATE);
        let c = slab.alloc();
        assert_eq!(slab.len(c), 0);
        slab.reset();
        assert_eq!(slab.peak_bytes(), 0);
    }

    /// Staircases with forced cross-list ties: `q` and `c` are drawn as
    /// sorted distinct values from a small integer grid (half again the
    /// list length, at least 12), so two lists generated side by side
    /// share `q` values, `c` values and whole `(q, c)` points often. Stage
    /// delays come from a smaller grid, and every candidate gets its own
    /// arena entry, so a tie that keeps the wrong side shows up as a
    /// different `pred`.
    fn tied_staircase(state: &mut u64, n: usize, arena: &mut PredArena) -> CandidateList {
        let mut next = |bound: u64| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) % bound
        };
        let size = (3 * n / 2).max(12);
        let pick = |next: &mut dyn FnMut(u64) -> u64| {
            let mut grid: Vec<u64> = (0..size as u64).collect();
            for i in 0..n {
                let j = i + next((size - i) as u64) as usize;
                grid.swap(i, j);
            }
            let mut vals = grid[..n].to_vec();
            vals.sort_unstable();
            vals
        };
        let qs = pick(&mut next);
        let cs = pick(&mut next);
        let cands = qs
            .iter()
            .zip(&cs)
            .map(|(&q, &c)| {
                let pred = arena.push(PredEntry::Merge {
                    left: PredRef::NONE,
                    right: PredRef::NONE,
                });
                Candidate::new(q as f64, 0.5 + c as f64, pred).with_stage_delay(next(4) as f64)
            })
            .collect();
        CandidateList::from_sorted(cands)
    }

    fn full_bits(l: &CandidateList) -> Vec<(u64, u64, u64, PredRef)> {
        l.iter()
            .map(|c| (c.q.to_bits(), c.c.to_bits(), c.s.to_bits(), c.pred))
            .collect()
    }

    /// Every pair of short list lengths (`0..=8`) plus long ones around
    /// the merge-insert splice threshold, several seeds each.
    fn tied_cases(mut check: impl FnMut(&mut u64, usize, usize)) {
        let lengths = (0..=8).chain([SHORT_LIST - 1, SHORT_LIST, SHORT_LIST + 1, 100]);
        for ln in lengths.clone() {
            for rn in lengths.clone() {
                for seed in 0..6u64 {
                    let mut state = seed * 1_000 + (ln * 101 + rn) as u64;
                    check(&mut state, ln, rn);
                }
            }
        }
    }

    #[test]
    fn merges_match_oracle_with_ties() {
        tied_cases(|state, ln, rn| {
            let mut arena = PredArena::new();
            let l = tied_staircase(state, ln, &mut arena);
            let r = tied_staircase(state, rn, &mut arena);
            let ctx = format!("ln {ln} rn {rn} l {l:?} r {r:?}");
            for slew_cap in [f64::INFINITY, 2.0] {
                // merge (consuming), tracked.
                let mut oracle_arena = arena.clone();
                let expect =
                    oracle::merge_branches(l.clone(), r.clone(), &mut oracle_arena, true, slew_cap);
                let mut slab = CandidateSlab::default();
                let mut stats = SolveStats::default();
                let mut slab_arena = arena.clone();
                let (hl, hr) = (load(&mut slab, &l), load(&mut slab, &r));
                let hm = slab.merge(hl, hr, &mut slab_arena, true, slew_cap, &mut stats);
                // An empty side hands the other list through as is.
                if ln == 0 {
                    assert_eq!(hm, hr);
                } else if rn == 0 {
                    assert_eq!(hm, hl);
                }
                assert_eq!(
                    full_bits(&to_list(&slab, hm)),
                    full_bits(&expect),
                    "merge cap {slew_cap} {ctx}"
                );
                assert_eq!(
                    format!("{slab_arena:?}"),
                    format!("{oracle_arena:?}"),
                    "merge arena {ctx}"
                );
            }
            let mut oracle_arena = arena.clone();
            let expect = oracle::merge_branches(
                l.clone(),
                r.clone(),
                &mut oracle_arena,
                true,
                f64::INFINITY,
            );
            let mut slab = CandidateSlab::default();
            let mut stats = SolveStats::default();
            let mut slab_arena = arena.clone();
            let (hl, hr) = (load(&mut slab, &l), load(&mut slab, &r));
            let hm = slab.merge_keep(hl, hr, &mut slab_arena, true, &mut stats);
            assert_eq!(
                full_bits(&to_list(&slab, hm)),
                full_bits(&expect),
                "merge_keep {ctx}"
            );
            assert_eq!(
                format!("{slab_arena:?}"),
                format!("{oracle_arena:?}"),
                "merge_keep arena {ctx}"
            );
            assert_eq!(full_bits(&to_list(&slab, hl)), full_bits(&l));
            assert_eq!(full_bits(&to_list(&slab, hr)), full_bits(&r));
        });
    }

    #[test]
    fn merge_inserts_match_oracle_with_ties() {
        tied_cases(|state, ln, rn| {
            let mut arena = PredArena::new();
            let old = tied_staircase(state, ln, &mut arena);
            let inc = tied_staircase(state, rn, &mut arena);
            let ctx = format!("old {old:?} inc {inc:?}");
            let mut expect = old.clone();
            expect.merge_insert(inc.as_slice());

            // Staged betas.
            let mut slab = CandidateSlab::default();
            let h = load(&mut slab, &old);
            slab.merge_insert(h, &beta_buf(inc.as_slice()));
            assert_eq!(
                full_bits(&to_list(&slab, h)),
                full_bits(&expect),
                "merge_insert {ctx}"
            );
            assert_eq!(
                slab.peak_bytes(),
                ln.max(expect.len()) * BYTES_PER_CANDIDATE
            );

            // List to list; the source stays untouched.
            let mut slab = CandidateSlab::default();
            let (dst, src) = (load(&mut slab, &old), load(&mut slab, &inc));
            slab.merge_insert_list(dst, src);
            assert_eq!(
                full_bits(&to_list(&slab, dst)),
                full_bits(&expect),
                "merge_insert_list {ctx}"
            );
            assert_eq!(full_bits(&to_list(&slab, src)), full_bits(&inc));

            // Staged union: the older target wins full ties, as merge-insert.
            let mut stage = BetaStage::default();
            stage.reset_targets(1);
            for &cand in old.iter() {
                stage.group.push_pruned(cand, ());
            }
            stage.flush_group(0);
            for &cand in inc.iter() {
                stage.group.push_pruned(cand, ());
            }
            stage.flush_group(0);
            let mut slab = CandidateSlab::default();
            let h = slab.load_betas(&stage.targets[0]);
            assert_eq!(
                full_bits(&to_list(&slab, h)),
                full_bits(&expect),
                "flush_group {ctx}"
            );
        });
    }

    #[test]
    fn copy_and_retain_match_oracle_with_ties() {
        tied_cases(|state, ln, rn| {
            let mut arena = PredArena::new();
            let level = tied_staircase(state, ln, &mut arena);
            let frontier = tied_staircase(state, rn, &mut arena);
            let ctx = format!("level {level:?} frontier {frontier:?}");

            let mut slab = CandidateSlab::default();
            let h = load(&mut slab, &level);
            let copy = slab.copy_list(h);
            assert_eq!(full_bits(&to_list(&slab, copy)), full_bits(&level));
            assert_eq!(slab.peak_bytes(), 2 * ln * BYTES_PER_CANDIDATE);

            // The plain filter: one binary search per candidate.
            let f = frontier.as_slice();
            let expect: Vec<Candidate> = level
                .iter()
                .filter(|cand| {
                    let below = f.partition_point(|x| x.c <= cand.c);
                    !(below > 0 && f[below - 1].q >= cand.q)
                })
                .copied()
                .collect();
            let hf = load(&mut slab, &frontier);
            let mut stats = SolveStats::default();
            let removed = slab.retain_undominated(copy, hf, &mut stats);
            assert_eq!(removed, ln - expect.len(), "{ctx}");
            assert_eq!(
                full_bits(&to_list(&slab, copy)),
                full_bits(&CandidateList::from_sorted(expect)),
                "retain_undominated {ctx}"
            );
        });
    }

    /// A [`Window`] passenger tagged `(q, −q)` rides every list operation
    /// with its candidate: the tag is invariant under merge (`min`/`max`)
    /// and moves with every copy, compaction and splice, and the `(q, c,
    /// s, pred)` lanes match a passenger-free slab's bit for bit.
    #[test]
    fn window_passengers_move_with_their_candidates() {
        let tagged = |l: &CandidateList| {
            let mut cols = Columns::<Window>::default();
            for x in l {
                cols.push_row(x.q, x.c, x.s, x.pred, (x.q, -x.q));
            }
            cols
        };
        let check =
            |slab: &CandidateSlab<Window>, h: SlabList, plain: &CandidateSlab, p: SlabList| {
                let (v, w) = (slab.view(h), plain.view(p));
                let lanes =
                    |v: &SlabView<'_, Window>| (0..v.len()).map(|i| v.get(i)).collect::<Vec<_>>();
                let plain_lanes = (0..w.len()).map(|i| w.get(i)).collect::<Vec<_>>();
                assert_eq!(lanes(&v), plain_lanes);
                for i in 0..v.len() {
                    assert_eq!(v.row(i), (v.q[i], -v.q[i]));
                }
            };
        tied_cases(|state, ln, rn| {
            let mut arena = PredArena::new();
            let l = tied_staircase(state, ln, &mut arena);
            let r = tied_staircase(state, rn, &mut arena);
            let (mut slab, mut plain) =
                (CandidateSlab::<Window>::default(), CandidateSlab::default());
            let mut stats = SolveStats::default();
            let (wl, wr) = (slab.load(&tagged(&l)), slab.load(&tagged(&r)));
            let (pl, pr) = (load(&mut plain, &l), load(&mut plain, &r));
            let wm = slab.merge_keep(wl, wr, &mut arena.clone(), true, &mut stats);
            let pm = plain.merge_keep(pl, pr, &mut arena.clone(), true, &mut stats);
            check(&slab, wm, &plain, pm);
            slab.merge_insert_list(wl, wr);
            plain.merge_insert_list(pl, pr);
            check(&slab, wl, &plain, pl);
            slab.retain_undominated(wr, wm, &mut stats);
            plain.retain_undominated(pr, pm, &mut stats);
            check(&slab, wr, &plain, pr);
            slab.convex_prune(wl);
            plain.convex_prune(pl);
            check(&slab, wl, &plain, pl);
            let wm = slab.merge(wm, wl, &mut arena.clone(), true, 2.0, &mut stats);
            let pm = plain.merge(pm, pl, &mut arena.clone(), true, 2.0, &mut stats);
            check(&slab, wm, &plain, pm);
        });
    }

    /// The skew lane's width prune keeps the narrowest window when every
    /// window is too wide; an infinite bound prunes nothing.
    #[test]
    fn width_prune_keeps_narrowest_when_all_violate() {
        let mut cols = Columns::<Window>::default();
        cols.push_row(1.0, 1.0, 0.0, PredRef::NONE, (0.0, 5.0));
        cols.push_row(2.0, 2.0, 0.0, PredRef::NONE, (1.0, 4.0));
        let mut slab = CandidateSlab::default();
        let h = slab.load(&cols);
        assert_eq!(slab.prune_width(h, 1.0), 1);
        assert_eq!(slab.view(h).row(0), (1.0, 4.0));
        assert_eq!(slab.prune_width(h, f64::INFINITY), 0);
        assert_eq!(slab.len(h), 1);
    }

    /// Times `a` and `b` interleaved in blocks (A/B/A/B…), reporting each
    /// side's fastest block scaled back to `iters` iterations. Machine
    /// drift (frequency ramps, co-tenant load) hits both sides evenly
    /// instead of flattering whichever side runs later.
    fn ab_time(
        iters: u32,
        mut a: impl FnMut(),
        mut b: impl FnMut(),
    ) -> (std::time::Duration, std::time::Duration) {
        use std::time::Instant;
        const BLOCKS: u32 = 8;
        let per = (iters / BLOCKS).max(1);
        let (mut best_a, mut best_b) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..BLOCKS {
            let t0 = Instant::now();
            (0..per).for_each(|_| a());
            best_a = best_a.min(t0.elapsed());
            let t0 = Instant::now();
            (0..per).for_each(|_| b());
            best_b = best_b.min(t0.elapsed());
        }
        (best_a * BLOCKS, best_b * BLOCKS)
    }

    /// Each slab operation against its oracle counterpart. The oracle
    /// side allocates its lists fresh (it has no pool), the slab side
    /// copies from resident lists into recycled slots.
    #[test]
    #[ignore = "microbenchmark; run with --release --ignored"]
    fn op_microbench() {
        let iters = 20_000u32;
        let mut rows: Vec<(usize, &str, std::time::Duration, std::time::Duration)> = Vec::new();
        for k in [4usize, 8, 16, 32, 64, 256, 1024] {
            let src = staircase(42, k);
            let betas: Vec<Candidate> = staircase(9, 12).iter().copied().collect();
            let right = staircase(77, k);
            let mut slab = CandidateSlab::default();
            let mut stats = SolveStats::default();
            let mut arena = PredArena::new();
            let mut arena2 = PredArena::new();
            let src_h = load(&mut slab, &src);
            let right_h = load(&mut slab, &right);

            // --- add_wire ---
            // Small shear, like a single routing segment: compaction after
            // a wire is rare in real solves (~0.2% of scanned candidates),
            // so the wire timing must not be dominated by it.
            let (wr, wc) = (1e-3, 1e-4);
            let (r, s) = ab_time(
                iters,
                || {
                    let mut l = src.clone();
                    l.add_wire_model(&ElmoreModel, wr, wc);
                    std::hint::black_box(l);
                },
                || {
                    let h = slab.copy_list(src_h);
                    slab.add_wire(h, &ElmoreModel, wr, wc, &mut stats);
                    slab.free(h);
                },
            );
            rows.push((k, "wire", r, s));

            // --- merge ---
            let (r, s) = ab_time(
                iters,
                || {
                    let m = oracle::merge_branches(
                        src.clone(),
                        right.clone(),
                        &mut arena,
                        false,
                        f64::INFINITY,
                    );
                    std::hint::black_box(m);
                },
                || {
                    let l = slab.copy_list(src_h);
                    let r = slab.copy_list(right_h);
                    let m = slab.merge(l, r, &mut arena2, false, f64::INFINITY, &mut stats);
                    slab.free(m);
                },
            );
            rows.push((k, "merge", r, s));

            // --- merge_insert: 12 betas into a k-list ---
            let staged = beta_buf(&betas);
            let (r, s) = ab_time(
                iters,
                || {
                    let mut l = src.clone();
                    l.merge_insert(&betas);
                    std::hint::black_box(l);
                },
                || {
                    let h = slab.copy_list(src_h);
                    slab.merge_insert(h, &staged);
                    slab.free(h);
                },
            );
            rows.push((k, "merge_insert", r, s));

            // --- merge_insert_list: union of two k-lists ---
            let (r, s) = ab_time(
                iters,
                || {
                    let mut l = src.clone();
                    l.merge_insert(right.as_slice());
                    std::hint::black_box(l);
                },
                || {
                    let h = slab.copy_list(src_h);
                    slab.merge_insert_list(h, right_h);
                    slab.free(h);
                },
            );
            rows.push((k, "merge_insert_list", r, s));

            // --- retain_undominated: a k-level against a k-frontier ---
            // The oracle side is the plain filter: one binary search per
            // candidate.
            let (r, s) = ab_time(
                iters,
                || {
                    let f = right.as_slice();
                    let kept: Vec<Candidate> = src
                        .iter()
                        .filter(|cand| {
                            let below = f.partition_point(|x| x.c <= cand.c);
                            !(below > 0 && f[below - 1].q >= cand.q)
                        })
                        .copied()
                        .collect();
                    std::hint::black_box(kept);
                },
                || {
                    let h = slab.copy_list(src_h);
                    slab.retain_undominated(h, right_h, &mut stats);
                    slab.free(h);
                },
            );
            rows.push((k, "retain_undominated", r, s));

            // --- hull build ---
            let mut hull = Vec::new();
            let mut hull2 = Vec::new();
            let (r, s) = ab_time(
                iters,
                || {
                    oracle::upper_hull_into(src.as_slice(), &mut hull);
                    std::hint::black_box(hull.len());
                },
                || {
                    let v = slab.view(src_h);
                    crate::hull::upper_hull_cols(v.q, v.c, &mut hull2);
                    std::hint::black_box(hull2.len());
                },
            );
            rows.push((k, "hull", r, s));

            // --- copy: a fresh oracle list vs a recycled slab slot ---
            let cols = columns(&src);
            let (r, s) = ab_time(
                iters,
                || {
                    std::hint::black_box(src.clone());
                },
                || {
                    let h = slab.load(&cols);
                    slab.free(h);
                },
            );
            rows.push((k, "clone/load", r, s));
        }
        eprintln!(
            "{:>5}  {:<18} {:>10} {:>10} {:>11}",
            "k", "op", "oracle", "slab", "slab/oracle"
        );
        for (k, op, r, s) in rows {
            eprintln!(
                "{k:>5}  {op:<18} {:>10.2?} {:>10.2?} {:>11.2}",
                r,
                s,
                s.as_secs_f64() / r.as_secs_f64()
            );
        }
    }

    /// Stages `betas` (strictly increasing `c`) as a [`BetaList`].
    fn beta_buf(betas: &[Candidate]) -> BetaList {
        let mut staged = BetaList::default();
        for &beta in betas {
            staged.push_pruned(beta, ());
        }
        assert_eq!(staged.len(), betas.len(), "betas must be a staircase");
        staged
    }
}
