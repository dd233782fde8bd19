//! Incremental violation counting for the sampler.
//!
//! Equation (3) of the paper decomposes `|V(φ, D)|` into per-tuple
//! increments `|V(φ, t_i | D_:i)|` — the number of *new* violations tuple
//! `t_i` introduces against the prefix `D_:i = [t_1, …, t_{i−1}]`.
//! Algorithm 3 evaluates this quantity for *every candidate value* of every
//! cell, so it must be cheap. [`DcCounter`] maintains the prefix state and
//! answers:
//!
//! * unary DCs in O(1) (evaluate the candidate row alone),
//! * FD-shaped DCs in ~O(1) via a hash index keyed on the determinant
//!   (`group size − #rows sharing the candidate's dependent value`), which
//!   also powers the hard-FD lookup optimization of §7.3.6,
//! * strict-order DCs `¬(eqs ∧ A≶ ∧ B≶)` (e.g. φ₆ᵗ) by an exact scan of
//!   only the candidate's equality partition, stored as two pre-flipped
//!   integer keys per row so each pair is one branch-free test — the
//!   semi-naive "probe the one-tuple delta against an index" idea, at
//!   O(partition) per candidate,
//! * anything else by an exact scan of stored prefix rows (restricted to
//!   `A_φ`), matching the paper's stated O(n) per-candidate complexity for
//!   general binary DCs.
//!
//! The full-instance counts of [`crate::engine`] — Metric I and
//! Algorithm 5's violation matrix — run through these same counters, so
//! each DC shape has one violation count.
//!
//! ## Read/write split
//!
//! * [`FdIndex`] and [`ScanIndex`] are the **prefix indexes**. Every query
//!   takes `&self`: an index does not change during a scoring pass.
//! * [`DcCounter`] owns an index and is the one entry point for both
//!   sides: the queries ([`DcCounter::count_new`],
//!   [`DcCounter::required_value`], [`DcCounter::feasible_range`],
//!   [`DcCounter::fd_rhs`]) take `&self`, and the **mutation API**
//!   ([`DcCounter::insert`] / [`DcCounter::remove`]) runs when a cell is
//!   committed or MCMC re-opens one.
//!
//! Counters support [`DcCounter::remove`] so the constrained MCMC step
//! (Algorithm 3 line 12) can take one tuple out, re-sample its cell
//! conditioned on all others, and re-insert it.

use std::collections::HashMap;

use kamino_data::{Instance, Value};

use crate::ast::{CmpOp, DenialConstraint, Fd, Operand, StrictOrder, TupleRef};
use crate::engine::{value_key, Fenwick};

/// A view of one tuple where the `target` attribute takes a hypothetical
/// `value` and every other attribute reads from the (partially filled)
/// instance. This is the "what if `t_i[S[j]] = v`" row of Algorithm 3.
#[derive(Clone, Copy)]
pub struct CandidateRow<'a> {
    inst: &'a Instance,
    row: usize,
    target: usize,
    value: Value,
}

impl<'a> CandidateRow<'a> {
    /// Builds a candidate view of `row` with `target` hypothetically set to
    /// `value`.
    pub fn new(inst: &'a Instance, row: usize, target: usize, value: Value) -> CandidateRow<'a> {
        CandidateRow {
            inst,
            row,
            target,
            value,
        }
    }

    /// Builds a view of `row` exactly as currently stored (used when
    /// inserting a finalized row, or removing it for MCMC).
    pub fn committed(inst: &'a Instance, row: usize, target: usize) -> CandidateRow<'a> {
        let value = inst.value(row, target);
        CandidateRow {
            inst,
            row,
            target,
            value,
        }
    }

    /// Value of `attr` under the hypothesis.
    #[inline]
    pub fn get(&self, attr: usize) -> Value {
        if attr == self.target {
            self.value
        } else {
            self.inst.value(self.row, attr)
        }
    }

    /// The row index this candidate describes.
    #[inline]
    pub fn row(&self) -> usize {
        self.row
    }

    /// The hypothetical value.
    #[inline]
    pub fn value(&self) -> Value {
        self.value
    }
}

/// The cell a scoring pass is about: row `row` of `inst` at attribute
/// `target`, with every *other* attribute read from the partially filled
/// instance. Pair it with a candidate value via [`CellContext::with`] to
/// get the [`CandidateRow`] hypothesis for that value.
#[derive(Clone, Copy)]
pub struct CellContext<'a> {
    inst: &'a Instance,
    row: usize,
    target: usize,
}

impl<'a> CellContext<'a> {
    /// Describes the cell at (`row`, `target`) of `inst`.
    pub fn new(inst: &'a Instance, row: usize, target: usize) -> CellContext<'a> {
        CellContext { inst, row, target }
    }

    /// The hypothesis "this cell takes value `v`".
    #[inline]
    pub fn with(&self, v: Value) -> CandidateRow<'a> {
        CandidateRow::new(self.inst, self.row, self.target, v)
    }

    /// The attribute being sampled.
    #[inline]
    pub fn target(&self) -> usize {
        self.target
    }

    /// The row being filled.
    #[inline]
    pub fn row(&self) -> usize {
        self.row
    }
}

/// One determinant group of an [`FdIndex`].
///
/// The dependent-value tally is a small linear-searched vector rather than
/// a hash map: groups almost always carry a handful of distinct dependents
/// (exactly one, for clean data), so a contiguous scan beats hashing and
/// keeps batch scoring walking adjacent memory. Every query over `by_rhs`
/// is iteration-order independent (a lookup by key and a `len == 1`
/// check), so the `swap_remove` used on removal cannot change any answer.
#[derive(Default)]
struct FdGroup {
    total: u64,
    /// (dependent value key, count, a representative `Value`)
    by_rhs: Vec<(u64, u64, Value)>,
}

impl FdGroup {
    fn count_of(&self, rhs_key: u64) -> u64 {
        self.by_rhs
            .iter()
            .find(|e| e.0 == rhs_key)
            .map_or(0, |e| e.1)
    }

    fn bump(&mut self, rhs_key: u64, repr: Value) {
        match self.by_rhs.iter_mut().find(|e| e.0 == rhs_key) {
            Some(e) => e.1 += 1,
            None => self.by_rhs.push((rhs_key, 1, repr)),
        }
    }

    fn decr(&mut self, rhs_key: u64) {
        let i = self
            .by_rhs
            .iter()
            .position(|e| e.0 == rhs_key)
            .expect("removing an uninserted dependent");
        self.by_rhs[i].1 -= 1;
        if self.by_rhs[i].1 == 0 {
            self.by_rhs.swap_remove(i);
        }
    }
}

/// Determinant keys below this bound use the dense slot table.
/// Single-attribute categorical determinants produce their category code
/// as the key, so any realistic domain fits; numeric determinants produce
/// `f64` bit patterns and fall through to the map on first insert.
const DENSE_KEY_LIMIT: u64 = 4096;

/// Widest key (FD determinant or equality attributes) probed with a stack
/// buffer; wider (never seen in practice) falls back to a heap key.
const MAX_INLINE_KEY: usize = 8;

/// Group storage of an [`FdIndex`].
enum GroupTable {
    /// Dense fast path: single-attribute determinant with small value
    /// keys — groups live in a flat slot vector indexed directly by key,
    /// so a probe is one bounds check and one pointer chase.
    Dense(Vec<Option<FdGroup>>),
    /// General case: hash map keyed by the full determinant tuple.
    /// Probes borrow the key as `&[u64]` (stack buffer), so the read path
    /// never allocates.
    Map(HashMap<Vec<u64>, FdGroup>),
}

/// Runs `f` on the key of `cand` over `attrs` (one `value_key` per
/// attribute — an FD's determinant, a strict order's equality attributes),
/// built in a stack buffer for realistic widths.
fn with_key<R>(attrs: &[usize], cand: &CandidateRow<'_>, f: impl FnOnce(&[u64]) -> R) -> R {
    if attrs.len() <= MAX_INLINE_KEY {
        let mut buf = [0u64; MAX_INLINE_KEY];
        for (b, &a) in buf.iter_mut().zip(attrs) {
            *b = value_key(cand.get(a));
        }
        f(&buf[..attrs.len()])
    } else {
        let key: Vec<u64> = attrs.iter().map(|&a| value_key(cand.get(a))).collect();
        f(&key)
    }
}

/// Immutable-at-scoring-time prefix index for an FD `X → B`: a dense slot
/// table for small single-attribute determinants (the common case — one
/// array index per probe), falling back to a hash index keyed on the full
/// determinant tuple for wide domains. Every method takes `&self`;
/// mutation goes through the owning [`DcCounter`].
pub struct FdIndex {
    fd: Fd,
    table: GroupTable,
    n_rows: usize,
}

impl FdIndex {
    fn new(fd: Fd) -> FdIndex {
        let table = if fd.lhs.len() == 1 {
            GroupTable::Dense(Vec::new())
        } else {
            GroupTable::Map(HashMap::new())
        };
        FdIndex {
            fd,
            table,
            n_rows: 0,
        }
    }

    /// The candidate's determinant group, if any. Allocation-free.
    fn group(&self, cand: &CandidateRow<'_>) -> Option<&FdGroup> {
        match &self.table {
            GroupTable::Dense(slots) => {
                let k = value_key(cand.get(self.fd.lhs[0]));
                usize::try_from(k)
                    .ok()
                    .and_then(|i| slots.get(i))
                    .and_then(|s| s.as_ref())
            }
            GroupTable::Map(map) => with_key(&self.fd.lhs, cand, |key| map.get(key)),
        }
    }

    /// Moves every dense slot into the fallback map (triggered by the
    /// first determinant key at or above [`DENSE_KEY_LIMIT`]).
    fn migrate_to_map(&mut self) {
        if let GroupTable::Dense(slots) = &mut self.table {
            let slots = std::mem::take(slots);
            let mut map = HashMap::new();
            for (i, slot) in slots.into_iter().enumerate() {
                if let Some(g) = slot {
                    map.insert(vec![i as u64], g);
                }
            }
            self.table = GroupTable::Map(map);
        }
    }

    /// The candidate's determinant group, created if absent.
    fn group_entry(&mut self, cand: &CandidateRow<'_>) -> &mut FdGroup {
        if matches!(self.table, GroupTable::Dense(_)) {
            let k = value_key(cand.get(self.fd.lhs[0]));
            if k < DENSE_KEY_LIMIT {
                let GroupTable::Dense(slots) = &mut self.table else {
                    unreachable!()
                };
                let i = k as usize;
                if slots.len() <= i {
                    slots.resize_with(i + 1, || None);
                }
                return slots[i].get_or_insert_with(FdGroup::default);
            }
            self.migrate_to_map();
        }
        let GroupTable::Map(map) = &mut self.table else {
            unreachable!()
        };
        let key: Vec<u64> = self
            .fd
            .lhs
            .iter()
            .map(|&a| value_key(cand.get(a)))
            .collect();
        map.entry(key).or_default()
    }

    /// New violations the candidate would introduce against the prefix.
    fn count_new(&self, cand: &CandidateRow<'_>) -> u64 {
        let Some(group) = self.group(cand) else {
            return 0;
        };
        group.total - group.count_of(value_key(cand.get(self.fd.rhs)))
    }

    /// The dependent value every member of the candidate's determinant
    /// group carries, if the group exists and is internally consistent
    /// (§7.3.6 hard-FD lookup).
    fn required_value(&self, cand: &CandidateRow<'_>) -> Option<Value> {
        let group = self.group(cand)?;
        if group.by_rhs.len() == 1 {
            Some(group.by_rhs[0].2)
        } else {
            None
        }
    }

    fn insert(&mut self, cand: &CandidateRow<'_>) {
        let rhs = cand.get(self.fd.rhs);
        let rhs_key = value_key(rhs);
        let group = self.group_entry(cand);
        group.total += 1;
        group.bump(rhs_key, rhs);
        self.n_rows += 1;
    }

    fn remove(&mut self, cand: &CandidateRow<'_>) {
        let rhs_key = value_key(cand.get(self.fd.rhs));
        match &mut self.table {
            GroupTable::Dense(slots) => {
                let k = value_key(cand.get(self.fd.lhs[0]));
                let slot = usize::try_from(k)
                    .ok()
                    .and_then(|i| slots.get_mut(i))
                    .unwrap_or_else(|| {
                        panic!("removing a row that was never inserted (unknown determinant group)")
                    });
                let Some(group) = slot.as_mut() else {
                    panic!("removing a row that was never inserted (unknown determinant group)")
                };
                group.decr(rhs_key);
                group.total -= 1;
                if group.total == 0 {
                    *slot = None;
                }
            }
            GroupTable::Map(map) => with_key(&self.fd.lhs, cand, |key| {
                let Some(group) = map.get_mut(key) else {
                    panic!("removing a row that was never inserted (unknown determinant group)")
                };
                group.decr(rhs_key);
                group.total -= 1;
                if group.total == 0 {
                    map.remove(key);
                }
            }),
        }
        self.n_rows -= 1;
    }
}

/// Integer sort key whose order equals [`Value::compare`]: a categorical
/// code, or for a number the `f64` total-order bit pattern (the
/// `f64::total_cmp` trick) of the value with `-0.0` normalized to `0.0`.
#[inline]
fn order_key(v: Value) -> i64 {
    match v {
        Value::Cat(c) => i64::from(c),
        Value::Num(_) => total_order_bits(value_key(v) as i64),
    }
}

/// Maps `f64` bits to a total-order integer, and back: negative patterns
/// keep their sign bit and flip the rest. The map is its own inverse.
#[inline]
fn total_order_bits(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// An order key pre-flipped so that `t1[A] op t2[A]` holds exactly when
/// `flipped(t1) > flipped(t2)`: kept for `>`, bit-negated (which reverses
/// the order) for `<`.
#[inline]
fn flipped_key(v: Value, op: CmpOp) -> i64 {
    let k = order_key(v);
    if op == CmpOp::Lt {
        !k
    } else {
        k
    }
}

/// The generic scan layout: each inserted row restricted to `A_φ` in one
/// contiguous row-major table (stride = `|A_φ|`) of [`order_key`]s, scored
/// by running the DC's predicates, compiled to positions in that stride,
/// over every stored row.
struct RowTable {
    attrs: Vec<usize>,
    /// The DC's predicates with each attribute operand resolved once, at
    /// build time, to its position in `attrs`.
    preds: Vec<(Slot, CmpOp, Slot)>,
    /// Row-major order keys aligned with `attrs`; slot `s` occupies
    /// `data[s * attrs.len() .. (s + 1) * attrs.len()]`. Keys compare as
    /// their values do, so every predicate is an integer comparison.
    data: Vec<i64>,
    /// Slot → row id, parallel to the rows of `data`.
    row_ids: Vec<usize>,
    /// Row id → slot, maintained across swap-removes.
    slot_of: HashMap<usize, usize>,
}

/// A predicate operand of a [`RowTable`]: a position in the first or the
/// second tuple's `A_φ` keys, or a constant's key.
#[derive(Clone, Copy)]
enum Slot {
    T1(usize),
    T2(usize),
    Const(i64),
}

impl Slot {
    #[inline]
    fn read(self, t1: &[i64], t2: &[i64]) -> i64 {
        match self {
            Slot::T1(p) => t1[p],
            Slot::T2(p) => t2[p],
            Slot::Const(k) => k,
        }
    }
}

impl RowTable {
    fn new(dc: &DenialConstraint) -> RowTable {
        let attrs: Vec<usize> = dc.attrs().into_iter().collect();
        let slot = |o: Operand| match o {
            Operand::Attr { tuple, attr } => {
                let p = attrs
                    .binary_search(&attr)
                    .expect("operand attribute is in A_phi");
                match tuple {
                    TupleRef::T1 => Slot::T1(p),
                    TupleRef::T2 => Slot::T2(p),
                }
            }
            Operand::Const(v) => Slot::Const(order_key(v)),
        };
        let preds = dc
            .predicates
            .iter()
            .map(|p| (slot(p.lhs), p.op, slot(p.rhs)))
            .collect();
        RowTable {
            attrs,
            preds,
            data: Vec::new(),
            row_ids: Vec::new(),
            slot_of: HashMap::new(),
        }
    }

    /// [`DenialConstraint::violated_by_pair`] for the stored row `t1`
    /// and the candidate `t2`, both as keys aligned with `attrs`.
    #[inline]
    fn violated_by_pair(&self, t1: &[i64], t2: &[i64]) -> bool {
        let holds = |t1: &[i64], t2: &[i64]| {
            self.preds
                .iter()
                .all(|&(l, op, r)| op.holds(l.read(t1, t2).cmp(&r.read(t1, t2))))
        };
        holds(t1, t2) || holds(t2, t1)
    }

    fn count_new(&self, cand: &CandidateRow<'_>) -> u64 {
        // the candidate's row, read once per probe
        let mine: Vec<i64> = self.attrs.iter().map(|&a| order_key(cand.get(a))).collect();
        let rows = self
            .row_ids
            .iter()
            .zip(self.data.chunks_exact(self.attrs.len().max(1)));
        let mut count = 0;
        for (&row_id, stored) in rows {
            if row_id != cand.row() && self.violated_by_pair(stored, &mine) {
                count += 1;
            }
        }
        count
    }

    fn insert(&mut self, cand: &CandidateRow<'_>) {
        let prev = self.slot_of.insert(cand.row(), self.row_ids.len());
        assert!(prev.is_none(), "row {} inserted twice", cand.row());
        self.row_ids.push(cand.row());
        self.data
            .extend(self.attrs.iter().map(|&a| order_key(cand.get(a))));
    }

    fn remove(&mut self, cand: &CandidateRow<'_>) {
        let slot = self
            .slot_of
            .remove(&cand.row())
            .expect("removing a row that was never inserted");
        let stride = self.attrs.len();
        let last = self.row_ids.len() - 1;
        if slot != last {
            // move the tail row into the vacated slot
            let moved_id = self.row_ids[last];
            self.row_ids[slot] = moved_id;
            self.slot_of.insert(moved_id, slot);
            let (head, tail) = self.data.split_at_mut(last * stride);
            head[slot * stride..(slot + 1) * stride].copy_from_slice(tail);
        }
        self.row_ids.pop();
        self.data.truncate(last * stride);
    }
}

/// One equality partition of an [`OrderTable`]: the rows sharing one
/// equality-attribute key, as struct-of-arrays flipped order keys.
struct OrderPartition {
    /// Flipped keys of the first order attribute, one per slot.
    a: Vec<i64>,
    /// Flipped keys of the second order attribute.
    b: Vec<i64>,
    /// Slot → row id.
    ids: Vec<usize>,
}

/// The strict-order layout for `¬(eqs ∧ t1[A] opA t2[A] ∧ t1[B] opB t2[B])`:
/// rows are partitioned by their equality key, and each partition keeps
/// only the two order attributes as [`flipped_key`]s. With both keys
/// flipped, a stored row `r` and the candidate `c` violate exactly when
/// `r` lies strictly below `c` on both keys or strictly above on both, so
/// every operator combination is one fixed pair test.
struct OrderTable {
    order: StrictOrder,
    part_of: HashMap<Vec<u64>, usize>,
    parts: Vec<OrderPartition>,
    /// Row id → (partition, slot), maintained across swap-removes.
    slot_of: HashMap<usize, (usize, usize)>,
    /// Length of the largest partition: the most rows one probe visits.
    widest: usize,
}

impl OrderTable {
    fn new(order: StrictOrder) -> OrderTable {
        OrderTable {
            order,
            part_of: HashMap::new(),
            parts: Vec::new(),
            slot_of: HashMap::new(),
            widest: 0,
        }
    }

    /// The candidate's equality partition, if any row has landed in it.
    /// Allocation-free.
    fn partition(&self, cand: &CandidateRow<'_>) -> Option<&OrderPartition> {
        with_key(&self.order.eq_attrs, cand, |key| self.part_of.get(key)).map(|&p| &self.parts[p])
    }

    /// The partition for `key`, created empty if absent.
    fn partition_index(&mut self, key: Vec<u64>) -> usize {
        if let Some(&p) = self.part_of.get(&key) {
            return p;
        }
        let p = self.parts.len();
        self.part_of.insert(key, p);
        self.parts.push(OrderPartition {
            a: Vec::new(),
            b: Vec::new(),
            ids: Vec::new(),
        });
        p
    }

    #[inline]
    fn keys(&self, cand: &CandidateRow<'_>) -> (i64, i64) {
        let (a, op_a) = self.order.a;
        let (b, op_b) = self.order.b;
        (
            flipped_key(cand.get(a), op_a),
            flipped_key(cand.get(b), op_b),
        )
    }

    fn count_new(&self, cand: &CandidateRow<'_>) -> u64 {
        let Some(part) = self.partition(cand) else {
            return 0;
        };
        let (ca, cb) = self.keys(cand);
        let row = cand.row();
        part.a
            .iter()
            .zip(&part.b)
            .zip(&part.ids)
            .map(|((&ra, &rb), &id)| {
                let violates = ((ra < ca) & (rb < cb)) | ((ra > ca) & (rb > cb));
                u64::from(violates & (id != row))
            })
            .sum()
    }

    fn feasible_range(&self, cand: &CandidateRow<'_>, target: usize) -> Option<(f64, f64)> {
        let order = &self.order;
        let (op_t, target_is_a) = if order.a.0 == target {
            (order.a.1, true)
        } else if order.b.0 == target {
            (order.b.1, false)
        } else {
            return None;
        };
        // the band is an interval of numbers
        cand.get(target).as_num()?;
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        if let Some(part) = self.partition(cand) {
            let (ca, cb) = self.keys(cand);
            let (ts, others, o_cand) = if target_is_a {
                (&part.a, &part.b, cb)
            } else {
                (&part.b, &part.a, ca)
            };
            let row = cand.row();
            // In flipped-key space a row below the candidate on the other
            // attribute violates when the candidate's target key exceeds
            // the row's, and a row above violates when the candidate's is
            // the smaller, so the feasible target keys are [max over rows
            // above, min over rows below].
            for ((&t, &o), &id) in ts.iter().zip(others).zip(&part.ids) {
                let mine = id != row;
                hi = hi.min(if mine & (o < o_cand) { t } else { i64::MAX });
                lo = lo.max(if mine & (o > o_cand) { t } else { i64::MIN });
            }
        }
        // a `<` target was stored negated: negate back, swapping the sides
        let (lo, hi) = if op_t == CmpOp::Lt {
            (!hi, !lo)
        } else {
            (lo, hi)
        };
        let decode = |k: i64, unbounded: i64, inf: f64| {
            if k == unbounded {
                inf
            } else {
                f64::from_bits(total_order_bits(k) as u64)
            }
        };
        let lo = decode(lo, i64::MIN, f64::NEG_INFINITY);
        let hi = decode(hi, i64::MAX, f64::INFINITY);
        if lo <= hi {
            Some((lo, hi))
        } else {
            None // the prefix itself is inconsistent for this context
        }
    }

    /// Unordered violating pairs among the stored rows, in O(n log n). A
    /// pair violates exactly when one row lies strictly below the other on
    /// both flipped keys, so one case covers every operator pair: walk each
    /// partition in `a` order and, per block of equal `a`, count the
    /// earlier rows with a strictly smaller `b` before adding the block.
    fn stored_pairs(&self) -> u64 {
        let mut total = 0;
        for part in &self.parts {
            let mut bs = part.b.clone();
            bs.sort_unstable();
            bs.dedup();
            let rank = |slot: usize| bs.partition_point(|&b| b < part.b[slot]);
            let mut by_a: Vec<usize> = (0..part.ids.len()).collect();
            by_a.sort_unstable_by_key(|&slot| part.a[slot]);
            let mut below = Fenwick::new(bs.len());
            for block in by_a.chunk_by(|&s, &t| part.a[s] == part.a[t]) {
                total += block.iter().map(|&s| below.prefix(rank(s))).sum::<u64>();
                block.iter().for_each(|&s| below.add(rank(s)));
            }
        }
        total
    }

    fn insert(&mut self, cand: &CandidateRow<'_>) {
        let found = with_key(&self.order.eq_attrs, cand, |key| {
            self.part_of.get(key).copied()
        });
        let p = found.unwrap_or_else(|| {
            let key = self
                .order
                .eq_attrs
                .iter()
                .map(|&a| value_key(cand.get(a)))
                .collect();
            self.partition_index(key)
        });
        let (a, b) = self.keys(cand);
        let part = &mut self.parts[p];
        let prev = self.slot_of.insert(cand.row(), (p, part.ids.len()));
        assert!(prev.is_none(), "row {} inserted twice", cand.row());
        part.a.push(a);
        part.b.push(b);
        part.ids.push(cand.row());
        self.widest = self.widest.max(part.ids.len());
    }

    fn remove(&mut self, cand: &CandidateRow<'_>) {
        let (p, slot) = self
            .slot_of
            .remove(&cand.row())
            .expect("removing a row that was never inserted");
        let part = &mut self.parts[p];
        let was_widest = part.ids.len() == self.widest;
        part.a.swap_remove(slot);
        part.b.swap_remove(slot);
        part.ids.swap_remove(slot);
        if let Some(&moved) = part.ids.get(slot) {
            self.slot_of.insert(moved, (p, slot));
        }
        if was_widest {
            self.widest = self.parts.iter().map(|q| q.ids.len()).max().unwrap_or(0);
        }
    }
}

/// How a [`ScanIndex`] stores its rows; chosen from the DC's shape.
enum ScanLayout {
    /// Any binary DC: the generic row-major scan.
    Rows(RowTable),
    /// A strict-order DC: equality partitions of flipped order keys.
    Order(OrderTable),
}

/// Immutable-at-scoring-time prefix index for non-FD binary DCs, scored by
/// an exact scan. The layout follows from the DC's shape:
///
/// * a strict-order DC `¬(eqs ∧ A≶ ∧ B≶)` (see [`StrictOrder`]) is
///   partitioned by its equality key, and a probe scans only the
///   candidate's partition, two integer compares per row, with no branch
///   in the loop;
/// * every other binary DC keeps each row restricted to `A_φ` in one
///   contiguous row-major table and evaluates the DC's predicates against
///   every stored row, so scoring a candidate set walks adjacent memory
///   instead of chasing hash-map buckets.
///
/// Every method takes `&self`; mutation goes through the owning
/// [`DcCounter`]. Removal is swap-remove (a `row id → slot` side map keeps
/// lookups O(1)), so physical row order is arbitrary; every query here is
/// a fold that is independent of iteration order (violation counts sum,
/// feasible bounds are min/max), so the layout cannot change any answer.
pub struct ScanIndex {
    layout: ScanLayout,
}

impl ScanIndex {
    fn new(dc: &DenialConstraint) -> ScanIndex {
        let layout = match dc.as_strict_order() {
            Some(order) => ScanLayout::Order(OrderTable::new(order)),
            None => ScanLayout::Rows(RowTable::new(dc)),
        };
        ScanIndex { layout }
    }

    /// New violations the candidate would introduce against the prefix.
    fn count_new(&self, cand: &CandidateRow<'_>) -> u64 {
        match &self.layout {
            ScanLayout::Rows(t) => t.count_new(cand),
            ScanLayout::Order(t) => t.count_new(cand),
        }
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        match &self.layout {
            ScanLayout::Rows(t) => t.row_ids.len(),
            ScanLayout::Order(t) => t.slot_of.len(),
        }
    }

    /// Whether no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Most stored rows a single candidate score visits — every row for
    /// the generic layout, the largest equality partition for a strict
    /// order — the work counter the benchmarks report per probe.
    pub fn scan_cost(&self) -> usize {
        match &self.layout {
            ScanLayout::Rows(t) => t.row_ids.len(),
            ScanLayout::Order(t) => t.widest,
        }
    }

    fn insert(&mut self, cand: &CandidateRow<'_>) {
        match &mut self.layout {
            ScanLayout::Rows(t) => t.insert(cand),
            ScanLayout::Order(t) => t.insert(cand),
        }
    }

    fn remove(&mut self, cand: &CandidateRow<'_>) {
        match &mut self.layout {
            ScanLayout::Rows(t) => t.remove(cand),
            ScanLayout::Order(t) => t.remove(cand),
        }
    }

    /// Feasible interval for the `target` attribute of `cand` under a
    /// strict order DC (see [`DcCounter::feasible_range`]): the tightest
    /// closed bounds `[lo, hi]` such that any `v ∈ [lo, hi]` creates no
    /// violation with the candidate's equality partition. `None` for other
    /// DC shapes and for a categorical target.
    fn feasible_range(&self, cand: &CandidateRow<'_>, target: usize) -> Option<(f64, f64)> {
        match &self.layout {
            ScanLayout::Rows(_) => None,
            ScanLayout::Order(t) => t.feasible_range(cand, target),
        }
    }
}

/// The row-map reference twin of [`ScanIndex`]: stored rows live in
/// per-row heap allocations behind a hash map keyed by row id — the layout
/// the compact contiguous table replaced. `count_new` asks the exact same
/// question with the exact same per-pair predicate evaluation, so it must
/// return identical counts (parity-tested below); only memory layout — and
/// therefore scan speed — differs. Kept and exported so parity tests and
/// the `micro_substrates` candidate-scoring pair can pin the compact
/// layout against it.
pub struct ScanIndexRef {
    dc: DenialConstraint,
    attrs: Vec<usize>,
    rows: HashMap<usize, Vec<Value>>,
}

impl ScanIndexRef {
    /// Builds an empty reference index for `dc` (any binary shape).
    pub fn new(dc: &DenialConstraint) -> ScanIndexRef {
        ScanIndexRef {
            attrs: dc.attrs().into_iter().collect(),
            dc: dc.clone(),
            rows: HashMap::new(),
        }
    }

    /// Commits the candidate row (restricted to `A_φ`).
    pub fn insert(&mut self, cand: &CandidateRow<'_>) {
        let prev = self.rows.insert(
            cand.row(),
            self.attrs.iter().map(|&a| cand.get(a)).collect(),
        );
        assert!(prev.is_none(), "row {} inserted twice", cand.row());
    }

    /// New violations the candidate would introduce against the prefix.
    /// Hash-map iteration order is arbitrary, but the count is a sum, so
    /// the answer matches [`DcCounter::count_new`] exactly.
    pub fn count_new(&self, cand: &CandidateRow<'_>) -> u64 {
        let mut count = 0;
        for (&row_id, stored) in &self.rows {
            if row_id == cand.row() {
                continue;
            }
            let stored_get = |a: usize| {
                stored[self
                    .attrs
                    .iter()
                    .position(|&b| b == a)
                    .expect("attribute not in A_phi")]
            };
            if self.dc.violated_by_pair(&stored_get, &|a| cand.get(a)) {
                count += 1;
            }
        }
        count
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A `Copy` read-only view naming one counter's shape and prefix index,
/// from [`DcCounter::scorer`]. Scoring goes through [`DcCounter`] itself;
/// the view is kept for the benchmark package's constraint replay, which
/// matches on the variant and reads [`DcScorer::scan_cost`] as its work
/// counter.
#[derive(Clone, Copy)]
pub enum DcScorer<'a> {
    /// Unary DC: stateless evaluation of the candidate row.
    Unary(&'a DenialConstraint),
    /// FD-shaped binary DC: hash-index lookups.
    Fd(&'a FdIndex),
    /// Other binary DC: exact scan of the stored prefix (of the
    /// candidate's equality partition, for a strict order).
    Scan(&'a ScanIndex),
}

impl DcScorer<'_> {
    /// Prefix rows one candidate score visits (1 for O(1) counters) — the
    /// per-candidate work estimate.
    pub fn scan_cost(&self) -> usize {
        match self {
            DcScorer::Scan(ix) => ix.scan_cost().max(1),
            _ => 1,
        }
    }
}

/// Incremental violation counter for one DC: a prefix index plus the
/// mutation API. See the module docs for the per-shape strategies and the
/// read/write split.
pub enum DcCounter {
    /// Unary DC: stateless evaluation of the candidate row.
    Unary(DenialConstraint),
    /// FD-shaped binary DC: hash index on the determinant.
    Fd(FdIndex),
    /// Other binary DC: exact scan over stored prefix rows (see
    /// [`ScanIndex`] for the per-shape layouts).
    Scan(ScanIndex),
}

impl DcCounter {
    /// Chooses the best counter implementation for `dc`.
    pub fn build(dc: &DenialConstraint) -> DcCounter {
        if !dc.is_binary() {
            return DcCounter::Unary(dc.clone());
        }
        if let Some(fd) = dc.as_fd() {
            return DcCounter::Fd(FdIndex::new(fd));
        }
        DcCounter::Scan(ScanIndex::new(dc))
    }

    /// The read-only view naming this counter's shape and index.
    pub fn scorer(&self) -> DcScorer<'_> {
        match self {
            DcCounter::Unary(dc) => DcScorer::Unary(dc),
            DcCounter::Fd(ix) => DcScorer::Fd(ix),
            DcCounter::Scan(ix) => DcScorer::Scan(ix),
        }
    }

    /// `|V(φ, t_i | D_:i)|` if the candidate row were committed: the number
    /// of new violations against currently inserted rows (for binary DCs),
    /// or whether the row itself violates (for unary DCs).
    pub fn count_new(&self, cand: &CandidateRow<'_>) -> u64 {
        match self {
            DcCounter::Unary(dc) => u64::from(dc.violated_by_tuple(|a| cand.get(a))),
            DcCounter::Fd(ix) => ix.count_new(cand),
            DcCounter::Scan(ix) => ix.count_new(cand),
        }
    }

    /// Commits the candidate row into the prefix state.
    pub fn insert(&mut self, cand: &CandidateRow<'_>) {
        match self {
            DcCounter::Unary(_) => {}
            DcCounter::Fd(ix) => ix.insert(cand),
            DcCounter::Scan(ix) => ix.insert(cand),
        }
    }

    /// Removes a previously inserted row (its values must match what was
    /// inserted — pass a [`CandidateRow::committed`] view). Used by MCMC.
    pub fn remove(&mut self, cand: &CandidateRow<'_>) {
        match self {
            DcCounter::Unary(_) => {}
            DcCounter::Fd(ix) => ix.remove(cand),
            DcCounter::Scan(ix) => ix.remove(cand),
        }
    }

    /// For hard FDs (§7.3.6 optimization): the dependent value every member
    /// of the candidate's determinant group carries, if the group exists
    /// and is internally consistent. `None` for non-FD counters, unseen
    /// groups, or inconsistent groups.
    pub fn required_value(&self, cand: &CandidateRow<'_>) -> Option<Value> {
        match self {
            DcCounter::Fd(ix) => ix.required_value(cand),
            _ => None,
        }
    }

    /// For FD counters, the dependent (right-hand-side) attribute of the
    /// FD; `None` otherwise. The sampler's hard-FD fast path only applies
    /// [`Self::required_value`] when the attribute being sampled *is* the
    /// dependent.
    pub fn fd_rhs(&self) -> Option<usize> {
        match self {
            DcCounter::Fd(ix) => Some(ix.fd.rhs),
            _ => None,
        }
    }

    /// For strict-order DCs (`¬(eqs ∧ A≶ ∧ B≶)`), the closed interval of
    /// `target` values that create *no* violation against the inserted
    /// rows, given the candidate's other attribute values. `None` when the
    /// DC is not order-shaped, `target` is not one of its numeric order
    /// attributes, or the prefix is already inconsistent for this context
    /// (the band would be empty). Unbounded sides come back as ±∞.
    ///
    /// If the inserted rows are violation-free, the band is always
    /// non-empty: for rows `r₁, r₂` with `other(r₁) ≶ other(cand) ≶
    /// other(r₂)`, consistency of `(r₁, r₂)` forces their target values to
    /// be ordered compatibly.
    pub fn feasible_range(&self, cand: &CandidateRow<'_>, target: usize) -> Option<(f64, f64)> {
        match self {
            DcCounter::Scan(ix) => ix.feasible_range(cand, target),
            _ => None,
        }
    }

    /// Number of rows currently inserted (0 for unary counters, which keep
    /// no state).
    pub fn len(&self) -> usize {
        match self {
            DcCounter::Unary(_) => 0,
            DcCounter::Fd(ix) => ix.n_rows,
            DcCounter::Scan(ix) => ix.len(),
        }
    }

    /// Whether no rows are inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// For a strict-order counter, the unordered violating pairs among
    /// the inserted rows, counted in O(n log n); `None` for other shapes.
    pub(crate) fn stored_order_pairs(&self) -> Option<u64> {
        match self {
            DcCounter::Scan(ScanIndex {
                layout: ScanLayout::Order(t),
                ..
            }) => Some(t.stored_pairs()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Hardness;
    use crate::parser::parse_dc;
    use kamino_data::{Attribute, Instance, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical_indexed("edu", 4).unwrap(),
            Attribute::integer("edu_num", 1.0, 16.0, 16).unwrap(),
            Attribute::numeric("gain", 0.0, 100.0, 10).unwrap(),
            Attribute::numeric("loss", 0.0, 100.0, 10).unwrap(),
        ])
        .unwrap()
    }

    fn inst(s: &Schema, rows: &[(u32, f64, f64, f64)]) -> Instance {
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(e, en, g, l)| vec![Value::Cat(e), Value::Num(en), Value::Num(g), Value::Num(l)])
            .collect();
        Instance::from_rows(s, &rows).unwrap()
    }

    fn fd_dc(s: &Schema) -> DenialConstraint {
        parse_dc(
            s,
            "fd",
            "!(t1.edu == t2.edu & t1.edu_num != t2.edu_num)",
            Hardness::Hard,
        )
        .unwrap()
    }

    fn ord_dc(s: &Schema) -> DenialConstraint {
        parse_dc(
            s,
            "ord",
            "!(t1.gain > t2.gain & t1.loss < t2.loss)",
            Hardness::Hard,
        )
        .unwrap()
    }

    /// Eqn. (3): the sum of incremental counts over the tuple sequence
    /// equals the total violation count of a pair scan.
    fn check_chain_rule(dc: &DenialConstraint, d: &Instance, target: usize) {
        let mut counter = DcCounter::build(dc);
        let mut incremental_sum = 0;
        for i in 0..d.n_rows() {
            let cand = CandidateRow::committed(d, i, target);
            incremental_sum += counter.count_new(&cand);
            counter.insert(&cand);
        }
        let pairs = (0..d.n_rows())
            .flat_map(|i| (i + 1..d.n_rows()).map(move |j| (i, j)))
            .filter(|&(i, j)| dc.violated_by_pair(&|a| d.value(i, a), &|a| d.value(j, a)))
            .count() as u64;
        assert_eq!(incremental_sum, pairs, "chain rule violated");
    }

    #[test]
    fn fd_counter_chain_rule() {
        let s = schema();
        let d = inst(
            &s,
            &[
                (0, 10.0, 0.0, 0.0),
                (0, 10.0, 0.0, 0.0),
                (0, 12.0, 0.0, 0.0),
                (1, 10.0, 0.0, 0.0),
                (1, 11.0, 0.0, 0.0),
                (0, 13.0, 0.0, 0.0),
            ],
        );
        check_chain_rule(&fd_dc(&s), &d, 1);
    }

    #[test]
    fn compact_scan_matches_rowmap_reference() {
        // The contiguous-table ScanIndex and its row-map reference twin
        // must answer every candidate count identically over the same
        // committed prefix (layout may never change an answer).
        let s = schema();
        let dc = ord_dc(&s);
        let rows: Vec<(u32, f64, f64, f64)> = (0..80)
            .map(|i| {
                let i = i as f64;
                (0, 0.0, (i * 13.0) % 97.0, (i * 7.0) % 53.0)
            })
            .collect();
        let d = inst(&s, &rows);
        let mut compact = DcCounter::build(&dc);
        let mut reference = ScanIndexRef::new(&dc);
        for i in 0..d.n_rows() - 1 {
            let cand = CandidateRow::committed(&d, i, 3);
            compact.insert(&cand);
            reference.insert(&cand);
        }
        let cell = CellContext::new(&d, d.n_rows() - 1, 3);
        for k in 0..40 {
            let cand = cell.with(Value::Num(k as f64 * 2.5));
            assert_eq!(
                compact.count_new(&cand),
                reference.count_new(&cand),
                "candidate {k} diverged from the row-map reference"
            );
        }
        assert_eq!(compact.len(), reference.len());
    }

    #[test]
    fn scan_counter_chain_rule() {
        let s = schema();
        let d = inst(
            &s,
            &[
                (0, 0.0, 10.0, 1.0),
                (0, 0.0, 5.0, 9.0),
                (0, 0.0, 7.0, 7.0),
                (0, 0.0, 10.0, 1.0),
                (0, 0.0, 2.0, 2.0),
            ],
        );
        check_chain_rule(&ord_dc(&s), &d, 3);
    }

    #[test]
    fn fd_candidate_counts() {
        let s = schema();
        let dc = fd_dc(&s);
        let d = inst(
            &s,
            &[(0, 10.0, 0.0, 0.0), (0, 10.0, 0.0, 0.0), (1, 5.0, 0.0, 0.0)],
        );
        let mut counter = DcCounter::build(&dc);
        for i in 0..3 {
            counter.insert(&CandidateRow::committed(&d, i, 1));
        }
        // hypothetical 4th row with edu=0
        let probe = inst(
            &s,
            &[
                (0, 10.0, 0.0, 0.0),
                (0, 10.0, 0.0, 0.0),
                (1, 5.0, 0.0, 0.0),
                (0, 0.0, 0.0, 0.0),
            ],
        );
        // edu_num = 10 matches the group: no new violations
        assert_eq!(
            counter.count_new(&CandidateRow::new(&probe, 3, 1, Value::Num(10.0))),
            0
        );
        // edu_num = 11 conflicts with both group members
        assert_eq!(
            counter.count_new(&CandidateRow::new(&probe, 3, 1, Value::Num(11.0))),
            2
        );
        // unseen determinant: no violations either way
        let probe2 = inst(
            &s,
            &[
                (0, 10.0, 0.0, 0.0),
                (0, 10.0, 0.0, 0.0),
                (1, 5.0, 0.0, 0.0),
                (3, 0.0, 0.0, 0.0),
            ],
        );
        assert_eq!(
            counter.count_new(&CandidateRow::new(&probe2, 3, 1, Value::Num(1.0))),
            0
        );
    }

    #[test]
    fn fd_required_value_lookup() {
        let s = schema();
        let dc = fd_dc(&s);
        let d = inst(
            &s,
            &[(0, 10.0, 0.0, 0.0), (0, 10.0, 0.0, 0.0), (1, 5.0, 0.0, 0.0)],
        );
        let mut counter = DcCounter::build(&dc);
        for i in 0..3 {
            counter.insert(&CandidateRow::committed(&d, i, 1));
        }
        let probe = inst(&s, &[(0, 0.0, 0.0, 0.0)]);
        let cand = CandidateRow::new(&probe, 0, 1, Value::Num(0.0));
        assert_eq!(counter.required_value(&cand), Some(Value::Num(10.0)));
        assert_eq!(counter.fd_rhs(), Some(1));
        // only an FD counter has a dependent or a required value
        let mut ord = DcCounter::build(&ord_dc(&s));
        ord.insert(&CandidateRow::committed(&d, 0, 1));
        assert_eq!(ord.fd_rhs(), None);
        assert_eq!(ord.required_value(&cand), None);
        // inconsistent group → None
        let d2 = inst(&s, &[(2, 1.0, 0.0, 0.0), (2, 2.0, 0.0, 0.0)]);
        let mut c2 = DcCounter::build(&dc);
        for i in 0..2 {
            c2.insert(&CandidateRow::committed(&d2, i, 1));
        }
        let probe2 = inst(&s, &[(2, 0.0, 0.0, 0.0)]);
        assert_eq!(
            c2.required_value(&CandidateRow::new(&probe2, 0, 1, Value::Num(0.0))),
            None
        );
        // unseen group → None
        let probe3 = inst(&s, &[(3, 0.0, 0.0, 0.0)]);
        assert_eq!(
            c2.required_value(&CandidateRow::new(&probe3, 0, 1, Value::Num(0.0))),
            None
        );
    }

    #[test]
    fn remove_then_requery_supports_mcmc() {
        let s = schema();
        let dc = ord_dc(&s);
        let d = inst(
            &s,
            &[(0, 0.0, 10.0, 1.0), (0, 0.0, 5.0, 9.0), (0, 0.0, 7.0, 7.0)],
        );
        let mut counter = DcCounter::build(&dc);
        for i in 0..3 {
            counter.insert(&CandidateRow::committed(&d, i, 3));
        }
        // take row 1 out and ask: what if its loss were 0.5?
        counter.remove(&CandidateRow::committed(&d, 1, 3));
        assert_eq!(counter.len(), 2);
        // gain=5, loss=0.5: rows 0 (10, 1) and 2 (7, 7) both have larger
        // gain and larger loss → no violation either orientation for row 0?
        // (10 > 5 ∧ 1 < 0.5)=false, (5 > 10 ∧ 0.5 < 1)=false → ok;
        // row 2: (7 > 5 ∧ 7 < 0.5)=false, (5 > 7 ...)=false → ok.
        assert_eq!(
            counter.count_new(&CandidateRow::new(&d, 1, 3, Value::Num(0.5))),
            0
        );
        // what if loss were 20? row0: (10>5 ∧ 1<20) → violation. row2:
        // (7>5 ∧ 7<20) → violation.
        assert_eq!(
            counter.count_new(&CandidateRow::new(&d, 1, 3, Value::Num(20.0))),
            2
        );
        // reinsert the original and the state is consistent again
        counter.insert(&CandidateRow::committed(&d, 1, 3));
        assert_eq!(counter.len(), 3);
    }

    #[test]
    fn fd_remove_roundtrip() {
        let s = schema();
        let dc = fd_dc(&s);
        let d = inst(&s, &[(0, 10.0, 0.0, 0.0), (0, 12.0, 0.0, 0.0)]);
        let mut counter = DcCounter::build(&dc);
        counter.insert(&CandidateRow::committed(&d, 0, 1));
        counter.insert(&CandidateRow::committed(&d, 1, 1));
        counter.remove(&CandidateRow::committed(&d, 1, 1));
        let probe = inst(&s, &[(0, 0.0, 0.0, 0.0)]);
        assert_eq!(
            counter.count_new(&CandidateRow::new(&probe, 0, 1, Value::Num(12.0))),
            1
        );
        assert_eq!(
            counter.required_value(&CandidateRow::new(&probe, 0, 1, Value::Num(0.0))),
            Some(Value::Num(10.0))
        );
    }

    #[test]
    fn unary_counter_is_stateless() {
        let s = schema();
        let dc = parse_dc(&s, "u", "!(t1.gain > 90)", Hardness::Hard).unwrap();
        let mut counter = DcCounter::build(&dc);
        assert!(counter.is_empty());
        let d = inst(&s, &[(0, 0.0, 50.0, 0.0)]);
        assert_eq!(
            counter.count_new(&CandidateRow::new(&d, 0, 2, Value::Num(95.0))),
            1
        );
        assert_eq!(
            counter.count_new(&CandidateRow::new(&d, 0, 2, Value::Num(10.0))),
            0
        );
        counter.insert(&CandidateRow::committed(&d, 0, 2));
        assert_eq!(counter.len(), 0);
    }

    #[test]
    fn scan_counter_ignores_same_row_id() {
        // During MCMC a row may still be present while probing itself is a
        // bug; count_new must never pair a row with itself.
        let s = schema();
        let dc = ord_dc(&s);
        let d = inst(&s, &[(0, 0.0, 10.0, 1.0)]);
        let mut counter = DcCounter::build(&dc);
        counter.insert(&CandidateRow::committed(&d, 0, 3));
        assert_eq!(
            counter.count_new(&CandidateRow::new(&d, 0, 3, Value::Num(50.0))),
            0
        );
    }

    #[test]
    fn feasible_range_for_order_dc() {
        let s = schema();
        let dc = ord_dc(&s); // ¬(gain↑ ∧ loss↓): loss must be monotone in gain
                             // rows 0 and 1 are the inserted prefix; rows 2 and 3 are probes
                             // (probe row ids must differ from inserted ids, as during sampling)
        let d = inst(
            &s,
            &[
                (0, 0.0, 2.0, 10.0),
                (0, 0.0, 8.0, 30.0),
                (0, 0.0, 5.0, 0.0),
                (0, 0.0, 1.0, 0.0),
            ],
        );
        let mut counter = DcCounter::build(&dc);
        for i in 0..2 {
            counter.insert(&CandidateRow::committed(&d, i, 3));
        }
        // new row with gain = 5 (between 2 and 8): loss ∈ [10, 30]
        let cand = CandidateRow::new(&d, 2, 3, Value::Num(0.0));
        let (lo, hi) = counter.feasible_range(&cand, 3).unwrap();
        assert_eq!((lo, hi), (10.0, 30.0));
        // gain = 1 (below both): loss ∈ (−∞, 10]
        let cand2 = CandidateRow::new(&d, 3, 3, Value::Num(0.0));
        let (lo2, hi2) = counter.feasible_range(&cand2, 3).unwrap();
        assert_eq!(hi2, 10.0);
        assert_eq!(lo2, f64::NEG_INFINITY);
        // any value inside the band really is violation-free
        for v in [10.0, 20.0, 30.0] {
            assert_eq!(
                counter.count_new(&CandidateRow::new(&d, 2, 3, Value::Num(v))),
                0
            );
        }
        // and just outside, it is not
        assert!(counter.count_new(&CandidateRow::new(&d, 2, 3, Value::Num(9.0))) > 0);
        assert!(counter.count_new(&CandidateRow::new(&d, 2, 3, Value::Num(31.0))) > 0);
    }

    #[test]
    fn feasible_range_respects_equality_groups() {
        let s = schema();
        // same-edu pairs only: ¬(edu= ∧ gain↑ ∧ loss↓)
        let dc = parse_dc(
            &s,
            "grp",
            "!(t1.edu == t2.edu & t1.gain > t2.gain & t1.loss < t2.loss)",
            Hardness::Hard,
        )
        .unwrap();
        let d = inst(
            &s,
            &[(0, 0.0, 2.0, 10.0), (1, 0.0, 2.0, 99.0), (0, 0.0, 5.0, 0.0)],
        );
        let mut counter = DcCounter::build(&dc);
        for i in 0..2 {
            counter.insert(&CandidateRow::committed(&d, i, 3));
        }
        // candidate in edu group 0 with gain 5 ignores the edu-1 row
        let cand = CandidateRow::new(&d, 2, 3, Value::Num(0.0));
        let (lo, hi) = counter.feasible_range(&cand, 3).unwrap();
        assert_eq!(lo, 10.0);
        assert_eq!(hi, f64::INFINITY);
    }

    #[test]
    fn feasible_range_none_for_wrong_shapes() {
        let s = schema();
        let fd = fd_dc(&s);
        let counter = DcCounter::build(&fd);
        let d = inst(&s, &[(0, 0.0, 0.0, 0.0)]);
        let cand = CandidateRow::new(&d, 0, 1, Value::Num(0.0));
        assert!(counter.feasible_range(&cand, 1).is_none());
        // order counter asked about a non-order attribute
        let ord = DcCounter::build(&ord_dc(&s));
        assert!(ord.feasible_range(&cand, 0).is_none());
    }

    #[test]
    fn feasible_range_none_when_prefix_inconsistent() {
        let s = schema();
        let dc = ord_dc(&s);
        // rows 0 and 1 already violate each other
        let d = inst(
            &s,
            &[(0, 0.0, 2.0, 50.0), (0, 0.0, 8.0, 10.0), (0, 0.0, 5.0, 0.0)],
        );
        let mut counter = DcCounter::build(&dc);
        for i in 0..2 {
            counter.insert(&CandidateRow::committed(&d, i, 3));
        }
        let cand = CandidateRow::new(&d, 2, 3, Value::Num(0.0));
        // band would be [50, 10] — empty
        assert!(counter.feasible_range(&cand, 3).is_none());
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let s = schema();
        let dc = ord_dc(&s);
        let d = inst(&s, &[(0, 0.0, 1.0, 1.0)]);
        let mut counter = DcCounter::build(&dc);
        counter.insert(&CandidateRow::committed(&d, 0, 3));
        counter.insert(&CandidateRow::committed(&d, 0, 3));
    }

    #[test]
    fn order_key_orders_like_value_compare() {
        let nums = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            0.5,
            1.0,
            f64::INFINITY,
        ];
        let vals: Vec<Value> = nums.iter().map(|&x| Value::Num(x)).collect();
        for &u in &vals {
            for &v in &vals {
                assert_eq!(order_key(u).cmp(&order_key(v)), u.compare(v), "{u} vs {v}");
            }
            // and the key decodes back to the (zero-normalized) number
            let back = f64::from_bits(total_order_bits(order_key(u)) as u64);
            assert_eq!(back.to_bits(), (u.num() + 0.0).to_bits());
        }
        assert!(order_key(Value::Cat(2)) < order_key(Value::Cat(3)));
        for op in [CmpOp::Gt, CmpOp::Lt] {
            for &u in &vals {
                for &v in &vals {
                    let flipped = flipped_key(u, op) > flipped_key(v, op);
                    assert_eq!(flipped, op.eval(u, v), "{u} {} {v}", op.symbol());
                }
            }
        }
    }

    #[test]
    fn order_layout_matches_rowmap_reference_for_every_op_pair() {
        let s = schema();
        let rows: Vec<(u32, f64, f64, f64)> = (0..60)
            .map(|i| {
                let i = i as f64;
                ((i as u32) % 3, 0.0, (i * 7.0) % 11.0, (i * 5.0) % 13.0)
            })
            .collect();
        let d = inst(&s, &rows);
        for (op_a, op_b) in [(">", ">"), (">", "<"), ("<", ">"), ("<", "<")] {
            let text =
                format!("!(t1.edu == t2.edu & t1.gain {op_a} t2.gain & t1.loss {op_b} t2.loss)");
            let dc = parse_dc(&s, "grp", &text, Hardness::Soft).unwrap();
            let mut counter = DcCounter::build(&dc);
            let mut reference = ScanIndexRef::new(&dc);
            for i in 0..40 {
                let cand = CandidateRow::committed(&d, i, 3);
                counter.insert(&cand);
                reference.insert(&cand);
            }
            // probe stored rows (own row id) and fresh rows, at values
            // that tie stored ones
            for row in [0, 7, 39, 40, 59] {
                for k in 0..14 {
                    let cand = CandidateRow::new(&d, row, 3, Value::Num(k as f64));
                    assert_eq!(
                        counter.count_new(&cand),
                        reference.count_new(&cand),
                        "{text}"
                    );
                }
            }
        }
    }

    #[test]
    fn order_layout_scan_cost_is_the_widest_partition() {
        let s = schema();
        let dc = parse_dc(
            &s,
            "grp",
            "!(t1.edu == t2.edu & t1.gain > t2.gain & t1.loss < t2.loss)",
            Hardness::Hard,
        )
        .unwrap();
        // edu 0 holds three rows, edu 1 two, edu 2 one
        let d = inst(
            &s,
            &[
                (0, 0.0, 1.0, 1.0),
                (0, 0.0, 2.0, 2.0),
                (0, 0.0, 3.0, 3.0),
                (1, 0.0, 1.0, 1.0),
                (1, 0.0, 2.0, 2.0),
                (2, 0.0, 1.0, 1.0),
            ],
        );
        let mut counter = DcCounter::build(&dc);
        for i in 0..6 {
            counter.insert(&CandidateRow::committed(&d, i, 3));
        }
        assert_eq!(counter.len(), 6);
        assert_eq!(counter.scorer().scan_cost(), 3);
        counter.remove(&CandidateRow::committed(&d, 1, 3));
        assert_eq!(counter.scorer().scan_cost(), 2);
        counter.remove(&CandidateRow::committed(&d, 0, 3));
        counter.remove(&CandidateRow::committed(&d, 2, 3));
        assert_eq!(counter.scorer().scan_cost(), 2);
        assert_eq!(counter.len(), 3);
        // a swap-removed slot keeps answering for the row moved into it
        counter.remove(&CandidateRow::committed(&d, 3, 3));
        let probe = CandidateRow::new(&d, 3, 3, Value::Num(5.0));
        assert_eq!(
            counter.count_new(&probe),
            1,
            "edu 1 row (2, 2) is discordant"
        );
        counter.remove(&CandidateRow::committed(&d, 4, 3));
        assert_eq!(counter.count_new(&probe), 0);
    }
}
