//! The simulator's deterministic event queue: a hierarchical timing
//! wheel, verified against a reference binary heap.
//!
//! The ordering contract: entries pop in `(time, push sequence)` order,
//! so simultaneous events fire in insertion order and runs are fully
//! deterministic. The `BinaryHeap` the wheel replaced lives on in this
//! module's tests as the reference: a property test drives both through
//! random push/pop schedules and demands identical output.
//!
//! One contract restriction makes the wheel possible: a push may not
//! name a time earlier than the most recently popped entry's time. The
//! simulator always schedules at `now + delta`, so it satisfies this by
//! construction; the wheel debug-asserts and clamps otherwise.

use std::collections::VecDeque;

/// Bits per wheel level: 64 slots each.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Level-0 tick granularity in bits: one bucket spans `2^TICK_SHIFT`
/// nanoseconds. Simulator deltas are link-serialization scale (a 1 KB
/// packet at 40 Gbps is 200 ns; propagation is 500 ns; PFC reaction
/// 1 µs), so 128 ns buckets put the overwhelming majority of pushes
/// directly into level 0's 8.2 µs window — one placement, no cascade.
const TICK_SHIFT: u32 = 7;
/// 10 levels x 6 bits on top of the 7-bit tick = 67 bits, covering the
/// whole `u64` time range.
const LEVELS: usize = 10;
/// Cap on the recycled-slot-vector pool (see [`TimingWheel`] docs).
const POOL_CAP: usize = 64;

/// One queued entry: `(time, sequence, payload)`.
type Entry<T> = (u64, u64, T);

/// Hierarchical timing wheel (Varghese–Lauck style): 10 levels of 64
/// slots over a 128 ns tick, level `l` bucketing times by bit block
/// `[7 + 6l, 7 + 6l + 6)` relative to the cursor. A level-0 bucket
/// spans one tick and may hold several timestamps; it is sorted by
/// `(time, sequence)` once when the cursor harvests it, which
/// reproduces the heap's order exactly. Higher-level slots cascade
/// down as the cursor enters their window, but with the tick matched
/// to the simulator's event deltas cascades are rare.
///
/// Push and pop are O(1) amortised — a pop advances the cursor with one
/// `trailing_zeros` per occupancy word instead of the heap's O(log n)
/// sift, which is what makes million-packet scenario sweeps viable.
///
/// Allocation on the hot path is avoided entirely: level-0 buckets are
/// drained in place (capacity retained for the cursor's next lap), and
/// the slot vectors emptied by cascades return to a small freelist and
/// are reused instead of being dropped, so steady-state operation
/// allocates nothing.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// `LEVELS * SLOTS` slot vectors, level-major.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level occupancy bitmask (bit `i` = slot `i` non-empty).
    occ: [u64; LEVELS],
    /// Current bucket (time >> `TICK_SHIFT`) of the wheel: the bucket
    /// most recently harvested into `ready`.
    cursor: u64,
    /// Exact time of the most recently popped entry — the contract's
    /// lower bound for pushes (finer-grained than the bucket cursor).
    floor: u64,
    /// True once the bucket at `cursor` has been harvested into
    /// `ready` — same-bucket pushes must then insert into `ready`
    /// directly (in sorted position) rather than into the slot.
    harvested: bool,
    /// Entries of the harvested bucket, sorted by `(time, sequence)`.
    ready: VecDeque<Entry<T>>,
    /// Recycled slot vectors (pooled allocation).
    pool: Vec<Vec<Entry<T>>>,
    len: usize,
    seq: u64,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        TimingWheel {
            slots,
            occ: [0; LEVELS],
            cursor: 0,
            floor: 0,
            harvested: false,
            ready: VecDeque::new(),
            pool: Vec::new(),
            len: 0,
            seq: 0,
        }
    }
}

impl<T> TimingWheel<T> {
    /// Enqueues `item` at `at`. Times earlier than the last popped time
    /// are outside the contract: debug builds assert, release builds
    /// clamp to the cursor.
    pub fn push(&mut self, at: u64, item: T) {
        self.seq += 1;
        self.len += 1;
        let seq = self.seq;
        self.place((at, seq, item));
    }

    /// Dequeues the entry with the smallest `(time, sequence)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some((t, _, item)) = self.ready.pop_front() {
                self.len -= 1;
                self.floor = t;
                return Some((t, item));
            }
            self.advance();
        }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Files an entry into `ready` (same-bucket fast path) or the slot
    /// its bucket belongs to relative to the cursor.
    fn place(&mut self, entry: (u64, u64, T)) {
        let (at, seq, item) = entry;
        debug_assert!(at >= self.floor, "push at {at} behind floor {}", self.floor);
        let at = at.max(self.floor);
        let bucket = at >> TICK_SHIFT;
        if bucket == self.cursor && self.harvested {
            // The cursor's bucket is already draining: insert in
            // `(time, seq)` position. Entries already popped all sort
            // strictly below `(floor, ..)` ≤ `(at, seq)`, so order
            // across the whole pop stream is preserved.
            let pos = self.ready.partition_point(|e| (e.0, e.1) <= (at, seq));
            self.ready.insert(pos, (at, seq, item));
            return;
        }
        let diff = bucket ^ self.cursor;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((bucket >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push((at, seq, item));
        self.occ[level] |= 1 << slot;
    }

    /// Moves the cursor to the next pending bucket and harvests it into
    /// `ready`. Caller guarantees `len > 0`.
    fn advance(&mut self) {
        loop {
            // Scan the rest of the level-0 window (64 consecutive
            // buckets) for the next occupied slot.
            let start = (self.cursor & (SLOTS as u64 - 1)) as u32;
            let mask = self.occ[0] & (!0u64 << start);
            if mask != 0 {
                let idx = mask.trailing_zeros();
                self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | idx as u64;
                self.harvested = true;
                self.occ[0] &= !(1 << idx);
                // Drain in place (split borrow): the slot keeps its
                // capacity for the cursor's next lap, so the hot path
                // allocates nothing and moves no Vec headers around.
                let (slots, ready) = (&mut self.slots, &mut self.ready);
                let slot = &mut slots[idx as usize];
                // A bucket spans one tick and can hold many timestamps
                // in push order; one sort here reproduces the heap's
                // global `(time, seq)` order.
                slot.sort_unstable_by_key(|e| (e.0, e.1));
                ready.extend(slot.drain(..));
                return;
            }
            self.cascade();
        }
    }

    /// The level-0 window is exhausted: jump the cursor to the next
    /// occupied higher-level slot's window and redistribute its entries
    /// into lower levels.
    fn cascade(&mut self) {
        for level in 1..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let idx = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
            // Slot `idx` was expanded when the cursor entered it; slots
            // before it are in the past. Only strictly-later slots count.
            if idx as usize + 1 >= SLOTS {
                continue;
            }
            let mask = self.occ[level] & (!0u64 << (idx + 1));
            if mask == 0 {
                continue;
            }
            let nidx = mask.trailing_zeros();
            // Jump to the found window's start: keep the bits above this
            // level, substitute the slot index, zero everything below.
            let above = if shift + SLOT_BITS >= 64 {
                0
            } else {
                self.cursor & !((1u64 << (shift + SLOT_BITS)) - 1)
            };
            self.cursor = above | (nidx as u64) << shift;
            self.harvested = false;
            self.occ[level] &= !(1 << nidx);
            let mut vec = std::mem::replace(
                &mut self.slots[level * SLOTS + nidx as usize],
                self.pool.pop().unwrap_or_default(),
            );
            for entry in vec.drain(..) {
                self.place(entry);
            }
            if self.pool.len() < POOL_CAP {
                self.pool.push(vec);
            }
            return;
        }
        unreachable!(
            "timing wheel corrupt: {} pending but no occupied slot",
            self.len
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference: a `BinaryHeap` over `(time, seq)`, the pre-wheel
    /// implementation.
    #[derive(Debug)]
    struct BinaryHeapQueue<T> {
        heap: BinaryHeap<Reverse<Keyed<T>>>,
        seq: u64,
    }

    impl<T> Default for BinaryHeapQueue<T> {
        fn default() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
    }

    /// Heap element ordered by `(time, seq)` only; the payload is never
    /// compared.
    #[derive(Debug)]
    struct Keyed<T>(u64, u64, T);

    impl<T> PartialEq for Keyed<T> {
        fn eq(&self, other: &Self) -> bool {
            (self.0, self.1) == (other.0, other.1)
        }
    }
    impl<T> Eq for Keyed<T> {}
    impl<T> PartialOrd for Keyed<T> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T> Ord for Keyed<T> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.0, self.1).cmp(&(other.0, other.1))
        }
    }

    impl<T> BinaryHeapQueue<T> {
        fn push(&mut self, at: u64, item: T) {
            self.seq += 1;
            self.heap.push(Reverse(Keyed(at, self.seq, item)));
        }

        fn pop(&mut self) -> Option<(u64, T)> {
            self.heap.pop().map(|Reverse(Keyed(t, _, item))| (t, item))
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    #[test]
    fn wheel_pops_in_time_order() {
        let mut q = TimingWheel::default();
        for &t in &[30u64, 10, 20, 1_000_000, 65, 64, 63, 4096, 262144] {
            q.push(t, t);
        }
        let mut out = Vec::new();
        while let Some((t, v)) = q.pop() {
            assert_eq!(t, v);
            out.push(t);
        }
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted);
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn wheel_simultaneous_fifo() {
        let mut q = TimingWheel::default();
        q.push(5, 1u32);
        q.push(5, 2);
        q.push(5, 3);
        let vals: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn wheel_interleaved_push_pop_keeps_order() {
        // A same-timestamp push landing while its slot is draining, and
        // a far-future entry cascading down next to a near one pushed
        // later — both must keep (time, seq) order.
        let mut q = TimingWheel::default();
        q.push(100, 1u32); // level 1 (cursor 0)
        q.push(1_000_000, 2);
        assert_eq!(q.pop(), Some((100, 1)));
        q.push(100, 3); // same time as the cursor, slot already drained
        q.push(100, 4);
        assert_eq!(q.pop(), Some((100, 3)));
        assert_eq!(q.pop(), Some((100, 4)));
        q.push(1_000_000, 5); // direct push beside the cascaded entry
        assert_eq!(q.pop(), Some((1_000_000, 2)));
        assert_eq!(q.pop(), Some((1_000_000, 5)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_matches_heap_on_dense_schedule() {
        let mut wheel = TimingWheel::default();
        let mut heap = BinaryHeapQueue::default();
        // Deterministic pseudo-random mixed schedule.
        let mut x = 0x12345678u64;
        let mut now = 0u64;
        let step = |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        for round in 0..5_000u64 {
            let jitter = step(&mut x) % 10_000;
            wheel.push(now + jitter, round);
            heap.push(now + jitter, round);
            if step(&mut x) % 3 == 0 {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t;
                }
            }
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn len_and_empty() {
        let mut q: TimingWheel<u8> = TimingWheel::default();
        assert!(q.is_empty());
        q.push(1, 0);
        q.push(1 << 40, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// One schedule step: push an event some delta past the current time,
    /// or pop. Pushes respect the wheel's contract (never behind the most
    /// recently popped time) exactly as the simulator does — it only ever
    /// schedules at `now + delta`.
    #[derive(Clone, Debug)]
    enum Op {
        /// Push at `last_popped + delta` (deltas up to ~16 M ns cross every
        /// wheel level a simulation horizon touches).
        Push(u64),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Listed twice to bias toward pushes (the vendored `prop_oneof!`
        // takes no weights): queues that mostly grow exercise more levels.
        prop_oneof![
            (0u64..16_000_000).prop_map(Op::Push),
            (0u64..2_000).prop_map(Op::Push),
            Just(Op::Pop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wheel_and_heap_pop_identically(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            let mut wheel = TimingWheel::default();
            let mut heap = BinaryHeapQueue::default();
            let mut now = 0u64;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Push(delta) => {
                        wheel.push(now + delta, i);
                        heap.push(now + delta, i);
                    }
                    Op::Pop => {
                        let a = wheel.pop();
                        let b = heap.pop();
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a {
                            now = t;
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.is_empty(), heap.is_empty());
            }
            // Drain both to empty: tails must match element for element.
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Bursts of simultaneous events keep FIFO order on both backends.
        #[test]
        fn simultaneous_bursts_fifo(burst in 1usize..64, t in 0u64..1_000_000) {
            let mut wheel = TimingWheel::default();
            let mut heap = BinaryHeapQueue::default();
            for i in 0..burst {
                wheel.push(t, i);
                heap.push(t, i);
            }
            for i in 0..burst {
                prop_assert_eq!(wheel.pop(), Some((t, i)));
                prop_assert_eq!(heap.pop(), Some((t, i)));
            }
        }
    }
}
