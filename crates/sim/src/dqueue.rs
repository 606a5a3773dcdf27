//! One device's queue of ready work, with constant-cost reads.
//!
//! The engine needs five things from a device queue on every event: its
//! length, its backlog in expected service time, how many entries of one
//! kernel it holds (the batch-hold gate), the batch at its front, and a
//! request's entries (cancellation, hedging). A plain FIFO answers all
//! but the first by scanning or rebuilding the whole queue, so per-event
//! cost grows with depth. [`DeviceQueue`] answers each from state it
//! keeps up to date:
//!
//! - **Lanes.** Entries live inline in per-`(kernel, alternate)` FIFO
//!   lanes, each entry stamped with a sequence number from one counter.
//!   The queue's FIFO order is the sequence order: its front is the
//!   lowest lane head, its back the highest lane tail. A batch (same
//!   kernel, same alternate, in FIFO order) is a prefix of one lane.
//!   Pushes and pops touch only a lane's two ends, so the memory an
//!   event touches does not grow with depth. An entry is 32 bytes and
//!   stores only what differs within its lane (request, hedge bit, ready
//!   time, estimate, sequence number); the lane names the kernel and
//!   alternate, and every read rebuilds the [`WorkItem`] from both. A
//!   deep queue holds one entry per waiting stage, so this record, with
//!   the request's, is most of an overloaded node's memory.
//! - **Running numbers.** Length, backlog in whole nanoseconds, and live
//!   entries per kernel. Integer sums are exact in any order, so the
//!   running backlog equals the in-order sum of the live entries.
//! - **Request index.** A request's live entries on this device are
//!   chained through their lane positions, with the chain head in a map
//!   keyed by request and each entry's link in a deque beside its lane's
//!   entries. Removing an entry leaves a dead entry (a tombstone) in its
//!   lane; a lane's ends are always live, because dead entries are
//!   dropped as soon as they reach either end. No reader sees one. The
//!   index (map and links) is built by the first operation that needs
//!   it (one pass over the queue) and kept up to date from then on, so
//!   a simulator that never cancels or hedges never pays for it, in
//!   time or in memory.
//!
//! The operations that remove entries or follow the request index count
//! the entries they visit (tombstones dropped and the index's one-time
//! build included); the engine moves that count into its
//! [`WorkCounters`](crate::WorkCounters) after each call. Reading the
//! front or back inspects one head per lane, a number set by the
//! policy's kernels and alternates rather than by depth, and is not
//! counted; neither are pushes, nor the fault and node-drain paths
//! ([`drain`](DeviceQueue::drain), [`clear`](DeviceQueue::clear)), which
//! empty the queue.

use crate::device::WorkItem;
use poly_ir::KernelId;
use std::collections::{HashMap, VecDeque};

/// Null link of a request's entry chain.
const NIL: u64 = u64::MAX;

/// Sequence bit marking a removed entry (a tombstone). Sequence numbers
/// stay far below it, so live entries compare by sequence unchanged.
const DEAD: u64 = 1 << 63;

/// Low bits of a link that hold the entry's lane position; the lane
/// index sits above them.
const POS_BITS: u32 = 48;

/// A request index as the request map's key. Admission
/// (`ReqArena::push_sized`) already refused any index that does not fit.
fn key(req: usize) -> u32 {
    u32::try_from(req).expect("admitted request indices fit u32")
}

/// Where an entry lives: its lane and its position there, counted from
/// the lane's first push. Lanes only pop at their ends, so a queued
/// entry's position never changes.
fn link(lane: usize, pos: u64) -> u64 {
    debug_assert!(pos < 1 << POS_BITS, "lane positions fit {POS_BITS} bits");
    (lane as u64) << POS_BITS | pos
}

fn lane_of(at: u64) -> usize {
    (at >> POS_BITS) as usize
}

fn pos_of(at: u64) -> u64 {
    at & ((1 << POS_BITS) - 1)
}

/// One queued entry: the fields of its [`WorkItem`] that its lane does
/// not name.
#[derive(Debug, Clone)]
struct Entry {
    req: u32,
    hedge: bool,
    ready_ms: f64,
    est_ns: u64,
    /// Sequence number, with [`DEAD`] set once the entry is removed.
    seq: u64,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

impl Entry {
    fn live(&self) -> bool {
        self.seq & DEAD == 0
    }
}

#[derive(Debug, Clone)]
struct Lane {
    kernel: KernelId,
    alt: u8,
    /// Position of `entries[0]`: entries popped from the front so far.
    base: u64,
    /// In sequence order; both ends live.
    entries: VecDeque<Entry>,
    /// While the request index exists, `links[i]` is the link to the
    /// next live entry of `entries[i]`'s request (meaningless for a dead
    /// entry); empty until then.
    links: VecDeque<u64>,
}

impl Lane {
    /// The work item `e` holds, with this lane's kernel and alternate.
    fn item(&self, e: &Entry) -> WorkItem {
        WorkItem::new(
            e.req as usize,
            self.kernel,
            e.ready_ms,
            e.est_ns,
            self.alt,
            e.hedge,
        )
    }

    /// Index into `entries` (and `links`) of the entry at link `at`.
    fn slot(&self, at: u64) -> usize {
        (pos_of(at) - self.base) as usize
    }
}

/// A device's FIFO of ready work: per-`(kernel, alternate)` lanes under
/// one sequence order, running length/backlog/per-kernel counts, and a
/// request index built on first use (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct DeviceQueue {
    lanes: Vec<Lane>,
    next_seq: u64,
    len: usize,
    backlog_ns: u64,
    per_kernel: Vec<u32>,
    /// Head link of each request's chain of live entries, keyed by the
    /// request index as `u32`; `None` until an operation needs it.
    by_req: Option<HashMap<u32, u64>>,
    /// Entries read or written since the last `take_touched`.
    touched: u64,
}

impl DeviceQueue {
    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of the live entries' `est_ns`.
    pub fn backlog_ns(&self) -> u64 {
        self.backlog_ns
    }

    /// Live entries of `kernel`, across its alternates.
    pub fn kernel_count(&self, kernel: KernelId) -> u32 {
        self.per_kernel.get(kernel.0).copied().unwrap_or(0)
    }

    /// Entries read or written since the last call.
    pub fn take_touched(&mut self) -> u64 {
        std::mem::take(&mut self.touched)
    }

    /// Append `item` at the back of the FIFO.
    pub fn push_back(&mut self, item: WorkItem) {
        let l = match self
            .lanes
            .iter()
            .position(|l| l.kernel == item.kernel() && l.alt == item.alt)
        {
            Some(l) => l,
            None => {
                self.lanes.push(Lane {
                    kernel: item.kernel(),
                    alt: item.alt,
                    base: 0,
                    entries: VecDeque::new(),
                    links: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
        };
        let lane = &mut self.lanes[l];
        let req = key(item.req());
        if let Some(index) = &mut self.by_req {
            let at = link(l, lane.base + lane.entries.len() as u64);
            lane.links.push_back(index.insert(req, at).unwrap_or(NIL));
        }
        lane.entries.push_back(Entry {
            req,
            hedge: item.hedge,
            ready_ms: item.ready_ms,
            est_ns: item.est_ns,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        if self.per_kernel.len() <= item.kernel().0 {
            self.per_kernel.resize(item.kernel().0 + 1, 0);
        }
        self.per_kernel[item.kernel().0] += 1;
        self.len += 1;
        self.backlog_ns += item.est_ns;
    }

    /// Lane holding the FIFO front (lowest head sequence).
    fn front_lane(&self) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (l, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.entries.front() {
                if best.is_none_or(|(s, _)| e.seq < s) {
                    best = Some((e.seq, l));
                }
            }
        }
        best.map(|(_, l)| l)
    }

    /// Lane holding the FIFO back (highest tail sequence).
    fn back_lane(&self) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (l, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.entries.back() {
                if best.is_none_or(|(s, _)| e.seq > s) {
                    best = Some((e.seq, l));
                }
            }
        }
        best.map(|(_, l)| l)
    }

    /// The FIFO's front entry.
    pub fn front(&self) -> Option<WorkItem> {
        let lane = &self.lanes[self.front_lane()?];
        lane.entries.front().map(|e| lane.item(e))
    }

    /// The FIFO's back entry.
    pub fn back(&self) -> Option<WorkItem> {
        let lane = &self.lanes[self.back_lane()?];
        lane.entries.back().map(|e| lane.item(e))
    }

    /// Remove and return the FIFO's back entry.
    pub fn pop_back(&mut self) -> Option<WorkItem> {
        let l = self.back_lane()?;
        self.pop_lane_end(l, false)
    }

    /// Remove and return the front (or back) entry of lane `l` (live:
    /// lane ends always are).
    fn pop_lane_end(&mut self, l: usize, front: bool) -> Option<WorkItem> {
        let lane = &mut self.lanes[l];
        let (e, next, pos) = if front {
            let e = lane.entries.pop_front()?;
            let pos = lane.base;
            lane.base += 1;
            (e, lane.links.pop_front(), pos)
        } else {
            let e = lane.entries.pop_back()?;
            let pos = lane.base + lane.entries.len() as u64;
            (e, lane.links.pop_back(), pos)
        };
        debug_assert!(e.live(), "retiring a dead entry");
        let item = lane.item(&e);
        self.retire(link(l, pos), &item, next.unwrap_or(NIL));
        self.trim(l);
        Some(item)
    }

    /// Move the front batch into `out`: the first `max` entries (FIFO
    /// order) sharing the front entry's kernel and alternate — a prefix
    /// of the front lane.
    pub fn take_front_batch(&mut self, max: usize, out: &mut Vec<WorkItem>) {
        let Some(l) = self.front_lane() else { return };
        while out.len() < max {
            let Some(item) = self.pop_lane_end(l, true) else {
                break;
            };
            out.push(item);
        }
    }

    /// Whether an entry of `req`'s `kernel` stage is queued here.
    pub fn contains_stage(&mut self, req: usize, kernel: KernelId) -> bool {
        let mut at = self.head(req);
        while at != NIL {
            self.touched += 1;
            if self.lanes[lane_of(at)].kernel == kernel {
                return true;
            }
            at = self.next_of(at);
        }
        false
    }

    /// Remove and return every entry, in FIFO order (uncounted).
    pub fn drain(&mut self) -> Vec<WorkItem> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(l) = self.front_lane() {
            out.extend(self.pop_lane_end(l, true));
        }
        self.touched = 0;
        out
    }

    /// Drop every entry (uncounted).
    pub fn clear(&mut self) {
        self.touched = 0;
        self.lanes.clear();
        self.len = 0;
        self.backlog_ns = 0;
        self.per_kernel.clear();
        self.by_req = None;
    }

    /// The chain link after the entry at `at`.
    fn next_of(&self, at: u64) -> u64 {
        let lane = &self.lanes[lane_of(at)];
        lane.links[lane.slot(at)]
    }

    fn next_mut(&mut self, at: u64) -> &mut u64 {
        let lane = &mut self.lanes[lane_of(at)];
        let i = lane.slot(at);
        &mut lane.links[i]
    }

    /// Head link of `req`'s chain, building the request index first if
    /// no operation has needed it yet.
    fn head(&mut self, req: usize) -> u64 {
        let index = match &mut self.by_req {
            Some(index) => index,
            None => {
                let mut index = HashMap::with_capacity(self.len);
                for (l, lane) in self.lanes.iter_mut().enumerate() {
                    self.touched += lane.entries.len() as u64;
                    let base = lane.base;
                    lane.links = (0u64..)
                        .zip(&lane.entries)
                        .map(|(k, e)| {
                            if e.live() {
                                index.insert(e.req, link(l, base + k)).unwrap_or(NIL)
                            } else {
                                NIL
                            }
                        })
                        .collect();
                }
                self.by_req.insert(index)
            }
        };
        index.get(&key(req)).copied().unwrap_or(NIL)
    }

    /// Point `req`'s chain at `next` in place of its head.
    fn set_head(&mut self, req: usize, next: u64) {
        let index = self.by_req.as_mut().expect("the request index exists");
        if next == NIL {
            index.remove(&key(req));
        } else {
            index.insert(key(req), next);
        }
    }

    /// Remove every entry of `req` — of its `kernel` stage only, when
    /// given; returns how many.
    pub fn remove_where(&mut self, req: usize, kernel: Option<KernelId>) -> usize {
        let mut removed = 0;
        let mut prev = NIL;
        let mut at = self.head(req);
        while at != NIL {
            self.touched += 1;
            let next = self.next_of(at);
            let lane = &mut self.lanes[lane_of(at)];
            if kernel.is_none_or(|k| lane.kernel == k) {
                let i = lane.slot(at);
                lane.entries[i].seq |= DEAD;
                let (kernel, est_ns) = (lane.kernel, lane.entries[i].est_ns);
                self.uncount(kernel, est_ns);
                if prev == NIL {
                    self.set_head(req, next);
                } else {
                    *self.next_mut(prev) = next;
                }
                self.trim(lane_of(at));
                removed += 1;
            } else {
                prev = at;
            }
            at = next;
        }
        removed
    }

    /// Take one entry of `kernel` costing `est_ns` out of the running
    /// numbers.
    fn uncount(&mut self, kernel: KernelId, est_ns: u64) {
        self.per_kernel[kernel.0] -= 1;
        self.len -= 1;
        self.backlog_ns -= est_ns;
    }

    /// Account for `item`, just popped from link `at` with chain link
    /// `next`: take it out of the running numbers and, if the request
    /// index exists, unlink it from its request's chain (a short walk
    /// from the head; `at` itself is never read, the entry having left
    /// its lane).
    fn retire(&mut self, at: u64, item: &WorkItem, next: u64) {
        self.touched += 1;
        self.uncount(item.kernel(), item.est_ns);
        let Some(index) = &self.by_req else { return };
        let head = index[&key(item.req())];
        if head == at {
            self.set_head(item.req(), next);
            return;
        }
        let mut prev = head;
        loop {
            self.touched += 1;
            let after = self.next_of(prev);
            if after == at {
                break;
            }
            prev = after;
        }
        *self.next_mut(prev) = next;
    }

    /// Drop dead entries from both ends of lane `l`, so its ends are live.
    fn trim(&mut self, l: usize) {
        let lane = &mut self.lanes[l];
        while lane.entries.front().is_some_and(|e| !e.live()) {
            lane.entries.pop_front();
            lane.links.pop_front();
            lane.base += 1;
            self.touched += 1;
        }
        while lane.entries.back().is_some_and(|e| !e.live()) {
            lane.entries.pop_back();
            lane.links.pop_back();
            self.touched += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An item whose ready time and hedge bit vary with its estimate, so
    /// a read that rebuilds the wrong entry's fields shows.
    fn item(req: usize, kernel: usize, alt: u8, est_ns: u64) -> WorkItem {
        let ready_ms = est_ns as f64 * 0.25;
        WorkItem::new(
            req,
            KernelId(kernel),
            ready_ms,
            est_ns,
            alt,
            est_ns % 2 == 1,
        )
    }

    /// The reference: a plain FIFO with the operations' old definitions.
    fn check(q: &DeviceQueue, reference: &VecDeque<WorkItem>) {
        assert_eq!(q.len(), reference.len());
        let backlog: u64 = reference.iter().map(|it| it.est_ns).sum();
        assert_eq!(q.backlog_ns(), backlog);
        for k in 0..3 {
            let n = reference.iter().filter(|it| it.kernel().0 == k).count();
            assert_eq!(q.kernel_count(KernelId(k)) as usize, n);
        }
    }

    /// Every operation matches a plain FIFO, over a deterministic mix of
    /// pushes, batch takes, back pops and removals: once with the request
    /// index built by the first removal, once with it built before the
    /// first push, so every push and pop also keeps its links.
    #[test]
    fn matches_a_plain_fifo() {
        for indexed_from_start in [false, true] {
            fifo_script(indexed_from_start);
        }
    }

    fn fifo_script(indexed_from_start: bool) {
        let mut q = DeviceQueue::default();
        if indexed_from_start {
            assert!(!q.contains_stage(0, KernelId(0)));
            assert!(q.by_req.is_some(), "the lookup built the index");
        }
        let mut r: VecDeque<WorkItem> = VecDeque::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for step in 0..4_000usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 7 {
                0..=2 => {
                    let it = item(
                        (x >> 8) as usize % 50,
                        (x >> 16) as usize % 3,
                        (x >> 24) as u8 % 2,
                        x >> 40,
                    );
                    q.push_back(it);
                    r.push_back(it);
                }
                3 => {
                    let front = r.front().copied();
                    assert_eq!(q.front(), front, "step {step}");
                    let mut got = Vec::new();
                    q.take_front_batch(3, &mut got);
                    let mut want = Vec::new();
                    if let Some(f) = front {
                        let mut rest = VecDeque::new();
                        while let Some(it) = r.pop_front() {
                            if it.kernel() == f.kernel() && it.alt == f.alt && want.len() < 3 {
                                want.push(it);
                            } else {
                                rest.push_back(it);
                            }
                        }
                        r = rest;
                    }
                    assert_eq!(got, want, "step {step}");
                }
                4 => {
                    assert_eq!(q.back(), r.back().copied());
                    assert_eq!(q.pop_back(), r.pop_back(), "step {step}");
                }
                5 => {
                    let req = (x >> 8) as usize % 50;
                    let n = r.len();
                    r.retain(|it| it.req() != req);
                    assert_eq!(q.remove_where(req, None), n - r.len(), "step {step}");
                }
                _ => {
                    let (req, k) = ((x >> 8) as usize % 50, KernelId((x >> 16) as usize % 3));
                    assert_eq!(
                        q.contains_stage(req, k),
                        r.iter().any(|it| it.req() == req && it.kernel() == k)
                    );
                    let n = r.len();
                    r.retain(|it| !(it.req() == req && it.kernel() == k));
                    assert_eq!(q.remove_where(req, Some(k)), n - r.len(), "step {step}");
                }
            }
            check(&q, &r);
        }
        let rest: Vec<WorkItem> = r.into_iter().collect();
        assert_eq!(q.drain(), rest);
        assert!(q.is_empty());
        assert_eq!(q.backlog_ns(), 0);
        for lane in &q.lanes {
            let links = if q.by_req.is_some() {
                lane.entries.len()
            } else {
                0
            };
            assert_eq!(lane.links.len(), links, "one link per entry, while indexed");
        }
    }

    #[test]
    fn tombstones_never_surface_and_are_dropped_at_lane_ends() {
        let mut q = DeviceQueue::default();
        for req in 0..4 {
            q.push_back(item(req, 0, 0, 10));
        }
        assert!(q.by_req.is_none(), "pushes alone build no request index");
        assert!(q.lanes[0].links.is_empty(), "nor any link");
        // Remove the middle two: the lane keeps them as tombstones.
        assert_eq!(q.remove_where(1, None), 1);
        assert_eq!(q.take_touched(), 4 + 1, "one pass builds the index");
        assert_eq!(q.remove_where(2, None), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.lanes[0].entries.len(), 4);
        let mut out = Vec::new();
        q.take_front_batch(8, &mut out);
        let reqs: Vec<usize> = out.iter().map(|it| it.req()).collect();
        assert_eq!(reqs, vec![0, 3], "dead entries are skipped, not served");
        assert!(q.is_empty());
        assert!(
            q.lanes[0].entries.is_empty(),
            "tombstones left with the ends"
        );
        q.push_back(item(9, 1, 0, 5));
        assert_eq!(q.backlog_ns(), 5);
        assert!(
            q.contains_stage(9, KernelId(1)),
            "the index follows later pushes"
        );
    }
}
