//! One engine's backlog in the event loop: requests assigned to the
//! engine but not yet started.
//!
//! The discipline key is fixed when a request is pushed — its absolute
//! deadline under EDF (`slo-aware`, deadline classes), or its assignment
//! sequence number under FIFO — so the queue never rescans its entries.
//! Two orders are kept side by side:
//!
//! * **discipline order** `(key, id)` — what the engine serves next
//!   (earliest deadline, ties to the lowest request id);
//! * **assignment order** (a per-queue sequence number) — what a peer
//!   steals (the most recently assigned surviving entry, not the latest
//!   deadline) and the order a crash drains the backlog in, which fixes
//!   the order of the resulting failed/redrive pushes.
//!
//! `push` returns the entry's sequence number; the caller keeps it (the
//! event loop's per-request holder index) to look up or remove that
//! entry later. Push, pop-next, steal-from-back and remove cost
//! O(log n); a drain costs O(n). Nothing is hashed, so the cost of every
//! operation is the same from one process to the next.

use std::collections::BTreeMap;

use super::queueing::ExactService;

/// A request assigned to an engine but not yet started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Queued {
    pub(super) id: usize,
    pub(super) arrival: u64,
    /// Service estimate at assignment time (the assignee's scale). In
    /// the loop's in-order mode this is the warm-accounted service; in
    /// reordering/stealing/drill runs it is the cold scaled estimate
    /// and the serving engine re-prices when service starts.
    pub(super) est: u64,
    /// The warm accounting already performed at assignment
    /// (in-order mode only) — consumed by `start_service` without
    /// touching the cache again.
    pub(super) exact: Option<ExactService>,
}

/// A per-engine backlog keyed at push (see the module docs).
#[derive(Debug, Default)]
pub(super) struct EngineQueue {
    /// Discipline order: `(key, id)` → assignment sequence number.
    by_key: BTreeMap<(u64, usize), u64>,
    /// Assignment order: sequence number → `(key, entry)`.
    by_seq: BTreeMap<u64, (u64, Queued)>,
    next_seq: u64,
}

impl EngineQueue {
    /// Number of queued requests.
    pub(super) fn len(&self) -> usize {
        self.by_seq.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.by_seq.is_empty()
    }

    /// Queues `q` under discipline key `key` (an absolute deadline);
    /// `None` keys it by assignment order (FIFO). Returns the entry's
    /// sequence number, the handle [`get`](Self::get) and
    /// [`remove`](Self::remove) take. A request id may be queued at most
    /// once.
    pub(super) fn push(&mut self, key: Option<u64>, q: Queued) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = key.unwrap_or(seq);
        self.by_key.insert((key, q.id), seq);
        self.by_seq.insert(seq, (key, q));
        seq
    }

    /// Removes and returns the entry the discipline serves next: the
    /// smallest `(key, id)`.
    pub(super) fn pop_next(&mut self) -> Option<Queued> {
        let (_, seq) = self.by_key.pop_first()?;
        let (_, q) = self.by_seq.remove(&seq).expect("indexed entry");
        Some(q)
    }

    /// Removes and returns the most recently assigned entry (what a
    /// stealing peer takes).
    pub(super) fn pop_back(&mut self) -> Option<Queued> {
        let (_, (key, q)) = self.by_seq.pop_last()?;
        self.by_key.remove(&(key, q.id));
        Some(q)
    }

    /// The entry pushed under sequence number `seq`, if still queued.
    pub(super) fn get(&self, seq: u64) -> Option<&Queued> {
        self.by_seq.get(&seq).map(|(_, q)| q)
    }

    /// Removes and returns the entry pushed under sequence number `seq`,
    /// if still queued.
    pub(super) fn remove(&mut self, seq: u64) -> Option<Queued> {
        let (key, q) = self.by_seq.remove(&seq)?;
        self.by_key.remove(&(key, q.id));
        Some(q)
    }

    /// Empties the queue, returning its entries in assignment order.
    pub(super) fn drain(&mut self) -> Vec<Queued> {
        self.by_key.clear();
        std::mem::take(&mut self.by_seq)
            .into_values()
            .map(|(_, q)| q)
            .collect()
    }

    /// The queued entries with their sequence numbers, in assignment
    /// order.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &Queued)> {
        self.by_seq.iter().map(|(&seq, (_, q))| (seq, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference semantics, spelled out: a `Vec` in assignment
    /// order; pop-next takes the front (FIFO) or the linear
    /// `min_by_key((key, id))` scan's position, then `Vec::remove`;
    /// steal is `Vec::pop`.
    #[derive(Default)]
    struct Naive {
        entries: Vec<(Option<u64>, Queued)>,
    }

    impl Naive {
        fn push(&mut self, key: Option<u64>, q: Queued) {
            self.entries.push((key, q));
        }
        fn pop_next(&mut self) -> Option<Queued> {
            let pos = match self.entries.first()? {
                (None, _) => 0,
                _ => self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (key, q))| (*key, q.id))
                    .map(|(pos, _)| pos)?,
            };
            Some(self.entries.remove(pos).1)
        }
        fn pop_back(&mut self) -> Option<Queued> {
            self.entries.pop().map(|(_, q)| q)
        }
        fn remove(&mut self, id: usize) -> Option<Queued> {
            let pos = self.entries.iter().position(|(_, q)| q.id == id)?;
            Some(self.entries.remove(pos).1)
        }
    }

    /// How a run keys its pushes — the three disciplines the event loop
    /// uses.
    #[derive(Debug, Clone, Copy)]
    enum Discipline {
        Fifo,
        /// `slo-aware`: one deadline for every request (`None` — no SLO
        /// — saturates every key to `u64::MAX`, degenerating to id order).
        Slo(Option<u64>),
        /// Deadline classes: the deadline depends on the request's class.
        Classes([u64; 2]),
    }

    impl Discipline {
        fn key(self, id: usize, arrival: u64) -> Option<u64> {
            match self {
                Discipline::Fifo => None,
                Discipline::Slo(ddl) => Some(arrival.saturating_add(ddl.unwrap_or(u64::MAX))),
                Discipline::Classes(ddl) => Some(arrival.saturating_add(ddl[id % 2])),
            }
        }
    }

    fn discipline() -> impl Strategy<Value = Discipline> {
        prop_oneof![
            Just(Discipline::Fifo),
            Just(Discipline::Slo(None)),
            (0u64..4).prop_map(|d| Discipline::Slo(Some(d))),
            Just(Discipline::Slo(Some(u64::MAX - 2))),
            ((0u64..4), (0u64..12)).prop_map(|(a, b)| Discipline::Classes([a, b])),
        ]
    }

    /// One operation: 0 push (arrival drawn from a tiny range so equal
    /// deadlines are common), 1 pop-next, 2 steal-back, 3 remove-by-id
    /// (of an id that may or may not be queued), 4 drain.
    fn ops() -> impl Strategy<Value = Vec<(u8, u64, usize)>> {
        proptest::collection::vec(
            (
                prop_oneof![
                    6 => Just(0u8),
                    3 => Just(1u8),
                    2 => Just(2u8),
                    2 => Just(3u8),
                    1 => Just(4u8),
                ],
                0u64..4,
                0usize..64,
            ),
            0..160,
        )
    }

    proptest! {
        #[test]
        fn engine_queue_matches_the_naive_vec_scan(d in discipline(), ops in ops()) {
            let mut fast = EngineQueue::default();
            let mut naive = Naive::default();
            // The handle each push returned, as the event loop's holder
            // index keeps it (entries stay after their request leaves).
            let mut seqs = BTreeMap::new();
            let mut next_id = 0usize;
            for (op, arrival, pick) in ops {
                match op {
                    0 => {
                        // Ids are fresh but pushed out of order relative
                        // to their arrival, like redrives and preempted
                        // victims re-entering a queue.
                        let id = next_id * 7 % 1009;
                        next_id += 1;
                        let q = Queued { id, arrival, est: (id as u64) % 5 + 1, exact: None };
                        seqs.insert(id, fast.push(d.key(id, arrival), q));
                        naive.push(d.key(id, arrival), q);
                    }
                    1 => prop_assert_eq!(fast.pop_next(), naive.pop_next()),
                    2 => prop_assert_eq!(fast.pop_back(), naive.pop_back()),
                    3 => {
                        // A queued id, or one already gone or never
                        // pushed: a stale or unknown handle finds nothing.
                        let id = naive
                            .entries
                            .get(pick % (naive.entries.len() + 1))
                            .map_or(pick * 7 % 1009, |(_, q)| q.id);
                        let seq = seqs.get(&id).copied().unwrap_or(u64::MAX);
                        let held = naive.entries.iter().find(|(_, q)| q.id == id).map(|(_, q)| *q);
                        prop_assert_eq!(fast.get(seq).copied(), held);
                        prop_assert_eq!(fast.remove(seq), naive.remove(id));
                    }
                    _ => {
                        let expect: Vec<Queued> = naive.entries.drain(..).map(|(_, q)| q).collect();
                        prop_assert_eq!(fast.drain(), expect);
                    }
                }
                prop_assert_eq!(fast.len(), naive.entries.len());
                for (seq, q) in fast.iter() {
                    prop_assert_eq!(seqs[&q.id], seq);
                }
                let order: Vec<Queued> = fast.iter().map(|(_, q)| *q).collect();
                let expect: Vec<Queued> = naive.entries.iter().map(|(_, q)| *q).collect();
                prop_assert_eq!(order, expect);
            }
        }
    }
}
