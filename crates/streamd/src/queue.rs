//! Bounded per-shard handoff queue.
//!
//! Transactions travel in batches (`Vec<HttpTransaction>`) so one
//! handoff moves up to `batch_size` transactions. The bound is
//! expressed in *transactions*, not batches, so backpressure reacts to
//! actual buffered work.
//!
//! One `Mutex` guards the buffered batches, their transaction count and
//! the closed flag. The feeder waits on `not_full` while the bound
//! refuses its batch; the shard worker waits on `not_empty` while there
//! is nothing to take. Each side notifies the other after releasing the
//! lock, once per batch.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use nettrace::HttpTransaction;

/// What the lock guards.
struct State {
    batches: VecDeque<Vec<HttpTransaction>>,
    /// Transactions buffered across all queued batches.
    len: usize,
    closed: bool,
}

/// A bounded queue (one feeder, one worker) of transaction batches with
/// blocking and rejecting push variants.
pub(crate) struct ShardQueue {
    state: Mutex<State>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl ShardQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        ShardQueue {
            state: Mutex::new(State { batches: VecDeque::new(), len: 0, closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("shard queue poisoned")
    }

    /// Whether the queue can admit `n` more transactions. An empty
    /// queue admits any batch — even one larger than the capacity — so
    /// an oversized batch makes progress instead of deadlocking both
    /// sides.
    fn admits(&self, state: &State, n: usize) -> bool {
        state.len == 0 || state.len + n <= self.capacity
    }

    /// Appends `batch` under the held lock, then wakes the worker.
    fn enqueue(&self, mut state: MutexGuard<'_, State>, batch: Vec<HttpTransaction>) {
        state.len += batch.len();
        state.batches.push_back(batch);
        drop(state);
        self.not_empty.notify_one();
    }

    /// Pushes a batch, blocking while the queue is over capacity.
    /// Returns the number of times the caller had to wait (the
    /// backpressure signal). Empty batches are a no-op.
    pub(crate) fn push_blocking(&self, batch: Vec<HttpTransaction>) -> u64 {
        if batch.is_empty() {
            return 0;
        }
        let mut waits = 0u64;
        let mut state = self.lock();
        while !self.admits(&state, batch.len()) {
            waits += 1;
            state = self.not_full.wait(state).expect("shard queue poisoned");
        }
        self.enqueue(state, batch);
        waits
    }

    /// Pushes a batch unless it would overflow the queue; the rejected
    /// batch is handed back so the caller can account the drop. Empty
    /// batches are a no-op.
    pub(crate) fn push_or_reject(
        &self,
        batch: Vec<HttpTransaction>,
    ) -> Result<(), Vec<HttpTransaction>> {
        if batch.is_empty() {
            return Ok(());
        }
        let state = self.lock();
        if !self.admits(&state, batch.len()) {
            return Err(batch);
        }
        self.enqueue(state, batch);
        Ok(())
    }

    /// Marks the stream finished: workers drain what is buffered, then
    /// [`ShardQueue::pop`] returns `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Blocks for the next batch; `None` once the queue is closed *and*
    /// fully drained — close never discards buffered transactions.
    pub(crate) fn pop(&self) -> Option<Vec<HttpTransaction>> {
        let mut state = self.lock();
        loop {
            if let Some(batch) = state.batches.pop_front() {
                state.len -= batch.len();
                drop(state);
                self.not_full.notify_one();
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("shard queue poisoned");
        }
    }

    /// Transactions currently buffered.
    pub(crate) fn depth(&self) -> usize {
        self.lock().len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn tx(seq: u64) -> HttpTransaction {
        use nettrace::http::{HeaderMap, Method};
        use nettrace::payload::PayloadClass;
        use nettrace::reassembly::Endpoint;
        use std::net::Ipv4Addr;
        HttpTransaction {
            seq,
            ts: seq as f64,
            resp_ts: seq as f64 + 0.1,
            client: Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 50000),
            server: Endpoint::new(Ipv4Addr::new(203, 0, 113, 1), 80),
            host: "h.example".to_string(),
            method: Method::Get,
            uri: "/".to_string(),
            req_headers: HeaderMap::new(),
            status: 200,
            resp_headers: HeaderMap::new(),
            payload_class: PayloadClass::Html,
            payload_size: 0,
            payload_digest: 0,
            body_preview: Vec::new(),
        }
    }

    #[test]
    fn fifo_and_close_drains_everything() {
        let q = ShardQueue::new(100);
        q.push_blocking(vec![tx(0), tx(1)]);
        q.push_blocking(vec![tx(2)]);
        q.close();
        let a = q.pop().unwrap();
        assert_eq!(a.iter().map(|t| t.seq).collect::<Vec<_>>(), vec![0, 1]);
        let b = q.pop().unwrap();
        assert_eq!(b[0].seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn reject_when_full_but_admit_when_empty() {
        let q = ShardQueue::new(2);
        // Oversized batch into an empty queue is admitted (no deadlock).
        assert!(q.push_or_reject(vec![tx(0), tx(1), tx(2)]).is_ok());
        // Now non-empty and over capacity: reject.
        let back = q.push_or_reject(vec![tx(3)]).unwrap_err();
        assert_eq!(back.len(), 1);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn blocking_push_waits_for_consumer() {
        use std::sync::Arc;
        let q = Arc::new(ShardQueue::new(1));
        q.push_blocking(vec![tx(0)]);
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let mut got = Vec::new();
            while let Some(batch) = q2.pop() {
                got.extend(batch.into_iter().map(|t| t.seq));
            }
            got
        });
        let waits = q.push_blocking(vec![tx(1)]);
        assert!(waits >= 1, "full queue must block the producer");
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![0, 1]);
    }

    #[test]
    fn ring_wraps_many_times_without_reordering() {
        use std::sync::Arc;
        // Tiny ring, long stream: head/tail wrap the slot array dozens
        // of times while producer and consumer run concurrently.
        let q = Arc::new(ShardQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(batch) = q2.pop() {
                got.extend(batch.into_iter().map(|t| t.seq));
            }
            got
        });
        for i in 0..500u64 {
            q.push_blocking(vec![tx(2 * i), tx(2 * i + 1)]);
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let q = ShardQueue::new(2);
        assert_eq!(q.push_blocking(Vec::new()), 0);
        assert!(q.push_or_reject(Vec::new()).is_ok());
        assert_eq!(q.depth(), 0);
        q.close();
        assert!(q.pop().is_none());
    }

    #[test]
    fn close_after_push_never_loses_the_batch() {
        // Stress the close/pop race: the consumer must always see a
        // batch pushed before close, at any interleaving.
        for _ in 0..200 {
            use std::sync::Arc;
            let q = Arc::new(ShardQueue::new(16));
            let q2 = Arc::clone(&q);
            let consumer = std::thread::spawn(move || {
                let mut n = 0usize;
                while let Some(batch) = q2.pop() {
                    n += batch.len();
                }
                n
            });
            q.push_blocking(vec![tx(0), tx(1), tx(2)]);
            q.close();
            assert_eq!(consumer.join().unwrap(), 3);
        }
    }

    /// One producer pushing `batch` sizes (yielding first where its
    /// mask says, through `push_blocking` or `push_or_reject` as drawn)
    /// against one consumer yielding on its own cyclic mask. With
    /// `linger` the producer sleeps before `close`, so the close lands
    /// on a consumer that is already waiting.
    fn run_schedule(
        capacity: usize,
        producer: &[(usize, bool, bool)],
        consumer_yields: Vec<bool>,
        linger: bool,
    ) -> Result<(), String> {
        use std::sync::Arc;
        let q = Arc::new(ShardQueue::new(capacity));
        // The accepted total, published just before `close`.
        let closing: Arc<Mutex<Option<usize>>> = Arc::default();
        let consumer = {
            let (q, closing) = (Arc::clone(&q), Arc::clone(&closing));
            let mut yields = consumer_yields.into_iter().cycle();
            std::thread::spawn(move || {
                let (mut got, mut early_none) = (Vec::new(), false);
                let accepted_total = loop {
                    if yields.next() == Some(true) {
                        std::thread::yield_now();
                    }
                    match q.pop() {
                        Some(batch) => got.extend(batch.into_iter().map(|t| t.seq)),
                        None => match *closing.lock().unwrap() {
                            Some(total) => break total,
                            // Keep popping so a blocked producer is never stranded.
                            None => early_none = true,
                        },
                    }
                };
                if early_none {
                    return Err("pop returned None before close".to_string());
                }
                if got.len() != accepted_total {
                    return Err(format!(
                        "pop returned None after {} of {accepted_total} transactions",
                        got.len()
                    ));
                }
                if q.pop().is_some() {
                    return Err("pop after the drain returned a batch".to_string());
                }
                Ok(got)
            })
        };
        let (mut next_seq, mut accepted, mut rejected, mut altered) =
            (0u64, Vec::new(), 0usize, false);
        for &(size, blocking, yield_first) in producer {
            if yield_first {
                std::thread::yield_now();
            }
            let batch: Vec<_> = (next_seq..next_seq + size as u64).map(tx).collect();
            next_seq += size as u64;
            let seqs: Vec<u64> = batch.iter().map(|t| t.seq).collect();
            if blocking {
                q.push_blocking(batch);
                accepted.extend(seqs);
            } else {
                match q.push_or_reject(batch) {
                    Ok(()) => accepted.extend(seqs),
                    Err(back) => {
                        altered |= back.iter().map(|t| t.seq).ne(seqs.iter().copied());
                        rejected += back.len();
                    }
                }
            }
        }
        if linger {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        *closing.lock().unwrap() = Some(accepted.len());
        q.close();
        let popped = consumer.join().expect("consumer panicked")?;
        if altered {
            return Err("a rejected batch came back altered".to_string());
        }
        if popped != accepted {
            return Err(format!("accepted {:?}, popped {:?}", accepted, popped));
        }
        if next_seq as usize != popped.len() + rejected {
            return Err(format!(
                "pushed {next_seq} != popped {} + rejected {rejected}",
                popped.len()
            ));
        }
        if q.depth() != 0 {
            return Err(format!("depth {} after the drain", q.depth()));
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn generated_schedules_keep_fifo_and_lose_nothing(
            case in (1usize..=8).prop_flat_map(|capacity| (
                Just(capacity),
                vec((1..=2 * capacity, any::<bool>(), any::<bool>()), 1..160),
                vec(any::<bool>(), 1..16),
                any::<bool>(),
            ))
        ) {
            // A lost wake-up hangs both threads, so the schedule runs
            // under a deadline instead of blocking the test forever.
            let (capacity, producer, consumer_yields, linger) = case;
            let (done, result) = std::sync::mpsc::channel();
            let schedule = std::thread::spawn(move || {
                let _ = done.send(run_schedule(capacity, &producer, consumer_yields, linger));
            });
            result
                .recv_timeout(std::time::Duration::from_secs(30))
                .map_err(|_| "schedule stalled: a lost wake-up or a deadlock".to_string())??;
            schedule.join().expect("schedule thread panicked");
        }
    }
}
