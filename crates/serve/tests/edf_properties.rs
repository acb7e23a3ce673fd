//! Property tests pinning the queue's one backlog order, earliest deadline
//! first: the queue hands out whatever it holds in non-decreasing deadline
//! order (ties by enqueue order, no-deadline requests last), and requeued
//! requests keep their original arrival and deadline stamps — a retried
//! request re-enters the backlog *now* but is still judged against its
//! original schedule.

use centaur_serve::{ArrivalQueue, BatchPolicy, QueuedRequest};
use proptest::prelude::*;

/// Drains the whole backlog through `pop_batch` and returns the requests in
/// the order the queue handed them out.
fn drain(queue: &ArrivalQueue, max_batch: usize) -> Vec<QueuedRequest> {
    let policy = BatchPolicy::Dynamic {
        max_batch,
        max_wait: std::time::Duration::ZERO,
    };
    let mut popped = Vec::new();
    let mut batch = Vec::new();
    while queue.pop_batch(policy, &mut batch) {
        queue.complete(batch.len());
        popped.extend_from_slice(&batch);
    }
    popped
}

/// A popped sequence is in EDF order: deadlines never decrease, and equal
/// deadlines keep their relative enqueue order (`seq` ties).
fn assert_edf_order(popped: &[QueuedRequest], enqueue_order: &[usize]) {
    for window in popped.windows(2) {
        assert!(
            window[0]
                .deadline_s
                .total_cmp(&window[1].deadline_s)
                .is_le(),
            "deadlines must be non-decreasing: {} then {}",
            window[0].deadline_s,
            window[1].deadline_s
        );
        if window[0].deadline_s == window[1].deadline_s {
            let first = enqueue_order
                .iter()
                .position(|&i| i == window[0].index)
                .unwrap();
            let second = enqueue_order
                .iter()
                .position(|&i| i == window[1].index)
                .unwrap();
            assert!(
                first < second,
                "equal deadlines keep enqueue order: index {} (enqueued #{}) \
                 popped before index {} (enqueued #{})",
                window[0].index,
                first,
                window[1].index,
                second
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Push an arbitrary mixed-urgency backlog (finite deadlines from a
    /// small set so ties actually occur, plus the occasional no-deadline
    /// request), drain it in arbitrary batch sizes: the popped sequence is
    /// globally sorted by deadline with enqueue order breaking ties and
    /// `INFINITY` deadlines last.
    #[test]
    fn edf_pops_the_whole_backlog_in_deadline_order(
        deadline_choices in proptest::collection::vec(0..8u32, 1..48),
        max_batch in 1..9usize,
    ) {
        let queue = ArrivalQueue::new();
        let mut enqueue_order = Vec::new();
        for (index, &choice) in deadline_choices.iter().enumerate() {
            // choice 7 = no deadline; others land on a coarse grid so
            // distinct pushes collide on the same deadline.
            let deadline_s = if choice == 7 {
                f64::INFINITY
            } else {
                f64::from(choice) * 0.01
            };
            let request = QueuedRequest {
                index,
                arrival_s: index as f64 * 1e-4,
                deadline_s,
                retries: 0,
                hedged: false,
            };
            prop_assert!(queue.push(request));
            enqueue_order.push(index);
        }
        queue.close();
        let popped = drain(&queue, max_batch);
        prop_assert_eq!(popped.len(), deadline_choices.len(), "nothing lost");
        assert_edf_order(&popped, &enqueue_order);
    }

    /// Interleave requeues with the drain: a popped request is sometimes
    /// sent back (a crash recovery), and when it is popped again it carries
    /// its original arrival/deadline stamps with only the retry count
    /// bumped. Every request still ends up served exactly once per final
    /// pop, still in non-decreasing deadline order from the requeue point.
    #[test]
    fn requeued_requests_keep_their_stamps_and_resort_by_deadline(
        deadline_choices in proptest::collection::vec(0..6u32, 2..24),
        requeue_bits in proptest::collection::vec(0..2u8, 2..24),
    ) {
        let queue = ArrivalQueue::new();
        let mut originals = Vec::new();
        for (index, &choice) in deadline_choices.iter().enumerate() {
            let request = QueuedRequest {
                index,
                arrival_s: index as f64 * 1e-4,
                deadline_s: f64::from(choice) * 0.01,
                retries: 0,
                hedged: false,
            };
            prop_assert!(queue.push(request));
            originals.push(request);
        }
        queue.close();
        let policy = BatchPolicy::Dynamic {
            max_batch: 3,
            max_wait: std::time::Duration::ZERO,
        };
        let mut served: Vec<QueuedRequest> = Vec::new();
        let mut batch = Vec::new();
        while queue.pop_batch(policy, &mut batch) {
            for &request in &batch {
                let original = originals[request.index];
                prop_assert_eq!(request.arrival_s, original.arrival_s,
                    "arrival stamp survives requeues");
                prop_assert_eq!(request.deadline_s, original.deadline_s,
                    "deadline stamp survives requeues");
                // Requeue each request at most once, per its mask bit.
                let requeue = requeue_bits.get(request.index) == Some(&1);
                if requeue && request.retries == 0 {
                    queue.requeue(request.retry());
                } else {
                    queue.complete(1);
                    served.push(request);
                }
            }
        }
        prop_assert_eq!(served.len(), deadline_choices.len(),
            "every request is served exactly once");
        for request in &served {
            let requeued = requeue_bits.get(request.index) == Some(&1);
            prop_assert_eq!(request.retries, u32::from(requeued),
                "retry count reflects the single requeue");
        }
        // The tail of the drain — everything after the last requeue went
        // back in — is a pure EDF pop sequence again: once no more requeues
        // disturb the backlog, deadlines never decrease.
        let last_retry = served.iter().rposition(|r| r.retries > 0).map_or(0, |p| p);
        for window in served[last_retry..].windows(2) {
            prop_assert!(
                window[0].deadline_s.total_cmp(&window[1].deadline_s).is_le(),
                "post-requeue tail in deadline order"
            );
        }
    }
}
