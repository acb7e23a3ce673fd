//! Property tests pinning first-result-wins duplicate suppression: under
//! every interleaving of hedge-dispatch, original-completion and
//! hedge-completion (including the late-hedge race where the original
//! resolves between the watchdog's overdue check and its `hedge()` call,
//! refused by the request's done bit),
//! each request is counted **exactly once** — never double-counted, never
//! lost — and `generated = completed + failed` stays exact with every
//! redundant copy landing in `duplicates_suppressed`.

use centaur_serve::{ArrivalQueue, BatchPolicy, QueuedRequest};
use proptest::prelude::*;

fn request(index: usize) -> QueuedRequest {
    QueuedRequest {
        index,
        arrival_s: index as f64 * 1e-4,
        deadline_s: f64::INFINITY,
        retries: 0,
        hedged: false,
    }
}

/// Pops exactly one request (the queue is never empty when this is called).
fn pop_one(queue: &ArrivalQueue) -> QueuedRequest {
    let policy = BatchPolicy::Dynamic {
        max_batch: 1,
        max_wait: std::time::Duration::ZERO,
    };
    let mut batch = Vec::new();
    assert!(queue.pop_batch(policy, &mut batch), "request available");
    assert_eq!(batch.len(), 1);
    batch[0]
}

/// Resolves one copy as a completion and reports whether it was counted
/// (`true`) or suppressed as a duplicate (`false`).
fn complete_one(queue: &ArrivalQueue, copy: QueuedRequest) -> bool {
    let mut primary = Vec::new();
    queue.complete_batch(&[copy], &mut primary);
    primary[0]
}

/// Every way one request's lifetime can interleave with the watchdog.
/// Completions/fails below happen in the listed order.
#[derive(Debug, Clone, Copy)]
enum Interleaving {
    /// Never overdue: the original completes alone.
    Plain,
    /// Never overdue: the original fails (retry budget exhausted).
    PlainFail,
    /// Hedged; the original answers first, the clone is a duplicate.
    OriginalWins,
    /// Hedged; the clone answers first (a hedge win), the straggling
    /// original is a duplicate.
    CloneWins,
    /// The watchdog marked the slot overdue but the original completed
    /// before `hedge()` landed: the request's done bit cancels the late
    /// hedge and no clone ever exists.
    LateHedgeCancelled,
    /// Hedged; the original fails while the clone is still live — the
    /// sibling decides the fate and completes (a hedge win).
    OriginalFailsCloneWins,
    /// Hedged; the clone fails while the original is still live — the
    /// original completes and is counted.
    CloneFailsOriginalWins,
    /// Hedged; both copies fail — the request is counted failed once.
    BothFail,
    /// Hedged; the clone answers, then the straggling original comes back
    /// through the crash-recovery `requeue` path and is suppressed there.
    CloneWinsOriginalRequeued,
}

const INTERLEAVINGS: [Interleaving; 9] = [
    Interleaving::Plain,
    Interleaving::PlainFail,
    Interleaving::OriginalWins,
    Interleaving::CloneWins,
    Interleaving::LateHedgeCancelled,
    Interleaving::OriginalFailsCloneWins,
    Interleaving::CloneFailsOriginalWins,
    Interleaving::BothFail,
    Interleaving::CloneWinsOriginalRequeued,
];

/// Expected per-interleaving deltas: (completions, failed, hedges,
/// duplicates, hedge wins).
fn expected(interleaving: Interleaving) -> (usize, usize, usize, usize, usize) {
    match interleaving {
        Interleaving::Plain => (1, 0, 0, 0, 0),
        Interleaving::PlainFail => (0, 1, 0, 0, 0),
        Interleaving::OriginalWins => (1, 0, 1, 1, 0),
        Interleaving::CloneWins => (1, 0, 1, 1, 1),
        Interleaving::LateHedgeCancelled => (1, 0, 0, 0, 0),
        Interleaving::OriginalFailsCloneWins => (1, 0, 1, 1, 1),
        Interleaving::CloneFailsOriginalWins => (1, 0, 1, 1, 0),
        Interleaving::BothFail => (0, 1, 1, 1, 0),
        Interleaving::CloneWinsOriginalRequeued => (1, 0, 1, 1, 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drive an arbitrary sequence of per-request interleavings through the
    /// real queue and check the global ledger: every request reaches exactly
    /// one counted terminal state, `generated = completed + failed` holds,
    /// and every redundant copy is suppressed — none double-counted, none
    /// lost, under every ordering of hedge-dispatch, original-completion
    /// and hedge-completion.
    #[test]
    fn every_interleaving_counts_each_request_exactly_once(
        choices in proptest::collection::vec(0..INTERLEAVINGS.len(), 1..64),
    ) {
        let queue = ArrivalQueue::new();
        let mut counted_ids: Vec<usize> = Vec::new();
        let (mut failed, mut hedges, mut duplicates, mut wins) = (0, 0, 0, 0);
        for (index, &choice) in choices.iter().enumerate() {
            let interleaving = INTERLEAVINGS[choice];
            prop_assert!(queue.push(request(index)));
            let original = pop_one(&queue);
            let mut count = |counted: bool| {
                if counted {
                    counted_ids.push(index);
                }
            };
            match interleaving {
                Interleaving::Plain => count(complete_one(&queue, original)),
                Interleaving::PlainFail => queue.fail(original),
                Interleaving::OriginalWins => {
                    prop_assert!(queue.hedge(original));
                    count(complete_one(&queue, original));
                    // The clone is now a dead copy in the backlog; the
                    // next pop scan suppresses it instead of handing it
                    // out (the following iteration's pop, or the final
                    // drain below).
                }
                Interleaving::CloneWins => {
                    prop_assert!(queue.hedge(original));
                    let clone = pop_one(&queue);
                    count(complete_one(&queue, clone));
                    count(complete_one(&queue, original));
                }
                Interleaving::LateHedgeCancelled => {
                    count(complete_one(&queue, original));
                    prop_assert!(!queue.hedge(original), "late hedge must cancel");
                }
                Interleaving::OriginalFailsCloneWins => {
                    prop_assert!(queue.hedge(original));
                    queue.fail(original);
                    let clone = pop_one(&queue);
                    count(complete_one(&queue, clone));
                }
                Interleaving::CloneFailsOriginalWins => {
                    prop_assert!(queue.hedge(original));
                    let clone = pop_one(&queue);
                    queue.fail(clone);
                    count(complete_one(&queue, original));
                }
                Interleaving::BothFail => {
                    prop_assert!(queue.hedge(original));
                    queue.fail(original);
                    let clone = pop_one(&queue);
                    queue.fail(clone);
                }
                Interleaving::CloneWinsOriginalRequeued => {
                    prop_assert!(queue.hedge(original));
                    let clone = pop_one(&queue);
                    count(complete_one(&queue, clone));
                    queue.requeue(original.retry());
                }
            }
            let (c, f, h, d, w) = expected(interleaving);
            failed += f;
            hedges += h;
            duplicates += d;
            wins += w;
            prop_assert_eq!(counted_ids.iter().filter(|&&id| id == index).count(), c,
                "request {} counted exactly its expected number of times", index);
        }
        queue.close();
        // Final drain: any dead clones still in the backlog (OriginalWins
        // leaves one) are suppressed by the pop scan, which then reports
        // the closed queue empty.
        let mut leftovers = Vec::new();
        let drain_policy = BatchPolicy::Dynamic {
            max_batch: 1,
            max_wait: std::time::Duration::ZERO,
        };
        prop_assert!(!queue.pop_batch(drain_policy, &mut leftovers),
            "nothing live remains after every interleaving resolved");
        // The ledger: generated = completed + failed, exactly.
        prop_assert_eq!(counted_ids.len() + queue.failed(), choices.len());
        prop_assert_eq!(queue.failed(), failed);
        prop_assert_eq!(queue.hedges(), hedges);
        prop_assert_eq!(queue.duplicates_suppressed(), duplicates);
        prop_assert_eq!(queue.hedge_wins(), wins);
        // No double-counting: each counted id appears at most once.
        let mut sorted = counted_ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), counted_ids.len(), "no id counted twice");
        prop_assert!(queue.is_finished(), "every copy reached a terminal state");
        prop_assert_eq!(queue.depth(), 0);
        prop_assert_eq!(queue.in_flight(), 0);
    }

    /// Batch-granularity variant of the late-hedge race: the whole backlog
    /// is popped in arbitrary batch sizes, and per request a coin decides
    /// whether the watchdog's `hedge()` lands before or after the original's
    /// completion. Early hedges spawn one clone each (suppressed when it
    /// drains later); late hedges are cancelled by the request's done bit.
    /// Either way every request completes exactly once.
    #[test]
    fn late_and_early_hedges_agree_on_the_ledger(
        hedge_bits in proptest::collection::vec(0..2u8, 1..48),
        max_batch in 1..7usize,
    ) {
        let queue = ArrivalQueue::new();
        for index in 0..hedge_bits.len() {
            prop_assert!(queue.push(request(index)));
        }
        queue.close();
        let policy = BatchPolicy::Dynamic {
            max_batch,
            max_wait: std::time::Duration::ZERO,
        };
        let mut batch = Vec::new();
        let mut primary = Vec::new();
        let mut counted = vec![0usize; hedge_bits.len()];
        let mut expected_hedges = 0;
        while queue.pop_batch(policy, &mut batch) {
            for i in 0..batch.len() {
                let copy = batch[i];
                // Clones never surface: their originals complete within the
                // same batch pass, so the next pop scan suppresses them.
                prop_assert!(!copy.hedged, "dead clones are suppressed at pop");
                if hedge_bits[copy.index] == 1 {
                    prop_assert!(queue.hedge(copy), "early hedge enqueues a clone");
                    expected_hedges += 1;
                    queue.complete_batch(&batch[i..=i], &mut primary);
                } else {
                    queue.complete_batch(&batch[i..=i], &mut primary);
                    prop_assert!(!queue.hedge(copy), "late hedge must cancel");
                }
                if primary[0] {
                    counted[copy.index] += 1;
                }
            }
        }
        prop_assert!(counted.iter().all(|&n| n == 1),
            "every request counted exactly once: {counted:?}");
        prop_assert_eq!(queue.hedges(), expected_hedges);
        prop_assert_eq!(queue.duplicates_suppressed(), expected_hedges,
            "every clone was suppressed");
        prop_assert_eq!(queue.hedge_wins(), 0, "originals always answered first");
        prop_assert!(queue.is_finished());
    }
}
