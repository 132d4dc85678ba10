//! A fair FIFO writer lane.
//!
//! `std::sync::Mutex` makes no fairness guarantee: under contention a thread
//! that just released the lock can immediately re-acquire it (barging),
//! starving a session that has been queued for a long streamed unit. The
//! writer lane is the server's single point of mutual exclusion for
//! mutations, so barging there translates directly into unbounded tail
//! latency for whichever client drew the short straw.
//!
//! [`TicketLane`] is a classic ticket lock built from a `Mutex` + `Condvar`:
//! every acquirer draws a monotonically increasing ticket, and the lane
//! serves tickets strictly in draw order. Whoever asked first writes first,
//! regardless of scheduler whims.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// FIFO mutual exclusion: tickets are granted strictly in draw order.
#[derive(Debug, Default)]
pub struct TicketLane {
    state: Mutex<LaneState>,
    served: Condvar,
}

#[derive(Debug, Default)]
struct LaneState {
    /// Next ticket to hand out.
    next: u64,
    /// Ticket currently allowed to hold the lane.
    serving: u64,
}

impl TicketLane {
    /// A free lane: the first ticket drawn is served immediately.
    pub fn new() -> TicketLane {
        TicketLane::default()
    }

    /// Draw a ticket — a position in the FIFO queue. Never blocks; pair
    /// with [`TicketLane::wait`] or [`TicketLane::try_claim`]. Split from
    /// acquisition so callers (and tests) can fix the grant order before
    /// anyone starts waiting.
    pub fn ticket(&self) -> u64 {
        self.ticket_with_distance().0
    }

    /// Draw a ticket and also report its distance from the head of the
    /// queue at draw time — how many earlier holders must release before
    /// this ticket is served (0 = the lane is free right now).
    pub fn ticket_with_distance(&self) -> (u64, u64) {
        let mut state = lock(&self.state);
        let t = state.next;
        state.next += 1;
        (t, t - state.serving)
    }

    /// Block until `ticket` is at the head of the queue, then hold the lane.
    pub fn wait(lane: &Arc<TicketLane>, ticket: u64) -> OwnedLaneGuard {
        let mut state = lock(&lane.state);
        while state.serving != ticket {
            state = lane
                .served
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        OwnedLaneGuard {
            lane: Arc::clone(lane),
        }
    }

    /// Outstanding tickets: drawn but not yet released (the current holder,
    /// if any, plus everyone queued behind it). 0 = the lane is free. This
    /// is the `lane_depth` gauge the metrics surface exports per shard.
    pub fn depth(&self) -> u64 {
        let state = lock(&self.state);
        state.next - state.serving
    }

    /// Claim `ticket` without blocking: `Some` exactly when `ticket` is at
    /// the head of the queue right now — the event loop's workers must never
    /// block in [`TicketLane::wait`] (the current holder may be an idle
    /// session whose releasing frame needs a free worker).
    pub fn try_claim(lane: &Arc<TicketLane>, ticket: u64) -> Option<OwnedLaneGuard> {
        let state = lock(&lane.state);
        if state.serving == ticket {
            drop(state);
            Some(OwnedLaneGuard {
                lane: Arc::clone(lane),
            })
        } else {
            None
        }
    }
}

/// Holds the lane via an `Arc`, so it can outlive the stack frame that
/// claimed it (a streamed unit keeps its guards in the session's driver
/// state across requests) and be dropped from any thread. Dropping it serves
/// the next ticket in line.
#[derive(Debug)]
pub struct OwnedLaneGuard {
    lane: Arc<TicketLane>,
}

impl Drop for OwnedLaneGuard {
    fn drop(&mut self) {
        let mut state = lock(&self.lane.state);
        state.serving += 1;
        // Waiters for different tickets share one condvar; wake them all and
        // let each re-check whether it is now being served.
        self.lane.served.notify_all();
    }
}

/// The guarded state is two counters, always consistent; recover from a
/// poisoned mutex rather than propagating a panic into every writer.
fn lock(m: &Mutex<LaneState>) -> MutexGuard<'_, LaneState> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Draw a ticket and wait for it: FIFO `lock()`.
    fn acquire(lane: &Arc<TicketLane>) -> OwnedLaneGuard {
        TicketLane::wait(lane, lane.ticket())
    }

    #[test]
    fn uncontended_acquire_is_immediate() {
        let lane = Arc::new(TicketLane::new());
        drop(acquire(&lane));
        drop(acquire(&lane));
    }

    #[test]
    fn grants_follow_ticket_order() {
        let lane = Arc::new(TicketLane::new());
        // Park the lane so every contender queues behind ticket 0.
        let head = lane.ticket();
        let gate = TicketLane::wait(&lane, head);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut workers = Vec::new();
        // Draw tickets sequentially *here*, so the FIFO order is known even
        // though the waiting threads start in arbitrary order.
        for i in 0..8u64 {
            let ticket = lane.ticket();
            let lane = Arc::clone(&lane);
            let order = Arc::clone(&order);
            workers.push(std::thread::spawn(move || {
                let _guard = TicketLane::wait(&lane, ticket);
                order.lock().unwrap().push(i);
                // Hold briefly so a barging acquirer would have a window.
                std::thread::sleep(Duration::from_millis(1));
            }));
        }
        // Let the workers reach their wait before opening the lane.
        std::thread::sleep(Duration::from_millis(20));
        drop(gate);
        for w in workers {
            w.join().unwrap();
        }
        let order = order.lock().unwrap();
        assert_eq!(
            *order,
            (0..8).collect::<Vec<u64>>(),
            "lane granted out of draw order"
        );
    }

    #[test]
    fn try_claim_only_grants_the_head_ticket() {
        let lane = Arc::new(TicketLane::new());
        let first = lane.ticket();
        let second = lane.ticket();
        assert!(TicketLane::try_claim(&lane, second).is_none());
        let head = TicketLane::try_claim(&lane, first).expect("head ticket claims");
        // While held, nobody else claims — not even the head ticket again.
        assert!(TicketLane::try_claim(&lane, second).is_none());
        drop(head);
        assert_eq!(lane.depth(), 1);
        let next = TicketLane::try_claim(&lane, second).expect("next after release");
        drop(next);
    }

    #[test]
    fn owned_guard_interleaves_with_blocking_waiters() {
        let lane = Arc::new(TicketLane::new());
        let t0 = lane.ticket();
        let owned = TicketLane::try_claim(&lane, t0).unwrap();
        let t1 = lane.ticket();
        let waiter = {
            let lane = Arc::clone(&lane);
            std::thread::spawn(move || {
                let _guard = TicketLane::wait(&lane, t1);
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        drop(owned); // releases from this thread; the blocked waiter proceeds
        waiter.join().unwrap();
        drop(acquire(&lane));
    }

    #[test]
    fn guard_drop_serves_next_even_after_holder_panics() {
        let lane = Arc::new(TicketLane::new());
        let panicking = {
            let lane = Arc::clone(&lane);
            std::thread::spawn(move || {
                let _guard = acquire(&lane);
                panic!("holder dies with the lane");
            })
        };
        assert!(panicking.join().is_err());
        // The guard's Drop ran during unwind; the lane must still grant.
        drop(acquire(&lane));
    }
}
