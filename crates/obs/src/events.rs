//! Structured event sink: a bounded ring of typed events.
//!
//! The flagship stream is the **DP budget ledger**: `kamino-dp` records
//! every σ calibration and every composed ε/δ spend here, tagged with the
//! mechanism id (`m1_histogram`, `m2_dpsgd`, `m3_weights`) so a scrape or
//! trace dump shows exactly where the privacy budget went. Events carry a
//! [`crate::clock`] timestamp and a process-local sequence number; neither
//! ever reaches a committed artifact.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock;

/// A typed observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A mechanism's noise multiplier was calibrated against its share of
    /// the global budget.
    BudgetCalibration {
        /// Mechanism id (`m1_histogram`, `m2_dpsgd`, `m3_weights`).
        mechanism: &'static str,
        /// Calibrated noise multiplier σ.
        sigma: f64,
        /// The ε share this calibration targeted.
        epsilon_share: f64,
    },
    /// The planner finalized a plan: the composed spend across all
    /// mechanisms under RDP composition.
    BudgetSpend {
        /// Mechanism id, or `composed` for the plan total.
        mechanism: &'static str,
        /// Noise multiplier in force for this mechanism.
        sigma: f64,
        /// Composed ε achieved by the full plan.
        composed_epsilon: f64,
        /// The δ the ε conversion was taken at.
        delta: f64,
    },
    /// The serving layer replayed its durable fit ledger at boot.
    LedgerReplay {
        /// Intact records replayed.
        records: u64,
        /// Intents with no commit/abort — fits the process died inside.
        dangling: u64,
        /// Σ budgeted ε across every intent (∞ when any fit was
        /// non-private); the durable upper bound on spend.
        spent_epsilon: f64,
    },
}

impl Event {
    /// Stable lowercase tag for rendering.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::BudgetCalibration { .. } => "budget_calibration",
            Event::BudgetSpend { .. } => "budget_spend",
            Event::LedgerReplay { .. } => "ledger_replay",
        }
    }
}

/// An event plus its ring metadata.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Process-local monotone sequence number.
    pub seq: u64,
    /// [`clock`] timestamp, nanoseconds.
    pub ts_ns: u64,
    /// The event payload.
    pub event: Event,
}

/// Bounded event ring (oldest dropped on overflow).
#[derive(Debug)]
pub(crate) struct EventRing {
    ring: Mutex<VecDeque<EventRecord>>,
    cap: usize,
    next_seq: AtomicU64,
}

impl EventRing {
    pub(crate) fn new(cap: usize) -> Self {
        EventRing {
            ring: Mutex::new(VecDeque::new()),
            cap,
            next_seq: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, event: Event) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let rec = EventRecord {
            seq,
            ts_ns: clock::now_nanos(),
            event,
        };
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    pub(crate) fn snapshot(&self) -> Vec<EventRecord> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_sequences() {
        let ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push(Event::LedgerReplay {
                records: i,
                dangling: 0,
                spent_epsilon: 1.0,
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(snap[0].event.tag(), "ledger_replay");
    }
}
