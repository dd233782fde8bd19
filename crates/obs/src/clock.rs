//! The workspace's single wall-clock choke point.
//!
//! Every non-test wall-clock read in the workspace goes through
//! [`now_nanos`] (enforced by `kamino-lint`'s `bare_instant` rule), so the
//! determinism boundary is auditable at exactly one site: time flows *out*
//! of here into spans, metrics and timing reports, and never into
//! snapshots, synthesis output, or committed artifacts.
//!
//! The clock is monotonic and process-anchored: readings are nanoseconds
//! since the first call in this process, which makes them directly usable
//! as chrome://tracing timestamps and keeps them meaningless (and
//! therefore harmless) outside the process that produced them.

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the process anchor (the first call).
///
/// The first call returns 0 and pins the anchor; readings never decrease.
pub fn now_nanos() -> u64 {
    // kamino-lint: allow(wall_clock, bare_instant) -- the single choke point every other clock read routes through
    let anchor = *ANCHOR.get_or_init(Instant::now);
    u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_and_anchored() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }
}
