//! Event damping: how a stream of control-plane events is split into
//! recompute batches.
//!
//! A flapping transceiver re-announces down/up/down/up…; staging a full
//! tagging per transition would recompute the same tables over and
//! over. [`Damping::Flap`] collapses a maximal run of consecutive link
//! events on the same link into one batch — one recompute of the run's
//! net effect — and the controller counts the `len − 1` recomputes each
//! batch saved in
//! [`ControllerMetrics::flaps_damped`](crate::ControllerMetrics), where
//! it counts `events`. The policy is chosen *per fabric*, never across
//! fabrics: one tenant's flapping link must not change another tenant's
//! batching.
//!
//! Every variant is **suffix-closed**: splitting a stream, removing the
//! first batch, and re-splitting the remainder yields the remaining
//! batches unchanged. That is what lets an ingest queue drain a bounded
//! number of batches per cycle and leave the rest queued, and what lets
//! a recovered controller re-split `tail + rest` after a crash, without
//! changing how anything is eventually batched.

use crate::event::CtrlEvent;
use std::ops::Range;
use tagger_topo::LinkId;

/// How an ordered event stream is split into recompute batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Damping {
    /// Every event stages its own epoch.
    None,
    /// A maximal run of consecutive link events on the *same* link is
    /// one batch; everything else is a singleton (the default).
    Flap,
    /// Flap damping with a ceiling on batch size: a longer same-link run
    /// is chopped into pieces of at most this many events, bounding the
    /// state one epoch can move at the cost of extra recomputes on very
    /// long flap storms.
    FlapCapped(usize),
}

impl Damping {
    /// Parses the CLI syntax: `none`, `flap`, or `flap:N` (cap N ≥ 1).
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "none" => Ok(Damping::None),
            "flap" => Ok(Damping::Flap),
            _ => match spec.strip_prefix("flap:").map(str::parse) {
                Some(Ok(n)) if n >= 1 => Ok(Damping::FlapCapped(n)),
                _ => Err(format!(
                    "damping {spec:?} is not none | flap | flap:N (N >= 1)"
                )),
            },
        }
    }

    /// Partitions `events` into contiguous, in-order, non-empty ranges
    /// covering the whole slice. Each range becomes one staged batch.
    pub fn split(self, events: &[CtrlEvent]) -> Vec<Range<usize>> {
        fn link_of(e: &CtrlEvent) -> Option<LinkId> {
            match e {
                CtrlEvent::LinkDown(l) | CtrlEvent::LinkUp(l) => Some(*l),
                _ => None,
            }
        }
        let cap = match self {
            Damping::None => 1,
            Damping::Flap => usize::MAX,
            Damping::FlapCapped(n) => n.max(1),
        };
        let mut batches = Vec::new();
        let mut start = 0;
        while start < events.len() {
            let mut end = start + 1;
            if let Some(link) = link_of(&events[start]) {
                while end < events.len() && end - start < cap && link_of(&events[end]) == Some(link)
                {
                    end += 1;
                }
            }
            batches.push(start..end);
            start = end;
        }
        batches
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::event::parse_trace;
    use tagger_topo::ClosConfig;

    fn events(trace: &str) -> Vec<CtrlEvent> {
        parse_trace(&ClosConfig::small().build(), trace).unwrap()
    }

    fn assert_covering(events: &[CtrlEvent], ranges: &[Range<usize>]) {
        let mut at = 0;
        for r in ranges {
            assert_eq!(r.start, at, "ranges must be contiguous and in order");
            assert!(r.end > r.start, "ranges must be non-empty");
            at = r.end;
        }
        assert_eq!(at, events.len(), "ranges must cover the stream");
    }

    fn assert_suffix_closed(damping: Damping, events: &[CtrlEvent]) {
        let full = damping.split(events);
        assert_covering(events, &full);
        if full.len() < 2 {
            return;
        }
        let cut = full[0].end;
        let rest = damping.split(&events[cut..]);
        let shifted: Vec<Range<usize>> = rest.iter().map(|r| r.start + cut..r.end + cut).collect();
        assert_eq!(
            &full[1..],
            shifted.as_slice(),
            "removing the first batch must not re-batch the remainder"
        );
    }

    #[test]
    fn flap_damping_batches_same_link_runs_only() {
        let evs = events("flap L1 T1 3\ndown L2 T2\nresync\nup L2 T2");
        // 6 flap events, then three singletons: the resync keeps the two
        // L2-T2 transitions apart.
        assert_eq!(Damping::Flap.split(&evs), vec![0..6, 6..7, 7..8, 8..9]);
    }

    #[test]
    fn no_damping_is_all_singletons() {
        let evs = events("flap L1 T1 2\nresync");
        let split = Damping::None.split(&evs);
        assert_eq!(split.len(), evs.len());
        assert_covering(&evs, &split);
    }

    #[test]
    fn capped_damping_chops_long_runs() {
        let evs = events("flap L1 T1 4"); // 8 events on one link
        let split = Damping::FlapCapped(3).split(&evs);
        assert_eq!(
            split,
            vec![0..3, 3..6, 6..8],
            "an 8-event run capped at 3 is 3+3+2"
        );
    }

    #[test]
    fn policies_are_suffix_closed() {
        let evs = events("flap L1 T1 4\ndown L2 T2\nresync\nflap L3 T3 2\nup L2 T2");
        for damping in [
            Damping::None,
            Damping::Flap,
            Damping::FlapCapped(3),
            Damping::FlapCapped(1),
        ] {
            assert_suffix_closed(damping, &evs);
        }
    }

    #[test]
    fn parse_accepts_the_three_spellings_and_refuses_the_rest() {
        assert_eq!(Damping::parse("none"), Ok(Damping::None));
        assert_eq!(Damping::parse("flap"), Ok(Damping::Flap));
        assert_eq!(Damping::parse("flap:4"), Ok(Damping::FlapCapped(4)));
        assert!(Damping::parse("flap:0").is_err());
        assert!(Damping::parse("flap:x").is_err());
        assert!(Damping::parse("window").is_err());
    }
}
