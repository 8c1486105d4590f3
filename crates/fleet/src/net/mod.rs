//! The fleet's network ingest front — DESIGN §15.
//!
//! Four layers, each testable alone:
//!
//! - [`wire`] — the length-prefixed framed protocol and its
//!   resynchronizing decoder. Torn frames cost bytes, never
//!   connections.
//! - [`server`] — `tagger-fleetd serve`: one nonblocking readiness loop
//!   that owns the fleet, reads each connection in turn under a
//!   per-connection budget, ticks the fair
//!   [`drain_cycle_settled`](crate::Fleet::drain_cycle_settled),
//!   dedupes per-client sequences, and shuts down drain-then-close.
//! - [`client`] — `tagger-fleetd send`: strict one-in-flight delivery with
//!   seeded backoff + jitter and bounded retries, reporting a
//!   byte-stable delivery summary.
//! - [`chaos`] — a seeded transport proxy injecting disconnects,
//!   delays, duplicates, and mid-frame truncation, so every failure
//!   mode above is exercised deterministically in loopback soaks.
//!
//! The invariant the whole stack defends: events reach each fabric's
//! queue **exactly once and in order**, so the write-ahead journals a
//! networked ingest produces are byte-identical to a solo in-process
//! replay of the same lines — chaos or no chaos.

pub mod chaos;
pub mod client;
pub mod server;
pub mod wire;

pub use crate::registry::chaos_for;
pub use chaos::{ChaosStats, ChaosTransport, NetChaosConfig};
pub use client::{send_lines, ClientConfig, DeliveryReport, Rejection};
pub use server::{ServeConfig, Server, ServerStats, ShutdownOutcome};

use std::thread::JoinHandle;

/// Joins and drops every finished thread in `handles`, keeping the live
/// ones. A thread that has exited keeps its stack until it is joined, so
/// [`ChaosTransport`]'s accept loop, which spawns per connection, calls
/// this on each accept to hold only the connections still open.
fn reap(handles: &mut Vec<JoinHandle<()>>) {
    let (done, live) = std::mem::take(handles)
        .into_iter()
        .partition::<Vec<_>, _>(JoinHandle::is_finished);
    *handles = live;
    for handle in done {
        let _ = handle.join();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::reap;
    use std::sync::mpsc;

    #[test]
    fn reap_joins_finished_threads_and_keeps_live_ones() {
        let (release, wait) = mpsc::channel::<()>();
        let live = std::thread::spawn(move || {
            let _ = wait.recv();
        });
        let done = std::thread::spawn(|| {});
        while !done.is_finished() {
            std::thread::yield_now();
        }
        let mut handles = vec![done, live];
        reap(&mut handles);
        assert_eq!(handles.len(), 1, "the finished thread is joined");
        assert!(!handles[0].is_finished(), "the live thread is kept");
        release.send(()).unwrap();
        while !handles[0].is_finished() {
            std::thread::yield_now();
        }
        reap(&mut handles);
        assert!(handles.is_empty());
    }
}
