//! The ingest client: bounded retry with seeded backoff + jitter, a
//! strict one-in-flight send window, and a byte-stable delivery report.
//!
//! The client owns the *at-least-once* half of the delivery contract:
//! it resends an event until some reply consumes its sequence number,
//! reconnecting (with capped, seeded exponential backoff) when the
//! transport dies under it. The server's per-client sequence tracking
//! owns the *at-most-once* half — a resend of an already-applied event
//! is acknowledged without re-applying. Together: exactly once at the
//! fabric queue, no matter what the transport does in between.
//!
//! Sequence numbers are simply the index into the caller's line list,
//! so a reconnect handshake (`Hello` → `Welcome{next_seq}`) tells the
//! client precisely where to resume: everything below `next_seq`
//! landed, even if its ack was lost in the disconnect.

use crate::error::FleetError;

use super::chaos::SplitMix64;
use super::wire::{Decoder, Msg};

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tagger_core::json::Value;

/// Client knobs. All timing is bounded: no retry loop is infinite.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Server (or chaos proxy) address, `host:port`.
    pub addr: String,
    /// Stable client identity — the server's dedupe key. Two concurrent
    /// clients must never share one.
    pub client_id: u64,
    /// Seed for backoff jitter (deterministic retry schedules in tests).
    pub seed: u64,
    /// Send attempts per event before giving up (resends after a lost
    /// reply count; backpressure retries count).
    pub max_attempts: u32,
    /// Consecutive failed reconnect attempts before giving up. Resets
    /// on every successful handshake.
    pub max_reconnects: u32,
    /// First backoff step; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// How long to wait for a reply before resending the event.
    pub reply_timeout: Duration,
}

impl ClientConfig {
    /// Defaults for `addr`/`client_id`: 64 attempts, 16 reconnects,
    /// 2 ms..250 ms backoff, 500 ms reply timeout, seed = client id.
    pub fn new(addr: impl Into<String>, client_id: u64) -> Self {
        ClientConfig {
            addr: addr.into(),
            client_id,
            seed: client_id,
            max_attempts: 64,
            max_reconnects: 16,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(250),
            reply_timeout: Duration::from_millis(500),
        }
    }
}

/// One permanently refused event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// Index of the refused line in the submitted stream.
    pub index: u64,
    /// The server's reason (carries the parse span when there is one).
    pub reason: String,
}

/// What a [`send_lines`] run delivered.
///
/// Two kinds of fields. The *outcome* fields (`offered`, `delivered`,
/// `rejections`) depend only on the input lines and the fabric
/// topologies — they are byte-stable across runs even under transport
/// chaos, which is what [`DeliveryReport::stable_json`] serializes for
/// CI comparison. The *transport* fields (`reconnects`,
/// `backpressure_hits`, `resends`) depend on fault timing and belong in
/// operator text only.
#[derive(Clone, Debug, Default)]
pub struct DeliveryReport {
    /// The client identity the events were sent under.
    pub client_id: u64,
    /// Lines submitted.
    pub offered: u64,
    /// Lines applied by the server exactly once.
    pub delivered: u64,
    /// Lines permanently refused, in index order.
    pub rejections: Vec<Rejection>,
    /// Reconnects survived (timing-dependent).
    pub reconnects: u64,
    /// `Backpressure` replies absorbed (timing-dependent).
    pub backpressure_hits: u64,
    /// Events resent after a lost or late reply (timing-dependent).
    pub resends: u64,
}

impl DeliveryReport {
    /// The deterministic subset as two-space-indented JSON with a
    /// trailing newline — byte-identical across runs at a fixed input,
    /// regardless of transport faults.
    pub fn stable_json(&self) -> String {
        let rejections = self
            .rejections
            .iter()
            .map(|r| Value::obj([("index", r.index.into()), ("reason", Value::str(&r.reason))]));
        Value::obj([
            ("client_id", self.client_id.into()),
            ("offered", self.offered.into()),
            ("delivered", self.delivered.into()),
            ("rejections", rejections.collect()),
        ])
        .render()
    }

    /// One operator summary line (includes timing-dependent counters, so
    /// not byte-stable).
    pub fn render(&self) -> String {
        format!(
            "client {:#x}: offered {} delivered {} rejected {} \
             (reconnects {}, backpressure {}, resends {})",
            self.client_id,
            self.offered,
            self.delivered,
            self.rejections.len(),
            self.reconnects,
            self.backpressure_hits,
            self.resends,
        )
    }
}

/// A connected, handshaken session.
struct Session {
    stream: TcpStream,
    dec: Decoder,
    /// From `Welcome`: everything below this seq is already applied.
    next_seq: u64,
}

/// Backoff with jitter: `base * 2^failures`, capped, then scaled by a
/// seeded factor in [0.5, 1.5).
fn backoff(cfg: &ClientConfig, rng: &mut SplitMix64, failures: u32) -> Duration {
    let exp = cfg
        .base_backoff
        .saturating_mul(1u32 << failures.min(16))
        .min(cfg.max_backoff);
    let jitter = 0.5 + rng.next_f64();
    Duration::from_micros((exp.as_micros() as f64 * jitter) as u64)
}

/// Connects and handshakes, retrying with backoff up to
/// `max_reconnects` consecutive failures.
fn connect(
    cfg: &ClientConfig,
    rng: &mut SplitMix64,
    report: &mut DeliveryReport,
) -> Result<Session, FleetError> {
    let mut failures = 0u32;
    loop {
        match try_connect(cfg) {
            Ok(session) => return Ok(session),
            Err(e) => {
                failures += 1;
                report.reconnects += 1;
                if failures > cfg.max_reconnects {
                    return Err(FleetError::Protocol(format!(
                        "gave up after {failures} consecutive connect failures: {e}"
                    )));
                }
                std::thread::sleep(backoff(cfg, rng, failures - 1));
            }
        }
    }
}

fn try_connect(cfg: &ClientConfig) -> std::io::Result<Session> {
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    stream.set_write_timeout(Some(cfg.reply_timeout))?;
    let mut session = Session {
        stream,
        dec: Decoder::new(),
        next_seq: 0,
    };
    session.stream.write_all(
        &Msg::Hello {
            client: cfg.client_id,
        }
        .encode(0),
    )?;
    // The handshake reply must arrive within the reply timeout.
    let deadline = Instant::now() + cfg.reply_timeout;
    loop {
        match read_reply(&mut session, deadline)? {
            Some((_, Msg::Welcome { next_seq })) => {
                session.next_seq = next_seq;
                return Ok(session);
            }
            Some(_) => continue, // stale reply from a previous connection's tail
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no Welcome before the reply timeout",
                ))
            }
        }
    }
}

/// Pulls one reply frame, waiting until `deadline`. `Ok(None)` = timed
/// out with the connection still healthy; `Err` = connection dead.
fn read_reply(session: &mut Session, deadline: Instant) -> std::io::Result<Option<(u64, Msg)>> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = session.dec.next_frame() {
            match Msg::decode(&frame) {
                Ok(msg) => return Ok(Some((frame.seq, msg))),
                // An undecodable but checksum-valid frame is a protocol
                // mismatch; skip it rather than kill the stream.
                Err(_) => continue,
            }
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        match session.stream.read(&mut buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => session.dec.extend(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Delivers `lines` in order, exactly once each, surviving transport
/// faults within the configured retry bounds. Returns the delivery
/// report, or an error once a bound (attempts, reconnects) is
/// exhausted — the report is only returned when every line was either
/// applied or permanently rejected.
pub fn send_lines(cfg: &ClientConfig, lines: &[String]) -> Result<DeliveryReport, FleetError> {
    let mut report = DeliveryReport {
        client_id: cfg.client_id,
        offered: lines.len() as u64,
        ..DeliveryReport::default()
    };
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC11E);
    let mut session = connect(cfg, &mut rng, &mut report)?;
    // Seqs are line indexes, so a resumed session skips what landed.
    let mut index = session.next_seq;
    report.delivered = index.min(lines.len() as u64);

    while (index as usize) < lines.len() {
        let line = &lines[index as usize];
        let mut attempts = 0u32;
        let consumed = loop {
            if attempts >= cfg.max_attempts {
                return Err(FleetError::Protocol(format!(
                    "event {index} not delivered after {attempts} attempts"
                )));
            }
            attempts += 1;
            if attempts > 1 {
                report.resends += 1;
            }
            let frame = Msg::Event { line: line.clone() }.encode(index);
            if session.stream.write_all(&frame).is_err() {
                report.reconnects += 1;
                session = connect(cfg, &mut rng, &mut report)?;
                break None; // resume from the fresh Welcome
            }
            match wait_consuming_reply(cfg, &mut session, &mut rng, index, &mut report)? {
                WaitOutcome::Consumed(next) => break Some(next),
                WaitOutcome::Resend => continue,
                WaitOutcome::Reconnected => break None,
            }
        };
        let next = match consumed {
            Some(next) => next,
            None => session.next_seq, // fresh handshake decided the resume point
        };
        // Everything in [index, next) is settled; count deliveries that
        // were not recorded as rejections.
        let rejected_in_range = report
            .rejections
            .iter()
            .filter(|r| r.index >= index && r.index < next)
            .count() as u64;
        report.delivered += next.saturating_sub(index) - rejected_in_range;
        // `next` may also rewind below `index` (a Rewind reply, or a
        // reconnect whose Welcome shows an earlier event never landed);
        // the server's dedupe makes re-sending the range harmless.
        index = next;
    }
    // Best-effort goodbye; the work is already acknowledged.
    let _ = session.stream.write_all(&Msg::Bye.encode(index));
    Ok(report)
}

enum WaitOutcome {
    /// The event's seq was consumed; resume from the carried index.
    Consumed(u64),
    /// No reply in time — resend on the same connection (a torn frame
    /// heals this way: the server resyncs past the tear).
    Resend,
    /// The connection died and was re-established; `session.next_seq`
    /// holds the resume point.
    Reconnected,
}

fn wait_consuming_reply(
    cfg: &ClientConfig,
    session: &mut Session,
    rng: &mut SplitMix64,
    index: u64,
    report: &mut DeliveryReport,
) -> Result<WaitOutcome, FleetError> {
    let deadline = Instant::now() + cfg.reply_timeout;
    loop {
        let reply = match read_reply(session, deadline) {
            Ok(r) => r,
            Err(_) => {
                report.reconnects += 1;
                *session = connect(cfg, rng, report)?;
                return Ok(WaitOutcome::Reconnected);
            }
        };
        match reply {
            None => return Ok(WaitOutcome::Resend),
            Some((seq, msg)) if seq == index => match msg {
                Msg::Ok { .. } => return Ok(WaitOutcome::Consumed(index + 1)),
                Msg::Reject { reason, .. } => {
                    report.rejections.push(Rejection { index, reason });
                    return Ok(WaitOutcome::Consumed(index + 1));
                }
                Msg::Backpressure { retry_after_ms, .. } => {
                    report.backpressure_hits += 1;
                    let hinted = Duration::from_millis(u64::from(retry_after_ms));
                    std::thread::sleep(hinted + backoff(cfg, rng, 0));
                    return Ok(WaitOutcome::Resend);
                }
                Msg::Rewind { expected } => return Ok(WaitOutcome::Consumed(expected)),
                // A request kind echoed back is protocol garbage; wait
                // for a real reply.
                _ => continue,
            },
            // Stale replies (acks for already-settled seqs, a tail
            // Welcome from the handshake) are skipped, not errors —
            // duplicate deliveries produce exactly these.
            Some(_) => continue,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn stable_json_is_deterministic_and_omits_transport_counters() {
        let mut r = DeliveryReport {
            client_id: 7,
            offered: 10,
            delivered: 9,
            rejections: vec![Rejection {
                index: 4,
                reason: "unknown node \"L9\"".into(),
            }],
            reconnects: 3,
            backpressure_hits: 12,
            resends: 5,
        };
        let a = r.stable_json();
        // Transport counters must not leak into the stable render.
        r.reconnects = 0;
        r.backpressure_hits = 0;
        r.resends = 0;
        assert_eq!(a, r.stable_json());
        assert!(a.contains("\"delivered\": 9"));
        assert!(a.contains("\\\"L9\\\""));
        assert!(!a.contains("reconnect"));
        assert!(a.ends_with("}\n"));
        let parsed = Value::parse(&a).unwrap();
        assert_eq!(parsed.render(), a, "byte-stable round trip");
        assert_eq!(
            parsed.get("rejections"),
            Some(&Value::Arr(vec![Value::obj([
                ("index", Value::Num(4)),
                ("reason", Value::str("unknown node \"L9\"")),
            ])]))
        );
        // A client id above i64::MAX prints exactly.
        r.client_id = u64::MAX;
        let big = r.stable_json();
        assert!(
            big.contains("\"client_id\": 18446744073709551615,"),
            "{big}"
        );
        assert_eq!(Value::parse(&big).unwrap().render(), big);
    }

    #[test]
    fn backoff_doubles_and_is_capped() {
        let cfg = ClientConfig::new("127.0.0.1:1", 1);
        let mut rng = SplitMix64::new(9);
        let d0 = backoff(&cfg, &mut rng, 0);
        let d4 = backoff(&cfg, &mut rng, 4);
        let d20 = backoff(&cfg, &mut rng, 20);
        assert!(d0 >= cfg.base_backoff / 2);
        assert!(d4 > d0, "backoff must grow with failures");
        assert!(
            d20 <= cfg.max_backoff * 3 / 2,
            "jittered backoff must respect the cap"
        );
    }

    #[test]
    fn connect_gives_up_after_the_reconnect_cap() {
        // A port from the reserved range that nothing listens on.
        let mut cfg = ClientConfig::new("127.0.0.1:1", 3);
        cfg.max_reconnects = 2;
        cfg.base_backoff = Duration::from_micros(10);
        cfg.max_backoff = Duration::from_micros(50);
        let err = send_lines(&cfg, &["a: resync".to_string()]).unwrap_err();
        assert!(matches!(err, FleetError::Protocol(_)));
        assert!(err.to_string().contains("connect failures"));
    }
}
