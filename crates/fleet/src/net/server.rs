//! The fleet's TCP ingest front: one thread runs a nonblocking readiness
//! loop that owns the listener, every connection and the [`Fleet`], and
//! a graceful shutdown drains queues and journals before closing.
//!
//! Threading model (no async runtime — plain `std::net` sockets in
//! nonblocking mode, per the offline-deps constraint): nothing is shared
//! with the loop but its counters and a stop flag, so there is no lock.
//! Each pass of the loop, in order:
//!
//! 1. accepts every pending connection;
//! 2. gives each connection at most one read, so a flooding peer cannot
//!    starve the others;
//! 3. feeds the bytes to that connection's resynchronizing [`Decoder`]
//!    and answers every complete frame with a structured reply —
//!    `Ok{epoch}`, `Backpressure{queue_depth, retry_after_ms}` (mapped
//!    from [`FleetError::QueueFull`] or an exhausted per-connection
//!    budget), `Rewind{expected}`, or `Reject{span, reason}` (carrying
//!    the span from the fabric's own `TraceError`);
//! 4. when the drain tick is due, runs [`Fleet::drain_cycle_settled`] —
//!    the same fair, bounded-quantum cycle the in-process daemon uses,
//!    its fabrics' turns spread across cores, holding back each fabric's
//!    still-growing trailing batch — and refills every connection's
//!    event budget. A chatty peer that outruns its budget is pushed back
//!    with `Backpressure`, not allowed to monopolize the cycle.
//!
//! Replies are written without blocking. A peer whose reply does not fit
//! in its socket buffer is disconnected: a one-in-flight client never
//! has more than one reply outstanding, and one that is cut off anyway
//! reconnects and resumes from `Welcome{next_seq}`. A pass that moved no
//! byte yields the core for up to `YIELD_WINDOW` (500 µs) after the last
//! one that did, then sleeps at most `IDLE_SLEEP` (1 ms), never past the
//! next tick.
//!
//! Dedupe contract: each client names itself with a `Hello{client_id}`
//! and numbers its events with a per-client sequence. The server tracks
//! the next expected seq per client; duplicates (a retried frame, a
//! chaos-proxy double delivery, a resend on a new connection while the
//! old one still carries the original) are acknowledged without
//! re-applying, and gaps are answered with `Rewind{expected}` so a client
//! can never silently skip an event. One thread applies frames in arrival
//! order, so the check, the apply and the seq bump cannot interleave with
//! another connection's. This is what makes at-least-once retry from the
//! client exactly-once at the fabric queue.
//!
//! Shutdown sequence (also documented in DESIGN §15): stop the loop →
//! its thread returns the fleet, closing the listener and every
//! connection → drain every queue through the journaled two-phase
//! rollout → snapshot. Nothing accepted is ever dropped.

use crate::error::FleetError;
use crate::fabric::FabricSpec;
use crate::registry::{Fleet, FleetConfig};
use crate::report::FleetReport;

use super::wire::{Decoder, Msg};

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tagger_ctrl::{ChaosConfig, Damping};
use tagger_topo::Topology;

/// Suggested client retry delay carried in `Backpressure` replies, ms.
const RETRY_AFTER_MS: u32 = 2;
/// How often the loop runs a fair drain cycle and refills every
/// connection's event budget, counted from the end of the last cycle.
const DRAIN_TICK: Duration = Duration::from_millis(2);
/// How long an idle loop keeps yielding after its last progress before
/// it starts to sleep: a one-in-flight client's next frame usually
/// arrives within it.
const YIELD_WINDOW: Duration = Duration::from_micros(500);
/// The longest one idle sleep.
const IDLE_SLEEP: Duration = Duration::from_millis(1);
/// Bytes one connection may read per pass.
const READ_CHUNK: usize = 4096;

/// Everything the ingest front needs to run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Journal directory (one file per fabric, derived names).
    pub dir: PathBuf,
    /// Per-fabric ingest queue capacity; a full queue answers
    /// `Backpressure`, never drops.
    pub queue_cap: usize,
    /// Fair-drain quantum per fabric per cycle (PR 6's starvation
    /// bound).
    pub drain_quantum: usize,
    /// Events one connection may land per drain tick before being
    /// pushed back — the budget that keeps one chatty peer from
    /// starving the fair cycle.
    pub conn_budget: usize,
    /// Damping policy for auto-registered fabrics.
    pub damping: Damping,
    /// Southbound chaos schedule for auto-registered fabrics, re-seeded
    /// per fabric name ([`chaos_for`](crate::chaos_for)); `None` =
    /// reliable.
    pub chaos: Option<ChaosConfig>,
    /// Topology template for auto-registered fabrics.
    pub topo: Topology,
}

impl ServeConfig {
    /// Defaults rooted at `dir` over `topo`: queue cap 1024, quantum 4,
    /// budget 64 events per connection per drain tick, flap damping,
    /// reliable southbound.
    pub fn new(dir: impl Into<PathBuf>, topo: Topology) -> Self {
        ServeConfig {
            dir: dir.into(),
            queue_cap: 1024,
            drain_quantum: 4,
            conn_budget: 64,
            damping: Damping::Flap,
            chaos: None,
            topo,
        }
    }
}

/// Cumulative server counters, readable while serving.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Frames decoded across all connections.
    pub frames: AtomicU64,
    /// Events applied to fabric queues (after dedupe).
    pub events_applied: AtomicU64,
    /// Duplicate events acknowledged without re-applying.
    pub duplicates_dropped: AtomicU64,
    /// `Backpressure` replies sent (full queue or exhausted budget).
    pub backpressure_replies: AtomicU64,
    /// `Reject` replies sent.
    pub rejects: AtomicU64,
    /// `Rewind` replies sent (sequence gaps).
    pub rewinds: AtomicU64,
    /// Torn-frame resynchronizations survived across all connections.
    pub resyncs: AtomicU64,
}

/// The running ingest front. Start with [`Server::start`], stop with
/// [`Server::shutdown`] — dropping without shutdown also stops the
/// loop, but skips the final drain.
pub struct Server {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    /// The loop thread; it hands the fleet back when it stops.
    thread: Option<JoinHandle<Result<Fleet, FleetError>>>,
}

/// What a graceful shutdown leaves behind: the drained fleet's final
/// snapshot, and the fleet itself for journal-level inspection.
pub struct ShutdownOutcome {
    /// Final snapshot after the terminal drain.
    pub report: FleetReport,
    /// The drained fleet (journals on disk, controllers live).
    pub fleet: Fleet,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// loop thread.
    pub fn start(addr: &str, cfg: ServeConfig) -> Result<Server, FleetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let mut fleet_cfg = FleetConfig::new(&cfg.dir);
        fleet_cfg.queue_cap = cfg.queue_cap;
        fleet_cfg.drain_quantum = cfg.drain_quantum;
        let mut template = FabricSpec::new("", cfg.topo).with_damping(cfg.damping);
        template.chaos = cfg.chaos;
        let stats = Arc::new(ServerStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let front = Front {
            fleet: Fleet::new(fleet_cfg),
            template,
            clients: BTreeMap::new(),
            conn_budget: cfg.conn_budget,
            stats: Arc::clone(&stats),
        };
        let loop_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || front.run(&listener, &loop_stop));
        Ok(Server {
            addr,
            stats,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Graceful shutdown: stop the loop, drain every queue and journal,
    /// then return the final state. The returned fleet still owns its
    /// journals, so callers can verify recovery or compare journal
    /// bytes.
    pub fn shutdown(mut self) -> Result<ShutdownOutcome, FleetError> {
        let mut fleet = self.stop_loop()?;
        fleet.drain_all()?;
        let report = fleet.snapshot();
        Ok(ShutdownOutcome { report, fleet })
    }

    /// Stops the loop and takes back the fleet it owned, or the first
    /// drain error it met.
    fn stop_loop(&mut self) -> Result<Fleet, FleetError> {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self
            .thread
            .take()
            .ok_or_else(|| FleetError::Protocol("the ingest loop already stopped".into()))?;
        thread
            .join()
            .map_err(|_| FleetError::Protocol("the ingest loop panicked".into()))?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop_loop();
    }
}

/// One open connection.
struct Conn {
    stream: TcpStream,
    dec: Decoder,
    /// Set by `Hello`; events before it are rejected.
    client: Option<u64>,
    /// Events applied since the last drain tick.
    used: usize,
}

/// What the loop thread owns besides its sockets.
struct Front {
    fleet: Fleet,
    /// What a fabric is registered from on first mention.
    template: FabricSpec,
    /// client id → next expected event seq (everything below it is
    /// applied).
    clients: BTreeMap<u64, u64>,
    conn_budget: usize,
    stats: Arc<ServerStats>,
}

impl Front {
    /// The readiness loop; returns the fleet when `stop` is set, or the
    /// first drain error it met (it keeps serving after one, as the
    /// fabric that failed may be the only one in trouble).
    fn run(mut self, listener: &TcpListener, stop: &AtomicBool) -> Result<Fleet, FleetError> {
        let mut conns: Vec<Conn> = Vec::new();
        let mut buf = [0u8; READ_CHUNK];
        let mut drain_error = None;
        let mut next_tick = Instant::now() + DRAIN_TICK;
        let mut last_progress = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            let mut progress = self.accept(listener, &mut conns);
            conns.retain_mut(|conn| self.serve(conn, &mut buf, &mut progress));
            if Instant::now() >= next_tick {
                // Settled drain: the trailing batch of each fabric's
                // stream may still be growing; committing it here would
                // make batch boundaries depend on tick timing. The
                // shutdown path's drain_all flushes it.
                if let Err(e) = self.fleet.drain_cycle_settled() {
                    drain_error.get_or_insert(e);
                }
                for conn in &mut conns {
                    conn.used = 0;
                }
                next_tick = Instant::now() + DRAIN_TICK;
            }
            let now = Instant::now();
            if progress {
                last_progress = now;
            } else if now < last_progress + YIELD_WINDOW {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP.min(next_tick.saturating_duration_since(now)));
            }
        }
        match drain_error {
            Some(e) => Err(e),
            None => Ok(self.fleet),
        }
    }

    /// Accepts every pending connection; true if there was one.
    fn accept(&self, listener: &TcpListener, conns: &mut Vec<Conn>) -> bool {
        let mut accepted = false;
        // WouldBlock ends the batch; so does any other accept error,
        // which the next pass retries.
        while let Ok((stream, _)) = listener.accept() {
            accepted = true;
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            conns.push(Conn {
                stream,
                dec: Decoder::new(),
                client: None,
                used: 0,
            });
        }
        accepted
    }

    /// Gives `conn` one read and answers every frame it completes.
    /// Returns false once the connection is finished: closed by the
    /// peer, ended by `Bye`, or holding a reply its socket cannot take.
    fn serve(&mut self, conn: &mut Conn, buf: &mut [u8], progress: &mut bool) -> bool {
        let n = match conn.stream.read(buf) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return true;
            }
            Err(_) => 0,
        };
        *progress = true;
        if n == 0 {
            return false;
        }
        conn.dec.extend(&buf[..n]);
        let resyncs = conn.dec.resyncs;
        let mut replies = Vec::new();
        let mut open = true;
        while let Some(frame) = conn.dec.next_frame() {
            self.stats.frames.fetch_add(1, Ordering::Relaxed);
            let reply = match Msg::decode(&frame) {
                Ok(msg) => self.handle(conn, frame.seq, msg),
                Err(e) => Some(self.reject(e.to_string())),
            };
            let Some(reply) = reply else {
                open = false;
                break;
            };
            replies.extend(reply.encode(frame.seq));
        }
        self.stats
            .resyncs
            .fetch_add(conn.dec.resyncs - resyncs, Ordering::Relaxed);
        conn.stream.write_all(&replies).is_ok() && open
    }

    /// Answers one request; `None` means close the connection without
    /// a reply (`Bye`).
    fn handle(&mut self, conn: &mut Conn, seq: u64, msg: Msg) -> Option<Msg> {
        match msg {
            Msg::Hello { client } => {
                conn.client = Some(client);
                let next_seq = *self.clients.entry(client).or_insert(0);
                Some(Msg::Welcome { next_seq })
            }
            Msg::Bye => None,
            Msg::Event { line } => Some(self.handle_event(conn, seq, &line)),
            // A request-side socket should never carry reply kinds; answer
            // with a reject rather than guessing.
            other => Some(self.reject(format!(
                "unexpected frame kind {} on an ingest stream",
                other.kind()
            ))),
        }
    }

    fn handle_event(&mut self, conn: &mut Conn, seq: u64, line: &str) -> Msg {
        let Some(client) = conn.client else {
            return self.reject("event before Hello: open the session first".into());
        };
        if conn.used >= self.conn_budget {
            return self.backpressure(0);
        }
        let expected = self.clients.get(&client).copied().unwrap_or(0);
        if seq < expected {
            // Duplicate delivery: already applied — ack idempotently,
            // never re-apply.
            self.stats
                .duplicates_dropped
                .fetch_add(1, Ordering::Relaxed);
            return Msg::Ok {
                epoch: self.committed_epoch(line),
            };
        }
        if seq > expected {
            // A gap means an earlier event was lost in transit (torn frame,
            // dropped connection). Applying this one would reorder the
            // stream — rewind the client instead.
            self.stats.rewinds.fetch_add(1, Ordering::Relaxed);
            return Msg::Rewind { expected };
        }

        // Registers the fabric on first mention, like every stream front.
        match self.fleet.ingest_stream_line(&self.template, line) {
            Ok(_) => {
                self.clients.insert(client, expected + 1);
                conn.used += 1;
                self.stats.events_applied.fetch_add(1, Ordering::Relaxed);
                Msg::Ok {
                    epoch: self.committed_epoch(line),
                }
            }
            Err(FleetError::QueueFull { fabric, .. }) => {
                // Retryable: the seq is NOT consumed; the client resends
                // after backing off and the dedupe admits it then.
                let depth = self
                    .fleet
                    .fabric(&fabric)
                    .map_or(u32::MAX, |f| f.queued() as u32);
                self.backpressure(depth)
            }
            Err(e) => {
                // Permanent refusal — no `<fabric>:`, a fabric that cannot
                // register, a line its topology cannot parse: consume the
                // seq (the client must not retry it, or it would ping-pong
                // between Reject here and Rewind on its next event) and
                // carry the span so the operator sees where.
                self.clients.insert(client, expected + 1);
                self.stats.rejects.fetch_add(1, Ordering::Relaxed);
                let (sl, sc, sn) = match &e {
                    FleetError::Trace(t) => {
                        (t.span.line as u32, t.span.col as u32, t.span.len as u32)
                    }
                    _ => (0, 0, 0),
                };
                Msg::Reject {
                    line: sl,
                    col: sc,
                    len: sn,
                    reason: e.to_string(),
                }
            }
        }
    }

    /// The committed epoch of the fabric a stream line names (0 when the
    /// line names none the fleet hosts) — what an `Ok` reply reports.
    fn committed_epoch(&self, line: &str) -> u64 {
        line.split_once(':')
            .and_then(|(fabric, _)| self.fleet.fabric(fabric.trim()).ok())
            .map_or(0, |f| f.controller().committed().epoch)
    }

    fn backpressure(&self, queue_depth: u32) -> Msg {
        self.stats
            .backpressure_replies
            .fetch_add(1, Ordering::Relaxed);
        Msg::Backpressure {
            queue_depth,
            retry_after_ms: RETRY_AFTER_MS,
        }
    }

    /// A span-less `Reject`.
    fn reject(&self, reason: String) -> Msg {
        self.stats.rejects.fetch_add(1, Ordering::Relaxed);
        Msg::Reject {
            line: 0,
            col: 0,
            len: 0,
            reason,
        }
    }
}
