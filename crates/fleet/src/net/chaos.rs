//! A seeded fault-injecting TCP proxy between ingest clients and the
//! fleet server — the transport counterpart of
//! [`ChaosSouthbound`](tagger_ctrl::ChaosSouthbound).
//!
//! The proxy sits on its own listening socket and forwards each
//! accepted connection to the real server. The client→server direction
//! is *frame-aware*: bytes are reassembled into wire frames and each
//! frame independently draws from a seeded SplitMix64 schedule —
//! forwarded clean, **duplicated** (delivered twice, exercising the
//! server's sequence-number dedupe), **truncated** (a proper prefix is
//! written and the rest dropped, tearing the frame mid-stream and
//! exercising the server's resynchronizing decoder), **delayed**, or
//! the whole connection is **disconnected** (exercising the client's
//! reconnect-and-resend path). The server→client direction is a plain
//! copy, so replies are never corrupted — every injected failure is
//! attributable to the request path, which keeps drills diagnosable.
//!
//! Determinism: each accepted connection gets its own RNG stream
//! derived from the proxy seed and a connection counter, so a drill's
//! fault schedule depends only on the seed and the order/content of
//! frames — not on wall-clock time.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::reap;
use super::wire::{encode, Decoder};

/// SplitMix64 — the same generator the fleet derives per-fabric seeds
/// with; tiny, seedable, and with no shared state between streams.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `[0, n)` (0 when `n` is 0).
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// The transport fault schedule: per-frame probabilities. Rates are
/// clamped so their sum stays at or below 0.9 — a proxy that faults
/// every frame forever is a severed cable, not a fault model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetChaosConfig {
    /// RNG seed; equal seeds produce equal fault schedules.
    pub seed: u64,
    /// Probability a frame triggers a full connection disconnect (the
    /// frame is lost; both directions are torn down).
    pub disconnect_rate: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a frame is truncated mid-write (a proper prefix is
    /// forwarded; the stream then continues with the next frame).
    pub truncate_rate: f64,
    /// Probability a frame is delayed before forwarding.
    pub delay_rate: f64,
    /// Upper bound on an injected delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl NetChaosConfig {
    /// Clamps each rate to `[0, 0.9]`, a NaN one to 0, and rescales so
    /// the total stays at or below 0.9. [`ChaosTransport::start`] applies
    /// it to whatever it is given.
    pub fn clamped(mut self) -> Self {
        for r in [
            &mut self.disconnect_rate,
            &mut self.duplicate_rate,
            &mut self.truncate_rate,
            &mut self.delay_rate,
        ] {
            // `f64::clamp` keeps a NaN.
            *r = if r.is_nan() { 0.0 } else { r.clamp(0.0, 0.9) };
        }
        let total =
            self.disconnect_rate + self.duplicate_rate + self.truncate_rate + self.delay_rate;
        if total > 0.9 {
            let scale = 0.9 / total;
            self.disconnect_rate *= scale;
            self.duplicate_rate *= scale;
            self.truncate_rate *= scale;
            self.delay_rate *= scale;
        }
        self
    }
}

/// Cumulative fault counters, readable while the proxy runs.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Connections accepted and proxied.
    pub connections: AtomicU64,
    /// Frames forwarded clean.
    pub forwarded: AtomicU64,
    /// Connections torn down by an injected disconnect.
    pub disconnects: AtomicU64,
    /// Frames delivered twice.
    pub duplicates: AtomicU64,
    /// Frames truncated mid-write.
    pub truncations: AtomicU64,
    /// Frames delayed.
    pub delays: AtomicU64,
}

impl ChaosStats {
    /// Total faults injected so far.
    pub fn faults(&self) -> u64 {
        self.disconnects.load(Ordering::Relaxed)
            + self.duplicates.load(Ordering::Relaxed)
            + self.truncations.load(Ordering::Relaxed)
            + self.delays.load(Ordering::Relaxed)
    }
}

/// The running proxy: listen address, fault counters, shutdown handle.
pub struct ChaosTransport {
    addr: SocketAddr,
    cfg: NetChaosConfig,
    stats: Arc<ChaosStats>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// How long proxy relay threads wait in a blocked read before checking
/// the stop flag again.
const POLL: Duration = Duration::from_millis(20);

impl ChaosTransport {
    /// Starts the proxy on an ephemeral local port, forwarding every
    /// accepted connection to `upstream` under `cfg`'s fault schedule,
    /// [clamped](NetChaosConfig::clamped) first.
    pub fn start(upstream: SocketAddr, cfg: NetChaosConfig) -> std::io::Result<ChaosTransport> {
        let cfg = cfg.clamped();
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stats = Arc::new(ChaosStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stats = Arc::clone(&stats);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            let mut conn_index = 0u64;
            let mut relays: Vec<std::thread::JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((client, _)) => {
                        reap(&mut relays);
                        accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                        let seed = SplitMix64::new(cfg.seed.wrapping_add(conn_index)).next_u64();
                        conn_index += 1;
                        match TcpStream::connect(upstream) {
                            Ok(server) => {
                                relays.extend(relay_pair(
                                    client,
                                    server,
                                    cfg,
                                    seed,
                                    Arc::clone(&accept_stats),
                                    Arc::clone(&accept_stop),
                                ));
                            }
                            Err(_) => {
                                // Upstream refused: drop the client —
                                // from its side this is a disconnect.
                                let _ = client.shutdown(Shutdown::Both);
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
            for h in relays {
                let _ = h.join();
            }
        });
        Ok(ChaosTransport {
            addr,
            cfg,
            stats,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address (point clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fault schedule in force: the one given to
    /// [`ChaosTransport::start`], clamped.
    pub fn config(&self) -> NetChaosConfig {
        self.cfg
    }

    /// Live fault counters.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Stops accepting and tears the proxy down.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Spawns the two relay threads for one proxied connection: the
/// frame-aware, fault-injecting client→server leg and the transparent
/// server→client leg.
fn relay_pair(
    client: TcpStream,
    server: TcpStream,
    cfg: NetChaosConfig,
    seed: u64,
    stats: Arc<ChaosStats>,
    stop: Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    let dead = Arc::new(AtomicBool::new(false));
    let _ = client.set_read_timeout(Some(POLL));
    let _ = server.set_read_timeout(Some(POLL));
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);

    let c2s = {
        let client = match client.try_clone() {
            Ok(c) => c,
            Err(_) => return Vec::new(),
        };
        let mut server_w = match server.try_clone() {
            Ok(s) => s,
            Err(_) => return Vec::new(),
        };
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        let dead = Arc::clone(&dead);
        let server_for_kill = match server.try_clone() {
            Ok(s) => s,
            Err(_) => return Vec::new(),
        };
        let client_for_kill = match client.try_clone() {
            Ok(c) => c,
            Err(_) => return Vec::new(),
        };
        std::thread::spawn(move || {
            let mut rng = SplitMix64::new(seed);
            let mut dec = Decoder::new();
            let mut client = client;
            let mut buf = [0u8; 4096];
            'conn: loop {
                if stop.load(Ordering::Relaxed) || dead.load(Ordering::Relaxed) {
                    break;
                }
                let n = match client.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => break,
                };
                dec.extend(&buf[..n]);
                while let Some(frame) = dec.next_frame() {
                    let bytes = encode(frame.kind, frame.seq, &frame.payload);
                    let draw = rng.next_f64();
                    let c = cfg;
                    if draw < c.disconnect_rate {
                        stats.disconnects.fetch_add(1, Ordering::Relaxed);
                        dead.store(true, Ordering::Relaxed);
                        let _ = client.shutdown(Shutdown::Both);
                        let _ = server_for_kill.shutdown(Shutdown::Both);
                        break 'conn;
                    } else if draw < c.disconnect_rate + c.duplicate_rate {
                        stats.duplicates.fetch_add(1, Ordering::Relaxed);
                        if server_w.write_all(&bytes).is_err()
                            || server_w.write_all(&bytes).is_err()
                        {
                            break 'conn;
                        }
                    } else if draw < c.disconnect_rate + c.duplicate_rate + c.truncate_rate {
                        // Tear the frame: forward a proper prefix, drop
                        // the rest, keep the stream alive — the server's
                        // decoder must resynchronize on the next frame.
                        stats.truncations.fetch_add(1, Ordering::Relaxed);
                        let cut = 1 + rng.next_below(bytes.len() as u64 - 1) as usize;
                        if server_w.write_all(&bytes[..cut]).is_err() {
                            break 'conn;
                        }
                    } else if draw
                        < c.disconnect_rate + c.duplicate_rate + c.truncate_rate + c.delay_rate
                    {
                        stats.delays.fetch_add(1, Ordering::Relaxed);
                        let ms = rng.next_below(cfg.max_delay_ms.max(1)) + 1;
                        std::thread::sleep(Duration::from_millis(ms));
                        if server_w.write_all(&bytes).is_err() {
                            break 'conn;
                        }
                    } else {
                        stats.forwarded.fetch_add(1, Ordering::Relaxed);
                        if server_w.write_all(&bytes).is_err() {
                            break 'conn;
                        }
                    }
                }
            }
            dead.store(true, Ordering::Relaxed);
            let _ = client_for_kill.shutdown(Shutdown::Both);
            let _ = server_for_kill.shutdown(Shutdown::Both);
        })
    };

    let s2c = {
        let mut server = server;
        let mut client_w = client;
        let stop = Arc::clone(&stop);
        let dead = Arc::clone(&dead);
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                if stop.load(Ordering::Relaxed) || dead.load(Ordering::Relaxed) {
                    break;
                }
                match server.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        if client_w.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => break,
                }
            }
            dead.store(true, Ordering::Relaxed);
            let _ = client_w.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
        })
    };

    vec![c2s, s2c]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix64::new(3);
        for _ in 0..64 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.next_below(5) < 5);
        }
    }

    #[test]
    fn rates_clamp_to_a_survivable_total() {
        let cfg = NetChaosConfig {
            seed: 1,
            disconnect_rate: 0.9,
            duplicate_rate: 0.9,
            truncate_rate: 0.9,
            delay_rate: 0.9,
            max_delay_ms: 1,
        }
        .clamped();
        let total = cfg.disconnect_rate + cfg.duplicate_rate + cfg.truncate_rate + cfg.delay_rate;
        assert!(total <= 0.9 + 1e-9, "total {total} must stay survivable");
    }

    fn only_disconnects(rate: f64) -> NetChaosConfig {
        NetChaosConfig {
            seed: 1,
            disconnect_rate: rate,
            duplicate_rate: 0.0,
            truncate_rate: 0.0,
            delay_rate: 0.2,
            max_delay_ms: 1,
        }
    }

    #[test]
    fn start_clamps_a_schedule_that_disconnects_every_frame() {
        let upstream: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let proxy = ChaosTransport::start(upstream, only_disconnects(1.0)).unwrap();
        let cfg = proxy.config();
        proxy.shutdown();
        assert!(cfg.disconnect_rate < 1.0, "{cfg:?}");
        assert!(
            cfg.disconnect_rate + cfg.delay_rate <= 0.9 + 1e-9,
            "{cfg:?}"
        );
        assert_eq!(cfg, only_disconnects(1.0).clamped());
    }

    #[test]
    fn a_nan_rate_clamps_to_zero() {
        let cfg = only_disconnects(f64::NAN).clamped();
        assert_eq!(cfg.disconnect_rate, 0.0);
        assert_eq!(cfg.delay_rate, 0.2);
        let upstream: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let proxy = ChaosTransport::start(upstream, only_disconnects(f64::NAN)).unwrap();
        assert_eq!(proxy.config(), cfg);
        proxy.shutdown();
    }
}
