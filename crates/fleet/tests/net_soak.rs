//! The chaos-proxy loopback soak: the full 8-fabric scenario-schedule
//! mix is delivered over TCP *through a fault-injecting proxy*, and the
//! resulting write-ahead journals must come out byte-identical to a
//! solo in-process replay of the same lines — zero events lost, zero
//! double-applied, every fabric converged — with every journal's length
//! and FNV-64 pinned by `results/ingest_drill.txt`. Plus the
//! backpressure drill: a client hammering a tiny queue is pushed back,
//! backs off, and still delivers 100%; and the flood drill: a peer that
//! writes without ever reading is cut off while an honest client beside
//! it delivers everything.

use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tagger_ctrl::ChaosConfig;
use tagger_fleet::net::wire::Msg;
use tagger_fleet::net::{
    send_lines, ChaosTransport, ClientConfig, NetChaosConfig, ServeConfig, Server,
};
use tagger_fleet::{fabric_lines, fabric_seed, fnv64, solo_replay, FabricSpec, Fleet, FleetConfig};
use tagger_topo::ClosConfig;

const SOAK_SEED: u64 = 0xC0FFEE;
const FABRICS: usize = 8;
const EVENTS_PER_FABRIC: usize = 24;
const INGEST_DRILL: &str = include_str!("../../../results/ingest_drill.txt");

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tagger-netsoak-{}-{name}", std::process::id()))
}

#[test]
fn chaos_proxy_loopback_soak_matches_solo_replay() {
    let dir_net = tmp("chaos-net");
    let dir_solo = tmp("chaos-solo");
    std::fs::remove_dir_all(&dir_net).ok();
    std::fs::remove_dir_all(&dir_solo).ok();

    let topo = ClosConfig::small().build();
    let base_chaos = ChaosConfig::new(SOAK_SEED, 0.25);
    let lines: Vec<Vec<String>> = (0..FABRICS)
        .map(|i| {
            fabric_lines(
                &topo,
                &format!("net-{i}"),
                fabric_seed(SOAK_SEED, i as u64),
                i,
                EVENTS_PER_FABRIC,
            )
        })
        .collect();

    // The networked run: server behind a fault-injecting proxy.
    let mut serve = ServeConfig::new(&dir_net, topo.clone());
    serve.chaos = Some(base_chaos);
    let server = Server::start("127.0.0.1:0", serve).expect("server start");

    let proxy_cfg = NetChaosConfig {
        seed: SOAK_SEED ^ 0x7A05,
        disconnect_rate: 0.02,
        duplicate_rate: 0.05,
        truncate_rate: 0.02,
        delay_rate: 0.05,
        max_delay_ms: 3,
    }
    .clamped();
    let proxy = ChaosTransport::start(server.addr(), proxy_cfg).expect("proxy start");
    let proxy_addr = proxy.addr().to_string();

    let handles: Vec<_> = lines
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, fabric_lines)| {
            let addr = proxy_addr.clone();
            std::thread::spawn(move || {
                let mut cfg = ClientConfig::new(addr, i as u64 + 1);
                cfg.seed = fabric_seed(SOAK_SEED ^ 0xC11E, i as u64);
                cfg.max_attempts = 128;
                cfg.max_reconnects = 64;
                cfg.reply_timeout = Duration::from_millis(300);
                send_lines(&cfg, &fabric_lines)
            })
        })
        .collect();

    let mut reports = Vec::new();
    for h in handles {
        reports.push(
            h.join()
                .expect("client thread")
                .expect("delivery within retry bounds"),
        );
    }
    let faults = proxy.stats().faults();
    proxy.shutdown();
    let outcome = server.shutdown().expect("graceful shutdown");

    // The proxy must actually have misbehaved, or the drill proves
    // nothing.
    assert!(faults > 0, "chaos proxy injected no faults at this seed");

    // Every client delivered everything; nothing was permanently
    // rejected (the schedules are valid trace lines).
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(
            report.delivered,
            report.offered,
            "fabric net-{i}: {}",
            report.render()
        );
        assert!(report.rejections.is_empty(), "fabric net-{i} rejections");
    }

    // Exactly-once at the fabric queues: ingested equals the schedule
    // length — a lost event would undershoot, a double-applied duplicate
    // would overshoot. The decisive assertion: journals byte-identical to
    // solo replay, each one's length and hash equal to the golden's.
    assert!(outcome.report.healthy(), "{}", outcome.report.render());
    let template = FabricSpec::new("", topo).with_chaos(base_chaos);
    solo_replay(&dir_solo, &template, &lines.concat()).expect("solo replay");
    let mut text = format!(
        "tagger-fleetd: drill seed {SOAK_SEED:#x}, {FABRICS} fabrics, \
         ~{EVENTS_PER_FABRIC} events each, chaos proxy armed\n"
    );
    for (i, (report, fabric_lines)) in reports.iter().zip(&lines).enumerate() {
        let name = format!("net-{i}");
        let status = outcome
            .report
            .fabrics
            .iter()
            .find(|f| f.name == name)
            .expect("fabric registered over the wire");
        assert_eq!(
            status.ingested,
            fabric_lines.len() as u64,
            "fabric {name}: lost or double-applied events"
        );
        assert_eq!(status.queued, 0, "fabric {name}: shutdown left a queue");
        let journal = format!("{name}.journal");
        let networked = std::fs::read(dir_net.join(&journal)).expect("networked journal");
        let solo = std::fs::read(dir_solo.join(&journal)).expect("solo journal");
        assert_eq!(
            networked, solo,
            "journal {journal} differs between networked and solo replay"
        );
        text += &format!(
            "fabric {name}: offered {} delivered {} rejected {} ingested {} \
             journal {} bytes fnv64 {:#018x} [ok]\n",
            report.offered,
            report.delivered,
            report.rejections.len(),
            status.ingested,
            networked.len(),
            fnv64(&networked),
        );
    }
    text += &format!(
        "drill: {FABRICS}/{FABRICS} fabrics delivered exactly-once; \
         journals byte-identical to solo replay\n"
    );
    assert!(
        text == INGEST_DRILL,
        "the drill report differs from results/ingest_drill.txt:\n{text}"
    );

    std::fs::remove_dir_all(&dir_net).ok();
    std::fs::remove_dir_all(&dir_solo).ok();
}

#[test]
fn backpressure_is_graceful_and_starves_nobody() {
    let dir = tmp("backpressure");
    std::fs::remove_dir_all(&dir).ok();

    let topo = ClosConfig::small().build();
    let mut serve = ServeConfig::new(&dir, topo.clone());
    // A queue this small *will* fill: the client must survive on
    // Backpressure replies alone.
    serve.queue_cap = 4;
    let server = Server::start("127.0.0.1:0", serve).expect("server start");
    let addr = server.addr().to_string();

    let hot_lines: Vec<String> = (0..48).map(|_| "hot: resync".to_string()).collect();
    let cold_lines: Vec<String> = (0..5).map(|_| "cold: resync".to_string()).collect();

    let hot_addr = addr.clone();
    let hot = std::thread::spawn(move || {
        let mut cfg = ClientConfig::new(hot_addr, 1);
        cfg.max_attempts = 400;
        send_lines(&cfg, &hot_lines)
    });
    let cold = std::thread::spawn(move || {
        let mut cfg = ClientConfig::new(addr, 2);
        cfg.max_attempts = 400;
        send_lines(&cfg, &cold_lines)
    });

    let hot_report = hot.join().expect("hot thread").expect("hot delivery");
    let cold_report = cold.join().expect("cold thread").expect("cold delivery");
    let backpressure_replies = server
        .stats()
        .backpressure_replies
        .load(std::sync::atomic::Ordering::Relaxed);
    let outcome = server.shutdown().expect("graceful shutdown");

    // 100% delivery despite the hammering...
    assert_eq!(hot_report.delivered, 48, "{}", hot_report.render());
    assert_eq!(cold_report.delivered, 5, "{}", cold_report.render());
    // ...and the pushback actually happened, visible both on the wire
    // and in the fleet's queue_rejections counter.
    assert!(
        backpressure_replies > 0,
        "a 4-slot queue under 48 events must push back"
    );
    let report = outcome.report;
    assert!(report.healthy(), "{}", report.render());
    let hot_status = report
        .fabrics
        .iter()
        .find(|f| f.name == "hot")
        .expect("hot fabric");
    assert_eq!(hot_status.ingested, 48, "exactly-once under backpressure");
    assert!(
        hot_status.queue_rejections > 0,
        "QueueFull rejections must be counted in the report"
    );
    // The quiet fabric was never starved: it ingested and drained
    // everything inside the same fair cycles.
    let cold_status = report
        .fabrics
        .iter()
        .find(|f| f.name == "cold")
        .expect("cold fabric");
    assert_eq!(cold_status.ingested, 5);
    assert_eq!(cold_status.queued, 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// One stream, three fronts: the lines `tagger-fleetd ingest` style
/// (in-process, drained as the stream arrives), through `Server` +
/// `send_lines`, and through `solo_replay`. All three register fabrics
/// on first mention through `Fleet::ingest_stream_line` — chaos seeded
/// by fabric *name*, never by registration order — so the journals must
/// come out byte-identical.
#[test]
fn one_stream_leaves_the_same_journals_in_process_and_over_the_wire() {
    let dirs = ["stream-inproc", "stream-net", "stream-solo"].map(tmp);
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    let topo = ClosConfig::small().build();
    let chaos = ChaosConfig::new(9, 0.3);
    let template = FabricSpec::new("", topo.clone()).with_chaos(chaos);
    // "beta" is mentioned second here but would register first under
    // any other interleaving of the same per-fabric streams.
    let stream: Vec<String> = [
        "alpha: down L1 T1",
        "beta: flap L2 T2 2",
        "alpha: resync",
        "beta: down L3 T3",
        "alpha: up L1 T1",
        "beta: watchdog L1 0 2",
        "beta: up L3 T3",
        "alpha: resync",
    ]
    .map(String::from)
    .to_vec();

    let mut fleet = Fleet::new(FleetConfig::new(&dirs[0]));
    for (i, line) in stream.iter().enumerate() {
        fleet
            .ingest_stream_line(&template, line)
            .expect("in-process ingest");
        if i % 3 == 2 {
            fleet.drain_cycle_settled().expect("settled drain");
        }
    }
    fleet.drain_all().expect("in-process drain");

    let mut serve = ServeConfig::new(&dirs[1], topo);
    serve.chaos = Some(chaos);
    let server = Server::start("127.0.0.1:0", serve).expect("server start");
    let report =
        send_lines(&ClientConfig::new(server.addr().to_string(), 1), &stream).expect("delivery");
    assert_eq!(report.delivered, stream.len() as u64);
    let outcome = server.shutdown().expect("graceful shutdown");
    assert!(outcome.report.healthy(), "{}", outcome.report.render());

    // Reversed interleaving of the fabrics: registration order flips.
    let reversed: Vec<String> = ["beta", "alpha"]
        .iter()
        .flat_map(|f| stream.iter().filter(move |l| l.starts_with(f)).cloned())
        .collect();
    solo_replay(&dirs[2], &template, &reversed).expect("solo replay");

    for name in ["alpha.journal", "beta.journal"] {
        let inproc = std::fs::read(dirs[0].join(name)).expect("in-process journal");
        assert!(inproc.len() > 60, "{name} journaled nothing");
        for dir in &dirs[1..] {
            let other = std::fs::read(dir.join(name)).expect("journal");
            assert_eq!(inproc, other, "{name} differs under {}", dir.display());
        }
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Fifty `send_lines` calls in a row to one server — fifty connections,
/// each dropped by the server's loop once it closes. Every call lands its whole prefix, and the journals match a
/// solo replay of the stream exactly as one long connection's would.
#[test]
fn fifty_sequential_connections_deliver_exactly_once() {
    const CALLS: usize = 50;
    let dirs = ["seq-net", "seq-solo"].map(tmp);
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    let topo = ClosConfig::small().build();
    let chaos = ChaosConfig::new(SOAK_SEED, 0.25);
    let per_fabric: Vec<Vec<String>> = (0..2)
        .map(|i| fabric_lines(&topo, &format!("seq-{i}"), fabric_seed(SOAK_SEED, i), 0, 48))
        .collect();
    let stream: Vec<String> = (0..per_fabric.iter().map(Vec::len).max().unwrap_or(0))
        .flat_map(|k| {
            per_fabric
                .iter()
                .filter_map(move |lines| lines.get(k).cloned())
        })
        .collect();
    assert!(stream.len() >= CALLS, "every call must carry new lines");

    let mut serve = ServeConfig::new(&dirs[0], topo.clone());
    serve.chaos = Some(chaos);
    let server = Server::start("127.0.0.1:0", serve).expect("server start");
    let cfg = ClientConfig::new(server.addr().to_string(), 1);
    for call in 1..=CALLS {
        // Sequence numbers index the stream, so each call offers the
        // whole prefix and the handshake skips what already landed.
        let end = stream.len() * call / CALLS;
        let report = send_lines(&cfg, &stream[..end]).expect("delivery");
        assert_eq!(
            report.delivered,
            end as u64,
            "call {call}: {}",
            report.render()
        );
        assert!(report.rejections.is_empty(), "call {call} rejections");
    }
    let connections = server
        .stats()
        .connections
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(connections >= CALLS as u64, "one connection per call");
    let outcome = server.shutdown().expect("graceful shutdown");
    assert!(outcome.report.healthy(), "{}", outcome.report.render());

    let template = FabricSpec::new("", topo).with_chaos(chaos);
    solo_replay(&dirs[1], &template, &stream).expect("solo replay");
    for i in 0..2 {
        let name = format!("seq-{i}.journal");
        let networked = std::fs::read(dirs[0].join(&name)).expect("networked journal");
        let solo = std::fs::read(dirs[1].join(&name)).expect("solo journal");
        assert_eq!(
            networked, solo,
            "journal {name} differs from the solo replay"
        );
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A peer that floods `Event` frames and never reads its replies fills
/// its socket buffers until a reply no longer fits, and is disconnected.
/// An honest `send_lines` client served by the same loop meanwhile
/// delivers its whole stream, and shutdown stays healthy.
#[test]
fn a_peer_that_never_reads_is_cut_off_and_starves_nobody() {
    let dir = tmp("flood");
    std::fs::remove_dir_all(&dir).ok();
    let topo = ClosConfig::small().build();
    let server =
        Server::start("127.0.0.1:0", ServeConfig::new(&dir, topo.clone())).expect("server start");
    let addr = server.addr();

    let flood = std::thread::spawn(move || {
        let mut peer = std::net::TcpStream::connect(addr).expect("connect");
        // Bounds a write the server never drains; cutting the peer off
        // must fail the write sooner.
        peer.set_write_timeout(Some(Duration::from_secs(10)))
            .expect("write timeout");
        let mut burst = Msg::Hello { client: 99 }.encode(0);
        for _ in 0..256 {
            // Seq 0 again and again: applied once, acknowledged always.
            burst.extend(
                Msg::Event {
                    line: "flood: resync".into(),
                }
                .encode(0),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut frames = 0u64;
        while Instant::now() < deadline {
            if let Err(e) = peer.write_all(&burst) {
                return (frames, Some(e.kind()));
            }
            frames += 256;
        }
        (frames, None)
    });

    let lines = fabric_lines(&topo, "honest", fabric_seed(SOAK_SEED, 7), 0, 24);
    let mut cfg = ClientConfig::new(server.addr().to_string(), 1);
    cfg.max_attempts = 400;
    let report = send_lines(&cfg, &lines).expect("honest delivery beside a flood");
    let (frames, cut) = flood.join().expect("flood thread");
    let outcome = server.shutdown().expect("graceful shutdown");

    assert_eq!(report.delivered, lines.len() as u64, "{}", report.render());
    assert!(report.rejections.is_empty());
    assert!(
        matches!(
            cut,
            Some(ErrorKind::ConnectionReset | ErrorKind::BrokenPipe | ErrorKind::ConnectionAborted)
        ),
        "the flooding peer was not disconnected after {frames} frames: {cut:?}"
    );
    assert!(frames >= 1000, "cut off after only {frames} frames");
    assert!(outcome.report.healthy(), "{}", outcome.report.render());
    let honest = outcome
        .report
        .fabrics
        .iter()
        .find(|f| f.name == "honest")
        .expect("honest fabric");
    assert_eq!(honest.ingested, lines.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}
