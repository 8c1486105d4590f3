//! The ingest front's protocol, driven frame by frame over a raw
//! `TcpStream`: what `Server` answers to each request kind, and what it
//! refuses, independent of how the server is built inside.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use tagger_fleet::net::wire::{Decoder, Msg};
use tagger_fleet::net::{ServeConfig, Server};
use tagger_topo::ClosConfig;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tagger-netserver-{}-{name}", std::process::id()))
}

fn start(name: &str, tune: impl FnOnce(&mut ServeConfig)) -> (Server, PathBuf) {
    let dir = tmp(name);
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = ServeConfig::new(&dir, ClosConfig::small().build());
    tune(&mut cfg);
    (
        Server::start("127.0.0.1:0", cfg).expect("server start"),
        dir,
    )
}

fn finish(server: Server, dir: PathBuf) {
    let outcome = server.shutdown().expect("graceful shutdown");
    assert!(outcome.report.healthy(), "{}", outcome.report.render());
    std::fs::remove_dir_all(&dir).ok();
}

/// A raw connection: frames out, decoded replies in.
struct Peer {
    stream: TcpStream,
    dec: Decoder,
}

impl Peer {
    fn connect(server: &Server) -> Peer {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("read timeout");
        Peer {
            stream,
            dec: Decoder::new(),
        }
    }

    fn send(&mut self, msg: &Msg, seq: u64) {
        self.stream.write_all(&msg.encode(seq)).expect("send");
    }

    fn event(&mut self, seq: u64, line: &str) {
        self.send(&Msg::Event { line: line.into() }, seq);
    }

    /// The next reply and the seq it answers; panics after 5 s of silence.
    fn reply(&mut self) -> (u64, Msg) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = self.dec.next_frame() {
                return (frame.seq, Msg::decode(&frame).expect("reply decodes"));
            }
            assert!(Instant::now() < deadline, "no reply within 5 s");
            match self.stream.read(&mut buf) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => self.dec.extend(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    /// `Hello` for `client`, returning the `Welcome`'s `next_seq`.
    fn hello(&mut self, client: u64) -> u64 {
        self.send(&Msg::Hello { client }, 0);
        match self.reply() {
            (_, Msg::Welcome { next_seq }) => next_seq,
            other => panic!("Hello answered with {other:?}"),
        }
    }
}

fn is_reject(msg: &Msg) -> bool {
    matches!(msg, Msg::Reject { .. })
}

#[test]
fn an_event_before_hello_is_rejected() {
    let (server, dir) = start("before-hello", |_| {});
    let mut peer = Peer::connect(&server);
    peer.event(0, "alpha: down L1 T1");
    let (seq, reply) = peer.reply();
    assert_eq!(seq, 0);
    assert!(is_reject(&reply), "{reply:?}");
    assert_eq!(server.stats().events_applied.load(Ordering::Relaxed), 0);
    finish(server, dir);
}

#[test]
fn a_reply_kind_sent_to_the_server_is_rejected() {
    let (server, dir) = start("reply-kind", |_| {});
    let mut peer = Peer::connect(&server);
    assert_eq!(peer.hello(1), 0);
    peer.send(&Msg::Ok { epoch: 0 }, 0);
    let (_, reply) = peer.reply();
    assert!(is_reject(&reply), "{reply:?}");
    finish(server, dir);
}

#[test]
fn a_sequence_gap_is_answered_with_rewind() {
    let (server, dir) = start("gap", |_| {});
    let mut peer = Peer::connect(&server);
    assert_eq!(peer.hello(2), 0);
    peer.event(3, "alpha: down L1 T1");
    assert_eq!(peer.reply(), (3, Msg::Rewind { expected: 0 }));
    assert_eq!(server.stats().events_applied.load(Ordering::Relaxed), 0);
    finish(server, dir);
}

/// One client on two open connections sending the same seq on each: a
/// resend on a fresh connection while the old one still carries the
/// original. Both are acknowledged; the event lands once.
#[test]
fn one_client_on_two_connections_applies_a_seq_once() {
    let (server, dir) = start("two-conns", |_| {});
    let mut first = Peer::connect(&server);
    let mut second = Peer::connect(&server);
    assert_eq!(first.hello(3), 0);
    assert_eq!(second.hello(3), 0);
    first.event(0, "alpha: down L1 T1");
    second.event(0, "alpha: down L1 T1");
    assert!(matches!(first.reply(), (0, Msg::Ok { .. })));
    assert!(matches!(second.reply(), (0, Msg::Ok { .. })));
    let stats = server.stats();
    assert_eq!(stats.events_applied.load(Ordering::Relaxed), 1);
    assert_eq!(stats.duplicates_dropped.load(Ordering::Relaxed), 1);
    finish(server, dir);
}

#[test]
fn an_unparseable_line_consumes_its_seq() {
    let (server, dir) = start("unparseable", |_| {});
    let mut peer = Peer::connect(&server);
    assert_eq!(peer.hello(4), 0);
    peer.event(0, "alpha: frobnicate L1 T1");
    let (seq, reply) = peer.reply();
    assert_eq!(seq, 0);
    assert!(is_reject(&reply), "{reply:?}");
    peer.event(1, "alpha: down L1 T1");
    assert!(matches!(peer.reply(), (1, Msg::Ok { .. })));
    assert_eq!(server.stats().events_applied.load(Ordering::Relaxed), 1);
    finish(server, dir);
}

/// With a budget of one event per drain tick, the second of two events
/// pipelined in one write is pushed back. A tick can fall between the
/// two, or not at all before the pair (a debug-build drain is slow), so
/// a few pairs are tried.
#[test]
fn an_exhausted_connection_budget_pushes_back() {
    let (server, dir) = start("budget", |cfg| cfg.conn_budget = 1);
    let mut peer = Peer::connect(&server);
    assert_eq!(peer.hello(5), 0);
    let event = Msg::Event {
        line: "alpha: resync".into(),
    };
    let mut seq = 0;
    let mut pushed_back = false;
    for _ in 0..50 {
        // Give a tick the chance to refill the budget first.
        std::thread::sleep(Duration::from_millis(10));
        let mut pair = event.encode(seq);
        pair.extend(event.encode(seq + 1));
        peer.stream.write_all(&pair).expect("send pair");
        let replies = [peer.reply(), peer.reply()];
        assert_eq!(replies.each_ref().map(|r| r.0), [seq, seq + 1]);
        let ok = |msg: &Msg| matches!(msg, Msg::Ok { .. });
        let budget_spent = Msg::Backpressure {
            queue_depth: 0,
            retry_after_ms: 2,
        };
        if ok(&replies[0].1) && replies[1].1 == budget_spent {
            pushed_back = true;
            break;
        }
        // Whatever was acknowledged is applied; resume after it.
        seq += replies.iter().filter(|r| ok(&r.1)).count() as u64;
    }
    assert!(pushed_back, "a one-event budget never pushed back");
    finish(server, dir);
}

#[test]
fn bye_closes_the_connection_without_a_reply() {
    let (server, dir) = start("bye", |_| {});
    let mut peer = Peer::connect(&server);
    assert_eq!(peer.hello(6), 0);
    peer.send(&Msg::Bye, 0);
    peer.stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut rest = Vec::new();
    peer.stream
        .read_to_end(&mut rest)
        .expect("the server closes the connection");
    assert!(rest.is_empty(), "Bye drew a reply: {rest:?}");
    finish(server, dir);
}
