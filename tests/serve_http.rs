//! End-to-end daemon tests over real sockets: endpoints, warm-cache
//! reuse, queue backpressure, and graceful drain-and-shutdown.

mod common;

use std::io::Write;
use std::net::TcpStream;

use moveframe_hls::prelude::*;

const DIFFEQ_JOB: &[u8] = br#"{"benchmark":"diffeq","cs":4}"#;

#[test]
fn endpoints_answer_over_a_real_socket() {
    let server = common::start(common::ephemeral_config());
    let addr = server.local_addr();

    let (status, body) = common::get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = common::get(addr, "/");
    assert_eq!(status, 200);
    assert!(body.contains("POST /schedule"), "{body}");

    assert_eq!(common::get(addr, "/nothing-here").0, 404);
    assert_eq!(common::post(addr, "/healthz", b"").0, 405);

    let (status, body) = common::get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE serve_requests counter"), "{body}");

    server.shutdown();
    server.join();
}

#[test]
fn repeat_requests_hit_the_warm_cache() {
    let server = common::start(common::ephemeral_config());
    let addr = server.local_addr();

    let (status, first) = common::post(addr, "/schedule", DIFFEQ_JOB);
    assert_eq!(status, 200, "{first}");
    let (status, second) = common::post(addr, "/schedule", DIFFEQ_JOB);
    assert_eq!(status, 200);
    assert_eq!(first, second, "warm answer must be byte-identical");

    let m = server.app().metrics_snapshot();
    assert_eq!(m.counter("serve.jobs.cold"), 1);
    assert_eq!(m.counter("serve.jobs.warm"), 1);
    assert_eq!(m.counter("serve.cache.results.hits"), 1);
    assert_eq!(m.counter("serve.cache.results.misses"), 1);

    server.shutdown();
    server.join();
}

#[test]
fn overload_answers_429_and_the_pool_recovers() {
    let server = common::start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..common::ephemeral_config()
    });
    let addr = server.local_addr();

    // Hold the single worker on a cold job, then fill the one queue
    // slot with an ordinary job behind it. (Mute connections pin
    // nothing: the reactor admits *requests*, not connections, so only
    // compute occupies a worker.)
    let hold = server.hold_workers();
    let pin = std::thread::spawn(move || common::post(addr, "/schedule", common::HELD_JOB));
    hold.wait_parked(1);
    let queued = std::thread::spawn(move || common::post(addr, "/schedule", DIFFEQ_JOB));
    common::wait_until("the queued job", || server.queued() == 1);

    // The queue is full: the reactor must answer 429 inline, without
    // involving (or waiting for) a worker.
    let (status, body) = common::get(addr, "/healthz");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue"), "{body}");

    // Backpressure sheds nothing that was admitted: the held job and
    // the queued job both complete, and the pool keeps serving.
    drop(hold);
    let (status, body) = pin.join().expect("pin client");
    assert_eq!(status, 200, "{body}");
    let (status, _) = queued.join().expect("queued client");
    assert_eq!(status, 200);
    let (status, _) = common::get(addr, "/healthz");
    assert_eq!(status, 200, "pool did not recover after overload");
    assert!(
        server
            .app()
            .metrics_snapshot()
            .counter("serve.queue.rejected")
            >= 1
    );

    server.shutdown();
    server.join();
}

/// Regression: `chain=0` used to reach `ClockPeriod::new` and panic in
/// the worker; with no panic isolation each such request permanently
/// killed one worker. It must answer 400, and firing more of them than
/// there are workers must leave the pool fully serviceable.
#[test]
fn chain_zero_is_400_and_never_kills_a_worker() {
    let server = common::start(ServeConfig {
        workers: 2,
        ..common::ephemeral_config()
    });
    let addr = server.local_addr();

    for _ in 0..4 {
        let (status, body) = common::post(
            addr,
            "/schedule",
            br#"{"benchmark":"diffeq","cs":4,"chain":0}"#,
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("chain"), "{body}");
    }
    let (status, body) = common::post(addr, "/schedule", DIFFEQ_JOB);
    assert_eq!(status, 200, "pool degraded after chain=0 battery: {body}");
    assert_eq!(server.app().metrics_snapshot().counter("serve.panics"), 0);

    server.shutdown();
    server.join();
}

/// Regression: the literal-index constant of `load v = a[3]` is named
/// `v.idx`, and an op already held that name. The parser panicked, on the
/// reactor thread (the warm-cache probe parses the job), so the request
/// got an empty reply and every later connection was refused.
#[test]
fn colliding_generated_name_is_answered_and_the_daemon_lives() {
    let server = common::start(common::ephemeral_config());
    let addr = server.local_addr();

    let job =
        br#"{"dfg":"input i\narray a[4] @ m(ports=1)\nop v.idx = inc(i)\nload v = a[3]\n","cs":4}"#;
    let (status, body) = common::post(addr, "/schedule", job);
    assert_eq!(status, 200, "{body}");
    let (status, body) = common::get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert_eq!(server.app().metrics_snapshot().counter("serve.panics"), 0);

    server.shutdown();
    server.join();
}

/// The generated names of a literal index (`v.idx`) and of an
/// auto-named store (`a.store0`) also skip op names declared *after*
/// the access; both texts were once refused as duplicates.
#[test]
fn generated_names_skip_later_op_names_over_a_socket() {
    let server = common::start(common::ephemeral_config());
    let addr = server.local_addr();
    for job in [
        &br#"{"dfg":"input i\narray a[4] @ m(ports=1)\nload v = a[3]\nop v.idx = inc(i)\n","cs":4}"#[..],
        &br#"{"dfg":"input i, v\narray a[4] @ m(ports=1)\nstore a[i] = v\nop a.store0 = inc(i)\n","cs":4}"#[..],
    ] {
        let (status, body) = common::post(addr, "/schedule", job);
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(server.app().metrics_snapshot().counter("serve.panics"), 0);
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_admitted_requests() {
    let server = common::start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        ..common::ephemeral_config()
    });
    let addr = server.local_addr();

    // Hold the worker on a cold job, then get a complete request
    // admitted into the queue behind it.
    let hold = server.hold_workers();
    let pin = std::thread::spawn(move || common::post(addr, "/schedule", common::HELD_JOB));
    hold.wait_parked(1);
    let mut queued = TcpStream::connect(addr).expect("connect");
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write");
    common::wait_until("the queued probe", || server.queued() == 1);

    // Shutdown stops admission but must answer what was admitted —
    // the in-flight job and the queued probe both.
    server.shutdown();
    common::wait_until("the drain", || server.draining());
    drop(hold);
    let mut raw = Vec::new();
    std::io::Read::read_to_end(&mut queued, &mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.ends_with("ok\n"), "{text}");
    let (status, body) = pin.join().expect("pin client");
    assert_eq!(status, 200, "in-flight job dropped by drain: {body}");

    server.join();

    // After join the listener is gone.
    assert!(TcpStream::connect(addr).is_err(), "listener still up");
}
