//! End-to-end tests of the fill service: concurrent clients over unix
//! and TCP sockets must receive outcome blobs bit-identical to the
//! one-shot flow, at every lane count and under randomized request
//! interleavings; the cache must stay correct under eviction; a
//! mid-request client disconnect must not wedge the shared pool; and an
//! idle server must stop promptly on a shutdown request.

use pilfill_core::flow::run_flow;
use pilfill_core::methods::{FillMethod, GreedyFill, IlpTwo};
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_layout::Design;
use pilfill_serve::protocol::{
    apply_edits, design_hash, encode_outcome_blob, DesignKey, DesignRef, EditOp, FillParams,
    FillStatus, Reply, Request,
};
use pilfill_serve::{Client, ServeOptions, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fresh, collision-free unix socket path for one test server.
fn unix_sock_path(tag: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!(
            "pilfill-serve-{}-{tag}-{n}.sock",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// Spawns a server; returns its connect spec and the join handle.
fn spawn_server(
    spec: &str,
    opts: &ServeOptions,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(spec, opts).expect("bind");
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn method_of(idx: u8) -> &'static dyn FillMethod {
    match idx {
        1 => &GreedyFill,
        3 => &IlpTwo,
        other => panic!("test method table has no index {other}"),
    }
}

/// The reference result: the one-shot (build + serial run) flow.
fn one_shot_blob(design: &Design, params: &FillParams) -> Vec<u8> {
    let config = params.to_config().expect("valid params");
    let outcome = run_flow(design, &config, method_of(params.method)).expect("one-shot flow");
    encode_outcome_blob(&outcome)
}

fn expect_fill_ok(reply: Reply) -> (FillStatus, Vec<u8>) {
    match reply {
        Reply::FillOk { status, blob, .. } => (status, blob),
        other => panic!("expected FillOk, got {other:?}"),
    }
}

/// xorshift64* — deterministic per-client jitter for randomized
/// interleavings without pulling RNG machinery into the tests.
struct Jitter(u64);

impl Jitter {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn sleep_upto(&mut self, ms: u64) {
        std::thread::sleep(Duration::from_millis(self.next() % ms.max(1)));
    }
}

/// Net indices eligible for a dup-sink edit.
fn nets_with_sinks(design: &Design) -> Vec<u32> {
    design
        .nets
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.sinks.is_empty())
        .map(|(i, _)| u32::try_from(i).expect("net index"))
        .collect()
}

/// The acceptance matrix: ≥ 8 concurrent clients, unix + TCP, lane
/// counts 1/2/8, randomized interleavings — every reply bit-identical
/// to the one-shot flow for the same request.
#[test]
fn concurrent_clients_bit_identical_over_unix_and_tcp_at_lanes_1_2_8() {
    const CLIENTS: usize = 9;
    let design = synthesize(&SynthConfig::small_test(7));
    let text = design.to_text();
    let base_hash = design_hash(&design);
    let params = FillParams::new(8_000, 2).expect("valid window");
    let base_blob = one_shot_blob(&design, &params);
    let eligible = nets_with_sinks(&design);
    assert!(!eligible.is_empty(), "test design needs sinks");

    // Per-client edited designs and their expected blobs.
    let edits: Vec<(Vec<EditOp>, Vec<u8>)> = (0..CLIENTS)
        .map(|c| {
            let ops = vec![EditOp::DupSink {
                net: eligible[c % eligible.len()],
            }];
            let mut edited = design.clone();
            apply_edits(&mut edited, &ops).expect("valid edit");
            let blob = one_shot_blob(&edited, &params);
            (ops, blob)
        })
        .collect();
    let edits = Arc::new(edits);
    let base_blob = Arc::new(base_blob);
    let text = Arc::new(text);

    for lanes in [1usize, 2, 8] {
        let opts = ServeOptions {
            lanes,
            ..ServeOptions::default()
        };
        let unix = unix_sock_path(&format!("conc{lanes}"));
        for spec in [format!("unix:{unix}"), "127.0.0.1:0".to_string()] {
            let (addr, server) = spawn_server(&spec, &opts);
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let addr = addr.clone();
                    let params = params.clone();
                    let edits = Arc::clone(&edits);
                    let base_blob = Arc::clone(&base_blob);
                    let text = Arc::clone(&text);
                    std::thread::spawn(move || {
                        let mut jitter = Jitter(0x9e37_79b9 ^ (c as u64) << 8 ^ lanes as u64);
                        let mut client =
                            Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
                        jitter.sleep_upto(5);
                        // 1: inline upload (cold or racing-warm).
                        let reply = client
                            .fill_retry(
                                &DesignRef::Inline((*text).clone()),
                                &params,
                                Duration::from_secs(10),
                            )
                            .expect("inline fill");
                        let (_, blob) = expect_fill_ok(reply);
                        assert_eq!(blob, *base_blob, "inline blob (lanes {lanes})");
                        jitter.sleep_upto(8);
                        // 2: per-client edit against the shared base.
                        let (ops, want) = &edits[c];
                        let reply = client
                            .fill_retry(
                                &DesignRef::Edit {
                                    base: base_hash,
                                    ops: ops.clone(),
                                },
                                &params,
                                Duration::from_secs(10),
                            )
                            .expect("edit fill");
                        let (_, blob) = expect_fill_ok(reply);
                        assert_eq!(&blob, want, "edit blob (lanes {lanes}, client {c})");
                        jitter.sleep_upto(8);
                        // 3: repeat the base by hash.
                        let reply = client
                            .fill_retry(
                                &DesignRef::Hash(base_hash),
                                &params,
                                Duration::from_secs(10),
                            )
                            .expect("hash fill");
                        let (_, blob) = expect_fill_ok(reply);
                        assert_eq!(blob, *base_blob, "hash blob (lanes {lanes})");
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("client thread");
            }
            let mut c = Client::connect(&addr).expect("connect for shutdown");
            assert!(c.shutdown().expect("shutdown"));
            server.join().expect("server thread").expect("server run");
        }
    }
}

/// Cold → warm-replay → incremental-rebuild statuses, every blob
/// byte-exact against the one-shot flow.
#[test]
fn warm_repeat_and_edit_replay_are_bitwise_exact() {
    let design = synthesize(&SynthConfig::small_test(21));
    let params = FillParams::new(8_000, 2).expect("valid window");
    let base_hash = design_hash(&design);
    let base_blob = one_shot_blob(&design, &params);
    let ops = vec![EditOp::DupSink {
        net: nets_with_sinks(&design)[0],
    }];
    let mut edited = design.clone();
    apply_edits(&mut edited, &ops).expect("valid edit");
    let edited_blob = one_shot_blob(&edited, &params);

    let (addr, server) = spawn_server(
        &format!("unix:{}", unix_sock_path("warm")),
        &ServeOptions::default(),
    );
    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    let (status, blob) = expect_fill_ok(
        client
            .fill(DesignRef::Inline(design.to_text()), params.clone())
            .expect("cold fill"),
    );
    assert_eq!(status, FillStatus::Cold);
    assert_eq!(blob, base_blob);

    let (status, blob) = expect_fill_ok(
        client
            .fill(DesignRef::Hash(base_hash), params.clone())
            .expect("warm fill"),
    );
    assert_eq!(
        status,
        FillStatus::Warm,
        "repeat must replay the cached context"
    );
    assert_eq!(
        blob, base_blob,
        "warm replay must be byte-identical to cold"
    );

    let edit_ref = DesignRef::Edit {
        base: base_hash,
        ops: ops.clone(),
    };
    let (status, blob) = expect_fill_ok(
        client
            .fill(edit_ref.clone(), params.clone())
            .expect("edit fill"),
    );
    assert_eq!(
        status,
        FillStatus::RebuildIncr,
        "a sink-duplication edit must take the incremental rebuild path"
    );
    assert_eq!(
        blob, edited_blob,
        "rebuild + partial re-solve must match one-shot"
    );

    let (status, blob) = expect_fill_ok(client.fill(edit_ref, params.clone()).expect("warm edit"));
    assert_eq!(status, FillStatus::Warm, "repeated edit must be a warm hit");
    assert_eq!(blob, edited_blob);

    assert!(client.shutdown().expect("shutdown"));
    server.join().expect("server thread").expect("server run");
}

/// A context LRU of capacity 1 evicts on every alternation but still
/// serves correct (cold) results.
#[test]
fn lru_capacity_one_stays_correct_under_eviction() {
    let a = synthesize(&SynthConfig::small_test(7));
    let b = synthesize(&SynthConfig::small_test(9));
    let params = FillParams::new(8_000, 2).expect("valid window");
    let blob_a = one_shot_blob(&a, &params);
    let blob_b = one_shot_blob(&b, &params);

    let opts = ServeOptions {
        ctx_cache_cap: 1,
        ..ServeOptions::default()
    };
    let (addr, server) = spawn_server(&format!("unix:{}", unix_sock_path("lru1")), &opts);
    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    let (status, blob) = expect_fill_ok(
        client
            .fill(DesignRef::Inline(a.to_text()), params.clone())
            .expect("fill a"),
    );
    assert_eq!(status, FillStatus::Cold);
    assert_eq!(blob, blob_a);

    let (status, blob) = expect_fill_ok(
        client
            .fill(DesignRef::Inline(b.to_text()), params.clone())
            .expect("fill b"),
    );
    assert_eq!(status, FillStatus::Cold, "b must evict a at capacity 1");
    assert_eq!(blob, blob_b);

    let (status, blob) = expect_fill_ok(
        client
            .fill(DesignRef::Hash(design_hash(&a)), params.clone())
            .expect("fill a again"),
    );
    assert_eq!(
        status,
        FillStatus::Cold,
        "a was evicted — must cold-build again"
    );
    assert_eq!(blob, blob_a, "eviction must never change results");

    assert!(client.shutdown().expect("shutdown"));
    server.join().expect("server thread").expect("server run");
}

/// A client that vanishes mid-request must not wedge the shared pool:
/// later clients still get correct replies and shutdown stays clean.
#[test]
fn mid_request_disconnect_does_not_wedge_the_pool() {
    let design = synthesize(&SynthConfig::small_test(11));
    let params = FillParams::new(8_000, 2).expect("valid window");
    let blob = one_shot_blob(&design, &params);

    let path = unix_sock_path("drop");
    let (addr, server) = spawn_server(&format!("unix:{path}"), &ServeOptions::default());

    // Hand-roll a doomed client: send a fill request, drop the socket
    // without reading the reply.
    {
        use std::os::unix::net::UnixStream;
        let mut doomed = UnixStream::connect(&path).expect("connect doomed client");
        let req = Request::Fill {
            design: DesignRef::Inline(design.to_text()),
            params: params.clone(),
        };
        pilfill_serve::protocol::write_frame(
            &mut doomed,
            &pilfill_serve::protocol::encode_request(&req),
        )
        .expect("send doomed request");
        // Dropping here closes the socket while the server may still be
        // solving tiles.
    }

    // The pool must keep serving: several follow-up requests, all exact.
    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    for _ in 0..3 {
        let reply = client
            .fill_retry(
                &DesignRef::Inline(design.to_text()),
                &params,
                Duration::from_secs(10),
            )
            .expect("post-disconnect fill");
        let (_, got) = expect_fill_ok(reply);
        assert_eq!(got, blob, "results after a dropped client must be exact");
    }

    assert!(client.shutdown().expect("shutdown"));
    server.join().expect("server thread").expect("server run");
    assert!(
        !std::path::Path::new(&path).exists(),
        "unix socket must be removed on clean shutdown"
    );
}

/// A client that stalls longer than the server's 100ms poll timeout
/// *mid-frame* — inside the length prefix and inside the payload — must
/// still be served correctly, twice on the same connection. With a
/// non-resumable frame reader the timeout discards the partial bytes
/// and later payload bytes get parsed as a length prefix, desyncing
/// every subsequent reply.
#[test]
fn mid_frame_stalls_longer_than_the_poll_timeout_do_not_desync() {
    use pilfill_serve::protocol::{decode_reply, encode_request, read_frame, write_frame};
    use std::io::Write as _;
    use std::os::unix::net::UnixStream;

    let design = synthesize(&SynthConfig::small_test(17));
    let params = FillParams::new(8_000, 2).expect("valid window");
    let blob = one_shot_blob(&design, &params);
    let path = unix_sock_path("slow");
    let (addr, server) = spawn_server(&format!("unix:{path}"), &ServeOptions::default());

    let mut wire = Vec::new();
    write_frame(
        &mut wire,
        &encode_request(&Request::Fill {
            design: DesignRef::Inline(design.to_text()),
            params: params.clone(),
        }),
    )
    .expect("encode frame");

    let mut stream = UnixStream::connect(&path).expect("connect");
    // Stall past several poll timeouts at the nastiest offsets: 2 bytes
    // into the 4-byte length prefix, then a few bytes into the payload.
    let mut at = 0;
    for cut in [2usize, 7, wire.len() / 2] {
        stream.write_all(&wire[at..cut]).expect("trickle");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(250));
        at = cut;
    }
    stream.write_all(&wire[at..]).expect("finish frame");
    let reply = decode_reply(&read_frame(&mut stream).expect("reply").expect("frame"))
        .expect("decode reply");
    let (_, got) = expect_fill_ok(reply);
    assert_eq!(got, blob, "trickled request must be served exactly");

    // The connection must still be in phase: a second request (sent
    // whole) gets a second exact reply.
    stream.write_all(&wire).expect("second request");
    let reply = decode_reply(&read_frame(&mut stream).expect("reply").expect("frame"))
        .expect("decode second reply");
    let (status, got) = expect_fill_ok(reply);
    assert_eq!(got, blob, "second reply proves the stream stayed in sync");
    assert_eq!(status, FillStatus::Warm, "repeat on a cached design");
    drop(stream);

    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    assert!(client.shutdown().expect("shutdown"));
    server.join().expect("server thread").expect("server run");
}

/// Density and verify requests match their library-level equivalents.
#[test]
fn density_and_verify_requests_match_library_results() {
    use pilfill_core::check_fill;
    use pilfill_core::FillFeature;
    use pilfill_density::{DensityMap, FixedDissection};
    use pilfill_layout::LayerId;

    let design = synthesize(&SynthConfig::small_test(5));
    let (addr, server) = spawn_server(
        &format!("unix:{}", unix_sock_path("dv")),
        &ServeOptions::default(),
    );
    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    let dissection = FixedDissection::new(design.die, 8_000, 2).expect("dissect");
    let want = DensityMap::compute(&design, LayerId(0), &dissection).analyze();
    let reply = client
        .request(&Request::Density {
            design: DesignRef::Inline(design.to_text()),
            layer: 0,
            window: 8_000,
            r: 2,
        })
        .expect("density request");
    match reply {
        Reply::DensityOk { analysis, .. } => {
            assert_eq!(analysis.0.to_bits(), want.min_window_density.to_bits());
            assert_eq!(analysis.1.to_bits(), want.max_window_density.to_bits());
            assert_eq!(analysis.2.to_bits(), want.variation.to_bits());
            assert_eq!(analysis.3.to_bits(), want.mean_window_density.to_bits());
        }
        other => panic!("expected DensityOk, got {other:?}"),
    }

    // Deliberately illegal features (on top of a wire) plus a far-corner
    // one; the served report must mirror check_fill verbatim.
    let features = vec![
        (design.die.left, design.die.bottom),
        (design.die.right + 10, 0),
    ];
    let local: Vec<FillFeature> = features
        .iter()
        .map(|&(x, y)| FillFeature { x, y })
        .collect();
    let want = check_fill(&design, LayerId(0), &local);
    let reply = client
        .request(&Request::Verify {
            design: DesignRef::Hash(design_hash(&design)),
            layer: 0,
            features,
        })
        .expect("verify request");
    match reply {
        Reply::VerifyOk {
            checked,
            violations,
            ..
        } => {
            assert_eq!(checked, u64::try_from(want.checked).expect("checked"));
            let want: Vec<String> = want.violations.iter().map(|v| v.to_string()).collect();
            assert_eq!(violations, want);
        }
        other => panic!("expected VerifyOk, got {other:?}"),
    }

    assert!(client.shutdown().expect("shutdown"));
    server.join().expect("server thread").expect("server run");
}

/// A client-supplied feature whose square overflows `i64` comes back as
/// exactly one off-die violation: no wrap-around pass, no server panic.
#[test]
fn verify_reports_i64_boundary_feature_off_die() {
    let design = synthesize(&SynthConfig::small_test(5));
    let (addr, server) = spawn_server("127.0.0.1:0", &ServeOptions::default());
    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    let edge = i64::MAX - 10;
    let reply = client
        .request(&Request::Verify {
            design: DesignRef::Inline(design.to_text()),
            layer: 0,
            features: vec![(edge, edge)],
        })
        .expect("verify request");
    match reply {
        Reply::VerifyOk {
            checked,
            violations,
            ..
        } => {
            assert_eq!(checked, 1);
            assert_eq!(
                violations,
                vec![format!("fill at ({edge}, {edge}) off die")]
            );
        }
        other => panic!("expected VerifyOk, got {other:?}"),
    }

    assert!(client.shutdown().expect("shutdown"));
    server.join().expect("server thread").expect("server run");
}

/// Beyond `max_conns` live connections the accept loop answers `Busy`
/// and turns the connection away instead of spawning threads without
/// bound; a freed slot serves fresh connections again, exactly.
#[test]
fn connection_cap_turns_excess_connections_away_with_busy() {
    let design = synthesize(&SynthConfig::small_test(13));
    let params = FillParams::new(8_000, 2).expect("valid window");
    let blob = one_shot_blob(&design, &params);
    let opts = ServeOptions {
        max_conns: 1,
        ..ServeOptions::default()
    };
    let (addr, server) = spawn_server(&format!("unix:{}", unix_sock_path("cap")), &opts);

    // Client A occupies the only slot (a served round-trip proves the
    // accept loop registered the connection).
    let mut a = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect a");
    let (_, got) = expect_fill_ok(
        a.fill_retry(
            &DesignRef::Inline(design.to_text()),
            &params,
            Duration::from_secs(10),
        )
        .expect("fill a"),
    );
    assert_eq!(got, blob);

    // While A lives no other connection may be served: B either reads
    // the accept loop's Busy frame or finds its socket already closed.
    let mut b = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect b");
    match b.fill(DesignRef::Inline(design.to_text()), params.clone()) {
        Ok(Reply::Busy { .. }) | Err(_) => {}
        Ok(other) => panic!("capped connection must not be served, got {other:?}"),
    }

    // Dropping A frees the slot; a fresh connection gets served again.
    drop(a);
    drop(b);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("reconnect");
        match c.fill(DesignRef::Inline(design.to_text()), params.clone()) {
            Ok(Reply::FillOk { blob: got, .. }) => {
                assert_eq!(got, blob, "a freed slot must serve exact results again");
                break c;
            }
            Ok(Reply::Busy { .. }) | Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(other) => panic!("unexpected reply after freeing the slot: {other:?}"),
            Err(e) => panic!("slot never freed within the deadline: {e}"),
        }
    };

    assert!(client.shutdown().expect("shutdown"));
    server.join().expect("server thread").expect("server run");
}

/// Unknown hashes and malformed frames produce error replies, not dead
/// connections.
#[test]
fn unknown_design_and_garbage_frames_get_error_replies() {
    let (addr, server) = spawn_server(
        &format!("unix:{}", unix_sock_path("err")),
        &ServeOptions::default(),
    );
    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    let params = FillParams::new(8_000, 2).expect("valid window");
    let reply = client
        .fill(DesignRef::Hash(DesignKey([0xde; 32])), params)
        .expect("fill by unknown hash");
    match reply {
        Reply::Err { code, .. } => {
            assert_eq!(code, pilfill_serve::protocol::ERR_UNKNOWN_DESIGN);
        }
        other => panic!("expected Err reply, got {other:?}"),
    }

    // The connection survives the error and still shuts down cleanly.
    assert!(client.shutdown().expect("shutdown"));
    server.join().expect("server thread").expect("server run");
}

/// The accept loop blocks in `accept` rather than polling, so an idle
/// server must be woken by the shutdown itself: `run` returns well within
/// a second of the `Shutdown` request, over unix and TCP alike.
#[test]
fn idle_server_returns_promptly_after_shutdown() {
    for spec in [
        format!("unix:{}", unix_sock_path("idle")),
        "127.0.0.1:0".to_string(),
    ] {
        let (addr, server) = spawn_server(&spec, &ServeOptions::default());
        let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
        // Let the accept loop settle back into `accept` with no pending
        // connection.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        assert!(client.shutdown().expect("shutdown"), "{spec}");
        while !server.is_finished() {
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "{spec}: run did not return within 1 s of the shutdown"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server.join().expect("server thread").expect("server run");
    }
}
