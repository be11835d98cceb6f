//! Front-end protocol coverage: malformed-envelope rejection (in process
//! and over raw sockets), batch partial-failure semantics, keep-alive
//! connection reuse, request framing under any chunking, and slow
//! clients.

use proptest::prelude::*;
use smacs_crypto::Keypair;
use smacs_primitives::json::{FromJson, Json, ToJson};
use smacs_primitives::Address;
use smacs_token::{TokenRequest, TokenType};
use smacs_ts::api::ResponseEnvelope;
use smacs_ts::front::FrontEnd;
use smacs_ts::http::{HttpClient, HttpServer, HttpServerConfig, MAX_BODY_BYTES, REQUEST_DEADLINE};
use smacs_ts::{
    ErrorCode, ListPolicy, RuleBook, TokenService, TokenServiceConfig, TsApi, MAX_BATCH,
    PROTOCOL_VERSION,
};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn front() -> Arc<FrontEnd> {
    Arc::new(FrontEnd::new(
        TokenService::new(
            Keypair::from_seed(42),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        ),
        "owner-secret",
        1_000,
    ))
}

fn request(low: u64) -> TokenRequest {
    TokenRequest::super_token(Address::from_low_u64(0xC0), Address::from_low_u64(low))
}

fn v2(op: &str, body: Json) -> String {
    Json::Obj(vec![
        ("v".into(), Json::Int(PROTOCOL_VERSION as i128)),
        ("op".into(), Json::Str(op.into())),
        ("body".into(), body),
    ])
    .render()
}

fn parse(response: &str) -> Json {
    Json::parse(response).expect("valid response JSON")
}

fn error_code(response: &Json) -> &str {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error code")
}

/// One raw `POST /` with `Connection: close`: the status code and the
/// response body, read until the server hangs up.
fn post_raw(addr: SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

// ---- malformed envelopes ----

#[test]
fn malformed_envelopes_are_rejected_with_machine_readable_codes() {
    let front = front();

    // Unsupported version.
    let response = parse(&front.handle_json(r#"{"v":3,"op":"ping"}"#));
    assert_eq!(error_code(&response), "unsupported_version");

    // Unknown op.
    let response = parse(&front.handle_json(r#"{"v":2,"op":"mint_money"}"#));
    assert_eq!(error_code(&response), "bad_envelope");

    // Missing op entirely.
    let response = parse(&front.handle_json(r#"{"v":2}"#));
    assert_eq!(error_code(&response), "bad_envelope");

    // Body of the wrong shape for the op.
    let response = parse(&front.handle_json(r#"{"v":2,"op":"issue","body":{"nope":1}}"#));
    assert_eq!(error_code(&response), "bad_envelope");

    // Wrong type for the version member.
    let response = parse(&front.handle_json(r#"{"v":"two","op":"ping"}"#));
    assert_eq!(error_code(&response), "bad_envelope");

    // Oversized batch.
    let requests: Vec<Json> = (0..MAX_BATCH + 1)
        .map(|i| request(i as u64).to_json())
        .collect();
    let body = Json::Obj(vec![("requests".into(), Json::Arr(requests))]);
    let response = parse(&front.handle_json(&v2("issue_batch", body)));
    assert_eq!(error_code(&response), "bad_envelope");

    // Invalid-but-parseable requests are *not* envelope errors: they run
    // the normal issuance checks.
    let mut bad = request(1);
    bad.ttype = TokenType::Method; // method token without a methodId
    let response = parse(&front.handle_json(&v2("issue", bad.to_json())));
    assert_eq!(error_code(&response), "invalid_request");

    // Unparseable JSON and unversioned bodies are not v2 envelopes.
    let response = parse(&front.handle_json("{not json"));
    assert_eq!(error_code(&response), "bad_envelope");
    let response = parse(&front.handle_json(r#"{"op":"ping"}"#));
    assert_eq!(error_code(&response), "bad_envelope");
}

#[test]
fn non_envelope_bodies_are_refused_over_http_and_mint_nothing() {
    let server = HttpServer::start(front()).unwrap();
    let unversioned = format!(
        r#"{{"op":"issue_token","request":{}}}"#,
        request(1).one_time().to_json().render()
    );
    // A million `[` is under the body cap; the parser's depth limit must
    // refuse it before it can overflow a worker's stack.
    let deep = "[".repeat(1_000_000);
    for body in [unversioned.as_str(), "{not json", deep.as_str()] {
        let (status, text) = post_raw(server.addr(), body);
        assert_eq!(status, 200);
        let response = parse(&text);
        assert_eq!(response.get("v").and_then(Json::as_int), Some(2));
        assert_eq!(
            error_code(&response),
            "bad_envelope",
            "{}",
            body.get(..16).unwrap_or(body)
        );
    }
    // The server is still up, and no one-time index was burned.
    let client = HttpClient::connect(server.addr());
    let token = client.issue(&request(1).one_time()).unwrap();
    assert_eq!(token.index, 0);
    server.shutdown();
}

#[test]
fn endless_header_line_is_refused_with_bad_envelope() {
    // 16 KiB with no newline is past the 8 KiB head-line cap, and 65
    // headers are past the 64-header cap: the server must answer 400
    // `bad_envelope` and hang up instead of buffering without limit.
    let server = HttpServer::start(front()).unwrap();
    let long_line = format!("POST / HTTP/1.1\r\nX-Pad: {}", "a".repeat(16 << 10));
    let many_headers = format!("POST / HTTP/1.1\r\n{}", "X-Pad: a\r\n".repeat(65));
    for head in [long_line, many_headers] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.to_ascii_lowercase().contains("connection: close"));
        let (_, body) = response.split_once("\r\n\r\n").unwrap();
        let envelope = ResponseEnvelope::from_json(&parse(body)).unwrap();
        assert!(!envelope.ok);
        assert_eq!(envelope.error.unwrap().code, "bad_envelope");
    }
    // The server still serves the next client.
    HttpClient::connect(server.addr())
        .issue(&request(1))
        .unwrap();
    server.shutdown();
}

// ---- batch partial failure ----

#[test]
fn batch_partial_failure_keeps_per_item_outcomes_in_order() {
    let front = front();
    // Whitelist exactly one sender for super tokens.
    let mut rules = RuleBook::deny_all();
    let mut senders = ListPolicy::deny_all();
    senders.insert(Address::from_low_u64(1).to_hex());
    rules.rules_mut(TokenType::Super).sender = Some(senders);
    front.service().set_rules(rules);

    let body = Json::Obj(vec![(
        "requests".into(),
        Json::Arr(vec![
            request(1).to_json(), // allowed
            request(2).to_json(), // denied by rules
            request(1).to_json(), // allowed again
        ]),
    )]);
    let response = parse(&front.handle_json(&v2("issue_batch", body)));
    // Partial failure is still an ok envelope.
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let results = response
        .get("body")
        .and_then(|b| b.get("results"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(results[1].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        results[1]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("rule_violation")
    );
    assert_eq!(results[2].get("ok").and_then(Json::as_bool), Some(true));
    assert!(results[0].get("token_hex").and_then(Json::as_str).is_some());
}

#[test]
fn batch_partial_failure_over_the_http_client() {
    let server = HttpServer::start(front()).unwrap();
    let client = HttpClient::connect(server.addr());
    let mut bad = request(2);
    bad.args.push(smacs_token::request::ArgBinding {
        name: "x".into(),
        value: "1".into(),
    });
    let results = client.issue_batch(&[request(1), bad, request(3)]).unwrap();
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert_eq!(
        results[1].as_ref().unwrap_err().code,
        ErrorCode::InvalidRequest
    );
    assert!(results[2].is_ok());
    server.shutdown();
}

// ---- counter availability over the wire (§VII-B) ----

/// A front end whose one-time counter is a 3-node quorum cluster with two
/// nodes down — quorum lost, one-time issuance must fail closed.
fn quorumless_front() -> Arc<FrontEnd> {
    let cluster = smacs_ts::CounterCluster::new(3);
    cluster.kill(1);
    cluster.kill(2);
    Arc::new(FrontEnd::new(
        TokenService::new(
            Keypair::from_seed(42),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        )
        .with_replicated_counter(cluster),
        "owner-secret",
        1_000,
    ))
}

#[test]
fn counter_unavailable_round_trips_the_v2_wire() {
    let front = quorumless_front();

    // One-time issuance: fail-closed with the machine-readable code, and
    // a message that leaks no cluster internals.
    let response = parse(&front.handle_json(&v2("issue", request(1).one_time().to_json())));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&response), "counter_unavailable");

    // Expiry issuance needs no counter: same service, still succeeding.
    let response = parse(&front.handle_json(&v2("issue", request(1).to_json())));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

    // And through the typed HTTP client the code arrives as the enum.
    let server = HttpServer::start(front).unwrap();
    let client = HttpClient::connect(server.addr());
    let err = client.issue(&request(2).one_time()).unwrap_err();
    assert_eq!(err.code, ErrorCode::CounterUnavailable);
    client.issue(&request(2)).unwrap();
    server.shutdown();
}

#[test]
fn batch_partial_failure_with_counter_unavailable() {
    // A quorum-lost batch degrades per item: one-time slots answer
    // `counter_unavailable`, plain slots still mint — one coordination
    // outage never poisons the whole batch.
    let server = HttpServer::start(quorumless_front()).unwrap();
    let client = HttpClient::connect(server.addr());
    let results = client
        .issue_batch(&[
            request(1),
            request(2).one_time(),
            request(3),
            request(4).one_time(),
        ])
        .unwrap();
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok());
    assert_eq!(
        results[1].as_ref().unwrap_err().code,
        ErrorCode::CounterUnavailable
    );
    assert!(results[2].is_ok());
    assert_eq!(
        results[3].as_ref().unwrap_err().code,
        ErrorCode::CounterUnavailable
    );
    server.shutdown();
}

// ---- keep-alive ----

#[test]
fn one_connection_serves_many_requests() {
    let server = HttpServer::start(front()).unwrap();
    let addr = server.addr();

    // Raw socket: three requests down the same connection, three distinct
    // responses back, server keeps the connection open throughout.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..3u64 {
        let body = v2("issue", request(10 + i).to_json());
        write!(
            stream,
            "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        stream.flush().unwrap();

        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        let mut content_length = 0usize;
        let mut keep_alive = false;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_ascii_lowercase();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
            if line == "connection: keep-alive" {
                keep_alive = true;
            }
        }
        assert!(keep_alive, "server must advertise keep-alive");
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        let response = Json::parse(&String::from_utf8(body).unwrap()).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    }
    drop(stream);

    // The HttpClient reuses its connection the same way: issue repeatedly
    // and confirm the local port never changes.
    let client = HttpClient::connect(addr);
    client.ping().unwrap();
    for i in 0..4 {
        client.issue(&request(20 + i)).unwrap();
    }
    server.shutdown();
}

#[test]
fn post_without_content_length_is_rejected_with_400_and_close() {
    // Guessing a length would desynchronize the keep-alive stream, so the
    // server must refuse to frame such a request and hang up.
    let server = HttpServer::start(front()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "POST / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.to_ascii_lowercase().contains("connection: close"));
    let (_, body) = response.split_once("\r\n\r\n").unwrap();
    let envelope = ResponseEnvelope::from_json(&parse(body)).unwrap();
    assert!(!envelope.ok);
    assert_eq!(envelope.error.unwrap().code, "bad_envelope");
    server.shutdown();
}

#[test]
fn close_semantics_honored_per_request() {
    // `Connection: close` on a v2 request: the server must answer and hang
    // up (`post_raw` reads to EOF), and each call opens a fresh connection.
    let server = HttpServer::start(front()).unwrap();
    for i in 0..3 {
        let (status, text) = post_raw(server.addr(), &v2("issue", request(30 + i).to_json()));
        assert_eq!(status, 200);
        assert_eq!(parse(&text).get("ok").and_then(Json::as_bool), Some(true));
    }
    server.shutdown();
}

// ---- framing: pipelining, chunking, half-close ----

/// `k` requests whose responses name them: an unknown op is answered
/// `bad_envelope` with the op in the message, so order is checkable
/// without signing anything.
fn probes(k: usize) -> (Vec<u8>, Vec<String>) {
    let mut stream = Vec::new();
    let mut ops = Vec::new();
    for i in 0..k {
        let op = format!("probe_{i}");
        let body = v2(&op, Json::Null);
        write!(
            stream,
            "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        ops.push(op);
    }
    (stream, ops)
}

/// Read one response (status line, headers, `Content-Length` body);
/// `None` at a clean end of stream.
fn read_one_response(reader: &mut impl BufRead) -> Option<(u16, String)> {
    let mut status = String::new();
    if reader.read_line(&mut status).unwrap() == 0 {
        return None;
    }
    let code = status.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut content_length = 0;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    Some((code, String::from_utf8(body).unwrap()))
}

/// Write `stream` to a fresh connection cut at `cuts` (sorted offsets),
/// optionally half-close, and return the unknown op each response names.
/// A half-closed exchange reads to the server's close; otherwise it reads
/// `expect` responses and checks nothing more is sent.
fn exchange(
    addr: SocketAddr,
    stream: &[u8],
    cuts: &[usize],
    half_close: bool,
    expect: usize,
) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut from = 0;
    for &cut in cuts.iter().chain([&stream.len()]) {
        conn.write_all(&stream[from..cut]).unwrap();
        from = cut;
    }
    if half_close {
        conn.shutdown(Shutdown::Write).unwrap();
    }
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut named = Vec::new();
    while half_close || named.len() < expect {
        let Some((code, body)) = read_one_response(&mut reader) else {
            break;
        };
        assert_eq!(code, 200);
        let message = parse(&body)
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        named.push(message);
    }
    if !half_close {
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut extra = [0u8; 1];
        let quiet = matches!(reader.read(&mut extra), Err(e) if e.kind() == ErrorKind::WouldBlock);
        assert!(quiet, "bytes past the last expected response");
    }
    named
}

fn expected_names(ops: &[String]) -> Vec<String> {
    ops.iter().map(|op| format!("unknown op {op:?}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipelined_requests_in_any_chunking_get_every_response_in_order(
        k in 1usize..6,
        picks in prop::collection::vec(any::<u16>(), 0..12),
    ) {
        let server = HttpServer::start(front()).unwrap();
        let (stream, ops) = probes(k);
        let mut arbitrary: Vec<usize> = picks.iter().map(|&p| p as usize % stream.len()).collect();
        arbitrary.sort_unstable();
        let byte_at_a_time: Vec<usize> = (1..stream.len()).collect();
        for cuts in [Vec::new(), byte_at_a_time, arbitrary] {
            let named = exchange(server.addr(), &stream, &cuts, false, k);
            prop_assert_eq!(&named, &expected_names(&ops), "cuts {:?}", cuts);
        }
        server.shutdown();
    }

    #[test]
    fn a_half_closed_client_still_gets_every_response(
        k in 1usize..6,
        picks in prop::collection::vec(any::<u16>(), 0..6),
    ) {
        let server = HttpServer::start(front()).unwrap();
        let (stream, ops) = probes(k);
        let mut cuts: Vec<usize> = picks.iter().map(|&p| p as usize % stream.len()).collect();
        cuts.sort_unstable();
        let named = exchange(server.addr(), &stream, &cuts, true, k);
        prop_assert_eq!(named, expected_names(&ops));
        server.shutdown();
    }
}

#[test]
fn a_large_body_is_read_whole_while_the_workers_are_busy() {
    // A 512 KiB request and one pipelined behind it, sent in one write
    // while two clients keep both workers signing: the turn reads the big
    // body for as long as the socket holds bytes, and both are answered.
    let server = HttpServer::start_with(
        front(),
        HttpServerConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let busy: Vec<_> = (1..=2u64)
        .map(|t| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let client = HttpClient::connect(addr);
                for i in 0.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    client.issue(&request(t * 100_000 + i)).unwrap();
                }
            })
        })
        .collect();
    let ops = ["probe_large".to_string(), "probe_after".to_string()];
    let mut stream = Vec::new();
    for (op, pad) in ops.iter().zip([512 << 10, 0]) {
        let body = v2(op, Json::Str("a".repeat(pad)));
        write!(
            stream,
            "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
    }
    std::thread::sleep(Duration::from_millis(20)); // the workers are signing
    let start = Instant::now();
    let named = exchange(addr, &stream, &[], false, ops.len());
    let took = start.elapsed();
    stop.store(true, Ordering::SeqCst);
    for client in busy {
        client.join().unwrap();
    }
    assert_eq!(named, expected_names(&ops));
    assert!(took < Duration::from_secs(5), "answered after {took:?}");
    server.shutdown();
}

// ---- slow clients ----

/// How often a trickling client sends its next byte.
const TRICKLE: Duration = Duration::from_millis(50);

/// Slack past [`REQUEST_DEADLINE`] for the server's close to reach a
/// trickling client: the reactor wakes at each parked connection's own
/// deadline, so this covers only timer and scheduling latency on a
/// loaded host.
const REAPER_TICK: Duration = Duration::from_millis(500);

/// Open a connection, send `opening`, then one `byte` every [`TRICKLE`]
/// until the server hangs up. Returns how long after the first byte the
/// close arrived.
fn trickle(addr: SocketAddr, opening: String, byte: u8) -> Duration {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(TRICKLE)).unwrap();
    conn.write_all(opening.as_bytes()).unwrap();
    let first_byte = Instant::now();
    let mut probe = [0u8; 1];
    loop {
        match conn.read(&mut probe) {
            Ok(0) => break,
            Ok(_) => panic!("a request that never completes got an answer"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break, // reset: the server closed with bytes unread
        }
        assert!(
            first_byte.elapsed() < REQUEST_DEADLINE * 2,
            "the server never closed a trickling connection"
        );
        if conn.write_all(&[byte]).is_err() {
            break;
        }
    }
    first_byte.elapsed()
}

#[test]
fn trickling_clients_neither_pin_workers_nor_outlive_the_request_deadline() {
    // Two workers, four trickling connections: two stall inside the head,
    // two inside a body announced at the cap. None may hold a worker
    // between its bytes, and none may outlive the request deadline.
    let server = HttpServer::start_with(
        front(),
        HttpServerConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let tricklers: Vec<_> = (0..4)
        .map(|i| {
            let (opening, byte) = if i < 2 {
                ("POST / HTTP/1.1\r\n".to_string(), b'x')
            } else {
                (
                    format!(
                        "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n"
                    ),
                    b'[',
                )
            };
            std::thread::spawn(move || trickle(addr, opening, byte))
        })
        .collect();
    // Let every trickler get its first bytes dispatched.
    std::thread::sleep(TRICKLE * 4);

    let client = HttpClient::connect(addr);
    let mut latencies: Vec<Duration> = (0..120u64)
        .map(|i| {
            let start = Instant::now();
            let issued = client.issue(&request(100 + i));
            let took = start.elapsed();
            assert!(
                issued.is_ok(),
                "issue {i} failed after {took:?}: {issued:?}"
            );
            took
        })
        .collect();
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];
    assert!(
        p99 <= Duration::from_millis(50),
        "issue p99 {p99:?} beside trickling clients"
    );

    for trickler in tricklers {
        let closed_after = trickler.join().unwrap();
        assert!(
            closed_after >= REQUEST_DEADLINE - TRICKLE
                && closed_after <= REQUEST_DEADLINE + REAPER_TICK,
            "trickling connection closed {closed_after:?} after its first byte"
        );
    }
    server.shutdown();
}

// ---- envelope codec round trips ----

#[test]
fn envelope_types_round_trip_through_their_codecs() {
    use smacs_ts::api::{RequestEnvelope, ResponseEnvelope, WireError};

    let req = RequestEnvelope {
        v: PROTOCOL_VERSION,
        op: "issue".into(),
        body: Some(request(1).to_json()),
    };
    let text = smacs_primitives::json::to_string(&req);
    assert_eq!(
        RequestEnvelope::from_json(&Json::parse(&text).unwrap()).unwrap(),
        req
    );

    let resp = ResponseEnvelope {
        v: PROTOCOL_VERSION,
        ok: false,
        body: None,
        error: Some(WireError {
            code: "rule_violation".into(),
            message: "denied".into(),
        }),
    };
    let text = smacs_primitives::json::to_string(&resp);
    assert_eq!(
        ResponseEnvelope::from_json(&Json::parse(&text).unwrap()).unwrap(),
        resp
    );

    // `body` may be omitted entirely on the wire (ping).
    let sparse = RequestEnvelope::from_json(&Json::parse(r#"{"v":2,"op":"ping"}"#).unwrap());
    assert_eq!(sparse.unwrap().body, None);
}
