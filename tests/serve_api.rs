//! Protocol pin for the `vls-serve` query daemon: every test boots a
//! real daemon on an ephemeral loopback port and holds the wire
//! contract fixed — response schemas byte-for-byte, typed error
//! bodies with the right status codes, oversized-body and oversized-head
//! rejection, and the `--check-config` exit-code contract of the CLI
//! front end.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sstvs::cells::ShifterKind;
use sstvs::charlib::{CharLib, GridSpec, QueryPoint};
use sstvs::cli::{run_serve_check, CliError, ServeArgs};
use sstvs::flows::CharacterizeOptions;
use sstvs::runner::RunnerOptions;
use sstvs::serve::{one_shot, protocol, HttpClient, ServeConfig, ServedCell, Server};

/// The smoke-grid library every daemon in this file serves, built
/// once. Tests here never assert on the *library's* counters (they
/// are shared); server-side metrics are per-daemon.
fn smoke_lib() -> Arc<CharLib> {
    static LIB: OnceLock<Arc<CharLib>> = OnceLock::new();
    Arc::clone(LIB.get_or_init(|| {
        Arc::new(CharLib::build(
            &ShifterKind::sstvs(),
            &CharacterizeOptions::default(),
            GridSpec::smoke(),
            &RunnerOptions::default(),
        ))
    }))
}

fn start_daemon(cfg: ServeConfig) -> Server {
    let cells = vec![ServedCell::new("sstvs", smoke_lib())];
    Server::start(cells, cfg).expect("daemon starts on an ephemeral port")
}

/// An in-trust-region query body and its operating point.
const IN_TRUST: &str = r#"{"cell": "sstvs", "vddi": 0.9, "vddo": 1.1}"#;

fn in_trust_point() -> QueryPoint {
    QueryPoint {
        slew: protocol::DEFAULT_SLEW,
        load: protocol::DEFAULT_LOAD,
        vddi: 0.9,
        vddo: 1.1,
        temp: protocol::DEFAULT_TEMP,
    }
}

#[test]
fn healthz_and_query_bodies_are_pinned() {
    let server = start_daemon(ServeConfig::default());
    let addr = server.addr();

    // Readiness probe: exact body.
    let (status, body) = one_shot(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\": \"ok\", \"cells\": [\"sstvs\"]}");

    // A surrogate hit must be byte-identical to the direct library
    // call rendered through the same protocol — the determinism
    // contract the soak suite scales up.
    let (status, body) = one_shot(addr, "POST", "/query", Some(IN_TRUST)).expect("query");
    assert_eq!(status, 200);
    let direct = smoke_lib()
        .probe_table(&in_trust_point())
        .expect("in-trust point hits the table");
    assert_eq!(body, protocol::render_success("sstvs", &direct, None));

    // The metrics document reflects exactly the traffic above.
    let (status, metrics) = one_shot(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"queries\": 1"), "{metrics}");
    assert!(metrics.contains("\"hits\": 1"), "{metrics}");
    assert!(metrics.contains("\"sheds\": 0"), "{metrics}");

    server.shutdown();
    server.wait();
}

#[test]
fn errors_are_typed_with_the_right_status() {
    let server = start_daemon(ServeConfig::default());
    let addr = server.addr();

    // Malformed JSON: 400 with a typed body.
    let (status, body) = one_shot(addr, "POST", "/query", Some("{")).expect("bad json");
    assert_eq!(status, 400);
    assert!(body.contains("\"kind\": \"bad_request\""), "{body}");

    // A missing required field names the field.
    let (status, body) = one_shot(
        addr,
        "POST",
        "/query",
        Some(r#"{"cell": "sstvs", "vddo": 1.1}"#),
    )
    .expect("missing vddi");
    assert_eq!(status, 400);
    assert!(body.contains("vddi"), "{body}");

    // Unknown cell: 404.
    let (status, body) = one_shot(
        addr,
        "POST",
        "/query",
        Some(r#"{"cell": "ghost", "vddi": 0.9, "vddo": 1.1}"#),
    )
    .expect("unknown cell");
    assert_eq!(status, 404);
    assert!(body.contains("\"kind\": \"not_found\""), "{body}");

    // Wrong method on a known path: 405. Unknown path: 404.
    let (status, body) = one_shot(addr, "GET", "/query", None).expect("GET query");
    assert_eq!(status, 405);
    assert!(body.contains("\"kind\": \"method_not_allowed\""), "{body}");
    let (status, _) = one_shot(addr, "GET", "/nope", None).expect("unknown path");
    assert_eq!(status, 404);

    // All of it lands in bad_requests, none of it in the query
    // counters.
    let metrics = server.metrics_json();
    assert!(metrics.contains("\"bad_requests\": 5"), "{metrics}");
    assert!(metrics.contains("\"queries\": 0"), "{metrics}");

    server.shutdown();
    server.wait();
}

#[test]
fn oversized_bodies_are_rejected_and_close_the_connection() {
    let server = start_daemon(ServeConfig {
        max_body: 128,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let huge = format!(
        r#"{{"cell": "sstvs", "vddi": 0.9, "vddo": 1.1, "pad": "{}"}}"#,
        "x".repeat(512)
    );
    let mut client = HttpClient::connect(addr, Duration::from_secs(60)).expect("connect");
    let (status, body) = client
        .request("POST", "/query", Some(&huge))
        .expect("oversized request still gets a response");
    assert_eq!(status, 413);
    assert!(body.contains("\"kind\": \"too_large\""), "{body}");
    assert!(body.contains("128-byte limit"), "{body}");

    // The unread body destroyed the framing: the daemon must have
    // closed the connection rather than misparse what follows.
    assert!(
        client.request("GET", "/healthz", None).is_err(),
        "connection should be closed after a 413"
    );

    // A fresh connection with a small body still works.
    let (status, _) = one_shot(addr, "POST", "/query", Some(IN_TRUST)).expect("fresh query");
    assert_eq!(status, 200);

    server.shutdown();
    server.wait();
}

/// Reads until the daemon closes the connection. A reset counts as
/// closed: the daemon may close with the rest of an oversized request
/// still unread. A timeout does not.
fn read_until_closed(stream: &mut TcpStream) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return bytes,
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return bytes,
            Err(e) => panic!("connection still open after {} bytes: {e}", bytes.len()),
        }
    }
}

#[test]
fn an_endless_request_line_is_rejected_without_buffering_it() {
    let server = start_daemon(ServeConfig::default());
    let addr = server.addr();

    // One megabyte of request line and no newline.
    let mut line = b"GET /".to_vec();
    line.resize(1 << 20, b'a');
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let response = std::thread::scope(|s| {
        // The daemon may answer and close while the line is still being
        // sent, which fails this write; only the answer matters.
        s.spawn(move || {
            let _ = writer.write_all(&line);
            let _ = writer.shutdown(Shutdown::Write);
        });
        read_until_closed(&mut stream)
    });

    let response = String::from_utf8(response).expect("ASCII response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no complete response head in {} bytes", response.len()));
    assert!(head.starts_with("HTTP/1.1 400 "), "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    assert!(body.contains("\"kind\": \"bad_request\""), "{body}");
    assert!(body.len() < 1024, "{}-byte error body", body.len());

    // The daemon still serves fresh connections.
    let (status, _) = one_shot(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);

    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_endpoint_stops_the_daemon() {
    let server = start_daemon(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = one_shot(addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\": \"shutting_down\"}");

    // The accept loop exits; `wait` returns instead of hanging.
    server.wait();
    assert!(
        one_shot(addr, "GET", "/healthz", None).is_err(),
        "daemon must stop accepting after /shutdown"
    );
}

#[test]
fn check_config_exit_code_contract() {
    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vls_serve_api_{name}_{}.json", std::process::id()))
    }

    // No --lib at all: usage error (exit 2 at the binary).
    assert!(matches!(
        run_serve_check(&ServeArgs::default()),
        Err(CliError::Usage(_))
    ));

    // Missing artifact: runtime failure (exit 1 at the binary).
    let missing = ServeArgs {
        libs: vec![tmp("missing").to_string_lossy().into_owned()],
        ..ServeArgs::default()
    };
    assert!(matches!(
        run_serve_check(&missing),
        Err(CliError::CharLib(_))
    ));

    // Unusable flags stay usage errors even with a valid artifact.
    let path = tmp("ok");
    smoke_lib().save(&path).expect("save artifact");
    let spec = path.to_string_lossy().into_owned();
    let zero_queue = ServeArgs {
        libs: vec![spec.clone()],
        queue: 0,
        ..ServeArgs::default()
    };
    assert!(matches!(
        run_serve_check(&zero_queue),
        Err(CliError::Usage(_))
    ));

    // A valid deployment reports what it would serve without binding.
    let ok = ServeArgs {
        libs: vec![spec],
        ..ServeArgs::default()
    };
    let report = run_serve_check(&ok).expect("valid config");
    assert!(report.starts_with("serve config: OK"), "{report}");
    assert!(
        report.contains(&format!("{:#018x}", smoke_lib().content_hash())),
        "{report}"
    );
    let _ = std::fs::remove_file(&path);
}
