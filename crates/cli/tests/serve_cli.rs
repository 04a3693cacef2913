//! `vls-spice serve` over the wire: boot the real binary on an
//! ephemeral port with a saved smoke-grid library, probe it with the
//! daemon's own HTTP client, and require a clean shutdown. Spawns the
//! binary via `CARGO_BIN_EXE_vls-spice`.
//!
//! Every wait has a deadline and a drop guard kills and reaps the
//! daemon, so a broken daemon fails the test instead of hanging it or
//! outliving it.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vls_cells::ShifterKind;
use vls_charlib::{CharLib, GridSpec};
use vls_core::CharacterizeOptions;
use vls_runner::RunnerOptions;
use vls_serve::HttpClient;

/// How long the daemon may take to boot, to answer one request, or to
/// exit after `/shutdown`.
const DEADLINE: Duration = Duration::from_secs(30);

/// An in-trust-region query (the smoke grid's corners are 0.8/1.2 V).
const IN_TRUST: &str = r#"{"cell": "sstvs", "vddi": 0.9, "vddo": 1.1}"#;

/// The spawned daemon. Dropping it kills and reaps the process, so a
/// failed assertion never leaves a daemon running.
struct Daemon {
    child: Child,
    /// The daemon's stdout, line by line, from `reader`.
    lines: Receiver<String>,
    /// Ends when the daemon's stdout closes.
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(lib: &str) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_vls-spice"))
            .args(["serve", "--lib", lib, "--port", "0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Self {
            child,
            lines,
            reader: Some(reader),
        }
    }

    /// The next stdout line, or a panic naming `what` once the
    /// deadline passes or stdout closes.
    fn next_line(&self, what: &str) -> String {
        self.lines
            .recv_timeout(DEADLINE)
            .unwrap_or_else(|e| panic!("daemon never printed {what}: {e}"))
    }

    /// Waits for the daemon to exit on its own within the deadline.
    fn wait_exit(&mut self) -> ExitStatus {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("poll the daemon") {
                return status;
            }
            assert!(
                start.elapsed() < DEADLINE,
                "daemon still running {DEADLINE:?} after /shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Builds the smoke-grid SS-TVS library and saves it where the daemon
/// can load it.
fn smoke_lib_file() -> PathBuf {
    let lib = CharLib::build(
        &ShifterKind::sstvs(),
        &CharacterizeOptions::default(),
        GridSpec::smoke(),
        &RunnerOptions::default(),
    );
    let path = std::env::temp_dir().join(format!("vls_serve_cli_{}.json", std::process::id()));
    lib.save(&path).expect("save artifact");
    path
}

#[test]
fn daemon_boots_answers_over_the_wire_and_shuts_down_cleanly() {
    let path = smoke_lib_file();
    let mut daemon = Daemon::spawn(path.to_str().unwrap());

    let line = daemon.next_line("its address");
    let addr = line
        .strip_prefix("vls-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line}"))
        .to_string();

    let mut client = HttpClient::connect(addr.as_str(), DEADLINE).expect("connect to daemon");
    let mut request = |method: &str, route: &str, body: Option<&str>| {
        let (status, reply) = client
            .request(method, route, body)
            .unwrap_or_else(|e| panic!("{method} {route}: {e}"));
        assert_eq!(status, 200, "{method} {route} answered {status}: {reply}");
        reply
    };
    request("GET", "/healthz", None);
    let reply = request("POST", "/query", Some(IN_TRUST));
    assert!(
        reply.contains("\"source\": \"table\""),
        "in-trust query missed the table: {reply}"
    );
    request("GET", "/metrics", None);
    request("POST", "/shutdown", None);

    let status = daemon.wait_exit();
    assert!(status.success(), "daemon exited with {status}");
    assert_eq!(daemon.next_line("its shutdown line"), "clean shutdown");
    let _ = std::fs::remove_file(path);
}
