//! The load generator's side of the wire, and the server child process.
//!
//! The server runs in a child process (this same executable, started with
//! `__serve`), so its resident memory is the serving stack's alone and the
//! generated graph, the offline build and the reference engine never
//! count in it.

use ctc_core::CommunityEngine;
use ctc_graph::Parallelism;
use ctc_server::{AppState, CtcServer, Json, ServeConfig};
use ctc_truss::Snapshot;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of the served stack (`ctc-cli serve --threads 2`).
const SERVE_THREADS: usize = 2;

/// No reply may take longer than this; the run fails instead of hanging.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One response, timed from the first request byte written to the last
/// response byte read.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// `x-cache` header value, when present.
    pub cache: Option<String>,
    /// Bytes on the wire, head included.
    pub wire_bytes: usize,
    /// When the first request byte was written.
    pub start: Instant,
    /// When the last response byte was read.
    pub end: Instant,
}

/// The raw bytes of a request, as the load generator writes them.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    body_at: usize,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
            body_at: 0,
        })
    }

    /// The body of the last response read.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_at..]
    }

    /// Sends one request and reads its whole response; the body stays in
    /// the connection's buffer (see [`Client::body`]).
    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<Reply> {
        let start = Instant::now();
        self.stream.write_all(raw)?;
        self.buf.clear();
        let mut chunk = [0u8; 1 << 16];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let got = self.stream.read(&mut chunk)?;
            if got == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..got]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| std::io::Error::other("response head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("malformed status line"))?;
        let header = |name: &str| {
            head.split("\r\n").find_map(|line| {
                let (k, v) = line.split_once(':')?;
                k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
        };
        let len: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| std::io::Error::other("response without content-length"))?;
        let cache = header("x-cache");
        let total = head_end + len;
        if self.buf.len() < total {
            let have = self.buf.len();
            self.buf.resize(total, 0);
            self.stream.read_exact(&mut self.buf[have..])?;
        }
        let end = Instant::now();
        self.buf.truncate(total);
        self.body_at = head_end;
        Ok(Reply {
            status,
            cache,
            wire_bytes: total,
            start,
            end,
        })
    }

    /// `GET path`, expecting a JSON body.
    pub fn get_json(&mut self, path: &str) -> Result<Json, String> {
        self.send(&request_bytes("GET", path, b""))
            .map_err(|e| format!("GET {path}: {e}"))?;
        let text =
            std::str::from_utf8(self.body()).map_err(|_| format!("GET {path}: not UTF-8"))?;
        Json::parse(text).map_err(|e| format!("GET {path}: {e}"))
    }
}

/// A served snapshot in a child process; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Starts serving `snapshot` (recovering `log` first, when given) and
    /// waits for the first `/healthz` 200. Returns the server and the time
    /// from the start of the process to that answer.
    pub fn start(snapshot: &Path, log: Option<&Path>) -> Result<(ServerProcess, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let t0 = Instant::now();
        let mut cmd = Command::new(exe);
        cmd.arg("__serve").arg(snapshot);
        if let Some(log) = log {
            cmd.arg(log);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening ")?.parse().ok());
        let mut server = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = addr.ok_or_else(|| format!("server did not start: {line:?}"))?;
        loop {
            let healthy = Client::connect(server.addr)
                .and_then(|mut c| c.send(&request_bytes("GET", "/healthz", b"")))
                .map(|r| r.status == 200)
                .unwrap_or(false);
            if healthy {
                break;
            }
            if t0.elapsed() > IO_TIMEOUT {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let setup_s = t0.elapsed().as_secs_f64();
        Ok((server, setup_s))
    }

    /// Peak resident memory of the server process, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks for a graceful shutdown and waits for the process to end.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = Client::connect(self.addr)
            .and_then(|mut c| c.send(&request_bytes("POST", "/shutdown", b"")));
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if t0.elapsed() < IO_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("server did not shut down".into()),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The served stack's configuration: `ctc-cli serve --threads 2` with
/// every other setting at its default (a 1024-entry answer cache).
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        pool: Parallelism::threads(SERVE_THREADS),
        ..ServeConfig::default()
    }
}

/// The child side: serve `snapshot` as `ctc-cli serve --threads 2
/// [--log log]` does, print the bound address, and block until shutdown.
pub fn serve_main(snapshot: &Path, log: Option<&Path>) -> Result<(), String> {
    let (engine, logfile) = match log {
        Some(lp) => {
            let (engine, logfile, _report) = CommunityEngine::recover(snapshot, Some(lp))
                .map_err(|e| format!("recovering {}: {e}", snapshot.display()))?;
            (engine, logfile)
        }
        None => {
            let snap = Snapshot::load(snapshot)
                .map_err(|e| format!("loading {}: {e}", snapshot.display()))?;
            (CommunityEngine::from_snapshot(snap), None)
        }
    };
    let cfg = serve_config();
    let state = Arc::new(AppState::new(engine, &cfg));
    if let Some(lf) = logfile {
        state.attach_default_wal(lf);
    }
    let server = CtcServer::bind_state(state, "127.0.0.1:0", &cfg)
        .map_err(|e| format!("binding loopback: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    server.serve();
    Ok(())
}
