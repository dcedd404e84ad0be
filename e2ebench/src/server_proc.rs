//! The server under test, run as a child process in its default
//! configuration, so `/proc/<pid>` describes the server alone: its
//! threads and peak RSS carry none of the generator's threads or inputs.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use mhp_server::{Client, Server, ServerConfig, ServerError};

/// How long a stopping server may take to drain before it is killed.
const STOP_GRACE: Duration = Duration::from_secs(20);

/// Body of the `serve` subcommand: binds an ephemeral loopback port with
/// [`ServerConfig::default`], prints `listening on ADDR`, and serves until
/// a client sends `shutdown` — or until the parent goes away, seen as EOF
/// on stdin, so a crashed generator never leaves a server behind.
pub fn serve() -> Result<(), ServerError> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
    println!("listening on {}", server.local_addr());
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
    server.wait();
    Ok(())
}

/// A running server child process.
pub struct ServerProcess {
    child: Child,
    /// Held open for the child's lifetime; closing it tells the child its
    /// parent is gone.
    _stdin: ChildStdin,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Starts `exe serve` and waits until it has bound its port.
    pub fn spawn(exe: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(exe)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut process = ServerProcess {
            child,
            _stdin: stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read server banner: {e}"))?;
        process.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(process)
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's current OS thread count, including the one thread
    /// [`serve`] adds to watch for its parent's exit.
    pub fn threads(&self) -> Result<u64, String> {
        self.status_field("Threads:")
    }

    /// The server's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        Ok(self.status_field("VmHWM:")? as f64 / 1024.0)
    }

    /// One numeric field of `/proc/<pid>/status` (the first number on the
    /// line; `VmHWM` is in kB).
    fn status_field(&self, key: &str) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| format!("{path} has no {key} line"))
    }

    /// Asks the server to shut down and waits for the process to exit,
    /// killing it if it has not drained within a grace period.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.shutdown_server());
        let deadline = Instant::now() + STOP_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("server exited with {status} (shutdown: {asked:?})"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("server did not drain within its grace period".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Reaps a server that stopped cleanly; kills one that did not.
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
