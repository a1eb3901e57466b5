//! The server under test: a release `retrozilla-serve` in its own
//! process, configured only through its deployment flags.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

pub struct ServerProc {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub repo_dir: PathBuf,
}

impl ServerProc {
    /// Start `bin` on an ephemeral loopback port with `threads` workers
    /// and a WAL-backed repository in `repo_dir` (created fresh), and
    /// wait until it listens.
    pub fn spawn(bin: &Path, threads: usize, repo_dir: &Path) -> io::Result<ServerProc> {
        let _ = std::fs::remove_dir_all(repo_dir);
        std::fs::create_dir_all(repo_dir)?;
        let log = std::fs::File::create(repo_dir.join("server.log"))?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string(), "--repo"])
            .arg(repo_dir.join("rules.json"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("server exited before listening"));
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse()
                    .map_err(|_| io::Error::other(format!("bad address in {line:?}")))?;
            }
        };
        Ok(ServerProc { child, _stdout: stdout, addr, repo_dir: repo_dir.to_path_buf() })
    }

    /// The server process's peak resident set (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for ServerProc {
    /// Kill the server, wait for it, and remove its repository.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.repo_dir);
    }
}
