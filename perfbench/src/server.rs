//! The server under test: `edge-cli serve` as a child process of its own,
//! plus what the benchmark reads back from it (`/metrics` counters,
//! `/debug/requests` ring records, and the kernel's peak-RSS figure).

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::loadgen::fetch;

/// How long a start may take before the run fails.
const START_LIMIT: Duration = Duration::from_secs(30);

/// Builds `edge-cli` from the checkout's workspace (a no-op when fresh)
/// and returns the binary's path.
pub fn build_edge_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--quiet", "--offline", "-p", "edge-cli"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err("building edge-cli failed".to_string());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(|t| if t.is_absolute() { t } else { root.join(t) })
        .unwrap_or_else(|| root.join("target"));
    Ok(target.join("release").join("edge-cli"))
}

/// Has the kernel kill `cmd`'s process when this process dies, so a
/// benchmark killed mid-run leaves no server behind.
pub fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: prctl is async-signal-safe and touches no memory of ours.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

/// A running `edge-cli serve`.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server on a free loopback port with `args` (the
    /// `--model` specs) and waits for the first `200` from `/healthz`.
    /// Returns the server and the spawn-to-healthy time.
    pub fn start(
        bin: &Path,
        args: &[String],
        log: &Path,
    ) -> Result<(ServerProc, Duration), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("finding a free port: {e}"))?
            .port();
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().expect("loopback address");
        let log_file = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        die_with_parent(&mut cmd);
        let child = cmd
            .arg("serve")
            .args(args)
            .args(["--addr", &addr.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut server = ServerProc { child, addr };
        loop {
            if matches!(fetch(addr, "GET", "/healthz"), Ok(p) if p.status == 200) {
                return Ok((server, started.elapsed()));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "server exited during start ({status}); see {}",
                    log.display()
                ));
            }
            if started.elapsed() > START_LIMIT {
                server.stop();
                return Err("server did not become healthy".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Kills the server and reaps it.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Runs of a measured phase at most, and the share of CPU time the host
/// may take during one before it is run again: a shared host that steals
/// the CPU for seconds moves latency by integer factors, which says
/// nothing about the program.
pub const ATTEMPTS: usize = 2;
pub const STEAL_LIMIT: f64 = 0.03;

/// The CPU time counters (`/proc/stat`) of the machine running the
/// benchmark, to see how much of a phase a shared host took away.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub steal: u64,
    pub total: u64,
}

impl CpuTicks {
    pub fn read() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        CpuTicks { steal: ticks.get(7).copied().unwrap_or(0), total: ticks.iter().sum() }
    }

    /// Stolen share of the CPU time between `self` and `later`.
    pub fn steal_share(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// The `/metrics` values the benchmark reads as window deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub batches: f64,
    pub batched_texts: f64,
}

impl Counters {
    pub fn scrape(addr: SocketAddr) -> Result<Counters, String> {
        let resp = fetch(addr, "GET", "/metrics").map_err(|e| format!("/metrics: {e}"))?;
        let text = String::from_utf8_lossy(&resp.body);
        let scrape = edge_obs::openmetrics::parse(&text)?;
        let v = |name: &str| scrape.value(name, &[]).unwrap_or(0.0);
        Ok(Counters {
            cache_hits: v("serve_cache_stats_hits"),
            cache_misses: v("serve_cache_stats_misses"),
            batches: v("serve_batch_size_count"),
            batched_texts: v("serve_batch_size_sum"),
        })
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            batches: self.batches - before.batches,
            batched_texts: self.batched_texts - before.batched_texts,
        }
    }
}

/// One `/debug/requests` ring record.
#[derive(Debug, Clone, PartialEq)]
pub struct RingRecord {
    pub id: u64,
    pub endpoint: String,
    pub status: u16,
    /// parse, queue, batch, inference, serialize (µs).
    pub stage_us: [f64; 5],
    pub total_us: f64,
}

/// Stage names in ring order.
pub const STAGES: [&str; 5] = ["parse", "queue", "batch", "inference", "serialize"];

/// Reads the last `n` ring records.
pub fn ring_records(addr: SocketAddr, n: usize) -> Result<Vec<RingRecord>, String> {
    let resp =
        fetch(addr, "GET", &format!("/debug/requests?n={n}")).map_err(|e| format!("ring: {e}"))?;
    parse_ring(&String::from_utf8_lossy(&resp.body))
}

/// Parses the ring's fixed JSON shape without building a value tree.
pub fn parse_ring(body: &str) -> Result<Vec<RingRecord>, String> {
    let num = |rec: &str, key: &str| -> Result<f64, String> {
        let at = rec.find(&format!("\"{key}\":")).ok_or(format!("ring record lacks {key}"))?;
        let rest = &rec[at + key.len() + 3..];
        let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(rest.len());
        rest[..end].parse().map_err(|_| format!("bad {key} in ring record"))
    };
    let mut out = Vec::new();
    for rec in body.split("{\"id\":").skip(1) {
        let rec = format!("\"id\":{rec}");
        let endpoint = rec
            .split("\"endpoint\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .ok_or("ring record lacks endpoint")?
            .to_string();
        // Stage keys are looked up inside the stage object only: the
        // record's own "batch" field shares a name with a stage.
        let stages = rec
            .split("\"stage_us\":{")
            .nth(1)
            .and_then(|r| r.split('}').next())
            .ok_or("ring record lacks stage_us")?;
        let mut stage_us = [0.0; 5];
        for (slot, name) in stage_us.iter_mut().zip(STAGES) {
            *slot = num(stages, name)?;
        }
        out.push(RingRecord {
            id: num(&rec, "id")? as u64,
            endpoint,
            status: num(&rec, "status")? as u16,
            stage_us,
            total_us: num(&rec, "total_us")?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_parse() {
        let body = r#"{"requests":[{"id":7,"endpoint":"predict","status":200,"batch":2,"cache_hits":0,"stage_us":{"parse":44,"queue":0,"batch":3,"inference":9,"serialize":1},"total_us":57},{"id":8,"endpoint":"metrics","status":200,"batch":0,"cache_hits":0,"stage_us":{"parse":0,"queue":0,"batch":0,"inference":0,"serialize":0},"total_us":325}]}"#;
        let recs = parse_ring(body).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, 7);
        assert_eq!(recs[0].endpoint, "predict");
        assert_eq!(recs[0].stage_us, [44.0, 0.0, 3.0, 9.0, 1.0]);
        assert_eq!(recs[0].total_us, 57.0);
        assert_eq!(recs[1].endpoint, "metrics");
    }

    #[test]
    fn peak_rss_reads_vmhwm() {
        assert!(peak_rss_mb("/proc/self/status").unwrap() > 0.0);
    }
}
