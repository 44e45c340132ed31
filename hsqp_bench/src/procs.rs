//! Processes: the node children of the socket workload, the harness's
//! own re-invocations, and what `/proc` says about either.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Banner prefix of a node child, the same line `hsqp-node` prints.
const BANNER: &str = "hsqp-node listening on ";

/// `hsqp_bench node`: one cluster node, exactly what `src/bin/hsqp_node.rs`
/// does with `--listen 127.0.0.1:0`. Returns when the coordinator shuts
/// the node down or disconnects.
pub fn node_main() -> Result<(), String> {
    use std::io::Write as _;
    let server = hsqp::engine::NodeServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("listen address: {e}"))?;
    println!("{BANNER}{addr}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    server.run().map_err(|e| format!("node failed: {e}"))
}

/// A command that re-invokes this executable.
pub fn this_exe() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    Ok(Command::new(exe))
}

/// Node child processes. Dropping kills and reaps every one, so no exit
/// path of the harness — an error return, a panic unwinding — leaves a
/// child behind. (A harness killed outright cannot run this; the nodes
/// then exit by themselves when the coordinator's connection closes.)
pub struct NodeChildren {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl NodeChildren {
    /// Spawn `n` nodes on OS-assigned loopback ports and read each one's
    /// address from its banner.
    pub fn spawn(n: usize) -> Result<NodeChildren, String> {
        let mut nodes = NodeChildren {
            children: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let mut child = this_exe()?
                .arg("node")
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                // A node narrates every join and shutdown; its failures
                // reach the coordinator as typed errors anyway.
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn node: {e}"))?;
            let stdout = child.stdout.take();
            // Owned by `nodes` before anything can fail, so it is reaped.
            nodes.children.push(child);
            let mut line = String::new();
            BufReader::new(stdout.ok_or("node stdout not piped")?)
                .read_line(&mut line)
                .map_err(|e| format!("node banner: {e}"))?;
            let addr = line
                .trim()
                .strip_prefix(BANNER)
                .ok_or_else(|| format!("unexpected node banner {line:?}"))?;
            nodes.addrs.push(addr.to_string());
        }
        Ok(nodes)
    }

    /// `host:port` of every node, in node-id order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Process ids, in node-id order.
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }
}

impl Drop for NodeChildren {
    fn drop(&mut self) {
        for child in &mut self.children {
            // Already exited (after a coordinator shutdown) is fine.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A `Key:   123 kB` line of `/proc/<pid>/status`, in MB.
fn status_mb(pid: u32, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of `pids` summed, in MB.
pub fn peak_rss_mb(pids: &[u32]) -> f64 {
    pids.iter().filter_map(|&p| status_mb(p, "VmHWM:")).sum()
}

/// USER_HZ: the unit of /proc's tick counts, 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds `pids` have used so far, summed.
pub fn cpu_seconds(pids: &[u32]) -> f64 {
    pids.iter()
        .filter_map(|&p| {
            let stat = std::fs::read_to_string(format!("/proc/{p}/stat")).ok()?;
            // The command name may hold spaces; fields resume after ')'.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .sum()
}

/// CPU seconds the hypervisor has withheld from this machine's cores so
/// far (`steal` of `/proc/stat`); 0 where the kernel does not account it.
pub fn steal_seconds() -> f64 {
    let ticks = || -> Option<f64> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        // cpu user nice system idle iowait irq softirq steal ...
        stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
    };
    ticks().unwrap_or(0.0) / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let me = std::process::id();
        assert!(peak_rss_mb(&[me]) > 0.5, "a test binary is over 0.5 MB");
        let before = cpu_seconds(&[me]);
        let mut x = 0u64;
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds(&[me]) > before, "60 ms of spinning is 6 ticks");
        assert!(steal_seconds() >= 0.0);
    }
}
