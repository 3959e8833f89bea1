//! The host block printed with every result, and the process's own
//! memory high-water mark.

/// What a reader needs to judge a wall-clock number.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    /// `min(nproc, 4)`: never more threads than cores.
    pub workers: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    /// 1-minute load average when the process started (−1 if unreadable).
    pub loadavg: f64,
}

/// Worker threads the `par` arm may use on a host with `nproc` cores.
pub fn workers_for(nproc: usize) -> usize {
    nproc.clamp(1, 4)
}

impl Host {
    pub fn read() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            workers: workers_for(nproc),
            rustc: env!("E2E_RUSTC_VERSION"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(-1.0),
        }
    }

    /// With one core the `par` arm still runs, but its ratio to `seq`
    /// says nothing about parallel speed-up.
    pub fn single_core(&self) -> bool {
        self.nproc == 1
    }

    pub fn print(&self, calib_ms: f64) {
        println!("host.nproc = {}", self.nproc);
        println!("host.workers = {}", self.workers);
        println!("host.rustc = {}", self.rustc);
        println!("host.profile = {}", self.profile);
        println!("host.loadavg_1m = {:.2}", self.loadavg);
        println!("host.calib_ms = {calib_ms:.3}");
        println!("host.single_core = {}", self.single_core());
        if self.profile != "release" {
            println!("host.warning = unoptimised build: timings are not comparable");
        }
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_are_clamped_to_the_cores_and_to_four() {
        assert_eq!(workers_for(1), 1);
        assert_eq!(workers_for(2), 2);
        assert_eq!(workers_for(4), 4);
        assert_eq!(workers_for(64), 4);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let h = Host::read();
        assert!(h.workers <= h.nproc && h.workers >= 1);
    }
}
