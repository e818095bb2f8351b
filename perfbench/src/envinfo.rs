//! The environment stamp printed with every result, and process
//! memory readings.

use std::path::Path;

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The source revision this binary was built from (`none` when built
/// outside a git checkout).
pub fn commit() -> &'static str {
    env!("PERFBENCH_COMMIT")
}

/// Filesystem type of the mount holding `dir`, from the kernel's mount
/// table (longest mount-point prefix wins); `unknown` if unreadable.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mount_fs_type(&mounts, &dir.to_string_lossy()).unwrap_or_else(|| "unknown".into())
}

fn mount_fs_type(mounts: &str, path: &str) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let _device = f.next()?;
            let point = f.next()?.replace("\\040", " ");
            let fs = f.next()?;
            let inside = path == point
                || point == "/"
                || path.strip_prefix(point.as_str()).is_some_and(|rest| rest.starts_with('/'));
            inside.then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_mount_prefix_wins() {
        let mounts = "overlay / overlay rw 0 0\n\
                      /dev/vda /data ext4 rw 0 0\n\
                      tmpfs /data/tmp tmpfs rw 0 0\n";
        assert_eq!(mount_fs_type(mounts, "/data/x").as_deref(), Some("ext4"));
        assert_eq!(mount_fs_type(mounts, "/data/tmp/y").as_deref(), Some("tmpfs"));
        assert_eq!(mount_fs_type(mounts, "/datax/z").as_deref(), Some("overlay"));
        assert_eq!(mount_fs_type(mounts, "/data").as_deref(), Some("ext4"));
    }
}
