//! What the benchmark reads about its own process and host.  Linux only:
//! elsewhere the `/proc` readings come back as 0.

use serde::Value;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of this process so far, over all its
/// threads, in seconds (`/proc/self/stat`, at the kernel's 100 ticks/s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after its closing
    // parenthesis start at field 3 (state), so utime/stime (fields 14/15)
    // are at offsets 11/12.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (which would search directories above it);
/// `"unknown"` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Names of the `TUGAL_*` variables set in the environment: the harness
/// knobs that would change what the figure binaries run.
pub fn tugal_vars() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TUGAL_"))
        .collect()
}

/// The host facts every result is recorded with.
pub fn env_json() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    crate::obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("rayon_num_threads", Value::Str(rayon)),
        ("git_revision", Value::Str(git_revision())),
    ])
}
