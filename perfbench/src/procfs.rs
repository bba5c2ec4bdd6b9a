//! Per-thread CPU time from `/proc` (Linux only, no dependencies).
//!
//! `/proc/self/task/<tid>/stat` carries each thread's name and its user and
//! system time in clock ticks; `/proc/self/stat` carries the same for the
//! whole process, including threads that have already exited. Threads are
//! grouped by name prefix into the layers that own them.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. `USER_HZ` is 100 on
/// every Linux architecture this benchmark targets.
const TICKS_PER_SEC: u64 = 100;

/// Thread-name groups, matched by prefix in order; anything else is "other".
const GROUPS: &[(&str, &str)] = &[
    ("load-", "load"),
    ("davix-io", "davix-io"),
    ("httpd-shard", "httpd-shard"),
    ("httpd-accept", "httpd-accept"),
    ("netsim-clock", "netsim-clock"),
];

/// The group a thread name belongs to.
pub fn group_of(name: &str) -> &'static str {
    GROUPS.iter().find(|(prefix, _)| name.starts_with(prefix)).map_or("other", |(_, g)| g)
}

/// `(name, utime + stime in ticks)` from the contents of a `stat` file.
fn parse_stat(text: &str) -> Option<(String, u64)> {
    // The name sits in parentheses and may itself contain spaces or ')'.
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let name = text.get(open + 1..close)?.to_string();
    let fields: Vec<&str> = text.get(close + 1..)?.split_whitespace().collect();
    // Fields 14 and 15 of proc(5); field 3 is the first after the name.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((name, utime + stime))
}

/// CPU time of the whole process so far, in microseconds.
pub fn process_cpu_us() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .map_or(0, |(_, ticks)| ticks * 1_000_000 / TICKS_PER_SEC)
}

/// CPU time of the calling thread so far, in microseconds.
pub fn thread_cpu_us() -> u64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .map_or(0, |(_, ticks)| ticks * 1_000_000 / TICKS_PER_SEC)
}

/// One reading of every live thread: tid → (group, CPU ticks).
#[derive(Debug, Clone, Default)]
pub struct ThreadSample {
    threads: BTreeMap<u32, (&'static str, u64)>,
}

impl ThreadSample {
    /// Read `/proc/self/task/*/stat`. Threads that exit mid-read are skipped.
    pub fn take() -> ThreadSample {
        let mut threads = BTreeMap::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let Ok(text) = fs::read_to_string(entry.path().join("stat")) else {
                    continue;
                };
                if let Some((name, ticks)) = parse_stat(&text) {
                    threads.insert(tid, (group_of(&name), ticks));
                }
            }
        }
        ThreadSample { threads }
    }

    /// Number of live threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// CPU microseconds per group spent between `earlier` and `self`, over
    /// the threads alive at `self` (a thread born in between counts whole).
    pub fn cpu_us_since(&self, earlier: &ThreadSample) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (tid, (group, ticks)) in &self.threads {
            let before = earlier.threads.get(tid).map_or(0, |(_, t)| *t);
            *out.entry(*group).or_insert(0) += ticks.saturating_sub(before);
        }
        for v in out.values_mut() {
            *v = *v * 1_000_000 / TICKS_PER_SEC;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names_with_spaces_and_parens() {
        let line = "42 (httpd-shard-0) S 1 2 3 4 5 6 7 8 9 10 17 5 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some(("httpd-shard-0".to_string(), 22)));
        let odd = "7 (a b) c) R 1 2 3 4 5 6 7 8 9 10 3 4 0 0";
        assert_eq!(parse_stat(odd), Some(("a b) c".to_string(), 7)));
    }

    #[test]
    fn groups_by_prefix() {
        assert_eq!(group_of("load-1"), "load");
        assert_eq!(group_of("davix-io-3"), "davix-io");
        assert_eq!(group_of("httpd-shard-1"), "httpd-shard");
        assert_eq!(group_of("httpd-accept"), "httpd-accept");
        assert_eq!(group_of("netsim-clock"), "netsim-clock");
        assert_eq!(group_of("perfbench"), "other");
    }

    #[test]
    fn sees_this_thread() {
        let s = ThreadSample::take();
        assert!(s.len() >= 1);
        assert!(process_cpu_us() < u64::MAX);
    }
}
