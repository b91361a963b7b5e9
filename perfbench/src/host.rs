//! Host metadata, process memory, and the host's speed.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds the reference task takes at its fastest on the build
/// machine (a two-vCPU VM) when the host is quiet.
pub const NOMINAL_MS: f64 = 1.5;

/// The reference task's state: a hash map of vectors and a key buffer,
/// kept between runs. Every run pushes the same keys in the same order,
/// so after the first run, made during set-up, the task allocates
/// nothing and the process's peak memory stays the workload's. The map
/// hashes with fixed keys, so that every process does the same work: a
/// hash seed drawn per process would lay the table out differently in
/// each run.
#[derive(Default)]
struct Reference {
    map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
}

thread_local! {
    static REFERENCE: RefCell<Reference> = RefCell::default();
}

/// A fixed task whose speed stands for the host's: `ops` pushes onto
/// the vectors of a hash map over 20,000 keys and as many lookups, in a
/// pseudo-random order, then its keys sorted. It chases pointers through
/// a working set of about a megabyte, as the compiler does, so load from
/// other machines on the shared host (caches, memory bandwidth, sibling
/// threads) slows it much as it slows the workloads.
fn reference_task(ops: u64) -> u64 {
    REFERENCE.with_borrow_mut(|Reference { map, keys }| {
        for v in map.values_mut() {
            v.clear();
        }
        let (mut x, mut sum) = (1u64, 0u64);
        for i in 0..ops {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            map.entry(x % 20_000).or_default().push(i);
            if let Some(v) = map.get(&((x >> 17) % 20_000)) {
                sum += v.len() as u64;
            }
        }
        keys.clear();
        keys.extend(map.keys());
        keys.sort_unstable();
        sum + keys[keys.len() / 2]
    })
}

/// Times the reference task once and records its milliseconds in
/// `samples`.
pub fn probe(samples: &mut Vec<f64>) {
    let t = Instant::now();
    black_box(reference_task(black_box(25_000)));
    samples.push(t.elapsed().as_secs_f64() * 1e3);
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0.0` when
/// `/proc/self/status` is unreadable.
pub fn max_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak that [`max_rss_mb`] reads to the current resident
/// set size, so set-up and reference runs before it do not count. Does
/// nothing where `/proc/self/clear_refs` is not writable.
pub fn reset_max_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Host and build metadata as a JSON object: available parallelism,
/// rustc version and build profile (recorded when the benchmark was
/// built), and the git commit checked out in the working directory
/// (`unknown` when it holds no `.git`).
pub fn metadata_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = git_head().unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"profile\": \"{}\", \"git_commit\": \"{commit}\"}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// The commit `.git/HEAD` names, read from the files (loose or packed
/// ref) without running git.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{refname}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(refname))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
