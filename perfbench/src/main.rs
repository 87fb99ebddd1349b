//! `parjoin-perfbench`: the repository's end-to-end and per-layer
//! wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hc-tj-cold|rs-hj-stream|serve-reload|dist-mesh> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload uses 4 simulated workers. With `--trace 0` the run
//! prints the end-to-end metrics; with `--trace 1` it runs the same
//! workload again with the engine's chrome trace on and prints the
//! per-layer metrics. Every answer is checked against a reference; the
//! last stdout line is one JSON object, and any wrong answer makes the
//! command exit non-zero.

mod agg;
mod batch;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use parjoin_common::Relation;
use report::Report;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Simulated workers per query: the smallest count at which Algorithm 1
/// splits the triangle over a non-trivial share vector.
pub const WORKERS: usize = 4;

const WORKLOADS: [&str; 4] = ["hc-tj-cold", "rs-hj-stream", "serve-reload", "dist-mesh"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds the measured loop runs.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64: the benchmark's seeded generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for input stream `stream`, derived from the run's seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// An answer's identity: arity, tuple count, and a 128-bit digest of its
/// values in order. Computed here rather than with the engine's own
/// fingerprint, so a broken engine hash cannot hide a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    arity: usize,
    tuples: u64,
    hash: [u64; 2],
}

impl Digest {
    /// Digests `rel`, an answer that reported `tuples` result tuples.
    pub fn of(rel: &Relation, tuples: u64) -> Digest {
        let mut a = 0xcbf2_9ce4_8422_2325u64 ^ rel.arity() as u64;
        let mut b = 0x8422_2325_cbf2_9ce4u64 ^ rel.len() as u64;
        for &v in rel.raw() {
            a = (a ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
            b = b
                .wrapping_add(v ^ (v >> 29))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (b >> 32);
        }
        Digest {
            arity: rel.arity(),
            tuples,
            hash: [a, b],
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} tuples of arity {}, digest {:016x}{:016x}",
            self.tuples, self.arity, self.hash[0], self.hash[1]
        )
    }
}

/// The system allocator, with the live bytes of its large blocks counted,
/// and their high-water mark. Peak RSS on glibc swings by a quarter
/// between seeds: its per-thread arenas keep freed memory resident in
/// amounts that depend on which thread freed what. Peak live heap bytes
/// follow the program's own data.
struct CountingAlloc;

/// Blocks below this size are not counted. Relation buffers, hash tables
/// and tries, which hold the memory that matters, are far larger; keeping
/// the shared counters off the small-allocation path keeps them from
/// slowing the allocation-heavy queries they measure.
const COUNTED_MIN: usize = 4 << 10;

/// Live bytes in counted blocks and their peak; statistics only (no other
/// data is published through them, so relaxed ordering suffices).
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    if by < COUNTED_MIN {
        return;
    }
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    if by >= COUNTED_MIN {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged, so `System`'s guarantees
// carry over; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, with `new_size` valid for `layout`'s
        // alignment as `realloc`'s contract requires.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live bytes in counted heap blocks since the last
/// [`reset_heap_peak`] (or since the process started), in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Restarts the peak from the heap's current size.
pub fn reset_heap_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not report it.
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

/// The checkout's git revision, read from `.git` without running git;
/// `none` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "meta: workload={} seed={} seconds={} trace={} nproc={} workers={WORKERS} git={} \
         command=\"perfbench {}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        git_revision(),
        argv.join(" ")
    );

    // The engine writes its chrome trace to a file; keep it inside the
    // checkout and remove it afterwards.
    let trace_dir = PathBuf::from("perfbench/target");
    if let Err(e) = std::fs::create_dir_all(&trace_dir) {
        eprintln!("perfbench: cannot create {}: {e}", trace_dir.display());
        return ExitCode::FAILURE;
    }
    let trace_file = trace_dir.join(format!("trace-{}.json", std::process::id()));

    let mut report = Report::default();
    let result = if batch::handles(&args.workload) {
        batch::run(&args, &mut report, &trace_file)
    } else {
        serve::run(&args, &mut report, &trace_file)
    };
    let _ = std::fs::remove_file(&trace_file);
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    let catalog: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!(
        "meta: attempted={} failed={} wrong={}",
        report.attempted,
        report.failed,
        report.mismatches.len()
    );
    match report.render(catalog) {
        Ok(line) => {
            println!("{line}");
            if report.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_order_arity_and_values() {
        let a = Relation::from_flat(2, vec![1, 2, 3, 4]);
        let swapped = Relation::from_flat(2, vec![3, 4, 1, 2]);
        let reshaped = Relation::from_flat(1, vec![1, 2, 3, 4]);
        let d = Digest::of(&a, 2);
        assert_eq!(d, Digest::of(&a.clone(), 2));
        assert_ne!(d, Digest::of(&swapped, 2));
        assert_ne!(d, Digest::of(&reshaped, 4));
        assert_ne!(d, Digest::of(&a, 3));
    }

    #[test]
    fn args_are_checked() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload dist-mesh --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse_args(&v("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&v("--workload dist-mesh --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&v("--workload dist-mesh --seconds 1 --trace 0")).is_err());
    }
}
