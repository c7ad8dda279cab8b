//! probcon's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <admit-local|signoff-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through probcon's public API for `--seconds`, checks
//! its outputs, and prints one line per metric followed by a JSON result
//! line. `--trace 0` reports the end-to-end metrics, scaled to a
//! reference host speed; `--trace 1` alternates untraced and traced
//! passes and reports per-layer metrics. See `perfbench/README.md`.

mod admit_local;
mod drive;
mod layers;
mod probes;
mod reference;
mod signoff;
mod spans;
mod stats;
mod stream;
mod wire_cheap;

use drive::PassStats;
use experiments::workload::DEFAULT_SEED;
use platform::SystemSpec;
use runtime::DecisionEvent;
use spans::{OpKind, SpanLog};
use stats::{median, Quantile, Report, Samples};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <admit-local|signoff-sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";
/// Passes every run makes at least, before its closing pass.
const MIN_PASSES: usize = 4;
/// Every how many traced passes the controller probe replays a journal,
/// right after the pass, so its timings share the spans' machine state.
const PROBE_EVERY: usize = 4;
/// Passes of the traced wire session an `admit-local` traced run adds.
const WIRE_SESSION_PASSES: usize = 4;
/// Workload instances a run cycles through: enough to average over, and
/// a fixed number, so that a faster program repeats instances rather
/// than meeting more of them (which would move its peak RSS). A sweep
/// pass takes about three admit-local passes, so the sweep cycles fewer.
const INSTANCES: usize = 16;
const SWEEP_INSTANCES: usize = 8;
/// Samples a latency series needs before its block closes: its p99 then
/// has ten samples beyond it.
const BLOCK_SAMPLES: usize = 1000;
/// Results expected for `DEFAULT_SEED`.
const EXPECTED: &str = include_str!("../expected.txt");

/// One fresh-state pass of a workload: set-up, timed phase, checks.
pub struct Pass {
    pub setup_s: f64,
    /// Operations completed in the timed phase.
    pub ops: u64,
    /// Digest of everything the pass decided or computed.
    pub fingerprint: String,
    pub spec: SystemSpec,
    /// The fleet's journal at the end of the pass.
    pub events: Vec<DecisionEvent>,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub stats: PassStats,
    /// The sweep's time per use-case of each method, in nanoseconds.
    pub sweep_ns: Vec<(String, u64)>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

pub fn check(failures: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        failures.push(what());
    }
}

/// FNV-1a digest of `text`, in hex.
pub fn fingerprint(text: &str) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Seed of the `k`-th workload instance of a run: the run's seed, then
/// seeds derived from it.
fn instance_seed(seed: u64, k: usize) -> u64 {
    match k {
        0 => seed,
        k => stream::Rng::new(seed ^ (k as u64).rotate_left(32)).next_u64(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["admit-local", "signoff-sweep"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Everything the passes of one mode (traced or not) added up to.
#[derive(Default)]
pub struct Totals {
    pub stats: PassStats,
    pub ops: u64,
    pub passes: usize,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub journal_entries: u64,
    /// The admission controller replaying some passes' journals.
    pub controller: probes::ControllerProbe,
    /// The first pass's own stats, with its kept message samples.
    pub first: Option<PassStats>,
    /// Consecutive passes grouped until each latency series holds
    /// `BLOCK_SAMPLES`: the end-to-end figures are medians over blocks,
    /// so a burst of machine noise moves few of them.
    blocks: Vec<Block>,
    open: PassStats,
    open_ops: u64,
    /// The open block's timed nanoseconds, each weighted by its pass's
    /// host slowdown.
    open_slowed_ns: f64,
}

/// The end-to-end figures of one block of passes, as measured.
#[derive(Clone, Copy)]
pub struct Block {
    pub throughput: f64,
    /// (p50, tail) of admits and of every other request.
    pub admit: (Quantile, Quantile),
    pub other: (Quantile, Quantile),
    /// The host's slowdown over the block (see `reference`): its figures
    /// at the reference speed are times divided by it and rates
    /// multiplied by it.
    pub slowdown: f64,
}

/// Reads one percentile off a block.
type Pick = fn(&Block) -> Quantile;

impl Block {
    fn of(stats: &PassStats, ops: u64, slowed_ns: f64) -> Block {
        let (admits, others) = stats.split();
        let timed_ns = stats.timed_ns as f64;
        Block {
            throughput: ops as f64 / (timed_ns / 1e9),
            admit: (admits.p50(), admits.tail()),
            other: (others.p50(), others.tail()),
            slowdown: if timed_ns > 0.0 {
                slowed_ns / timed_ns
            } else {
                1.0
            },
        }
    }
}

impl Totals {
    fn add(&mut self, pass: Pass, probe_journal: bool, slowdown: f64) {
        self.stats.absorb(&pass.stats);
        self.open.absorb(&pass.stats);
        self.open_ops += pass.ops;
        self.open_slowed_ns += pass.stats.timed_ns as f64 * slowdown;
        let (admits, others) = self.open.split();
        // A block closes once both series can carry a p99 with ten samples
        // beyond it; passes without request latencies (the sweep) close
        // one block each.
        let full = |s: &Samples| s.len() >= BLOCK_SAMPLES;
        if (full(&admits) && full(&others)) || admits.len() + others.len() == 0 {
            self.blocks
                .push(Block::of(&self.open, self.open_ops, self.open_slowed_ns));
            self.open = PassStats::default();
            self.open_ops = 0;
            self.open_slowed_ns = 0.0;
        }
        self.ops += pass.ops;
        self.passes += 1;
        self.cache_hits += pass.cache_hits;
        self.cache_lookups += pass.cache_lookups;
        self.journal_entries += pass.events.len() as u64;
        if probe_journal && !pass.events.is_empty() {
            let groups = admit_local::GROUPS;
            let probe = probes::controller(&pass.spec, groups, &pass.events);
            self.controller.absorb(probe);
        }
        if self.first.is_none() {
            self.first = Some(pass.stats);
        }
    }

    pub fn throughput(&self) -> f64 {
        self.ops as f64 / (self.stats.timed_ns as f64 / 1e9)
    }

    /// The closed blocks; when a run was too short to close any, its
    /// passes as one block.
    fn closed_blocks(&self) -> Vec<Block> {
        if self.blocks.is_empty() {
            return vec![Block::of(&self.open, self.open_ops, self.open_slowed_ns)];
        }
        self.blocks.clone()
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let log = SpanLog::new();
    // Per-use-case sweep times by method, at the reference host speed.
    let mut sweeps: BTreeMap<String, Samples> = BTreeMap::new();
    let (mut untraced, mut traced) = (Totals::default(), Totals::default());
    let mut setups = Vec::new();
    let mut failures = Vec::new();
    // A run cycles through a fixed number of workload instances (request
    // streams; for the sweep, fixed specs under seeded contracts), so it
    // averages over many of them.
    // `firsts` holds what the first pass of each instance decided: a later
    // pass of the same instance starts from fresh state and, with one
    // caller, must decide exactly the same.
    let mut firsts: BTreeMap<usize, (String, Vec<u64>)> = BTreeMap::new();
    let instances = match args.workload.as_str() {
        "signoff-sweep" => SWEEP_INSTANCES,
        _ => INSTANCES,
    };
    // The reference kernel runs between passes, so every pass has a
    // timing of it on either side.
    let mut reference_before = reference::time_ns();
    let mut i = 0;
    loop {
        // The closing pass repeats the first instance.
        let closing = i >= MIN_PASSES && start.elapsed() >= budget;
        // Traced runs pair passes: each instance runs once untraced and
        // once traced, in alternating order, so the two modes see the same
        // instances and machine state.
        let k = match () {
            _ if closing => 0,
            _ if args.trace => i / 2 % instances,
            _ => i % instances,
        };
        let seed = instance_seed(args.seed, k);
        let tracing = args.trace && (i + i / 2) % 2 == 1;
        let log = tracing.then_some(&log);
        let pass = match args.workload.as_str() {
            "admit-local" => admit_local::pass(seed, log, i == 0)?,
            _ => signoff::pass(instance_seed(DEFAULT_SEED, k), seed, log)?,
        };
        let reference_after = reference::time_ns();
        let slowdown = (reference_before + reference_after) / 2.0 / reference::NOMINAL_NS;
        reference_before = reference_after;
        setups.push((pass.setup_s, slowdown));
        for (method, ns) in &pass.sweep_ns {
            let scaled = (*ns as f64 / slowdown).round() as u64;
            sweeps.entry(method.clone()).or_default().push(scaled);
        }
        failures.extend(pass.failures.iter().map(|f| format!("pass {i}: {f}")));
        let result = (pass.fingerprint.clone(), pass.stats.signature());
        match firsts.get(&k) {
            None => {
                firsts.insert(k, result);
            }
            Some(first) => check(&mut failures, *first == result, || {
                format!("pass {i} repeated seed {seed} and decided differently: {result:?} vs {first:?}")
            }),
        }
        if i == 0 && args.seed == DEFAULT_SEED {
            check_expected(&mut failures, &args.workload, &pass);
        }
        if tracing {
            let probe = traced.passes % PROBE_EVERY == 0;
            traced.add(pass, probe, slowdown);
        } else {
            untraced.add(pass, false, slowdown);
        }
        i += 1;
        if closing {
            break;
        }
    }

    print_context(args, &untraced, &traced);
    let mut report = Report::default();
    if args.trace {
        let inputs = inputs(&args.workload, args.seed);
        // admit-local has no wire of its own: a short traced session of the
        // wire-cheap stream on the same spec measures the wire layers and
        // runs the wire checks; its first pass replays the fetched journal.
        let session_log = SpanLog::new();
        let mut session = Totals::default();
        let wire = if args.workload == "admit-local" {
            for k in 0..WIRE_SESSION_PASSES {
                let seed = instance_seed(args.seed, k);
                let pass = wire_cheap::pass(seed, Some(&session_log), k == 0, k)?;
                failures.extend(pass.failures.iter().map(|f| format!("wire session: {f}")));
                if k == 0 && args.seed == DEFAULT_SEED {
                    check_expected(&mut failures, "wire-cheap", &pass);
                }
                session.add(pass, true, 1.0);
            }
            Some(layers::Wire {
                log: &session_log,
                traced: &session,
            })
        } else {
            None
        };
        failures.extend(layers::report(
            &mut report,
            &inputs,
            &untraced,
            &traced,
            &log,
            wire,
        ));
        let path = std::path::Path::new("perfbench")
            .join("out")
            .join(format!("{}.spans.tsv", args.workload));
        log.write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    } else {
        end_to_end(&mut report, &args.workload, &untraced, &sweeps, &setups);
    }

    let errors = untraced.stats.errors + traced.stats.errors;
    let attempted = untraced.ops + traced.ops;
    println!(
        "error_rate {:.6} ({errors} of {attempted} calls returned an error)",
        errors as f64 / attempted.max(1) as f64
    );
    for f in &failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!("checks: {}", if correct { "all passed" } else { "FAILED" });
    report.print(correct, attempted, errors);
    Ok(correct)
}

/// Compares the first pass of the default seed with the stored result:
/// decisions for the request streams (`admit-local`, and `wire-cheap` for
/// the wire session), the report digest for the sweep.
fn check_expected(failures: &mut Vec<String>, workload: &str, pass: &Pass) {
    let s = &pass.stats;
    let got = match workload {
        "signoff-sweep" => pass.fingerprint.clone(),
        _ => format!("{} {} {}", s.admitted, s.rejected, s.saturated),
    };
    let want = EXPECTED
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{workload} ")))
        .map(str::trim);
    check(failures, want == Some(got.as_str()), || {
        format!(
            "default-seed {workload} result {got} does not match the stored {}",
            want.unwrap_or("(none)")
        )
    });
}

/// What the layer probes need from the workload that ran.
pub struct Inputs {
    pub spec: SystemSpec,
    pub estimate_masks: Vec<u64>,
    pub estimate_methods: Vec<contention::Method>,
}

fn inputs(workload: &str, seed: u64) -> Inputs {
    use contention::Method;
    match workload {
        "admit-local" => {
            let spec = admit_local::spec();
            let ops =
                stream::admit_local(&spec, admit_local::GROUPS, admit_local::PASS_REQUESTS, seed);
            Inputs {
                estimate_masks: admit_local::estimate_masks(&ops),
                spec,
                estimate_methods: vec![Method::Composability],
            }
        }
        _ => Inputs {
            spec: signoff::spec(DEFAULT_SEED),
            estimate_masks: (1..1u64 << signoff::APPS).collect(),
            estimate_methods: signoff::METHODS.to_vec(),
        },
    }
}

fn print_context(args: &Args, untraced: &Totals, traced: &Totals) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "context nproc={nproc} git_rev={} profile={} rustc=\"{}\"",
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC")
    );
    println!(
        "passes {} untraced + {} traced, each from fresh state; the last repeats the first",
        untraced.passes, traced.passes
    );
    for (label, totals) in [("untraced", untraced), ("traced", traced)] {
        if totals.passes == 0 {
            continue;
        }
        let s = &totals.stats;
        if args.workload == "signoff-sweep" {
            println!("requests {label}: {} use-case estimates", totals.ops);
        } else {
            println!(
                "requests {label}: admit={} release={} estimate={} rebalance={} | \
                 decisions admitted={} rejected={} saturated={}",
                s.ops(OpKind::Admit),
                s.ops(OpKind::Release),
                s.ops(OpKind::Estimate),
                s.ops(OpKind::Rebalance),
                s.admitted,
                s.rejected,
                s.saturated
            );
        }
    }
}

fn end_to_end(
    report: &mut Report,
    workload: &str,
    totals: &Totals,
    sweeps: &BTreeMap<String, Samples>,
    setups: &[(f64, f64)],
) {
    // Every timing is scaled to the reference host speed (see
    // `reference`); each note gives the median as measured beside it.
    let scaled: Vec<f64> = setups.iter().map(|(s, slowdown)| s / slowdown).collect();
    let raw: Vec<f64> = setups.iter().map(|(s, _)| *s).collect();
    report.add(
        "setup_s",
        median(&scaled),
        "s",
        format!(
            "median of {} fresh set-ups; {:.4} s as measured",
            setups.len(),
            median(&raw)
        ),
    );
    let blocks = totals.closed_blocks();
    let slowdowns: Vec<f64> = blocks.iter().map(|b| b.slowdown).collect();
    let (low, high) = range(&slowdowns);
    println!(
        "host slowdown against the reference kernel: median {:.3}, range {low:.3}..{high:.3} over {} blocks",
        median(&slowdowns),
        blocks.len()
    );
    let rates: Vec<f64> = blocks.iter().map(|b| b.throughput).collect();
    let scaled: Vec<f64> = blocks.iter().map(|b| b.throughput * b.slowdown).collect();
    report.add(
        "throughput_ops",
        median(&scaled),
        "ops/s",
        format!(
            "median over {} blocks; {:.1} as measured; {} ops in {:.3} s timed",
            blocks.len(),
            median(&rates),
            totals.ops,
            totals.stats.timed_ns as f64 / 1e9
        ),
    );
    if workload == "signoff-sweep" {
        // One sample per sweep (`sign_off` exposes no per-use-case time), so
        // the tail follows the same rule as every other: the highest of
        // p99/p95/p90/p75 with ten sweeps beyond it, else the median. The
        // note names the percentile reported.
        let method = |m: &str| sweeps.get(m).cloned().unwrap_or_default();
        for (name, samples, what) in [
            (
                "admit",
                method("composability"),
                "composability sweep, per use-case,",
            ),
            ("op", method("order-2"), "order-2 sweep, per use-case,"),
        ] {
            report.quantile(&format!("{name}_p50_us"), samples.p50(), what);
            report.quantile(&format!("{name}_p99_us"), samples.tail(), what);
        }
    } else {
        let series: [(&str, Pick, &str); 4] = [
            ("admit_p50_us", |b| b.admit.0, "admit"),
            ("admit_p99_us", |b| b.admit.1, "admit"),
            ("op_p50_us", |b| b.other.0, "non-admit"),
            ("op_p99_us", |b| b.other.1, "non-admit"),
        ];
        for (name, pick, what) in series {
            let quantiles: Vec<Quantile> = blocks.iter().map(pick).collect();
            let values: Vec<f64> = blocks.iter().map(|b| pick(b).us / b.slowdown).collect();
            let raw: Vec<f64> = quantiles.iter().map(|q| q.us).collect();
            let pct = quantiles.iter().map(|q| q.pct).fold(99.0, f64::min);
            let least = quantiles.iter().map(|q| q.n).min().unwrap_or(0);
            let (low, high) = range(&values);
            report.add(
                name,
                median(&values),
                "us",
                format!(
                    "median over {} blocks of their p{pct}, range {low:.1}..{high:.1}, \
                     {:.1} as measured (>= {least} {what} samples per block)",
                    values.len(),
                    median(&raw)
                ),
            );
        }
    }
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM of this process");
}

/// Smallest and largest of `values`.
fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)))
}
