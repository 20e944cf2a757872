//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <tree-meta|paper-scan|tenant-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It repeats rounds — set up a fresh
//! simulated machine from the seed, then run the workload's fixed set of
//! requests — until `--seconds` have passed. Every round of a seed must
//! produce bit-identical virtual results and counters; host times are
//! reported as medians over rounds. With `--trace 1`, rounds alternate
//! untraced and traced, and the traced rounds time every layer call.
//!
//! Every metric is printed with its unit, clock and sample count; the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod catalog;
mod heap;
mod paper_scan;
mod probe;
mod report;
mod stats;
mod tenant_mix;
mod tree_meta;
mod workload;

use sleds_repro::sim_core::SimResult;

use crate::probe::Stamp;
use crate::workload::{Machine, Outcome, Scale};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Runs `f`, returning its result and the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Stamp::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// What [`reference_s`] takes on the nominal host, seconds.
pub const REF_NOMINAL_S: f64 = 0.01;

/// Host seconds of a fixed computation that shares no code with the
/// simulator: generate, sort and fold half a million words. Timed beside
/// every round, it tracks how fast the host runs at that moment; host
/// times are reported scaled by `REF_NOMINAL_S / reference`, which
/// cancels the speed swings of a shared host (tens of percent between
/// runs) while leaving the program's own speed visible.
fn reference_s() -> f64 {
    let (_, s) = timed(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut v: Vec<u64> = (0..1 << 19)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        std::hint::black_box(
            v.iter()
                .step_by(64)
                .fold(0u64, |a, &w| a.rotate_left(5) ^ w),
        )
    });
    s
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TreeMeta,
    PaperScan,
    TenantMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TreeMeta, Workload::PaperScan, Workload::TenantMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeMeta => "tree-meta",
            Workload::PaperScan => "paper-scan",
            Workload::TenantMix => "tenant-mix",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Builds a workload's machines from the seed; also returns the host
/// seconds its `lmbench` calibration took.
fn setup(w: Workload, seed: u64, scale: Scale) -> SimResult<(Box<dyn Machine>, f64)> {
    fn boxed<M: Machine + 'static>((m, lmbench_s): (M, f64)) -> (Box<dyn Machine>, f64) {
        (Box::new(m), lmbench_s)
    }
    Ok(match w {
        Workload::TreeMeta => boxed(tree_meta::setup(seed, scale)?),
        Workload::PaperScan => boxed(paper_scan::setup(seed, scale)?),
        Workload::TenantMix => boxed(tenant_mix::setup(seed, scale)?),
    })
}

/// One round: set-up and measured phase, each timed on the host.
pub struct RoundResult {
    pub traced: bool,
    /// Host seconds of set-up.
    pub setup_s: f64,
    pub lmbench_s: f64,
    /// Host seconds of the measured phase.
    pub host_s: f64,
    /// Host seconds of the reference computation, averaged over one run
    /// before set-up and one after the measured phase.
    pub ref_s: f64,
    /// Heap the round's set-up and measured phase held at their peak,
    /// bytes.
    pub peak_heap: usize,
    pub outcome: Outcome,
}

/// Sets up and runs one round. Tearing the machine down is not timed.
pub fn round(w: Workload, seed: u64, scale: Scale, traced: bool) -> SimResult<RoundResult> {
    let ref_before = reference_s();
    let live = heap::reset_peak();
    let (machine, setup_s) = timed(|| setup(w, seed, scale));
    let (mut machine, lmbench_s) = machine?;
    let (outcome, host_s) = timed(|| machine.run(traced));
    let mut outcome = outcome?;
    let peak_heap = heap::peak_bytes() - live;
    outcome.counters = workload::counters(&machine.kernels(), outcome.makespan_s);
    drop(machine);
    let ref_s = (ref_before + reference_s()) / 2.0;
    Ok(RoundResult {
        traced,
        setup_s,
        lmbench_s,
        host_s,
        ref_s,
        peak_heap,
        outcome,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <tree-meta|paper-scan|tenant-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0.0 => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(USAGE.to_string()),
    }
}

/// Rounds of each kind a run needs before it may stop.
const MIN_ROUNDS: usize = 3;

fn main() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let name = args.workload.name();
    heap::keep_freed_memory();
    let began = Stamp::now();
    let mut rounds: Vec<RoundResult> = Vec::new();
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        let r = round(args.workload, args.seed, Scale::Full, traced)
            .map_err(|e| format!("{name}: round failed: {e}"))?;
        rounds.push(r);
        let of_each = if args.trace {
            rounds.len() / 2
        } else {
            rounds.len()
        };
        if began.elapsed().as_secs_f64() >= args.seconds && of_each >= MIN_ROUNDS {
            break;
        }
    }
    let text =
        report::render(args.workload, args.trace, &rounds).map_err(|e| format!("{name}: {e}"))?;
    print!("{text}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload tenant-mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::TenantMix);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--describe").is_err());
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload tree-meta --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload tree-meta --seed 1 --trace 0").is_err());
    }

    /// Small-scale identity: traced and untraced rounds of one seed agree
    /// on every virtual result and counter, and a second seed differs.
    #[test]
    fn traced_and_untraced_rounds_are_identical() {
        for w in Workload::ALL {
            let a = round(w, 11, Scale::Small, false).unwrap();
            let b = round(w, 11, Scale::Small, true).unwrap();
            assert!(
                a.outcome.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                a.outcome.failures
            );
            assert_eq!(
                a.outcome.fingerprint(),
                b.outcome.fingerprint(),
                "{}",
                w.name()
            );
            assert!(a.outcome.probe.total_ns() == 0 && b.outcome.probe.total_ns() > 0);
            let c = round(w, 12, Scale::Small, false).unwrap();
            assert!(
                c.outcome.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                c.outcome.failures
            );
            assert_ne!(
                a.outcome.fingerprint(),
                c.outcome.fingerprint(),
                "{}",
                w.name()
            );
        }
    }
}
