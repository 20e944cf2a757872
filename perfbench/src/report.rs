//! Turns a run's rounds into metrics: checks that the rounds agree,
//! applies the sample-count rule, and prints the table and the result
//! line.

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::probe::{Call, Layer};
use crate::stats::{median, percentile};
use crate::{RoundResult, Workload};

/// One computed metric value and the samples behind it.
struct Value {
    value: f64,
    samples: usize,
}

fn v(value: f64, samples: usize) -> Value {
    Value { value, samples }
}

/// The process's resident high-water mark (`VmHWM`), MiB, where the
/// platform reports it.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}

fn tail(samples: &[f64], q: f64, what: &str) -> Result<Value, String> {
    percentile(samples, q)
        .map(|x| v(x, samples.len()))
        .ok_or(format!(
            "{what}: {} samples leave fewer than ten beyond p{}",
            samples.len(),
            q * 100.0
        ))
}

/// Host seconds scaled to the nominal host (see [`crate::reference_s`]).
fn nominal(r: &RoundResult, secs: f64) -> f64 {
    secs * crate::REF_NOMINAL_S / r.ref_s
}

fn end_to_end(rounds: &[RoundResult]) -> Result<Vec<Value>, String> {
    let o = &rounds[0].outcome;
    let untraced: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| nominal(r, r.host_s))
        .collect();
    let setups: Vec<f64> = rounds.iter().map(|r| nominal(r, r.setup_s)).collect();
    let heaps: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.peak_heap as f64 / (1 << 20) as f64)
        .collect();
    Ok(vec![
        v(median(&setups), setups.len()),
        v(o.requests as f64 / median(&untraced), untraced.len()),
        v(median(&heaps), heaps.len()),
        v(o.makespan_s, 1),
        tail(&o.reads_ms, 0.5, "reads")?,
        tail(&o.reads_ms, 0.99, "reads")?,
        tail(&o.writes_ms, 0.5, "writes")?,
        tail(&o.writes_ms, 0.99, "writes")?,
        tail(&o.sled_err, 0.5, "SLED errors")?,
        tail(&o.sled_err, 0.9, "SLED errors")?,
    ])
}

fn per_layer(rounds: &[RoundResult]) -> Result<Vec<Value>, String> {
    let traced: Vec<&RoundResult> = rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.host_s)
        .collect();
    if traced.is_empty() || untraced.is_empty() {
        return Err("a traced run needs traced and untraced rounds".into());
    }
    let n = traced.len();
    let o = &rounds[0].outcome;
    let t = &o.tally;
    let spans = |c: Call| -> Vec<u64> {
        traced
            .iter()
            .flat_map(|r| r.outcome.probe.spans(c).iter().copied())
            .collect()
    };
    let med = |c: Call| {
        let s: Vec<f64> = spans(c).into_iter().map(|x| x as f64).collect();
        v(median(&s), s.len())
    };
    let sum = |calls: &[Call]| -> (f64, usize) {
        calls.iter().fold((0.0, 0), |(ns, k), &c| {
            let s = spans(c);
            (ns + s.iter().sum::<u64>() as f64, k + s.len())
        })
    };
    let traced_ns: f64 = traced.iter().map(|r| r.host_s * 1e9).sum();
    let frac = |layer: Layer| {
        let calls: Vec<Call> = Call::ALL
            .into_iter()
            .filter(|c| c.layer() == layer)
            .collect();
        let (ns, k) = sum(&calls);
        v(ns / traced_ns, k)
    };
    // Total span time per round over `units` of work per round.
    let per_unit = |calls: &[Call], units: u64, scale: f64| {
        let (ns, k) = sum(calls);
        let per_round = ns / n as f64;
        v(
            if units > 0 {
                per_round / (units as f64 / scale)
            } else {
                0.0
            },
            k,
        )
    };
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let counter = |name: &str| -> Result<Value, String> {
        o.counters
            .iter()
            .find(|(c, _)| c == name)
            .map(|(_, x)| v(*x, 1))
            .ok_or(format!("no counter {name}"))
    };

    // Host-time accounting: every traced nanosecond is either inside a
    // layer span or the benchmark's own (driver) work.
    let all_spans = sum(&Call::ALL).0;
    let driver_frac = 1.0 - all_spans / traced_ns;
    let traced_med = median(&traced.iter().map(|r| r.host_s).collect::<Vec<_>>());
    let untraced_med = median(&untraced);
    let driver_med = median(
        &traced
            .iter()
            .map(|r| r.host_s * 1e9 - r.outcome.probe.total_ns() as f64)
            .collect::<Vec<_>>(),
    );
    let predicted_ns: f64 = Call::ALL
        .into_iter()
        .map(|c| {
            let s = spans(c);
            s.len() as f64 / n as f64 * med(c).value
        })
        .sum::<f64>()
        + driver_med;
    let predicted_err = (predicted_ns / 1e9 - untraced_med).abs() / untraced_med;

    let mut out = Vec::with_capacity(PER_LAYER.len());
    for m in PER_LAYER {
        out.push(match m.name {
            "fs.open.ns" => med(Call::Open),
            "fs.stat.ns" => med(Call::Stat),
            "fs.close.ns" => med(Call::Close),
            "fs.readdir.ns" => med(Call::Readdir),
            "fs.pread_hit.ns" => med(Call::PreadHit),
            "fs.pread_miss.ns" => med(Call::PreadMiss),
            "fs.write.ns" => med(Call::Write),
            "fs.fsync.ns" => med(Call::Fsync),
            "fs.tenant_switch.ns" => med(Call::TenantSwitch),
            "fs.host_frac" => frac(Layer::Fs),
            "fs.ring.ns_per_op" => per_unit(&[Call::RingEnter, Call::RingReap], t.ring_ops, 1.0),
            "fs.ring.ops_per_crossing" => v(ratio(t.ring_ops, t.ring_enters), 1),
            "fs.ring.host_frac" => frac(Layer::Ring),
            "fs.walk.ns_per_file" => per_unit(&[Call::Walk], t.walk_entries, 1.0),
            "fs.walk.host_frac" => frac(Layer::Walk),
            "sleds.get.ns" => med(Call::SledsGet),
            "sleds.get.calls" => v(t.get_calls as f64, 1),
            "sleds.get.sleds_per_call" => v(ratio(t.get_sleds, t.get_calls), 1),
            "sleds.pick.ns_per_chunk" => {
                per_unit(&[Call::PickInit, Call::PickNext], t.pick_chunks, 1.0)
            }
            "sleds.pick.chunks" => v(t.pick_chunks as f64, 1),
            "sleds.host_frac" => frac(Layer::Sleds),
            "textmatch.ns_per_kib" => per_unit(&[Call::Textmatch], t.text_bytes, 1024.0),
            "textmatch.bytes" => v(t.text_bytes as f64, 1),
            "textmatch.host_frac" => frac(Layer::Textmatch),
            "fits.ns_per_kib" => per_unit(&[Call::Fits], t.fits_bytes, 1024.0),
            "fits.bytes" => v(t.fits_bytes as f64, 1),
            "fits.host_frac" => frac(Layer::Fits),
            "lmbench.fill_s" => {
                let l: Vec<f64> = rounds.iter().map(|r| r.lmbench_s).collect();
                v(median(&l), l.len())
            }
            "driver.host_frac" => v(driver_frac, n),
            "bench.timer_overhead_frac" => v(traced_med / untraced_med - 1.0, rounds.len()),
            "bench.predicted_host_err" => v(predicted_err, rounds.len()),
            name => counter(name)?,
        });
    }
    Ok(out)
}

fn json_number(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x:?}"))
    } else {
        Err(format!("non-finite value {x}"))
    }
}

/// The full report: one line per metric, then the result line.
pub fn render(w: Workload, trace: bool, rounds: &[RoundResult]) -> Result<String, String> {
    let first = rounds.first().ok_or("no rounds ran")?;
    let fp = first.outcome.fingerprint();
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for (i, r) in rounds.iter().enumerate() {
        attempted += r.outcome.requests;
        failed += r.outcome.failures.len() as u64;
        failures.extend(r.outcome.failures.iter().map(|f| format!("round {i}: {f}")));
        if r.outcome.fingerprint() != fp {
            failed += 1;
            failures.push(format!(
                "round {i} ({}): virtual results differ from round 0",
                if r.traced { "traced" } else { "untraced" }
            ));
        }
    }
    let (metrics, values): (&[Metric], Vec<Value>) = if trace {
        (PER_LAYER, per_layer(rounds)?)
    } else {
        (END_TO_END, end_to_end(rounds)?)
    };

    let mut text = format!(
        "workload {} rounds {} ({} traced), {} requests per round\n",
        w.name(),
        rounds.len(),
        rounds.iter().filter(|r| r.traced).count(),
        first.outcome.requests
    );
    for f in failures.iter().take(20) {
        text.push_str(&format!("FAILED {f}\n"));
    }
    text.push_str(&format!(
        "{:<36} {:>18} {:<10} {:>8}  clock  better\n",
        "metric", "value", "unit", "samples"
    ));
    let mut json = Vec::with_capacity(metrics.len());
    for (m, x) in metrics.iter().zip(&values) {
        text.push_str(&format!(
            "{:<36} {:>18.6} {:<10} {:>8}  {:<5}  {}\n",
            m.name, x.value, m.unit, x.samples, m.clock, m.better
        ));
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(x.value).map_err(|e| format!("{}: {e}", m.name))?,
            m.unit
        ));
    }
    let raw = |f: &dyn Fn(&RoundResult) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    for (name, value, unit) in [
        ("reference_s", raw(&|r| r.ref_s), "s"),
        ("setup_wall_s", raw(&|r| r.setup_s), "s"),
        ("host_wall_s", raw(&|r| r.host_s), "s"),
    ] {
        text.push_str(&format!(
            "{name:<36} {value:>18.6} {unit:<10} {:>8}  host   lower\n",
            rounds.len()
        ));
    }
    if let Some(hwm) = vm_hwm_mib() {
        text.push_str(&format!(
            "{:<36} {:>18.6} {:<10} {:>8}  host   lower\n",
            "vm_hwm_mib", hwm, "MiB", 1
        ));
    }
    text.push_str(&format!(
        "{:<36} {:>18.6} {:<10} {:>8}  bench  lower\n",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted
    ));
    text.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        failed == 0,
        attempted.max(1),
        failed,
        json.join(", ")
    ));
    Ok(text)
}
