//! The benchmark's metric catalog: every name, unit, clock and
//! direction, in one place. `BENCHMARK.json` lists the same names, units
//! and directions; every run prints the clock beside each metric.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `host` (the simulator's own speed), `virt` (the modelled storage
    /// system) or `bench` (the benchmark's own accounting).
    pub clock: &'static str,
    /// `lower` or `higher`. Work counts are `lower`: less work for the
    /// same requests.
    pub better: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
    }
}

/// Printed with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "host", "lower"),
    m("ops_per_host_s", "ops/s", "host", "higher"),
    m("peak_heap_mib", "MiB", "host", "lower"),
    m("virt_makespan_s", "s", "virt", "lower"),
    m("virt_read_p50_ms", "ms", "virt", "lower"),
    m("virt_read_p99_ms", "ms", "virt", "lower"),
    m("virt_write_p50_ms", "ms", "virt", "lower"),
    m("virt_write_p99_ms", "ms", "virt", "lower"),
    m("sled_err_p50", "ratio", "virt", "lower"),
    m("sled_err_p90", "ratio", "virt", "lower"),
];

/// Printed with `--trace 1`. Host costs are medians per call (or totals
/// per unit of work) from the traced rounds; `*_frac` are shares of the
/// traced measured phase; everything else is a deterministic count.
pub const PER_LAYER: &[Metric] = &[
    m("fs.open.ns", "ns/call", "host", "lower"),
    m("fs.stat.ns", "ns/call", "host", "lower"),
    m("fs.close.ns", "ns/call", "host", "lower"),
    m("fs.readdir.ns", "ns/call", "host", "lower"),
    m("fs.pread_hit.ns", "ns/call", "host", "lower"),
    m("fs.pread_miss.ns", "ns/call", "host", "lower"),
    m("fs.write.ns", "ns/call", "host", "lower"),
    m("fs.fsync.ns", "ns/call", "host", "lower"),
    m("fs.tenant_switch.ns", "ns/call", "host", "lower"),
    m("fs.host_frac", "ratio", "host", "lower"),
    m("fs.syscalls", "count", "virt", "lower"),
    m("fs.crossings", "count", "virt", "lower"),
    m("fs.cpu_virt_s", "virt_s", "virt", "lower"),
    m("fs.ring.ns_per_op", "ns/op", "host", "lower"),
    m("fs.ring.ops_per_crossing", "ops/enter", "bench", "higher"),
    m("fs.ring.host_frac", "ratio", "host", "lower"),
    m("fs.walk.ns_per_file", "ns/entry", "host", "lower"),
    m("fs.walk.host_frac", "ratio", "host", "lower"),
    m("fs.queue.wait_virt_s", "virt_s", "virt", "lower"),
    m("fs.queue.wait_frac", "ratio", "virt", "lower"),
    m("fs.queue.saturated_devices", "count", "virt", "lower"),
    m("fs.queue.disk.depth_hw", "count", "virt", "lower"),
    m("fs.queue.cdrom.depth_hw", "count", "virt", "lower"),
    m("fs.queue.nfs.depth_hw", "count", "virt", "lower"),
    m("fs.queue.tape.depth_hw", "count", "virt", "lower"),
    m("sleds.get.ns", "ns/call", "host", "lower"),
    m("sleds.get.calls", "count", "bench", "lower"),
    m("sleds.get.sleds_per_call", "ratio", "bench", "lower"),
    m("sleds.pick.ns_per_chunk", "ns/chunk", "host", "lower"),
    m("sleds.pick.chunks", "count", "bench", "lower"),
    m("sleds.host_frac", "ratio", "host", "lower"),
    m("pagecache.hit_ratio", "ratio", "virt", "higher"),
    m("pagecache.major_faults", "count", "virt", "lower"),
    m("devices.disk.cmds", "count", "virt", "lower"),
    m("devices.disk.busy_virt_s", "virt_s", "virt", "lower"),
    m("devices.disk.util", "ratio", "virt", "lower"),
    m("devices.disk.repositions_per_cmd", "ratio", "virt", "lower"),
    m("devices.cdrom.cmds", "count", "virt", "lower"),
    m("devices.cdrom.busy_virt_s", "virt_s", "virt", "lower"),
    m("devices.cdrom.util", "ratio", "virt", "lower"),
    m(
        "devices.cdrom.repositions_per_cmd",
        "ratio",
        "virt",
        "lower",
    ),
    m("devices.nfs.cmds", "count", "virt", "lower"),
    m("devices.nfs.busy_virt_s", "virt_s", "virt", "lower"),
    m("devices.nfs.util", "ratio", "virt", "lower"),
    m("devices.nfs.repositions_per_cmd", "ratio", "virt", "lower"),
    m("devices.tape.cmds", "count", "virt", "lower"),
    m("devices.tape.busy_virt_s", "virt_s", "virt", "lower"),
    m("devices.tape.util", "ratio", "virt", "lower"),
    m("devices.tape.repositions_per_cmd", "ratio", "virt", "lower"),
    m("textmatch.ns_per_kib", "ns/KiB", "host", "lower"),
    m("textmatch.bytes", "bytes", "bench", "lower"),
    m("textmatch.host_frac", "ratio", "host", "lower"),
    m("fits.ns_per_kib", "ns/KiB", "host", "lower"),
    m("fits.bytes", "bytes", "bench", "lower"),
    m("fits.host_frac", "ratio", "host", "lower"),
    m("lmbench.fill_s", "s", "host", "lower"),
    m("driver.host_frac", "ratio", "host", "lower"),
    m("bench.timer_overhead_frac", "ratio", "host", "lower"),
    m("bench.predicted_host_err", "ratio", "host", "lower"),
];

/// Metric names and units keep to the charset every consumer accepts.
#[cfg(test)]
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_use_the_allowed_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(["host", "virt", "bench"].contains(&m.clock));
            assert!(["lower", "higher"].contains(&m.better));
        }
        assert!(!valid_name("fs open"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_unit("ns per call"));
    }

    /// The repository's `BENCHMARK.json` lists exactly this catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in crate::Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
        }
    }
}
