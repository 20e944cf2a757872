//! What every workload shares: the per-round record of requests, the
//! wrapped layer calls that fill it, and the counters read back from the
//! program's public accounting.

use sleds_repro::devices::DeviceClass;
use sleds_repro::fs::{DeviceId, Fd, Kernel, Rusage};
use sleds_repro::sim_core::{SimResult, SimTime};
use sleds_repro::sleds::{estimate_seconds, fsleds_get, AttackPlan, Sled, SledsTable};

use crate::probe::{Call, Probe, Tally};

/// Workload sizes. `Full` is what the benchmark measures; `Small` keeps
/// the benchmark's own tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// A set-up workload: its simulated machines, ready to run a round.
pub trait Machine {
    /// Issues the workload's requests once (the measured phase).
    fn run(&mut self, traced: bool) -> SimResult<Outcome>;
    /// The machines, for reading their counters after the round.
    fn kernels(&self) -> Vec<&Kernel>;
}

/// Everything one measured round produced on the virtual clock, plus the
/// traced host spans; the wrapped layer calls below fill it in. Two rounds
/// of one seed must agree on everything but the spans.
#[derive(Debug)]
pub struct Outcome {
    /// Requests the round attempted.
    pub requests: u64,
    /// One line per failed request or failed output check.
    pub failures: Vec<String>,
    /// Per-read-request virtual latency, milliseconds.
    pub reads_ms: Vec<f64>,
    /// Per-write-request virtual latency (with its fsync), milliseconds.
    pub writes_ms: Vec<f64>,
    /// |predicted - delivered| / delivered of every SLED-priced read.
    pub sled_err: Vec<f64>,
    /// Virtual time from the first request to the last completion.
    pub makespan_s: f64,
    /// Deterministic per-layer counters, read after the measured phase.
    pub counters: Vec<(String, f64)>,
    /// Work per layer, counted by the benchmark.
    pub tally: Tally,
    /// Host spans (empty when untraced).
    pub probe: Probe,
}

impl Outcome {
    /// Everything that must repeat exactly, folded into one value.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.requests);
        h.u64(self.failures.len() as u64);
        for v in [&self.reads_ms, &self.writes_ms, &self.sled_err] {
            h.u64(v.len() as u64);
            for x in v.iter() {
                h.u64(x.to_bits());
            }
        }
        h.u64(self.makespan_s.to_bits());
        for (name, v) in &self.counters {
            h.bytes(name.as_bytes());
            h.u64(v.to_bits());
        }
        let t = &self.tally;
        for x in [
            t.get_calls,
            t.get_sleds,
            t.pick_chunks,
            t.ring_ops,
            t.ring_enters,
            t.walk_entries,
            t.text_bytes,
            t.fits_bytes,
        ] {
            h.u64(x);
        }
        h.0
    }
}

/// A word-at-a-time FNV-style hash, for fingerprints and output checks.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        let mut words = b.chunks_exact(8);
        for w in &mut words {
            let x = u64::from_le_bytes(w.try_into().unwrap_or_default());
            self.u64(x);
        }
        for &x in words.remainder() {
            self.u64(u64::from(x));
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0100_0000_01b3).rotate_left(23);
    }
}

/// A content checksum cheap enough to check every byte a workload
/// reads: the wrapping sum and the xor of the 8-byte words, with the
/// length. Random generated contents make a wrong offset or a stale page
/// change both.
pub fn checksum(b: &[u8]) -> (u64, u64, usize) {
    let words = b.chunks_exact(8);
    let tail = words.remainder().iter().map(|&x| u64::from(x)).sum::<u64>();
    let (sum, xor) = words.fold((tail, 0u64), |(s, x), w| {
        let w = u64::from_le_bytes(w.try_into().unwrap_or_default());
        (s.wrapping_add(w), x ^ w)
    });
    (sum, xor, b.len())
}

fn ms(from: SimTime, to: SimTime) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

impl Outcome {
    pub fn new(traced: bool) -> Outcome {
        Outcome {
            requests: 0,
            failures: Vec::new(),
            reads_ms: Vec::new(),
            writes_ms: Vec::new(),
            sled_err: Vec::new(),
            makespan_s: 0.0,
            counters: Vec::new(),
            tally: Tally::default(),
            probe: Probe::new(traced),
        }
    }

    /// Records a failed request or check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn open(
        &mut self,
        k: &mut Kernel,
        path: &str,
        flags: sleds_repro::fs::OpenFlags,
    ) -> SimResult<Fd> {
        self.probe.time(Call::Open, || k.open(path, flags))
    }

    pub fn close(&mut self, k: &mut Kernel, fd: Fd) -> SimResult<()> {
        self.probe.time(Call::Close, || k.close(fd))
    }

    /// A read request: `pread`, timed on the issuing timeline, filed as a
    /// page-cache hit or miss by whether it took a major fault.
    pub fn pread(&mut self, k: &mut Kernel, fd: Fd, pos: u64, len: usize) -> SimResult<Vec<u8>> {
        let faults = k.usage().major_faults;
        let v0 = k.now();
        let t = self.probe.start();
        let r = k.pread(fd, pos, len);
        let miss = k.usage().major_faults != faults;
        self.probe.stop(
            t,
            if miss {
                Call::PreadMiss
            } else {
                Call::PreadHit
            },
        );
        self.reads_ms.push(ms(v0, k.now()));
        r
    }

    /// A write request: `write`, then `fsync` when `sync`, timed together.
    pub fn write(&mut self, k: &mut Kernel, fd: Fd, buf: &[u8], sync: bool) -> SimResult<()> {
        let v0 = k.now();
        self.probe.time(Call::Write, || k.write(fd, buf))?;
        if sync {
            self.probe.time(Call::Fsync, || k.fsync(fd))?;
        }
        self.writes_ms.push(ms(v0, k.now()));
        Ok(())
    }

    /// `FSLEDS_GET` through the library call.
    pub fn sleds_get(
        &mut self,
        k: &mut Kernel,
        fd: Fd,
        table: &SledsTable,
    ) -> SimResult<Vec<Sled>> {
        let s = self
            .probe
            .time(Call::SledsGet, || fsleds_get(k, fd, table))?;
        self.tally.get_calls += 1;
        self.tally.get_sleds += s.len() as u64;
        Ok(s)
    }

    /// A read priced just before it is issued: `FSLEDS_GET`, then the
    /// `pread`. The prediction is the linear estimate over the SLEDs
    /// clipped to the requested range; delivered is the virtual time from
    /// the end of the GET to the read's completion.
    pub fn priced_read(
        &mut self,
        k: &mut Kernel,
        table: &SledsTable,
        fd: Fd,
        pos: u64,
        len: usize,
    ) -> SimResult<Vec<u8>> {
        let sleds = self.sleds_get(k, fd, table)?;
        let after_get = k.now();
        let data = self.pread(k, fd, pos, len)?;
        let delivered = k.now().duration_since(after_get).as_secs_f64();
        self.note_prediction(clipped_estimate(&sleds, pos, data.len() as u64), delivered);
        Ok(data)
    }

    /// A read priced from SLEDs fetched earlier (a pick session's, one
    /// GET per pass over a file): delivered is the read's own latency.
    pub fn planned_read(
        &mut self,
        k: &mut Kernel,
        sleds: &[Sled],
        fd: Fd,
        pos: u64,
        len: usize,
    ) -> SimResult<Vec<u8>> {
        let v0 = k.now();
        let data = self.pread(k, fd, pos, len)?;
        let delivered = k.now().duration_since(v0).as_secs_f64();
        self.note_prediction(clipped_estimate(sleds, pos, data.len() as u64), delivered);
        Ok(data)
    }

    /// Records one prediction against what was delivered.
    pub fn note_prediction(&mut self, predicted_s: f64, delivered_s: f64) {
        if delivered_s > 0.0 && predicted_s.is_finite() {
            self.sled_err
                .push((predicted_s - delivered_s).abs() / delivered_s);
        }
    }
}

/// `estimate_seconds(Linear)` over the part of `sleds` inside
/// `[pos, pos + len)`.
pub fn clipped_estimate(sleds: &[Sled], pos: u64, len: u64) -> f64 {
    let end = pos + len;
    let clipped: Vec<Sled> = sleds
        .iter()
        .filter(|s| s.offset < end && s.end() > pos)
        .map(|s| {
            let lo = s.offset.max(pos);
            let hi = s.end().min(end);
            Sled {
                offset: lo,
                length: hi - lo,
                ..*s
            }
        })
        .collect();
    estimate_seconds(&clipped, AttackPlan::Linear)
}

/// Device classes the per-layer metrics break out, with their names.
pub const CLASSES: [(DeviceClass, &str); 4] = [
    (DeviceClass::Disk, "disk"),
    (DeviceClass::CdRom, "cdrom"),
    (DeviceClass::Network, "nfs"),
    (DeviceClass::Tape, "tape"),
];

/// Per-layer counters of the measured phase, from `usage`,
/// `device_stats` and `saturation_report` only, summed over `kernels`.
/// Deterministic.
pub fn counters(kernels: &[&Kernel], makespan_s: f64) -> Vec<(String, f64)> {
    let mut u = Rusage::default();
    for k in kernels {
        u.accumulate(&k.usage());
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out: Vec<(String, f64)> = [
        ("fs.syscalls", u.syscalls as f64),
        ("fs.crossings", u.syscall_crossings as f64),
        ("fs.cpu_virt_s", u.cpu.as_secs_f64()),
        ("fs.queue.wait_virt_s", u.queue_wait.as_secs_f64()),
        (
            "fs.queue.wait_frac",
            ratio(u.queue_wait.as_secs_f64(), u.io_wait.as_secs_f64()),
        ),
        (
            "pagecache.hit_ratio",
            ratio(
                u.minor_faults as f64,
                (u.minor_faults + u.major_faults) as f64,
            ),
        ),
        ("pagecache.major_faults", u.major_faults as f64),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();
    let saturated = kernels
        .iter()
        .map(|k| {
            k.saturation_report()
                .devices
                .iter()
                .filter(|d| d.saturated)
                .count()
        })
        .sum::<usize>();
    out.push(("fs.queue.saturated_devices".to_string(), saturated as f64));
    for (class, name) in CLASSES {
        let (mut devs, mut cmds, mut busy, mut repos, mut depth) = (0u64, 0u64, 0.0, 0u64, 0u64);
        for k in kernels {
            let sat = k.saturation_report();
            for d in (0..k.device_count()).map(DeviceId) {
                if k.device_class(d) != Some(class) {
                    continue;
                }
                let s = k.device_stats(d).unwrap_or_default();
                devs += 1;
                cmds += s.reads + s.writes;
                busy += s.busy.as_secs_f64();
                repos += s.repositions;
                let hw = sat.devices.iter().find(|row| row.device == d.0);
                depth = depth.max(hw.map_or(0, |row| row.depth_high_water));
            }
        }
        out.push((format!("fs.queue.{name}.depth_hw"), depth as f64));
        out.push((format!("devices.{name}.cmds"), cmds as f64));
        out.push((format!("devices.{name}.busy_virt_s"), busy));
        out.push((
            format!("devices.{name}.util"),
            ratio(busy, devs as f64 * makespan_s),
        ));
        out.push((
            format!("devices.{name}.repositions_per_cmd"),
            ratio(repos as f64, cmds as f64),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clipping_keeps_only_the_requested_range() {
        let sleds = [
            Sled {
                offset: 0,
                length: 8192,
                latency: 1e-6,
                bandwidth: 1e9,
            },
            Sled {
                offset: 8192,
                length: 8192,
                latency: 0.01,
                bandwidth: 1e7,
            },
        ];
        let a = clipped_estimate(&sleds, 0, 4096);
        assert!((a - (1e-6 + 4096.0 / 1e9)).abs() < 1e-15);
        let b = clipped_estimate(&sleds, 4096, 8192);
        let want = 1e-6 + 4096.0 / 1e9 + 0.01 + 4096.0 / 1e7;
        assert!((b - want).abs() < 1e-12);
        assert_eq!(clipped_estimate(&sleds, 1 << 20, 10), 0.0);
    }
}
