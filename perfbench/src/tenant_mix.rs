//! `tenant-mix`: closed-loop tenants interleaved on a `VirtualSubmitter`
//! — `saturation_report`'s population of disk bullies, light web
//! readers, NFS clients and HSM-staging archive readers, each pricing
//! every request with `FSLEDS_GET` before its `pread`, plus a small
//! writer group that appends and `fsync`s every request — on each of
//! two independent machines.
//!
//! The only workload with queue wait and saturated devices: SLED error
//! under load, tail latency and read/write contention show here. A
//! request is one tenant request.

use sleds_repro::devices::{DiskDevice, NfsDevice, TapeDevice};
use sleds_repro::fs::{Fd, Kernel, OpenFlags, TenantId, Whence};
use sleds_repro::lmbench::fill_table;
use sleds_repro::sim_core::{DetRng, SimDuration, SimResult, SimTime, VirtualSubmitter};
use sleds_repro::sleds::SledsTable;

use crate::probe::Call;
use crate::workload::{checksum, Machine, Outcome, Scale};

/// What a tenant does on each request.
enum Kind {
    /// Priced `pread`s of `len` bytes marching from offset `first`;
    /// `expect[i]` is the checksum of what request `i` must return.
    Read {
        first: u64,
        len: usize,
        expect: Vec<(u64, u64, usize)>,
    },
    /// Append the first `sizes[i]` bytes of `bytes`, then `fsync`.
    Append { sizes: Vec<usize>, bytes: Vec<u8> },
}

struct Tenant {
    id: TenantId,
    name: String,
    fd: Fd,
    kind: Kind,
    issued: usize,
    think: SimDuration,
}

impl Tenant {
    fn requests(&self) -> usize {
        match &self.kind {
            Kind::Read { expect, .. } => expect.len(),
            Kind::Append { sizes, .. } => sizes.len(),
        }
    }
}

/// How a group's files are made.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Files {
    /// Sparse: reads return zeros, as in `saturation_report`.
    Sparse,
    /// Sparse, with the part the tenant reads written with generated
    /// bytes at set-up.
    Generated,
    /// None: the tenant creates its file and appends to it.
    Appended,
}

/// One population group: `count` tenants of one shape.
struct Group {
    prefix: &'static str,
    dir: &'static str,
    count: usize,
    file_bytes: u64,
    req_bytes: usize,
    requests: usize,
    /// Think time of tenant `i`, milliseconds.
    think_ms: fn(usize) -> u64,
    files: Files,
}

/// `saturation_report`'s tenants (two zero-think bullies reading 2 MiB
/// at a time, 192 web readers, 20 NFS clients, 6 tape-staging archive
/// readers, with its file sizes, request sizes, request counts and think
/// times), plus twelve loggers that append up to 16 KiB and `fsync` with
/// the web readers' think times. `Small` keeps a sixteenth of each crowd
/// and both bullies.
fn population(scale: Scale) -> Vec<Group> {
    let crowd = |n: usize| match scale {
        Scale::Full => n,
        Scale::Small => n.div_ceil(16),
    };
    let group = |prefix, dir, count, file_bytes, req_bytes, requests, think_ms, files| Group {
        prefix,
        dir,
        count,
        file_bytes,
        req_bytes,
        requests,
        think_ms,
        files,
    };
    vec![
        group(
            "bulk",
            "/disk",
            2,
            128 << 20,
            2 << 20,
            48,
            |_| 0,
            Files::Sparse,
        ),
        group(
            "web",
            "/disk",
            crowd(192),
            1 << 20,
            16 << 10,
            4,
            |i| 1 + i as u64 % 17,
            Files::Generated,
        ),
        group(
            "nfs",
            "/nfs",
            crowd(20),
            1 << 20,
            16 << 10,
            6,
            |i| 1 + i as u64 % 5,
            Files::Generated,
        ),
        group(
            "archive",
            "/hsm",
            crowd(6),
            1 << 20,
            64 << 10,
            2,
            |_| 2,
            Files::Generated,
        ),
        group(
            "log",
            "/disk",
            crowd(12),
            0,
            16 << 10,
            48,
            |i| 1 + i as u64 % 17,
            Files::Appended,
        ),
    ]
}

/// Independent machines per round. One machine issues 996 reads, four
/// short of the thousand a read p99 needs to have ten samples beyond it.
const CELLS: u64 = 2;

/// One machine and its tenant population.
struct Cell {
    k: Kernel,
    table: SledsTable,
    tenants: Vec<Tenant>,
}

pub struct TenantMix {
    cells: Vec<Cell>,
}

pub fn setup(seed: u64, scale: Scale) -> SimResult<(TenantMix, f64)> {
    let root = DetRng::new(seed);
    let (mut cells, mut lmbench_s) = (Vec::new(), 0.0);
    for c in 0..CELLS {
        let (cell, l) = setup_cell(root.derive(c), scale)?;
        cells.push(cell);
        lmbench_s += l;
    }
    Ok((TenantMix { cells }, lmbench_s))
}

fn setup_cell(rng: DetRng, scale: Scale) -> SimResult<(Cell, f64)> {
    let mut k = Kernel::table2();
    for dir in ["/disk", "/nfs", "/hsm"] {
        k.mkdir(dir)?;
    }
    let disk = k.mount_disk(
        "/disk",
        DiskDevice::table2_disk("hda").with_jitter(rng.derive(1), 0.01),
    )?;
    let nfs = k.mount_nfs(
        "/nfs",
        NfsDevice::table2_mount("nfs0").with_jitter(rng.derive(2), 0.01),
    )?;
    let hsm = k.mount_hsm(
        "/hsm",
        DiskDevice::table2_disk("hdb").with_jitter(rng.derive(3), 0.01),
        Box::new(TapeDevice::dlt("tape0")),
        16,
    )?;

    // Files and request plans, all from the seed.
    let mut gen = rng.derive(4);
    let mut plans: Vec<(String, String, Kind, SimDuration)> = Vec::new();
    for g in population(scale) {
        for i in 0..g.count {
            let name = format!("{}-{i}", g.prefix);
            let path = format!("{}/{}{i}", g.dir, g.prefix);
            let think = SimDuration::from_millis((g.think_ms)(i));
            let kind = if g.files == Files::Appended {
                let sizes = (0..g.requests)
                    .map(|_| gen.range_usize(g.req_bytes / 8, g.req_bytes + 1))
                    .collect();
                let mut bytes = vec![0u8; g.req_bytes];
                gen.fill_bytes(&mut bytes);
                Kind::Append { sizes, bytes }
            } else {
                // The march starts at a seeded request-sized slot, no
                // further in than its own length, so the bytes written
                // at set-up stay small and the march stays in the file.
                let slots = g.file_bytes as usize / g.req_bytes;
                let start = gen.range_usize(0, (slots - g.requests).min(g.requests) + 1);
                let first = (start * g.req_bytes) as u64;
                k.install_sparse_file(&path, g.file_bytes)?;
                let expect = if g.files == Files::Generated {
                    let mut read = vec![0u8; g.requests * g.req_bytes];
                    gen.fill_bytes(&mut read);
                    let fd = k.open(&path, OpenFlags::RDWR)?;
                    k.lseek(fd, first as i64, Whence::Set)?;
                    k.write(fd, &read)?;
                    k.close(fd)?;
                    read.chunks(g.req_bytes).map(checksum).collect()
                } else {
                    vec![checksum(&vec![0u8; g.req_bytes]); g.requests]
                };
                Kind::Read {
                    first,
                    len: g.req_bytes,
                    expect,
                }
            };
            plans.push((name, path, kind, think));
        }
    }

    let (table, lmbench_s) =
        crate::timed(|| fill_table(&mut k, &[("/disk", disk), ("/nfs", nfs), ("/hsm", hsm)]));
    let table = table?;
    for (_, path, kind, _) in &plans {
        if path.starts_with("/hsm/") && matches!(kind, Kind::Read { .. }) {
            k.hsm_migrate(path, true)?;
        }
    }
    k.drop_caches()?;

    let mut tenants = Vec::with_capacity(plans.len());
    for (name, path, kind, think) in plans {
        let id = k.tenant_register(&name);
        k.tenant_switch(id)?;
        let flags = match kind {
            Kind::Append { .. } => OpenFlags::CREATE,
            Kind::Read { .. } => OpenFlags::RDONLY,
        };
        let fd = k.open(&path, flags)?;
        tenants.push(Tenant {
            id,
            name,
            fd,
            kind,
            issued: 0,
            think,
        });
    }
    k.tenant_switch(TenantId(0))?;
    k.reset_counters();
    Ok((Cell { k, table, tenants }, lmbench_s))
}

impl Machine for TenantMix {
    fn kernels(&self) -> Vec<&Kernel> {
        self.cells.iter().map(|c| &c.k).collect()
    }

    fn run(&mut self, traced: bool) -> SimResult<Outcome> {
        let mut r = Outcome::new(traced);
        for cell in &mut self.cells {
            let makespan = cell.run(&mut r)?;
            r.makespan_s = r.makespan_s.max(makespan);
        }
        Ok(r)
    }
}

impl Cell {
    /// Runs the interleave to completion; returns its makespan, seconds.
    fn run(&mut self, r: &mut Outcome) -> SimResult<f64> {
        let k = &mut self.k;
        let mut sub = VirtualSubmitter::new();
        let mut start: Option<SimTime> = None;
        for t in &self.tenants {
            let at = k.tenant_now(t.id).unwrap_or(SimTime::ZERO);
            start = Some(start.map_or(at, |s: SimTime| s.min(at)));
            sub.add(at);
        }
        // Always run the tenant whose next request is due first.
        while let Some(lane) = sub.next() {
            let ready = sub.ready_at(lane).unwrap_or(SimTime::ZERO);
            let t = &mut self.tenants[lane];
            r.probe.time(Call::TenantSwitch, || k.tenant_switch(t.id))?;
            let now = k.now();
            if ready > now {
                k.charge_cpu(ready.duration_since(now));
            }
            let i = t.issued;
            r.requests += 1;
            match &t.kind {
                Kind::Read { first, len, expect } => {
                    let pos = first + (i * len) as u64;
                    let data = r.priced_read(k, &self.table, t.fd, pos, *len)?;
                    if checksum(&data) != expect[i] {
                        r.fail(format!("{} request {i}: wrong bytes", t.name));
                    }
                }
                Kind::Append { sizes, bytes } => r.write(k, t.fd, &bytes[..sizes[i]], true)?,
            }
            t.issued += 1;
            if t.issued == t.requests() {
                r.close(k, t.fd)?;
                sub.finish(lane);
            } else {
                sub.reschedule(lane, k.now() + t.think);
            }
        }
        k.tenant_switch(TenantId(0))?;
        let start = start.unwrap_or(SimTime::ZERO);
        let end = self
            .tenants
            .iter()
            .filter_map(|t| k.tenant_now(t.id))
            .max()
            .unwrap_or(start);
        Ok(end.duration_since(start).as_secs_f64())
    }
}
