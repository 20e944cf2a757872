//! `tree-meta`: the metadata path. A large tree of sparse one-page files
//! with a small warm set that fits the Table 2 page cache; `find
//! -latency` and `grep -q` each run three ways — naive syscalls, batched
//! through the `SubmissionRing`, and `FSLEDS_WALK` pushdown.
//!
//! A request is one file examined. `find` writes each directory's hits to
//! its output file and `fsync`s it (one write request per directory);
//! naive `grep` prices every file with `FSLEDS_GET` before reading it.

use std::collections::BTreeSet;

use sleds_repro::devices::DiskDevice;
use sleds_repro::fs::{
    Fd, FileKind, Kernel, OpenFlags, PickProgram, ProgInst, ProgOrder, ProgPricing, RingOp,
    RingPayload, SubmissionRing,
};
use sleds_repro::sim_core::{DetRng, SimDuration, SimError, SimResult};
use sleds_repro::sleds::{
    compile_latency, estimate_seconds, pricing_from, sleds_from_prog, AttackPlan, LatencyPredicate,
    SledsEntry, SledsTable,
};

use crate::probe::Call;
use crate::workload::{Machine, Outcome, Scale};

const MOUNT: &str = "/t";
const ROOT: &str = "/t/tree";
const OUT: &str = "/t/out";
const PAGE: u64 = 4096;
const NEEDLE: &str = "needle";
/// `-latency -m1`: files deliverable in under a millisecond, i.e. the
/// resident ones.
const PREDICATE: &str = "-m1";
/// A tool's own CPU per file it judges or scans: a fixed cost (as the
/// stock `find`'s) plus path handling per byte, the same in every mode.
const FIND_NS_PER_ENTRY: u64 = 400;
const FIND_NS_PER_PATH_BYTE: u64 = 5;

/// `uring_bench`'s ring: a batch-hungry tool sizes it like an io_uring
/// app would, and one crossing services up to this many ops.
const RING_ENTRIES: usize = 1024;

struct Shape {
    dirs: usize,
    files: usize,
    warm: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        // `uring_bench`'s fan-out and warm set over a third of its
        // directories: 340k files (1.3 GiB, 32x the 42 MiB cache), 4096
        // of them warm (16 MiB). `find` writes one request per directory,
        // and three modes of 340 directories give the write p99 its ten
        // samples beyond.
        Scale::Full => Shape {
            dirs: 340,
            files: 1000,
            warm: 4096,
        },
        Scale::Small => Shape {
            dirs: 8,
            files: 16,
            warm: 12,
        },
    }
}

pub struct TreeMeta {
    k: Kernel,
    table: SledsTable,
    pricing: ProgPricing,
    /// The generator's warm set plus the needle, in walk order: exactly
    /// what `find -latency` must report.
    warm: Vec<String>,
    needle: String,
}

/// A seeded name suffix of up to eleven letters. Directory and file
/// names carry one, so the result lines `find` writes, and the tool CPU
/// charged per path byte between two of its writes, differ by directory
/// and by seed.
fn suffix(rng: &mut DetRng) -> String {
    (0..rng.range_usize(0, 12))
        .map(|_| char::from(b'a' + rng.range_usize(0, 26) as u8))
        .collect()
}

fn dir_path(d: usize, rng: &mut DetRng) -> String {
    format!("{ROOT}/d{d:03}{}", suffix(rng))
}

/// File `f` of directory `d`; its suffix is drawn from `names`, keyed by
/// the file, so set-up can name any file again without a table.
fn file_path(dirs: &[String], d: usize, f: usize, names: &DetRng) -> String {
    let mut rng = names.derive(((d as u64) << 32) | f as u64);
    format!("{}/f{f:03}{}", dirs[d], suffix(&mut rng))
}

/// Builds the tree; returns the workload and the host seconds spent in
/// `lmbench` calibration (none: the table is flat).
pub fn setup(seed: u64, scale: Scale) -> SimResult<(TreeMeta, f64)> {
    let s = shape(scale);
    let rng = DetRng::new(seed);
    let mut k = Kernel::table2();
    k.mkdir(MOUNT)?;
    let m = k.mount_disk(
        MOUNT,
        DiskDevice::table2_disk("hda").with_jitter(rng.derive(1), 0.01),
    )?;
    // An aged file system: every page lands a seeded gap (up to two
    // pages, so the tree fills about half the disk) past the last, and
    // files were created in a seeded order, so walk order is not disk
    // order and cold reads pay seeks and rotational waits.
    let mut pick = rng.derive(2);
    let names = rng.derive(3);
    k.set_fragmentation(m, 1, 2, pick.range_u64(0, u64::MAX));
    k.mkdir(ROOT)?;
    k.mkdir(OUT)?;
    let dirs: Vec<String> = (0..s.dirs).map(|d| dir_path(d, &mut pick)).collect();
    let mut order: Vec<(usize, usize)> = Vec::new();
    for (d, dir) in dirs.iter().enumerate() {
        k.mkdir(dir)?;
        order.extend((0..s.files).map(|f| (d, f)));
    }
    for i in (1..order.len()).rev() {
        order.swap(i, pick.range_usize(0, i + 1));
    }
    for &(d, f) in &order {
        k.install_sparse_file(&file_path(&dirs, d, f, &names), PAGE)?;
    }
    // The needle sits a quarter of the way into the tree, as in
    // `uring_bench`, so naive grep examines a quarter of it.
    let needle = file_path(&dirs, s.dirs / 4, pick.range_usize(0, s.files), &names);
    let mut page = vec![b'.'; PAGE as usize];
    let at = pick.range_usize(0, PAGE as usize - NEEDLE.len());
    page[at..at + NEEDLE.len()].copy_from_slice(NEEDLE.as_bytes());
    k.install_file(&needle, &page)?;

    // `uring_bench`'s flat table: the Table 2 rows the boot-time
    // `fill_table` measures, entered directly.
    let dev = k
        .device_of_mount(m)
        .ok_or_else(|| bad(format!("{MOUNT}: no device")))?;
    let mut table = SledsTable::new();
    table.fill_memory(SledsEntry::new(175e-9, 48e6));
    table.fill_device(dev, SledsEntry::new(0.018, 9e6));
    table.fill_crossing(k.config().syscall_cpu.as_secs_f64());

    let mut warm = BTreeSet::new();
    while warm.len() < s.warm {
        let d = pick.range_usize(0, s.dirs);
        warm.insert(file_path(&dirs, d, pick.range_usize(0, s.files), &names));
    }
    warm.insert(needle.clone());
    let mut tm = TreeMeta {
        pricing: pricing_from(&table),
        table,
        k,
        warm: warm.into_iter().collect(),
        needle,
    };
    tm.rewarm()?;
    tm.k.reset_counters();
    Ok((tm, 0.0))
}

/// Charges a tool's own work for one file.
fn judge(k: &mut Kernel, path: &str) {
    let ns = FIND_NS_PER_ENTRY + FIND_NS_PER_PATH_BYTE * path.len() as u64;
    k.charge_cpu(SimDuration::from_nanos(ns));
}

fn bad(what: String) -> SimError {
    SimError::new(sleds_repro::sim_core::Errno::Eio, what)
}

impl Machine for TreeMeta {
    fn run(&mut self, traced: bool) -> SimResult<Outcome> {
        let mut r = Outcome::new(traced);
        let start = self.k.now();
        let pred = LatencyPredicate::parse(PREDICATE)?;

        let dirs = self.list(&mut r, ROOT)?;
        for mode in Mode::ALL {
            let name = mode.name();
            let mut hits = self.find(&mut r, &dirs, &pred, mode)?;
            hits.sort();
            if hits != self.warm {
                r.fail(format!(
                    "find {name}: {} hits, want the {} warm files",
                    hits.len(),
                    self.warm.len()
                ));
            }
        }
        for mode in Mode::ALL {
            let name = mode.name();
            self.rewarm()?;
            let found = match mode {
                Mode::Naive => self.grep_naive(&mut r, &dirs)?,
                Mode::Batched => self.grep_batched(&mut r, &dirs)?,
                Mode::Pushdown => self.grep_pushdown(&mut r)?,
            };
            if found.as_deref() != Some(self.needle.as_str()) {
                r.fail(format!(
                    "grep {name}: found {found:?}, want {}",
                    self.needle
                ));
            }
        }
        r.makespan_s = self.k.now().duration_since(start).as_secs_f64();
        Ok(r)
    }

    fn kernels(&self) -> Vec<&Kernel> {
        vec![&self.k]
    }
}

impl TreeMeta {
    /// The canonical cache state: exactly the warm set resident. Setup
    /// work (no virtual cost), so every grep mode starts alike.
    fn rewarm(&mut self) -> SimResult<()> {
        self.k.drop_caches()?;
        for p in &self.warm {
            self.k.warm_file_pages(p, 0, 1)?;
        }
        Ok(())
    }

    /// `readdir` as full child paths.
    fn list(&mut self, r: &mut Outcome, dir: &str) -> SimResult<Vec<String>> {
        let k = &mut self.k;
        let names = r.probe.time(Call::Readdir, || k.readdir(dir))?;
        Ok(names.into_iter().map(|n| format!("{dir}/{n}")).collect())
    }

    /// `find ROOT -type f -latency PREDICATE -fprint OUT/find-<mode>`,
    /// flushing and syncing the output after each directory.
    fn find(
        &mut self,
        r: &mut Outcome,
        dirs: &[String],
        pred: &LatencyPredicate,
        mode: Mode,
    ) -> SimResult<Vec<String>> {
        let path = format!("{OUT}/find-{}", mode.name());
        let out = r.open(&mut self.k, &path, OpenFlags::CREATE)?;
        let mut hits = Vec::new();
        if mode == Mode::Pushdown {
            let prog = compile_latency(pred);
            let entries = {
                let (k, pricing) = (&mut self.k, &self.pricing);
                r.probe
                    .time(Call::Walk, || k.fsleds_walk(ROOT, &prog, pricing))?
            };
            r.tally.walk_entries += entries.len() as u64;
            let mut lines = String::new();
            let mut dir = "";
            for e in &entries {
                if e.kind != FileKind::File {
                    continue;
                }
                r.requests += 1;
                judge(&mut self.k, &e.path);
                let parent = e.path.rsplit_once('/').map_or("", |(p, _)| p);
                if parent != dir {
                    self.flush(r, out, &mut lines)?;
                    dir = parent;
                }
                if e.matched {
                    let est = e.estimate_secs.unwrap_or(f64::NAN);
                    lines.push_str(&format!("{} {est:.9}\n", e.path));
                    hits.push(e.path.clone());
                }
            }
            self.flush(r, out, &mut lines)?;
        } else {
            for dir in dirs {
                let files = self.list(r, dir)?;
                r.requests += files.len() as u64;
                let estimates = match mode {
                    Mode::Naive => self.price_naive(r, &files)?,
                    _ => self.price_batched(r, &files)?,
                };
                let mut lines = String::new();
                for (path, est) in files.iter().zip(estimates) {
                    judge(&mut self.k, path);
                    if pred.matches(est) {
                        lines.push_str(&format!("{path} {est:.9}\n"));
                        hits.push(path.clone());
                    }
                }
                self.flush(r, out, &mut lines)?;
            }
        }
        r.close(&mut self.k, out)?;
        Ok(hits)
    }

    /// One write request: the directory's result lines, then `fsync`.
    fn flush(&mut self, r: &mut Outcome, out: Fd, lines: &mut String) -> SimResult<()> {
        if !lines.is_empty() {
            r.write(&mut self.k, out, lines.as_bytes(), true)?;
            lines.clear();
        }
        Ok(())
    }

    /// Per file: `stat`, `open`, `FSLEDS_GET`, `close` — four crossings.
    fn price_naive(&mut self, r: &mut Outcome, files: &[String]) -> SimResult<Vec<f64>> {
        let mut out = Vec::with_capacity(files.len());
        for p in files {
            let k = &mut self.k;
            let st = r.probe.time(Call::Stat, || k.stat(p))?;
            if st.kind != FileKind::File {
                return Err(bad(format!("{p}: not a file")));
            }
            let fd = r.open(&mut self.k, p, OpenFlags::RDONLY)?;
            let sleds = r.sleds_get(&mut self.k, fd, &self.table)?;
            r.close(&mut self.k, fd)?;
            out.push(estimate_seconds(&sleds, AttackPlan::Best));
        }
        Ok(out)
    }

    /// The same verdicts through the ring, as `uring_bench` batches them:
    /// a full ring of opens, then half-ring batches of `FSLEDS_GET` +
    /// close pairs.
    fn price_batched(&mut self, r: &mut Outcome, files: &[String]) -> SimResult<Vec<f64>> {
        let mut ring = SubmissionRing::new(RING_ENTRIES);
        let mut out = Vec::with_capacity(files.len());
        for chunk in files.chunks(RING_ENTRIES) {
            let fds = self.ring_open(r, &mut ring, chunk)?;
            for pairs in fds.chunks(RING_ENTRIES / 2) {
                for (i, &fd) in pairs.iter().enumerate() {
                    let pricing = self.pricing.clone();
                    ring.push(2 * i as u64, RingOp::FsledsGet { fd, pricing })?;
                    ring.push(2 * i as u64 + 1, RingOp::Close { fd })?;
                }
                for payload in self.ring_run(r, &mut ring, 2 * pairs.len())? {
                    if let RingPayload::Sleds(s) = payload {
                        r.tally.get_calls += 1;
                        r.tally.get_sleds += s.len() as u64;
                        out.push(estimate_seconds(&sleds_from_prog(&s), AttackPlan::Best));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Submits what is queued on `ring`, reaps it, and returns the
    /// payloads in submission order.
    fn ring_run(
        &mut self,
        r: &mut Outcome,
        ring: &mut SubmissionRing,
        ops: usize,
    ) -> SimResult<Vec<RingPayload>> {
        r.tally.ring_ops += ops as u64;
        r.tally.ring_enters += 1;
        let k = &mut self.k;
        r.probe.time(Call::RingEnter, || k.ring_enter(ring))?;
        let mut done = r.probe.time(Call::RingReap, || k.ring_reap(ring));
        done.sort_by_key(|c| c.user_data);
        done.into_iter().map(|c| c.result).collect()
    }

    fn ring_open(
        &mut self,
        r: &mut Outcome,
        ring: &mut SubmissionRing,
        files: &[String],
    ) -> SimResult<Vec<Fd>> {
        for (i, p) in files.iter().enumerate() {
            let op = RingOp::Open {
                path: p.clone(),
                flags: OpenFlags::RDONLY,
            };
            ring.push(i as u64, op)?;
        }
        self.ring_run(r, ring, files.len())?
            .into_iter()
            .map(|p| match p {
                RingPayload::Fd(fd) => Ok(fd),
                other => Err(bad(format!("ring open completed with {other:?}"))),
            })
            .collect()
    }

    /// Scans one file's page for the needle: a plain byte search, as
    /// `grep -q` for a fixed string would do it.
    fn scan(page: &[u8]) -> bool {
        let needle = NEEDLE.as_bytes();
        page.contains(&needle[0]) && page.windows(needle.len()).any(|w| w == needle)
    }

    /// Per file: `open`, priced `pread`, `close`; stops at the first match.
    fn grep_naive(&mut self, r: &mut Outcome, dirs: &[String]) -> SimResult<Option<String>> {
        for dir in dirs {
            for p in self.list(r, dir)? {
                r.requests += 1;
                judge(&mut self.k, &p);
                let fd = r.open(&mut self.k, &p, OpenFlags::RDONLY)?;
                let page = r.priced_read(&mut self.k, &self.table, fd, 0, PAGE as usize)?;
                r.close(&mut self.k, fd)?;
                if Self::scan(&page) {
                    return Ok(Some(p));
                }
            }
        }
        Ok(None)
    }

    /// A full ring of opens, then half-ring batches of `pread` + close
    /// pairs, scanned in submission order.
    fn grep_files_batched(
        &mut self,
        r: &mut Outcome,
        files: &[String],
    ) -> SimResult<Option<String>> {
        let mut ring = SubmissionRing::new(RING_ENTRIES);
        for chunk in files.chunks(RING_ENTRIES) {
            let fds = self.ring_open(r, &mut ring, chunk)?;
            let mut found = None;
            for (pairs, paths) in fds
                .chunks(RING_ENTRIES / 2)
                .zip(chunk.chunks(RING_ENTRIES / 2))
            {
                for (i, &fd) in pairs.iter().enumerate() {
                    let op = RingOp::Pread {
                        fd,
                        pos: 0,
                        len: PAGE as usize,
                    };
                    ring.push(2 * i as u64, op)?;
                    ring.push(2 * i as u64 + 1, RingOp::Close { fd })?;
                }
                let pages = self.ring_run(r, &mut ring, 2 * pairs.len())?;
                let pages = pages.iter().filter_map(|p| match p {
                    RingPayload::Bytes(b) => Some(b),
                    _ => None,
                });
                for (page, p) in pages.zip(paths) {
                    if found.is_none() {
                        r.requests += 1;
                        judge(&mut self.k, p);
                        if Self::scan(page) {
                            found = Some(p.clone());
                        }
                    }
                }
            }
            if found.is_some() {
                return Ok(found);
            }
        }
        Ok(None)
    }

    fn grep_batched(&mut self, r: &mut Outcome, dirs: &[String]) -> SimResult<Option<String>> {
        for dir in dirs {
            let files = self.list(r, dir)?;
            if let Some(hit) = self.grep_files_batched(r, &files)? {
                return Ok(Some(hit));
            }
        }
        Ok(None)
    }

    /// One `FSLEDS_WALK` orders the tree most-cached-first; the batched
    /// scan then meets the warm needle within the warm set.
    fn grep_pushdown(&mut self, r: &mut Outcome) -> SimResult<Option<String>> {
        let everything = PickProgram::new(vec![
            ProgInst::PushConst(0.0),
            ProgInst::PushConst(0.0),
            ProgInst::Eq,
        ])?
        .with_order(ProgOrder::CachedFirst);
        let entries = {
            let (k, pricing) = (&mut self.k, &self.pricing);
            r.probe
                .time(Call::Walk, || k.fsleds_walk(ROOT, &everything, pricing))?
        };
        r.tally.walk_entries += entries.len() as u64;
        let files: Vec<String> = entries
            .into_iter()
            .filter(|e| e.kind == FileKind::File)
            .map(|e| e.path)
            .collect();
        self.grep_files_batched(r, &files)
    }
}

/// The three ways each tool crosses into the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Naive,
    Batched,
    Pushdown,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Naive, Mode::Batched, Mode::Pushdown];

    fn name(self) -> &'static str {
        match self {
            Mode::Naive => "naive",
            Mode::Batched => "batched",
            Mode::Pushdown => "pushdown",
        }
    }
}
