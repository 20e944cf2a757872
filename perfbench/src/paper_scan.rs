//! `paper-scan`: the paper's SLEDs-aware tools on one Table 2 kernel
//! with disk, CD-ROM, NFS and HSM-tape mounts — `wc`, `grep` for all
//! matches and for the first match, then `fimhisto` and `fimgbin` over
//! FITS images, whose outputs are written back without `fsync`.
//!
//! Bytes dominate: page-cache insert and evict, the positional device
//! models, pick planning, the text matcher and the FITS codec, with few
//! syscalls per byte and no queue wait. A request is one app-level
//! `pread` or `write` call.

use sleds_repro::devices::{CdRomDevice, DiskDevice, NfsDevice, TapeDevice};
use sleds_repro::fits::gen::generate_image_bytes;
use sleds_repro::fits::header::{padded_len, FitsHeader, BLOCK_SIZE};
use sleds_repro::fits::Bitpix;
use sleds_repro::fs::{Fd, Kernel, OpenFlags};
use sleds_repro::lmbench::fill_table;
use sleds_repro::sim_core::{DetRng, SimResult};
use sleds_repro::sleds::{PickConfig, PickSession, SledsTable};
use sleds_repro::textmatch::Regex;

use crate::probe::Call;
use crate::workload::{Fnv, Machine, Outcome, Scale};

/// The tools' buffer size (the apps' `BUFSIZE`).
const CHUNK: usize = 64 << 10;
/// Planted in about one line in a hundred; `grep` all-matches counts them.
const PATTERN: &str = "zyzzyva";
/// Planted once; `grep` first-match must stop at it.
const NEEDLE: &str = "needle";
const BINS: usize = 256;
const BITPIX: Bitpix = Bitpix::I32;

const WORDS: [&str; 32] = [
    "storage",
    "latency",
    "disk",
    "cache",
    "page",
    "tape",
    "robot",
    "seek",
    "block",
    "inode",
    "kernel",
    "stripe",
    "sector",
    "mirror",
    "queue",
    "bandwidth",
    "file",
    "read",
    "write",
    "extent",
    "volume",
    "mount",
    "client",
    "server",
    "jukebox",
    "cartridge",
    "track",
    "spindle",
    "buffer",
    "record",
    "journal",
    "replica",
];

struct Text {
    path: String,
    lines: u64,
    words: u64,
    bytes: u64,
    pattern_lines: u64,
}

struct Image {
    path: String,
    width: usize,
    height: usize,
    histogram: Vec<u64>,
    /// Checksum of the 2x2-binned image, encoded row by row.
    binned: u64,
}

pub struct PaperScan {
    k: Kernel,
    table: SledsTable,
    texts: Vec<Text>,
    images: Vec<Image>,
    /// (text index, byte offset of the line holding the needle).
    needle: (usize, u64),
}

/// Text files per mount and their nominal size.
fn layout(scale: Scale) -> (Vec<(&'static str, usize)>, usize, usize) {
    match scale {
        // 60 MiB of text and two ~12 MiB images: about 2.4x the 42 MiB cache.
        Scale::Full => (
            vec![("/disk", 3), ("/cd", 3), ("/nfs", 3), ("/hsm", 1)],
            6 << 20,
            1536,
        ),
        Scale::Small => (
            vec![("/disk", 1), ("/cd", 1), ("/nfs", 1), ("/hsm", 1)],
            256 << 10,
            64,
        ),
    }
}

/// Seeded text: lines of 4-16 words; about one line in a hundred carries
/// [`PATTERN`], and line `needle_line` (if any) carries [`NEEDLE`].
fn gen_text(rng: &mut DetRng, size: usize, needle_line: Option<u64>) -> (Vec<u8>, Text, u64) {
    let mut out = Vec::with_capacity(size);
    let mut line = Vec::with_capacity(160);
    let (mut lines, mut words, mut pattern_lines, mut needle_at) = (0u64, 0u64, 0u64, 0u64);
    loop {
        line.clear();
        let n = rng.range_usize(4, 17);
        // The needle takes word 0 of its line; a pattern there plants
        // after it.
        let needle_here = needle_line == Some(lines);
        let planted = rng
            .chance(0.01)
            .then(|| rng.range_usize(usize::from(needle_here), n));
        for w in 0..n {
            if w > 0 {
                line.push(b' ');
            }
            let word = if needle_here && w == 0 {
                NEEDLE
            } else if planted == Some(w) {
                PATTERN
            } else {
                WORDS[rng.range_usize(0, WORDS.len())]
            };
            line.extend_from_slice(word.as_bytes());
        }
        line.push(b'\n');
        if out.len() + line.len() > size {
            break;
        }
        if needle_here {
            needle_at = out.len() as u64;
        }
        out.extend_from_slice(&line);
        lines += 1;
        words += n as u64;
        pattern_lines += u64::from(planted.is_some());
    }
    let t = Text {
        path: String::new(),
        lines,
        words,
        bytes: out.len() as u64,
        pattern_lines,
    };
    (out, t, needle_at)
}

/// What `fimhisto` and `fimgbin` must produce for `pixels`.
fn expected_image(pixels: &[f64], width: usize, height: usize) -> (Vec<u64>, u64) {
    let (min, max) = pixels
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mut hist = vec![0u64; BINS];
    for &v in pixels {
        hist[bin(v, min, max)] += 1;
    }
    let (bw, bh) = (width / 2, height / 2);
    let mut binned = vec![0.0; bw * bh];
    for (i, &v) in pixels.iter().enumerate() {
        let (x, y) = (i % width / 2, i / width / 2);
        if x < bw && y < bh {
            binned[y * bw + x] += v;
        }
    }
    let mut sum = Fnv::default();
    for row in binned.chunks(bw) {
        sum.bytes(&BITPIX.encode(row));
    }
    (hist, sum.0)
}

fn bin(v: f64, min: f64, max: f64) -> usize {
    let width = if max > min { max - min } else { 1.0 };
    let last = BINS - 1;
    ((((v - min) / width) * last as f64).round() as usize).min(last)
}

pub fn setup(seed: u64, scale: Scale) -> SimResult<(PaperScan, f64)> {
    let rng = DetRng::new(seed);
    let mut k = Kernel::table2();
    for dir in ["/disk", "/cd", "/nfs", "/hsm"] {
        k.mkdir(dir)?;
    }
    let disk = k.mount_disk(
        "/disk",
        DiskDevice::table2_disk("hda").with_jitter(rng.derive(1), 0.01),
    )?;
    let cd = k.mount_cdrom(
        "/cd",
        CdRomDevice::table2_drive("cd0").with_jitter(rng.derive(2), 0.01),
    )?;
    let nfs = k.mount_nfs(
        "/nfs",
        NfsDevice::table2_mount("nfs0").with_jitter(rng.derive(3), 0.01),
    )?;
    let hsm = k.mount_hsm(
        "/hsm",
        DiskDevice::table2_disk("hdb").with_jitter(rng.derive(4), 0.01),
        Box::new(TapeDevice::dlt("tape0")),
        16,
    )?;
    // Aged file systems: files lie in 32 KiB runs with gaps, so a 64 KiB
    // read usually pays a repositioning. The aging is part of the
    // machine, the same for every seed.
    for (i, m) in [disk, cd, nfs, hsm].into_iter().enumerate() {
        k.set_fragmentation(m, 8, 32, 0x5eed + i as u64);
    }
    k.mkdir("/disk/out")?;

    let (mounts, text_bytes, image_rows) = layout(scale);
    let mut gen = rng.derive(5);
    let files: Vec<String> = mounts
        .iter()
        .flat_map(|&(dir, n)| (0..n).map(move |i| format!("{dir}/text{i}.txt")))
        .collect();
    // The needle lies in the middle file, so first-match grep scans
    // several whole files before it.
    let needle_file = files.len() / 2;
    let mut texts = Vec::with_capacity(files.len());
    let mut needle = (needle_file, 0);
    for (i, path) in files.into_iter().enumerate() {
        let size = (text_bytes as f64 * gen.jitter(0.03)) as usize;
        let needle_line = (i == needle_file).then(|| gen.range_u64(1, size as u64 / 400));
        let (bytes, mut t, at) = gen_text(&mut gen, size, needle_line);
        k.install_file(&path, &bytes)?;
        t.path = path;
        if i == needle_file {
            needle.1 = at;
        }
        texts.push(t);
    }
    let mut images = Vec::new();
    for i in 0..2 {
        let width = 2 * gen.range_usize(1000, 1040);
        let height = 2 * gen.range_usize(image_rows / 2, image_rows / 2 + 20);
        let bytes = generate_image_bytes(width, height, BITPIX, gen.range_u64(0, u64::MAX));
        let (header, start) = FitsHeader::parse(&bytes)?;
        let data = &bytes[start..start + header.data_bytes()? as usize];
        let pixels = BITPIX.decode(data)?;
        let (histogram, binned) = expected_image(&pixels, width, height);
        let path = format!("/disk/image{i}.fits");
        k.install_file(&path, &bytes)?;
        images.push(Image {
            path,
            width,
            height,
            histogram,
            binned,
        });
    }

    let (table, lmbench_s) = crate::timed(|| {
        fill_table(
            &mut k,
            &[("/disk", disk), ("/cd", cd), ("/nfs", nfs), ("/hsm", hsm)],
        )
    });
    let mut ps = PaperScan {
        table: table?,
        k,
        texts,
        images,
        needle,
    };
    // The paper's protocol: one untimed warm-up pass, then measure. The
    // archive file goes back to tape afterwards, so the measured pass
    // stages it again.
    let mut warm = Outcome::new(false);
    for i in 0..ps.texts.len() {
        ps.wc(&mut warm, i)?;
    }
    for t in &ps.texts {
        if t.path.starts_with("/hsm/") {
            ps.k.hsm_migrate(&t.path, true)?;
        }
    }
    ps.k.reset_counters();
    Ok((ps, lmbench_s))
}

/// Line, word and byte counts of one contiguous byte range, with whether
/// it starts and ends inside a word (for stitching).
#[derive(Clone, Copy)]
struct Segment {
    start: u64,
    end: u64,
    lines: u64,
    words: u64,
    starts_in_word: bool,
    ends_in_word: bool,
}

fn count(start: u64, buf: &[u8]) -> Segment {
    let (mut lines, mut words, mut in_word) = (0, 0, false);
    for &b in buf {
        lines += u64::from(b == b'\n');
        let space = b.is_ascii_whitespace();
        words += u64::from(!space && !in_word);
        in_word = !space;
    }
    Segment {
        start,
        end: start + buf.len() as u64,
        lines,
        words,
        starts_in_word: buf.first().is_some_and(|b| !b.is_ascii_whitespace()),
        ends_in_word: in_word,
    }
}

impl Machine for PaperScan {
    fn run(&mut self, traced: bool) -> SimResult<Outcome> {
        let mut r = Outcome::new(traced);
        let start = self.k.now();
        for i in 0..self.texts.len() {
            let got = self.wc(&mut r, i)?;
            let t = &self.texts[i];
            if got != (t.lines, t.words, t.bytes) {
                r.fail(format!("wc {}: {got:?}", t.path));
            }
        }
        let pattern = Regex::literal(PATTERN);
        for i in 0..self.texts.len() {
            let got = self.grep(&mut r, i, &pattern, false)?.len() as u64;
            let t = &self.texts[i];
            if got != t.pattern_lines {
                r.fail(format!(
                    "grep {}: {got} lines, want {}",
                    t.path, t.pattern_lines
                ));
            }
        }
        let needle = Regex::literal(NEEDLE);
        let mut found = None;
        for i in 0..self.texts.len() {
            if let Some(&at) = self.grep(&mut r, i, &needle, true)?.first() {
                found = Some((i, at));
                break;
            }
        }
        if found != Some(self.needle) {
            r.fail(format!("grep -q: found {found:?}, want {:?}", self.needle));
        }
        for i in 0..self.images.len() {
            let hist = self.fimhisto(&mut r, i)?;
            if hist != self.images[i].histogram {
                r.fail(format!(
                    "fimhisto {}: histogram differs",
                    self.images[i].path
                ));
            }
            let binned = self.fimgbin(&mut r, i)?;
            if binned != self.images[i].binned {
                r.fail(format!("fimgbin {}: output differs", self.images[i].path));
            }
        }
        r.makespan_s = self.k.now().duration_since(start).as_secs_f64();
        Ok(r)
    }

    fn kernels(&self) -> Vec<&Kernel> {
        vec![&self.k]
    }
}

impl PaperScan {
    /// Starts a pick session over `fd`; its SLEDs price every read it
    /// advises.
    fn pick(&mut self, r: &mut Outcome, fd: Fd, cfg: PickConfig) -> SimResult<PickSession> {
        let (k, table) = (&mut self.k, &self.table);
        let pick = r
            .probe
            .time(Call::PickInit, || PickSession::init(k, table, fd, cfg))?;
        r.tally.get_calls += 1;
        r.tally.get_sleds += pick.sleds().len() as u64;
        Ok(pick)
    }

    fn next(r: &mut Outcome, pick: &mut PickSession) -> Option<(u64, usize)> {
        let next = r.probe.time(Call::PickNext, || pick.next_read());
        r.tally.pick_chunks += u64::from(next.is_some());
        next
    }

    /// `wc --sleds`: reads in pick order, counts each chunk, stitches.
    fn wc(&mut self, r: &mut Outcome, i: usize) -> SimResult<(u64, u64, u64)> {
        let fd = r.open(&mut self.k, &self.texts[i].path, OpenFlags::RDONLY)?;
        let mut pick = self.pick(r, fd, PickConfig::bytes(CHUNK))?;
        let mut segs = Vec::new();
        while let Some((off, len)) = Self::next(r, &mut pick) {
            r.requests += 1;
            let buf = r.planned_read(&mut self.k, pick.sleds(), fd, off, len)?;
            segs.push(count(off, &buf));
        }
        r.close(&mut self.k, fd)?;
        segs.sort_by_key(|s| s.start);
        let (mut lines, mut words, mut bytes) = (0, 0, 0);
        let mut prev: Option<Segment> = None;
        for s in segs {
            lines += s.lines;
            words += s.words;
            bytes += s.end - s.start;
            if prev.is_some_and(|p| p.ends_in_word && s.starts_in_word) {
                words -= 1;
            }
            prev = Some(s);
        }
        Ok((lines, words, bytes))
    }

    /// `grep --sleds`: record-oriented pick order; returns the offsets of
    /// matching lines (only the first with `first`).
    fn grep(&mut self, r: &mut Outcome, i: usize, re: &Regex, first: bool) -> SimResult<Vec<u64>> {
        let fd = r.open(&mut self.k, &self.texts[i].path, OpenFlags::RDONLY)?;
        let mut pick = self.pick(r, fd, PickConfig::records(CHUNK, b'\n'))?;
        let mut hits = Vec::new();
        // Complete lines not yet scanned: a chunk's tail waits for the
        // next contiguous chunk. Runs of chunks start and end on line
        // boundaries, so nothing is left over between runs.
        let (mut carry, mut carry_at, mut run_end) = (Vec::new(), 0u64, None);
        while let Some((off, len)) = Self::next(r, &mut pick) {
            r.requests += 1;
            let buf = r.planned_read(&mut self.k, pick.sleds(), fd, off, len)?;
            if run_end != Some(off) {
                Self::scan(r, re, &carry, carry_at, first, &mut hits);
                carry.clear();
            }
            if carry.is_empty() {
                carry_at = off;
            }
            carry.extend_from_slice(&buf);
            run_end = Some(off + buf.len() as u64);
            if let Some(cut) = carry.iter().rposition(|&b| b == b'\n') {
                let rest = carry.split_off(cut + 1);
                Self::scan(r, re, &carry, carry_at, first, &mut hits);
                carry_at += carry.len() as u64;
                carry = rest;
            }
            if first && !hits.is_empty() {
                break;
            }
        }
        if !first || hits.is_empty() {
            Self::scan(r, re, &carry, carry_at, first, &mut hits);
        }
        r.close(&mut self.k, fd)?;
        Ok(hits)
    }

    /// Finds matching lines in `buf` (whole lines starting at file offset
    /// `at`) with the text matcher.
    fn scan(r: &mut Outcome, re: &Regex, buf: &[u8], at: u64, first: bool, hits: &mut Vec<u64>) {
        let mut pos = 0;
        while pos < buf.len() {
            let found = r.probe.time(Call::Textmatch, || re.find(&buf[pos..]));
            let Some((s, e)) = found else {
                r.tally.text_bytes += (buf.len() - pos) as u64;
                return;
            };
            r.tally.text_bytes += e as u64;
            let s = pos + s;
            let line = buf[..s]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            hits.push(at + line as u64);
            if first {
                return;
            }
            pos = buf[s..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(buf.len(), |e| s + e + 1);
        }
    }

    /// Reads and parses an image's primary header.
    fn header(&mut self, r: &mut Outcome, fd: Fd) -> SimResult<(FitsHeader, u64)> {
        r.requests += 1;
        let block = r.pread(&mut self.k, fd, 0, BLOCK_SIZE)?;
        r.tally.fits_bytes += block.len() as u64;
        let (h, start) = r.probe.time(Call::Fits, || FitsHeader::parse(&block))?;
        Ok((h, start as u64))
    }

    /// Decodes pixels with the FITS codec.
    fn decode(r: &mut Outcome, bytes: &[u8]) -> SimResult<Vec<f64>> {
        r.tally.fits_bytes += bytes.len() as u64;
        r.probe.time(Call::Fits, || BITPIX.decode(bytes))
    }

    fn encode(r: &mut Outcome, values: &[f64]) -> Vec<u8> {
        let out = r.probe.time(Call::Fits, || BITPIX.encode(values));
        r.tally.fits_bytes += out.len() as u64;
        out
    }

    fn write(&mut self, r: &mut Outcome, fd: Fd, buf: &[u8]) -> SimResult<()> {
        r.requests += 1;
        r.write(&mut self.k, fd, buf, false)
    }

    /// One pick-ordered pass over the pixels in `[start, end)`, handing
    /// `f` each chunk's first pixel index and decoded values.
    fn pixel_pass(
        &mut self,
        r: &mut Outcome,
        fd: Fd,
        (start, end): (u64, u64),
        mut f: impl FnMut(usize, &[f64]),
    ) -> SimResult<()> {
        let bpp = BITPIX.bytes_per_pixel() as u64;
        let mut pick = self.pick(r, fd, PickConfig::bytes(CHUNK))?;
        while let Some((off, len)) = Self::next(r, &mut pick) {
            let (lo, hi) = (off.max(start), (off + len as u64).min(end));
            if lo >= hi {
                continue;
            }
            r.requests += 1;
            let bytes = r.planned_read(&mut self.k, pick.sleds(), fd, lo, (hi - lo) as usize)?;
            let values = Self::decode(r, &bytes)?;
            f(((lo - start) / bpp) as usize, &values);
        }
        Ok(())
    }

    /// `fimhisto --sleds`: copy the image row by row, find the value
    /// range, bin, append the histogram HDU. Returns the histogram read
    /// back from the output.
    fn fimhisto(&mut self, r: &mut Outcome, i: usize) -> SimResult<Vec<u64>> {
        let (src, width) = (self.images[i].path.clone(), self.images[i].width);
        let fd = r.open(&mut self.k, &src, OpenFlags::RDONLY)?;
        let out_path = format!("/disk/out/histo{i}.fits");
        let out = r.open(&mut self.k, &out_path, OpenFlags::CREATE)?;
        let (h, start) = self.header(r, fd)?;
        let end = start + h.data_bytes()?;
        let file_end = start + padded_len(h.data_bytes()?);

        // Pass 1: sequential copy, one write per image row.
        let h_bytes = r.probe.time(Call::Fits, || h.encode());
        self.write(r, out, &h_bytes)?;
        let row = width * BITPIX.bytes_per_pixel();
        let (mut pos, mut pending) = (start, Vec::new());
        while pos < file_end {
            let len = (file_end - pos).min(CHUNK as u64) as usize;
            r.requests += 1;
            pending.extend(r.pread(&mut self.k, fd, pos, len)?);
            pos += len as u64;
            while pending.len() >= row || (pos >= file_end && !pending.is_empty()) {
                let rest = pending.split_off(row.min(pending.len()));
                self.write(r, out, &pending)?;
                pending = rest;
            }
        }

        // Pass 2: value range; pass 3: bin.
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        self.pixel_pass(r, fd, (start, end), |_, vs| {
            for &v in vs {
                min = min.min(v);
                max = max.max(v);
            }
        })?;
        let mut hist = vec![0u64; BINS];
        self.pixel_pass(r, fd, (start, end), |_, vs| {
            for &v in vs {
                hist[bin(v, min, max)] += 1;
            }
        })?;

        let ext = FitsHeader::image_extension(BITPIX, &[BINS]);
        let ext_bytes = r.probe.time(Call::Fits, || ext.encode());
        self.write(r, out, &ext_bytes)?;
        let counts: Vec<f64> = hist.iter().map(|&c| c as f64).collect();
        let mut data = Self::encode(r, &counts);
        data.resize(padded_len(data.len() as u64) as usize, 0);
        self.write(r, out, &data)?;
        r.close(&mut self.k, fd)?;
        r.close(&mut self.k, out)?;
        self.read_back_histogram(r, &out_path, file_end + ext_bytes.len() as u64)
    }

    /// Reads the histogram HDU back from `fimhisto`'s output.
    fn read_back_histogram(&mut self, r: &mut Outcome, path: &str, at: u64) -> SimResult<Vec<u64>> {
        let fd = r.open(&mut self.k, path, OpenFlags::RDONLY)?;
        r.requests += 1;
        let bytes = r.pread(&mut self.k, fd, at, BINS * BITPIX.bytes_per_pixel())?;
        r.close(&mut self.k, fd)?;
        Ok(Self::decode(r, &bytes)?
            .into_iter()
            .map(|v| v as u64)
            .collect())
    }

    /// `fimgbin --sleds`: 2x2 binning in pick order, output written row
    /// by row. Returns the output's checksum.
    fn fimgbin(&mut self, r: &mut Outcome, i: usize) -> SimResult<u64> {
        let img = &self.images[i];
        let (src, width, height) = (img.path.clone(), img.width, img.height);
        let fd = r.open(&mut self.k, &src, OpenFlags::RDONLY)?;
        let (h, start) = self.header(r, fd)?;
        let end = start + h.data_bytes()?;
        let (bw, bh) = (width / 2, height / 2);
        let mut binned = vec![0.0; bw * bh];
        self.pixel_pass(r, fd, (start, end), |first, vs| {
            for (j, &v) in vs.iter().enumerate() {
                let p = first + j;
                let (x, y) = (p % width / 2, p / width / 2);
                if x < bw && y < bh {
                    binned[y * bw + x] += v;
                }
            }
        })?;
        r.close(&mut self.k, fd)?;

        let out = r.open(
            &mut self.k,
            &format!("/disk/out/bin{i}.fits"),
            OpenFlags::CREATE,
        )?;
        let hdr = FitsHeader::primary(BITPIX, &[bw, bh]);
        let hdr_bytes = r.probe.time(Call::Fits, || hdr.encode());
        self.write(r, out, &hdr_bytes)?;
        let mut sum = Fnv::default();
        for row in binned.chunks(bw) {
            let bytes = Self::encode(r, row);
            sum.bytes(&bytes);
            self.write(r, out, &bytes)?;
        }
        let data = (bw * bh * BITPIX.bytes_per_pixel()) as u64;
        let pad = (padded_len(data) - data) as usize;
        if pad > 0 {
            self.write(r, out, &vec![0u8; pad])?;
        }
        r.close(&mut self.k, out)?;
        Ok(sum.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The needle line carries the needle even when the seed plants the
    /// pattern on it, and every planted pattern is counted.
    #[test]
    fn the_needle_line_always_carries_the_needle() {
        for seed in 0..5000 {
            let (text, t, at) = gen_text(&mut DetRng::new(seed), 400, Some(0));
            assert!(
                text[at as usize..].starts_with(NEEDLE.as_bytes()),
                "seed {seed}"
            );
            let pattern = text
                .split(|&b| b == b'\n')
                .filter(|l| l.windows(PATTERN.len()).any(|w| w == PATTERN.as_bytes()))
                .count() as u64;
            assert_eq!(pattern, t.pattern_lines, "seed {seed}");
        }
    }
}
