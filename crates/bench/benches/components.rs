//! Micro-benchmarks of the implementation's real-time costs.
//!
//! These measure *our code* (how fast the simulator itself runs), not the
//! paper's virtual-time results — those come from the `figures` binary.
//! Self-timed via `sleds_bench::microbench` so the default workspace builds
//! with no external dependencies.

use sleds::{fsleds_get, PickConfig, PickSession, SledsEntry, SledsTable};
use sleds_bench::microbench::time;
use sleds_devices::{BlockDevice, CdRomDevice, DiskDevice, NfsDevice, TapeDevice};
use sleds_fs::{Kernel, MachineConfig, OpenFlags, Whence};
use sleds_pagecache::{PageCache, PageKey, PolicyKind};
use sleds_sim_core::{ByteSize, DetRng, SimTime, PAGE_SIZE};
use sleds_textmatch::Regex;

fn kernel_with_file(pages: u64) -> (Kernel, SledsTable, sleds_fs::Fd) {
    let mut cfg = MachineConfig::table2();
    cfg.ram = ByteSize::mib(16);
    let mut k = Kernel::new(cfg);
    k.mkdir("/d").unwrap();
    let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    k.install_file("/d/f", &vec![3u8; (pages * PAGE_SIZE) as usize])
        .unwrap();
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    // Scatter some cached ranges so SLED construction has work to do.
    for start in (0..pages).step_by(7) {
        k.lseek(fd, (start * PAGE_SIZE) as i64, Whence::Set)
            .unwrap();
        k.read(fd, PAGE_SIZE as usize).unwrap();
    }
    (k, t, fd)
}

fn bench_fsleds_get() {
    for pages in [256u64, 4096] {
        let (mut k, t, fd) = kernel_with_file(pages);
        time(&format!("fsleds_get/{pages}_pages"), || {
            fsleds_get(&mut k, fd, &t).unwrap()
        });
    }
}

fn bench_pick_planning() {
    for pages in [256u64, 4096] {
        let (mut k, t, fd) = kernel_with_file(pages);
        time(&format!("pick_init/bytes_{pages}_pages"), || {
            PickSession::init(&mut k, &t, fd, PickConfig::bytes(64 << 10))
                .unwrap()
                .planned_chunks()
        });
    }
}

fn bench_page_cache() {
    for kind in PolicyKind::all() {
        time(&format!("page_cache/{}_scan_10k", kind.name()), || {
            let mut cache = PageCache::new(1024, kind);
            for i in 0..10_000u64 {
                let key = PageKey::new(1, i % 2048);
                if !cache.lookup(key) {
                    cache.insert(key, false);
                }
            }
            cache.stats().hits
        });
    }
    // One resident page for each of 100k inodes, probed at seeded random
    // inodes: the per-inode index lookup of a large tree's SLED walk.
    const INODES: u64 = 100_000;
    let mut cache = PageCache::lru(INODES as usize);
    for ino in 1..=INODES {
        cache.insert(PageKey::new(ino, 0), false);
    }
    let mut rng = DetRng::new(3);
    let probes: Vec<PageKey> = (0..4096)
        .map(|_| PageKey::new(rng.range_u64(1, INODES + 1), rng.range_u64(0, 2)))
        .collect();
    time("page_cache/contains_100k_inodes", || {
        probes.iter().filter(|&&key| cache.contains(key)).count()
    });
    // Figure 3's regime at Table 2 size: runs of fresh files streaming
    // through a full 10,752-page LRU cache, one file per run, so every
    // iteration fills one run and evicts one. Files are reused only long
    // after they have left the cache.
    const TABLE2_PAGES: u64 = 10_752;
    for run in [512u64, 4] {
        let files = 2 * TABLE2_PAGES / run + 1;
        let mut cache = PageCache::lru(TABLE2_PAGES as usize);
        for ino in 1..=TABLE2_PAGES / run {
            cache.insert_run(ino, 0, run, false);
        }
        let mut ino = TABLE2_PAGES / run;
        time(&format!("page_cache/lru_fill_{run}_page_runs"), || {
            ino = ino % files + 1;
            cache.insert_run(ino, 0, run, false).len()
        });
    }
}

/// `stat`, `open` and `close` of seeded random paths in a tree of 100
/// directories of 1000 sparse one-page files: path resolution and inode
/// lookups at the scale of a large tree.
fn bench_namespace() {
    let mut cfg = MachineConfig::table2();
    cfg.ram = ByteSize::mib(16);
    let mut k = Kernel::new(cfg);
    k.mkdir("/t").unwrap();
    k.mount_disk("/t", DiskDevice::table2_disk("hda")).unwrap();
    let mut paths = Vec::with_capacity(100_000);
    for d in 0..100 {
        k.mkdir(&format!("/t/d{d:03}")).unwrap();
        for f in 0..1000 {
            let path = format!("/t/d{d:03}/f{f:04}");
            k.install_sparse_file(&path, PAGE_SIZE).unwrap();
            paths.push(path);
        }
    }
    let mut rng = DetRng::new(4);
    time("namespace/stat_open_close_100k", || {
        let path = &paths[rng.range_usize(0, paths.len())];
        let size = k.stat(path).unwrap().size;
        let fd = k.open(path, OpenFlags::RDONLY).unwrap();
        k.close(fd).unwrap();
        size
    });
}

fn bench_device_models() {
    {
        let mut d = DiskDevice::table2_disk("hda");
        let cap = d.capacity_sectors();
        let mut rng = DetRng::new(1);
        let mut now = SimTime::ZERO;
        time("device_models/disk_random_read", || {
            let s = rng.range_u64(0, cap - 8);
            let t = d.read(s, 8, now).unwrap();
            now += t;
            t
        });
    }
    {
        let mut d = CdRomDevice::table2_drive("cd0");
        let mut sector = 0u64;
        time("device_models/cdrom_sequential_read", || {
            let t = d.read(sector, 128, SimTime::ZERO).unwrap();
            sector = (sector + 128) % (d.capacity_sectors() - 128);
            t
        });
    }
    {
        let mut d = NfsDevice::table2_mount("srv:/x");
        let mut sector = 0u64;
        time("device_models/nfs_read", || {
            let t = d.read(sector, 128, SimTime::ZERO).unwrap();
            sector = (sector + 128) % (d.capacity_sectors() - 128);
            t
        });
    }
    {
        let mut d = TapeDevice::dlt("st0");
        d.ensure_loaded();
        let cap = d.capacity_sectors();
        let mut rng = DetRng::new(2);
        time("device_models/tape_locate", || {
            let s = rng.range_u64(0, cap - 8);
            d.read(s, 8, SimTime::ZERO).unwrap()
        });
    }
}

/// 64 KiB of word text like the paper-scan workload's: lines of 4-16
/// words from a storage vocabulary.
fn word_text() -> Vec<u8> {
    const WORDS: [&str; 12] = [
        "storage",
        "latency",
        "disk",
        "cache",
        "page",
        "tape",
        "robot",
        "seek",
        "network",
        "server",
        "bandwidth",
        "transfer",
    ];
    let mut rng = DetRng::new(7);
    let mut text = Vec::with_capacity(66 << 10);
    while text.len() < 64 << 10 {
        for w in 0..rng.range_usize(4, 17) {
            if w > 0 {
                text.push(b' ');
            }
            text.extend_from_slice(WORDS[rng.range_usize(0, WORDS.len())].as_bytes());
        }
        text.push(b'\n');
    }
    text
}

fn bench_regex() {
    let hay: Vec<u8> = (0..65536u32).map(|i| b'a' + (i % 26) as u8).collect();
    for (name, pat) in [
        ("literal", "needle"),
        ("class_star", "[a-m]*nop"),
        ("alternation", "cat|dog|bird|fish"),
    ] {
        let re = Regex::new(pat).unwrap();
        time(&format!("regex/{name}"), || re.is_match(&hay));
    }
    // Line by line, as grep matches: a literal whose first byte never
    // occurs in the text, and one whose first byte is common.
    let text = word_text();
    for (name, pat) in [
        ("words_rare_first_byte", "zyzzyva"),
        ("words_common_first_byte", "needle"),
    ] {
        let re = Regex::new(pat).unwrap();
        time(&format!("regex/{name}"), || {
            text.split(|&b| b == b'\n')
                .filter(|line| re.is_match(line))
                .count()
        });
    }
}

fn bench_fits_codec() {
    let values: Vec<f64> = (0..65536).map(|i| (i % 251) as f64).collect();
    for bitpix in [sleds_fits::Bitpix::I16, sleds_fits::Bitpix::F64] {
        let encoded = bitpix.encode(&values);
        time(&format!("fits_codec/decode_{}", bitpix.code()), || {
            bitpix.decode(&encoded).unwrap()
        });
    }
}

fn bench_kernel_read_path() {
    let (mut k, _, fd) = kernel_with_file(1024);
    // Warm everything.
    k.lseek(fd, 0, Whence::Set).unwrap();
    while !k.read(fd, 64 << 10).unwrap().is_empty() {}
    time("kernel_read_path/warm_64k_reads", || {
        k.lseek(fd, 0, Whence::Set).unwrap();
        let mut total = 0usize;
        loop {
            let n = k.read(fd, 64 << 10).unwrap().len();
            if n == 0 {
                break;
            }
            total += n;
        }
        total
    });
}

fn main() {
    bench_fsleds_get();
    bench_pick_planning();
    bench_page_cache();
    bench_namespace();
    bench_device_models();
    bench_regex();
    bench_fits_codec();
    bench_kernel_read_path();
}
