//! Redundant volume behavior at the kernel level: mount validation,
//! fault-driven failover (an offline primary must be invisible to the
//! application), hedged-read accounting, striped placement, coded
//! fan-out, and the `RedundantExtent` view that `FSLEDS_GET` prices.

use sleds_devices::{BlockDevice, CdRomDevice, DiskDevice, FaultPlan, NfsDevice};
use sleds_fs::trace::{EventPhase, Layer};
use sleds_fs::{
    HedgePolicy, JobReport, Kernel, MountId, OpenFlags, PageLocation, VolumeLayout,
    SECTORS_PER_PAGE,
};
use sleds_sim_core::{SimDuration, SimTime, PAGE_SIZE, SECTOR_SIZE};

fn disks(n: usize) -> Vec<Box<dyn BlockDevice>> {
    (0..n)
        .map(|i| Box::new(DiskDevice::table2_disk(format!("vd{i}"))) as Box<_>)
        .collect()
}

/// Mounts `/vol` with the given layout and installs one cold file.
fn volume_with_file(k: &mut Kernel, layout: VolumeLayout, n: usize, pages: usize) -> MountId {
    k.mkdir("/vol").unwrap();
    let m = k.mount_volume("/vol", layout, disks(n)).unwrap();
    let body: Vec<u8> = (0..pages * PAGE_SIZE as usize)
        .map(|i| (i / PAGE_SIZE as usize) as u8)
        .collect();
    k.install_file("/vol/f", &body).unwrap();
    k.drop_caches().unwrap();
    m
}

fn assert_conserves(r: &JobReport) {
    assert_eq!(
        r.elapsed,
        r.usage.cpu + r.usage.io_wait,
        "elapsed must equal cpu + io_wait exactly"
    );
}

#[test]
fn mount_volume_validates_member_counts() {
    let mut k = Kernel::table2();
    k.mkdir("/vol").unwrap();
    let err = k
        .mount_volume("/vol", VolumeLayout::Mirrored, disks(1))
        .unwrap_err();
    assert_eq!(err.errno, sleds_sim_core::Errno::Einval);
    let err = k
        .mount_volume("/vol", VolumeLayout::Coded { k: 2 }, disks(2))
        .unwrap_err();
    assert_eq!(err.errno, sleds_sim_core::Errno::Einval);
    let err = k
        .mount_volume("/vol", VolumeLayout::Coded { k: 0 }, disks(3))
        .unwrap_err();
    assert_eq!(err.errno, sleds_sim_core::Errno::Einval);
    // A valid mount still works afterwards.
    let m = k
        .mount_volume("/vol", VolumeLayout::Mirrored, disks(2))
        .unwrap();
    assert_eq!(k.volume_layout(m), Some(VolumeLayout::Mirrored));
    assert_eq!(k.volume_members(m).len(), 2);
}

#[test]
fn mirrored_read_survives_offline_primary_with_zero_app_errors() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    let m = volume_with_file(&mut k, VolumeLayout::Mirrored, 2, pages);
    let members = k.volume_members(m);
    let reads_before: Vec<u64> = members
        .iter()
        .map(|&d| k.device_stats(d).unwrap().reads)
        .collect();

    // Take the primary offline for the whole read phase.
    let plan = FaultPlan::new().offline(
        "vd0",
        SimTime::ZERO,
        SimTime::from_nanos(u64::MAX),
        SimDuration::from_millis(1),
    );
    k.apply_fault_plan(&plan);

    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    let data = k
        .read(fd, pages * PAGE_SIZE as usize)
        .expect("an offline primary must reroute, not error");
    k.close(fd).unwrap();
    let r = k.finish_job(&t);

    assert_eq!(data.len(), pages * PAGE_SIZE as usize);
    assert_eq!(data[0], 0);
    assert_eq!(data[(pages - 1) * PAGE_SIZE as usize], (pages - 1) as u8);
    // Every cold sector came off the mirror; the offline primary was
    // never issued a command (rerouting, not retrying).
    let vd0 = k.device_stats(members[0]).unwrap();
    let vd1 = k.device_stats(members[1]).unwrap();
    assert_eq!(
        vd0.reads, reads_before[0],
        "offline primary must be skipped"
    );
    assert!(
        vd1.reads > reads_before[1],
        "the mirror must serve the read"
    );
    assert_eq!(r.usage.io_retries, 0, "reroute, not retry");
    assert_conserves(&r);
}

#[test]
fn degraded_primary_triggers_hedge_with_exact_accounting() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    volume_with_file(&mut k, VolumeLayout::Mirrored, 2, pages);

    // A long degraded window on the primary: each cold run hedges to the
    // mirror, which wins on live fault-epoch pricing.
    let plan = FaultPlan::new().degraded("vd0", SimTime::ZERO, SimTime::from_nanos(u64::MAX), 10.0);
    k.apply_fault_plan(&plan);

    let policy = HedgePolicy::default();
    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    let r = k.finish_job(&t);

    assert!(r.usage.hedges >= 1, "a degraded pick must hedge");
    assert_eq!(
        r.usage.hedge_wins, r.usage.hedges,
        "every hedge against a 10x-degraded primary is won by the mirror"
    );
    assert_eq!(
        r.usage.hedge_wait,
        SimDuration::from_nanos(r.usage.hedges * policy.cancel_cost.as_nanos()),
        "hedge overhead is exactly one cancel charge per loser"
    );
    assert_eq!(r.usage.io_retries, 0);
    assert_conserves(&r);
}

#[test]
fn disabled_hedging_never_hedges() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    volume_with_file(&mut k, VolumeLayout::Mirrored, 2, pages);
    k.set_hedge_policy(HedgePolicy::disabled());
    let plan = FaultPlan::new().degraded("vd0", SimTime::ZERO, SimTime::from_nanos(u64::MAX), 10.0);
    k.apply_fault_plan(&plan);

    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    let r = k.finish_job(&t);
    assert_eq!(r.usage.hedges, 0, "max_hedges = 0 must disable hedging");
    assert_eq!(r.usage.hedge_wait, SimDuration::ZERO);
    assert_conserves(&r);
}

#[test]
fn striped_layout_round_robins_across_members() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    let m = volume_with_file(&mut k, VolumeLayout::Striped { stripe_pages: 2 }, 2, pages);
    let members = k.volume_members(m);
    // A cold sequential read shows the placement: two-page chunks
    // alternate members, so each serves exactly half the file.
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    let r0 = k.device_stats(members[0]).unwrap().sectors_read;
    let r1 = k.device_stats(members[1]).unwrap().sectors_read;
    assert_eq!(r0, r1, "an even stripe must split the read evenly");
    assert_eq!(r0 + r1, pages as u64 * SECTORS_PER_PAGE);
    assert!(k.device_stats(members[0]).unwrap().reads > 0);
    assert!(k.device_stats(members[1]).unwrap().reads > 0);
}

#[test]
fn coded_read_fans_out_to_the_k_cheapest_members() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    let m = volume_with_file(&mut k, VolumeLayout::Coded { k: 2 }, 3, pages);
    let members = k.volume_members(m);

    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    let r = k.finish_job(&t);

    let reads: Vec<u64> = members
        .iter()
        .map(|&d| k.device_stats(d).unwrap().reads)
        .collect();
    assert!(reads[0] > 0 && reads[1] > 0, "k = 2 fragments fan out");
    assert_eq!(
        reads[2], 0,
        "with all members healthy and equal, the third is never needed"
    );
    // Redundant work is bounded: the fragments sum to the file (give or
    // take one rounding sector per run), not to k copies of it.
    let total: u64 = members
        .iter()
        .map(|&d| k.device_stats(d).unwrap().sectors_read)
        .sum();
    let file_sectors = pages as u64 * SECTORS_PER_PAGE;
    assert!(total >= file_sectors, "all k fragments must arrive");
    assert!(
        total <= file_sectors + 2 * r.usage.device_reads,
        "coded reads must not read whole extra copies (read {total} of {file_sectors})"
    );
    assert_conserves(&r);
}

#[test]
fn coded_read_survives_an_offline_member() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    let m = volume_with_file(&mut k, VolumeLayout::Coded { k: 2 }, 3, pages);
    let members = k.volume_members(m);
    let plan = FaultPlan::new().offline(
        "vd0",
        SimTime::ZERO,
        SimTime::from_nanos(u64::MAX),
        SimDuration::from_millis(1),
    );
    k.apply_fault_plan(&plan);

    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize)
        .expect("k of n members remain: the read must complete");
    k.close(fd).unwrap();
    let r = k.finish_job(&t);
    assert_eq!(r.usage.io_retries, 0, "no app-visible errors or retries");
    assert_eq!(k.device_stats(members[0]).unwrap().reads, 0);
    assert!(k.device_stats(members[1]).unwrap().reads > 0);
    assert!(k.device_stats(members[2]).unwrap().reads > 0);
    assert_conserves(&r);
}

#[test]
fn redundant_extents_describe_the_volume_shape() {
    // Mirrored 2-way: one alternative per device extent, no coded_k.
    let mut k = Kernel::table2();
    volume_with_file(&mut k, VolumeLayout::Mirrored, 2, 4);
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    let ext = k.redundant_extents(fd).unwrap();
    assert!(!ext.is_empty());
    for re in &ext {
        assert!(matches!(re.extent.location, PageLocation::Device { .. }));
        assert_eq!(re.alternatives.len(), 1, "2-way mirror has one alternative");
        assert_eq!(re.coded_k, None);
    }
    k.close(fd).unwrap();

    // Coded (2, 3): two alternatives and coded_k = 2.
    let mut k = Kernel::table2();
    volume_with_file(&mut k, VolumeLayout::Coded { k: 2 }, 3, 4);
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    let ext = k.redundant_extents(fd).unwrap();
    assert!(!ext.is_empty());
    for re in &ext {
        assert_eq!(re.alternatives.len(), 2);
        assert_eq!(re.coded_k, Some(2));
    }
    // Warm pages drop their alternatives: a cached extent is priced as
    // memory, redundancy is irrelevant to it.
    k.read(fd, PAGE_SIZE as usize).unwrap();
    let ext = k.redundant_extents(fd).unwrap();
    assert!(matches!(ext[0].extent.location, PageLocation::Memory));
    assert!(ext[0].alternatives.is_empty());
    assert_eq!(ext[0].coded_k, None);
    k.close(fd).unwrap();

    // An unreplicated mount never reports alternatives.
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.install_file("/d/f", &[7u8; PAGE_SIZE as usize]).unwrap();
    k.drop_caches().unwrap();
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    for re in k.redundant_extents(fd).unwrap() {
        assert!(re.alternatives.is_empty());
        assert_eq!(re.coded_k, None);
    }
    k.close(fd).unwrap();
}

/// Per device class: (commands, bytes, busy ns).
type Ledger = std::collections::BTreeMap<u64, (u64, u64, u64)>;

fn add(ledger: &mut Ledger, class: u64, commands: u64, bytes: u64, busy_ns: u64) {
    let row = ledger.entry(class).or_default();
    row.0 += commands;
    row.1 += bytes;
    row.2 += busy_ns;
}

/// Runs a faulted, traced, captured read workload over `/vol` and checks
/// that the three device ledgers agree. Each member has its own device
/// class, so the per-class recorder and tracer rows are per-device rows.
fn assert_device_ledgers_reconcile(
    layout: VolumeLayout,
    members: Vec<Box<dyn BlockDevice>>,
    plan: FaultPlan,
) {
    let pages = 32usize;
    let mut k = Kernel::table2();
    k.mkdir("/vol").unwrap();
    k.mount_volume("/vol", layout, members).unwrap();
    k.install_file("/vol/f", &vec![5u8; pages * PAGE_SIZE as usize])
        .unwrap();
    k.drop_caches().unwrap();
    k.apply_fault_plan(&plan);
    k.reset_counters();
    k.enable_tracing_with_capacity(1 << 16);
    k.start_capture(1024);
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    for p in [0u64, 9, 17, 25, 3, 30, 12, 21, 6, 28] {
        k.pread(fd, p * PAGE_SIZE, PAGE_SIZE as usize).unwrap();
    }
    k.close(fd).unwrap();
    let capture = k.stop_capture().unwrap();
    assert!(capture.complete, "the read workload must be recordable");
    assert_eq!(k.trace_dropped(), 0, "the trace ring must hold the run");
    let usage = k.usage();

    // The command queues: every command, faulted attempt and cancel.
    let mut queue = Ledger::new();
    for d in k.saturation_report().devices {
        add(&mut queue, d.class_code, d.commands, d.bytes, d.busy_ns);
    }
    // The flight recorder: the device rows of every captured op.
    let mut recorder = Ledger::new();
    for op in &capture.ops {
        for c in &op.outcome.classes {
            add(&mut recorder, c.class, c.commands, c.bytes, c.service_ns);
        }
    }
    // The tracer: one span per served command (its duration covers the
    // queue wait, split out as a `queue_wait` child) plus one
    // `fault.inject` mark per faulted attempt.
    let mut traced = Ledger::new();
    let mut cancels = Ledger::new();
    let mut faults = 0u64;
    for e in k.trace_events() {
        if e.layer != Layer::Device {
            continue;
        }
        match (e.phase, e.name) {
            (EventPhase::Complete, "queue_wait") => {
                let row = traced.entry(e.args[2]).or_default();
                row.2 -= e.dur.as_nanos();
            }
            (EventPhase::Complete, name) if name.ends_with(".read") || name.ends_with(".write") => {
                let bytes = e.args[1] * SECTOR_SIZE;
                add(&mut traced, e.args[2], 1, bytes, e.dur.as_nanos());
            }
            (EventPhase::Mark, "fault.inject") => {
                faults += 1;
                add(&mut traced, e.args[0], 1, 0, e.args[2]);
            }
            (EventPhase::Mark, "io.hedge") => add(&mut cancels, e.args[1], 1, 0, e.args[2]),
            _ => {}
        }
    }

    assert!(faults > 0, "the workload must include faulted attempts");
    assert_eq!(queue, recorder, "queue and recorder ledgers must agree");
    // By design the tracer records a hedge cancel as an `io.hedge` mark,
    // not a device span: the revoked command never moved data. Adding
    // the marks back closes the ledger exactly.
    for (class, (n, bytes, busy)) in &cancels {
        add(&mut traced, *class, *n, *bytes, *busy);
    }
    assert_eq!(queue, traced, "queue and tracer ledgers must agree");
    assert_eq!(
        cancels.values().map(|r| r.0).sum::<u64>(),
        usage.hedges,
        "one io.hedge mark per cancelled hedge"
    );
}

#[test]
fn device_ledgers_reconcile_over_hedged_mirror_and_coded_volume() {
    let forever = SimTime::from_nanos(u64::MAX);
    let fail_cost = SimDuration::from_millis(3);

    // Mirrored disk + metro link: the degraded link makes every cold pick
    // hedge (the link still wins), and its transient window faults the
    // winner's first attempts so the retry path runs too.
    let mirror: Vec<Box<dyn BlockDevice>> = vec![
        Box::new(DiskDevice::table2_disk("vd0")),
        Box::new(NfsDevice::metro_link("net0")),
    ];
    let plan = FaultPlan::new()
        .degraded("net0", SimTime::ZERO, forever, 8.0)
        .transient("net0", SimTime::ZERO, forever, 3, fail_cost);
    assert_device_ledgers_reconcile(VolumeLayout::Mirrored, mirror, plan);

    // (2,3)-coded disk + link + CD-ROM: a faulted fragment excludes its
    // member and the read re-picks from the rest.
    let coded: Vec<Box<dyn BlockDevice>> = vec![
        Box::new(DiskDevice::table2_disk("vd0")),
        Box::new(NfsDevice::metro_link("net0")),
        Box::new(CdRomDevice::table2_drive("cd0")),
    ];
    let plan = FaultPlan::new().transient("net0", SimTime::ZERO, forever, 3, fail_cost);
    assert_device_ledgers_reconcile(VolumeLayout::Coded { k: 2 }, coded, plan);
}
