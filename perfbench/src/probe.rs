//! Host-time spans around calls into the simulator's layers.
//!
//! The benchmark never instruments the program: each workload wraps its
//! own calls into a layer's public functions with [`Probe::start`] /
//! [`Probe::stop`]. An untraced probe reads no clock at all, so the
//! untraced run measures the program alone; a traced probe keeps every
//! span in memory until the run ends.

/// The host clock: the one place the benchmark reads wall-clock time.
// sledlint::allow(D001, host wall-clock time is what the benchmark measures)
pub type Stamp = std::time::Instant;

/// One kind of layer call the workloads time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Open,
    Stat,
    Close,
    Readdir,
    PreadHit,
    PreadMiss,
    Write,
    Fsync,
    TenantSwitch,
    RingEnter,
    RingReap,
    Walk,
    SledsGet,
    PickInit,
    PickNext,
    Textmatch,
    Fits,
}

/// Number of [`Call`] kinds.
pub const CALLS: usize = 17;

/// The layer (module) each call belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Fs,
    Ring,
    Walk,
    Sleds,
    Textmatch,
    Fits,
}

impl Call {
    pub const ALL: [Call; CALLS] = [
        Call::Open,
        Call::Stat,
        Call::Close,
        Call::Readdir,
        Call::PreadHit,
        Call::PreadMiss,
        Call::Write,
        Call::Fsync,
        Call::TenantSwitch,
        Call::RingEnter,
        Call::RingReap,
        Call::Walk,
        Call::SledsGet,
        Call::PickInit,
        Call::PickNext,
        Call::Textmatch,
        Call::Fits,
    ];

    pub fn layer(self) -> Layer {
        match self {
            Call::Open
            | Call::Stat
            | Call::Close
            | Call::Readdir
            | Call::PreadHit
            | Call::PreadMiss
            | Call::Write
            | Call::Fsync
            | Call::TenantSwitch => Layer::Fs,
            Call::RingEnter | Call::RingReap => Layer::Ring,
            Call::Walk => Layer::Walk,
            Call::SledsGet | Call::PickInit | Call::PickNext => Layer::Sleds,
            Call::Textmatch => Layer::Textmatch,
            Call::Fits => Layer::Fits,
        }
    }
}

/// Span recorder. Spans are per-call host durations in nanoseconds.
#[derive(Debug)]
pub struct Probe {
    on: bool,
    spans: Vec<Vec<u64>>,
}

impl Probe {
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            spans: vec![Vec::new(); CALLS],
        }
    }

    /// Opens a span: reads the clock only when tracing.
    #[inline]
    pub fn start(&self) -> Option<Stamp> {
        self.on.then(Stamp::now)
    }

    /// Closes a span opened by [`Probe::start`] and files it under `call`.
    #[inline]
    pub fn stop(&mut self, t: Option<Stamp>, call: Call) {
        if let Some(t) = t {
            self.spans[call as usize].push(t.elapsed().as_nanos() as u64);
        }
    }

    /// Times `f` as one `call`.
    #[inline]
    pub fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let t = self.start();
        let out = f();
        self.stop(t, call);
        out
    }

    pub fn spans(&self, call: Call) -> &[u64] {
        &self.spans[call as usize]
    }

    /// Total span time of every call, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().flatten().sum()
    }

    /// Appends another probe's spans (pooling traced rounds).
    pub fn absorb(&mut self, other: Probe) {
        for (mine, theirs) in self.spans.iter_mut().zip(other.spans) {
            mine.extend(theirs);
        }
    }
}

/// Work the workloads did through each layer, counted by the benchmark
/// in traced and untraced runs alike (so both can be compared). These are
/// the denominators of the per-unit host costs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// `fsleds_get` calls made directly or as ring ops.
    pub get_calls: u64,
    /// SLEDs those calls returned.
    pub get_sleds: u64,
    /// Chunks pick sessions handed out.
    pub pick_chunks: u64,
    /// Ring operations submitted.
    pub ring_ops: u64,
    /// `ring_enter` calls.
    pub ring_enters: u64,
    /// Entries `fsleds_walk` returned.
    pub walk_entries: u64,
    /// Bytes handed to the text matcher.
    pub text_bytes: u64,
    /// Bytes through the FITS codec (decoded plus encoded).
    pub fits_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_probe_keeps_nothing() {
        let mut p = Probe::new(false);
        assert_eq!(p.time(Call::Open, || 7), 7);
        assert!(p.spans(Call::Open).is_empty());
        let mut q = Probe::new(true);
        q.time(Call::Open, || ());
        assert_eq!(q.spans(Call::Open).len(), 1);
        p.absorb(q);
        assert_eq!(p.spans(Call::Open).len(), 1);
    }

    #[test]
    fn call_indices_follow_all() {
        for (i, c) in Call::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }
}
