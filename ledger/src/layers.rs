//! Standalone per-call costs of the cache, VM and DRAM layers, measured
//! on the workload's own address stream. Multiplied by the counts a run
//! reports, they estimate each layer's share of engine time.

use crate::spans::now;
use rampage_cache::{Cache, PhysAddr, ReplacementPolicy};
use rampage_core::experiments::Job;
use rampage_core::DRAM_PAGE_SIZE;
use rampage_core::{ChannelSet, DramKind, HierarchyKind, L1Config, L2Config, RampageConfig};
use rampage_dram::Picos;
use rampage_trace::{Asid, TraceSource};
use rampage_vm::{FrameId, InvertedPageTable, Tlb, Vpn};
use std::hint::black_box;

/// References taken from the workload for the stream.
const STREAM_RECORDS: usize = 1 << 20;
/// Calls timed per layer: the stream is replayed until this many.
const MIN_CALLS: usize = 1 << 20;

/// Host nanoseconds per call of each layer's hot entry point.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// `Cache::access` on the paper's 16 KB direct-mapped L1.
    pub l1_ns: f64,
    /// `Cache::access` on the 4 MB L2 at the job's unit size.
    pub l2_ns: f64,
    /// `Tlb::lookup` (plus `insert` on a miss) on the paper's 64-entry TLB.
    pub tlb_ns: f64,
    /// `InvertedPageTable::lookup` on the job's SRAM frame count.
    pub ipt_ns: f64,
    /// `ChannelSet::request` on the flat Direct Rambus model.
    pub flat_ns: f64,
    /// `ChannelSet::request` on the banked backend.
    pub banked_ns: f64,
    /// Row-buffer hits over all banked requests.
    pub banked_row_hit_ratio: f64,
}

struct Ref {
    asid: Asid,
    addr: u64,
    write: bool,
}

/// Up to [`STREAM_RECORDS`] references of the job's workload, taken in
/// equal shares from each process.
fn stream(job: &Job) -> Vec<Ref> {
    let mut sources = job.workload.sources();
    let share = STREAM_RECORDS / sources.len().max(1);
    let mut out = Vec::with_capacity(STREAM_RECORDS);
    for (p, source) in sources.iter_mut().enumerate() {
        for _ in 0..share {
            let Some(rec) = source.next_record() else {
                break;
            };
            out.push(Ref {
                asid: Asid(p as u16),
                addr: rec.addr.0,
                write: rec.kind.is_write(),
            });
        }
    }
    out
}

/// Process-tagged physical stand-in for a virtual address, so processes
/// with identical layouts do not alias in a standalone cache.
fn tagged(r: &Ref) -> PhysAddr {
    PhysAddr((u64::from(r.asid.0) << 40) | r.addr)
}

/// Call `f` on stream items, cycling, until [`MIN_CALLS`] calls; ns per call.
fn time_calls<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let rounds = MIN_CALLS.div_ceil(items.len());
    let t = now();
    for _ in 0..rounds {
        for item in items {
            f(item);
        }
    }
    t.elapsed().as_nanos() as f64 / (rounds * items.len()) as f64
}

/// Measure every layer's per-call cost on `job`'s address stream.
pub fn measure(job: &Job) -> LayerCosts {
    let refs = stream(job);
    let unit = job.cfg.hierarchy.unit_bytes();
    let page = match job.cfg.hierarchy {
        HierarchyKind::Rampage(r) => r.page_size.get(),
        HierarchyKind::Conventional(_) => DRAM_PAGE_SIZE,
    };
    let page_bits = page.trailing_zeros();

    let mut l1 = Cache::new(L1Config::paper_default().geometry(), ReplacementPolicy::Lru);
    let l1_ns = time_calls(&refs, |r| {
        black_box(l1.access(tagged(r), r.write));
    });

    // The L2's miss stream doubles as the DRAM request stream.
    let l2_geometry = L2Config::direct_mapped(unit).geometry();
    let mut l2 = Cache::new(l2_geometry, ReplacementPolicy::Lru);
    let mut misses: Vec<u64> = Vec::new();
    for r in &refs {
        if !l2.access(tagged(r), r.write).hit {
            misses.push(tagged(r).block_number(unit));
        }
    }
    let mut l2 = Cache::new(l2_geometry, ReplacementPolicy::Lru);
    let l2_ns = time_calls(&refs, |r| {
        black_box(l2.access(tagged(r), r.write));
    });

    let mut tlb = Tlb::paper_default();
    let tlb_ns = time_calls(&refs, |r| {
        let vpn = Vpn(r.addr >> page_bits);
        if tlb.lookup(r.asid, vpn).is_none() {
            black_box(tlb.insert(r.asid, vpn, FrameId(vpn.0 as u32)));
        }
    });

    let frames = RampageConfig::paper(page).num_frames();
    let mut ipt = InvertedPageTable::new(frames, PhysAddr(0));
    for r in &refs {
        let vpn = Vpn(r.addr >> page_bits);
        if ipt.frame_of(r.asid, vpn).is_none() {
            let Some(frame) = ipt.alloc_free() else { break };
            ipt.insert(frame, r.asid, vpn);
        }
    }
    let ipt_ns = time_calls(&refs, |r| {
        black_box(ipt.lookup(r.asid, Vpn(r.addr >> page_bits)));
    });

    let request_ns = |kind: DramKind| {
        let mut channel = ChannelSet::new(kind, 1);
        let mut now = Picos::ZERO;
        let ns = time_calls(&misses, |&key| {
            now = channel.request(now, unit, key).done;
        });
        (ns, channel.row_stats())
    };
    let (flat_ns, _) = request_ns(DramKind::Rambus);
    let (banked_ns, rows) = request_ns(DramKind::banked());
    let row_requests = rows.hits + rows.misses + rows.conflicts;
    LayerCosts {
        l1_ns,
        l2_ns,
        tlb_ns,
        ipt_ns,
        flat_ns,
        banked_ns,
        banked_row_hit_ratio: if row_requests == 0 {
            0.0
        } else {
            rows.hits as f64 / row_requests as f64
        },
    }
}
