//! Request-lifecycle phase breakdown — the observability layer's headline
//! table.
//!
//! Every completed request carries absolute virtual-time stamps (issue,
//! NIC-out, server receive, comm-phase done, memory/SSD-phase done,
//! completion), all on the one simulation clock, so the four phases sum
//! *exactly* to end-to-end latency. This table shows where each design's
//! time goes — communication vs. memory/SSD — and the eviction-overlap
//! ratio: the fraction of requests the server received while a
//! slab-eviction flush was in flight, which is precisely the overlap the
//! non-blocking designs exist to create.

use nbkv_core::designs::Design;

use crate::figs::single;
use crate::runner::{Case, Done, Figure};
use crate::table::{us, Table};

const DESIGNS: [Design; 3] = [
    Design::HRdmaDef,
    Design::HRdmaOptBlock,
    Design::HRdmaOptNonBI,
];

/// One case per design (hybrid server, data > memory): Figure 6(b)'s.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    DESIGNS
        .map(|d| Case::latency(d.label(), single(d, false)))
        .into()
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "phases",
        "Request-lifecycle phase breakdown (us, p50), data does NOT fit in memory",
        &[
            "design",
            "comm-in",
            "dispatch",
            "store",
            "comm-out",
            "e2e p50",
            "e2e p99",
            "ssd ops",
            "evict-overlap ppm",
        ],
    );
    for (design, (_, o)) in DESIGNS.iter().zip(res) {
        let p = &o.report().phases;
        t.row(vec![
            design.label().to_string(),
            us(p.comm_in.p50()),
            us(p.dispatch.p50()),
            us(p.store.p50()),
            us(p.comm_out.p50()),
            us(p.e2e.p50()),
            us(p.e2e.p99()),
            p.ssd.count().to_string(),
            p.eviction_overlap_ppm().to_string(),
        ]);
    }
    t.note(
        "phases sum exactly to end-to-end latency per request (one virtual clock); \
         for staged requests the staging-queue wait counts as store time — that wait \
         is the decoupled memory phase the paper measures.",
    );
    t.note(
        "expected: the non-blocking design receives requests during eviction flushes \
         (evict-overlap ppm > 0) far more than the blocking designs — the comm/flush \
         overlap of the paper's non-blocking extensions.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::LatencyExp;

    /// The acceptance check for the observability tentpole: the
    /// non-blocking design's rollup shows a non-zero eviction-overlap
    /// ratio, the blocking design's stays at (near) zero, and the phase
    /// histograms are populated.
    ///
    /// The 32 KiB default value size matters: the measured write-heavy
    /// phase must *allocate* (promotes + size-class churn) to trigger
    /// flushes, not just overwrite preloaded items in place.
    #[test]
    fn nonblocking_design_overlaps_eviction_flushes() {
        let small = |design| {
            let mut exp = LatencyExp::single(design, 8 << 20, 12 << 20);
            exp.ops_per_client = 600;
            exp
        };
        let (nonb, _) = small(Design::HRdmaOptNonBI).run();
        assert!(nonb.phases.ops > 0, "timelines must be recorded");
        assert!(
            nonb.phases.eviction_overlap_ppm() > 0,
            "non-blocking design must overlap flushes with request receipt"
        );
        assert!(nonb.phases.store.sum() > 0);
        assert!(nonb.phases.comm_in.sum() > 0);

        let (block, _) = small(Design::HRdmaOptBlock).run();
        assert!(
            block.phases.eviction_overlap_ppm() * 10 < nonb.phases.eviction_overlap_ppm(),
            "blocking design must show far less eviction overlap ({} vs {})",
            block.phases.eviction_overlap_ppm(),
            nonb.phases.eviction_overlap_ppm()
        );
    }
}
