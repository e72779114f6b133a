//! The named workloads of the paper.
//!
//! Two groups:
//!
//! * **NPB 3.3** (Table I) — the ten NAS Parallel Benchmarks at CLASS C
//!   (CLASS B for DC), used in the Section II full-system comparison
//!   (Figs. 4 and 5). Footprints are the values printed in Table I.
//! * **Trace study** (Table III) — FT.C, MG.C, the SPEC2006 mixture
//!   (gcc + mcf + perl + zeusmp), pgbench, the Nutch indexer and
//!   SPECjbb2005, all with footprints larger than 2 GB, used to evaluate
//!   migration (Figs. 11-16, Table IV).
//!
//! Every workload is a pattern mixture tuned to the program's published
//! locality class; see DESIGN.md for the substitution argument. Footprints
//! can be scaled down (`SimScale`) for fast CI runs — the on-/off-package
//! capacity ratio is scaled identically by the experiment drivers, so the
//! shapes are preserved.

use crate::pattern::{Pattern, ZipfTables};
use crate::trace::{Stream, Workload};
use hmm_sim_base::config::SimScale;

/// Identifier for every workload in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// NPB BT (block tri-diagonal solver), CLASS C.
    Bt,
    /// NPB CG (conjugate gradient), CLASS C.
    Cg,
    /// NPB DC (data cube), CLASS B.
    Dc,
    /// NPB EP (embarrassingly parallel), CLASS C.
    Ep,
    /// NPB FT (3-D FFT), CLASS C.
    Ft,
    /// NPB IS (integer sort), CLASS C.
    Is,
    /// NPB LU (LU solver), CLASS C.
    Lu,
    /// NPB MG (multigrid), CLASS C.
    Mg,
    /// NPB SP (scalar penta-diagonal solver), CLASS C.
    Sp,
    /// NPB UA (unstructured adaptive), CLASS C.
    Ua,
    /// Four SPEC2006 programs (gcc, mcf, perl, zeusmp) run together.
    Spec2006Mix,
    /// TPC-B-like PostgreSQL 8.3 with pgbench, scaling factor 100.
    Pgbench,
    /// Nutch 0.9.1 indexer over HDFS.
    Indexer,
    /// Four copies of SPECjbb2005, 16 warehouses each.
    SpecJbb,
}

impl WorkloadId {
    /// The ten NPB kernels in Table I order.
    pub fn npb_all() -> [WorkloadId; 10] {
        use WorkloadId::*;
        [Bt, Cg, Dc, Ep, Ft, Is, Lu, Mg, Sp, Ua]
    }

    /// The six trace-study workloads in Table III / Table IV order.
    pub fn trace_study() -> [WorkloadId; 6] {
        use WorkloadId::*;
        [Ft, Mg, Pgbench, Indexer, SpecJbb, Spec2006Mix]
    }

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        use WorkloadId::*;
        match self {
            Bt => "BT.C",
            Cg => "CG.C",
            Dc => "DC.B",
            Ep => "EP.C",
            Ft => "FT.C",
            Is => "IS.C",
            Lu => "LU.C",
            Mg => "MG.C",
            Sp => "SP.C",
            Ua => "UA.C",
            Spec2006Mix => "SPEC2006 Mixture",
            Pgbench => "pgbench",
            Indexer => "indexer",
            SpecJbb => "SPECjbb",
        }
    }

    /// Canonical lowercase token, round-trippable through [`FromStr`](std::str::FromStr).
    /// This is the spelling used by CLI flags and the `hmm-serve` wire
    /// format, so cache keys and reports agree on one name per workload.
    pub fn token(&self) -> &'static str {
        use WorkloadId::*;
        match self {
            Bt => "bt",
            Cg => "cg",
            Dc => "dc",
            Ep => "ep",
            Ft => "ft",
            Is => "is",
            Lu => "lu",
            Mg => "mg",
            Sp => "sp",
            Ua => "ua",
            Spec2006Mix => "spec2006",
            Pgbench => "pgbench",
            Indexer => "indexer",
            SpecJbb => "specjbb",
        }
    }
}

impl std::str::FromStr for WorkloadId {
    type Err = String;

    /// Accepts the canonical token, the paper spelling (`ft.c`), and the
    /// historical CLI aliases (`spec`, `jbb`), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        use WorkloadId::*;
        Ok(match s.to_ascii_lowercase().as_str() {
            "bt" | "bt.c" => Bt,
            "cg" | "cg.c" => Cg,
            "dc" | "dc.b" => Dc,
            "ep" | "ep.c" => Ep,
            "ft" | "ft.c" => Ft,
            "is" | "is.c" => Is,
            "lu" | "lu.c" => Lu,
            "mg" | "mg.c" => Mg,
            "sp" | "sp.c" => Sp,
            "ua" | "ua.c" => Ua,
            "spec2006" | "spec" | "spec2006 mixture" => Spec2006Mix,
            "pgbench" => Pgbench,
            "indexer" => Indexer,
            "specjbb" | "jbb" => SpecJbb,
            other => return Err(format!("unknown workload '{other}'")),
        })
    }
}

/// NPB memory footprints in MB as printed in Table I (BT.C and CG.C digits
/// are uncertain in the available scan; the printed values are kept because
/// they are self-consistent with the paper's "7 of 10 fit in 1 GB" claim).
pub fn npb_footprint_mb(id: WorkloadId) -> u64 {
    use WorkloadId::*;
    match id {
        Bt => 76,
        Cg => 92,
        Dc => 5876,
        Ep => 16,
        Ft => 5147,
        Is => 164,
        Lu => 615,
        Mg => 3426,
        Sp => 758,
        Ua => 51,
        Spec2006Mix => 3100,
        Pgbench => 2560,
        Indexer => 3072,
        SpecJbb => 3072,
    }
}

/// 4 KB-aligned sub-region: `(numerator/denominator)` of the footprint
/// starting at fraction `at_num/at_den`.
fn part(fp: u64, at_num: u64, at_den: u64, num: u64, den: u64) -> (u64, u64) {
    let align = |v: u64| v & !4095;
    let start = align(fp / at_den * at_num);
    let len = align(fp / den * num).max(4096);
    let len = len.min(fp.saturating_sub(start)).max(4096);
    (start, len)
}

/// Scaled footprint of `id` in bytes, without building the workload.
///
/// Exactly the value [`workload`] puts in [`Workload::footprint_bytes`].
/// Geometry resolution (and the serving layer's request validation) only
/// needs this number, and building the full pattern mixture costs
/// milliseconds — the Zipf CDF tables alone do one `powf` per page rank —
/// so callers that never generate records must use this instead.
pub fn footprint_bytes(id: WorkloadId, scale: &SimScale) -> u64 {
    scale.bytes(npb_footprint_mb(id) << 20).max(64 << 10)
}

/// Build one of the paper's workloads, scaled by `scale`.
///
/// The returned [`Workload`] is a specification: call
/// [`Workload::iter`] with a seed to obtain records.
pub fn workload(id: WorkloadId, scale: &SimScale) -> Workload {
    let fp = footprint_bytes(id, scale);
    // One rank table per distinct (rank count, θ): the per-CPU streams of
    // a workload share their Zipf tables instead of building copies.
    let mut z = ZipfTables::default();
    let mut w = match id {
        WorkloadId::Bt | WorkloadId::Sp | WorkloadId::Lu => {
            // Structured-grid solvers: repeated array sweeps with a small,
            // hot working set of solver coefficients (the Fig. 4 knee sits
            // in the tens of megabytes for these kernels).
            let (hs, hl) = part(fp, 1, 4, 1, 32);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        (0.55, Pattern::sweep(0, fp, 64, 0.3)),
                        (0.45, z.zipf_pages(hs, hl, 1.05, 0.3)),
                    ],
                })
                .collect();
            Workload {
                name: id.name().into(),
                footprint_bytes: fp,
                mean_gap: match id {
                    WorkloadId::Bt => 30,
                    WorkloadId::Sp => 26,
                    _ => 24,
                },
                streams,
            }
        }
        WorkloadId::Cg => {
            // Sparse mat-vec: gather (chase) over the matrix plus a hot
            // vector region.
            let (cs, cl) = part(fp, 1, 4, 3, 4);
            let (vs, vl) = part(fp, 0, 1, 1, 8);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        (0.5, Pattern::chase(cs, cl, 0.1)),
                        (0.3, Pattern::sweep(0, fp, 64, 0.2)),
                        (0.2, z.zipf_pages(vs, vl, 1.0, 0.4)),
                    ],
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 16, streams }
        }
        WorkloadId::Dc => {
            // Data cube: sort/aggregation phases re-read their working
            // chunk a few times (pass-structured), over a huge space with
            // a moderately hot quarter. The hot quarter sits in the upper
            // half of the space — cube aggregates are built late — so
            // static low-address mapping gets no free ride.
            let (hs, hl) = part(fp, 5, 8, 1, 16);
            let window = (fp / 512).max(64 << 10);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        (0.10, Pattern::uniform(0, fp, 0.4)),
                        (0.35, Pattern::windowed_sweep(0, fp, window, 8, 64, 0.4)),
                        (0.55, z.zipf_pages(hs, hl, 1.1, 0.4)),
                    ],
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 22, streams }
        }
        WorkloadId::Ep => {
            // Embarrassingly parallel: tiny, cache-friendly footprint and
            // low memory intensity.
            let (hs, hl) = part(fp, 0, 1, 1, 2);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        (0.9, z.zipf_pages(hs, hl, 1.0, 0.3)),
                        (0.1, Pattern::sweep(0, fp, 64, 0.2)),
                    ],
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 200, streams }
        }
        WorkloadId::Ft => {
            // 3-D FFT: each dimension pass works a chunk of the array
            // several times (butterfly stages) before moving on, plus
            // large-stride transpose walks within the chunk; a small
            // twiddle-factor table is the only persistently hot data. The
            // chunked reuse is DRAM-cache-capturable, but at page level
            // the working window keeps moving, which is why FT is the
            // least migration-friendly workload in the study.
            let (ts, tl) = part(fp, 0, 1, 1, 64);
            // ~80 MB per thread at full scale: bigger than the L3 (so
            // the SRAM hierarchy cannot hold a pass), and the four
            // threads' windows together use a large share of the
            // on-package capacity (so both the DRAM cache and migration
            // can capture the pass-to-pass butterfly reuse — but only
            // while a window lasts; the windows keep rotating through the
            // whole multi-gigabyte array, which is what makes FT the
            // study's hardest workload).
            let window = (fp / 256).max(64 << 10);
            // Re-used wave-number/plan data: an eighth of the array, hot
            // across passes (scattered, so neither a static mapping nor
            // luck captures it).
            let (ws, wl) = part(fp, 4, 8, 1, 8);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        (0.50, Pattern::windowed_sweep(0, fp, window, 6, 64, 0.4)),
                        (0.40, z.zipf_pages(ws, wl, 0.9, 0.3)),
                        (0.10, z.zipf_pages(ts, tl, 1.0, 0.1)),
                    ],
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 12, streams }
        }
        WorkloadId::Is => {
            // Integer sort: bucket scatter writes plus sequential key reads.
            let (bs, bl) = part(fp, 1, 8, 3, 4);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        (0.5, Pattern::uniform(bs, bl, 0.7)),
                        (0.5, Pattern::sweep(0, fp, 64, 0.1)),
                    ],
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 14, streams }
        }
        WorkloadId::Mg => {
            // Multigrid V-cycle: the finest grid dominates the footprint;
            // coarser grids shrink by 8x each level and are revisited often
            // enough to be worth keeping on-package.
            let l0 = part(fp, 0, 1, 7, 10);
            let l1 = part(fp, 7, 10, 7, 80);
            let l2 = part(fp, 8, 10, 7, 640);
            let l3 = part(fp, 9, 10, 7, 5120);
            let (hs, hl) = part(fp, 19, 20, 1, 50);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        // The finest grid streams; the coarser grids (~1/10
                        // of the footprint together) take the majority of
                        // the accesses because every V-cycle runs several
                        // relaxation sweeps on them. The zipf component
                        // models that relaxation reuse concentrating on the
                        // coarse-grid region.
                        (0.25, Pattern::sweep(l0.0, l0.1, 64, 0.35)),
                        (0.20, Pattern::v_cycle(vec![l1, l2, l3], 64, 0.35)),
                        (0.40, z.zipf_pages(l1.0, (l1.1 + l2.1 + l3.1).min(fp - l1.0), 0.45, 0.35)),
                        (0.15, z.zipf_pages(hs, hl, 1.0, 0.3)),
                    ],
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 12, streams }
        }
        WorkloadId::Ua => {
            // Unstructured adaptive: irregular but with a hot mesh kernel.
            let (hs, hl) = part(fp, 0, 1, 1, 3);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        (0.4, Pattern::uniform(0, fp, 0.3)),
                        (0.6, z.zipf_pages(hs, hl, 0.95, 0.3)),
                    ],
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 28, streams }
        }
        WorkloadId::Spec2006Mix => {
            // Four single-threaded programs, one per core, in disjoint
            // address regions. Each has a small, very hot working set —
            // together they fit comfortably on-package, which is why the
            // paper measures 99.1% effectiveness here.
            let gcc = part(fp, 0, 16, 3, 16); // ~580 MB region
            let mcf = part(fp, 3, 16, 9, 16); // ~1.7 GB region
            let perl = part(fp, 12, 16, 1, 16);
            let zeus = part(fp, 13, 16, 3, 16);
            let streams = vec![
                Stream {
                    cpu: 0,
                    mix: vec![
                        (0.95, z.zipf_pages(gcc.0, gcc.1, 1.3, 0.3)),
                        (0.05, Pattern::sweep(gcc.0, gcc.1, 64, 0.2)),
                    ],
                },
                Stream {
                    cpu: 1,
                    mix: vec![
                        (0.95, z.zipf_pages(mcf.0, mcf.1, 1.4, 0.2)),
                        (0.05, Pattern::uniform(mcf.0, mcf.1, 0.2)),
                    ],
                },
                Stream { cpu: 2, mix: vec![(1.0, z.zipf_pages(perl.0, perl.1, 1.2, 0.35))] },
                Stream {
                    cpu: 3,
                    mix: vec![
                        (0.8, z.zipf_pages(zeus.0, zeus.1, 1.25, 0.35)),
                        (0.2, Pattern::sweep(zeus.0, zeus.1 / 8, 64, 0.35)),
                    ],
                },
            ];
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 12, streams }
        }
        WorkloadId::Pgbench => {
            // TPC-B: zipfian row access over the tables, an append-only WAL,
            // and occasional scans.
            let data = part(fp, 0, 16, 14, 16);
            let wal = part(fp, 31, 32, 1, 32);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        (0.87, z.zipf_pages(data.0, data.1, 1.3, 0.35)),
                        (0.10, Pattern::sweep(wal.0, wal.1, 64, 1.0)),
                        (0.03, Pattern::uniform(data.0, data.1, 0.1)),
                    ],
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 14, streams }
        }
        WorkloadId::Indexer => {
            // Nutch indexer: stream documents in, update hot hash/index
            // structures.
            let docs = part(fp, 2, 5, 3, 5);
            let index = part(fp, 0, 1, 2, 5);
            let streams = (0..4)
                .map(|cpu| Stream {
                    cpu,
                    mix: vec![
                        (0.25, Pattern::sweep(docs.0, docs.1, 64, 0.05)),
                        (0.68, z.zipf_pages(index.0, index.1, 1.2, 0.5)),
                        (0.07, Pattern::uniform(docs.0, docs.1, 0.1)),
                    ],
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 13, streams }
        }
        WorkloadId::SpecJbb => {
            // Four JVM copies, 16 warehouses each: per-copy zipf with
            // moderate skew plus GC-like sweeps.
            let streams = (0..4u8)
                .map(|cpu| {
                    let region = part(fp, cpu as u64, 4, 1, 4);
                    Stream {
                        cpu,
                        mix: vec![
                            (0.88, z.zipf_pages(region.0, region.1, 1.0, 0.4)),
                            (0.12, Pattern::uniform(region.0, region.1, 0.3)),
                        ],
                    }
                })
                .collect();
            Workload { name: id.name().into(), footprint_bytes: fp, mean_gap: 14, streams }
        }
    };
    // Parallel workers start their sweeps at staggered positions, as
    // OpenMP-partitioned codes do; this also makes finite measurement
    // windows representative of the long-run address distribution.
    let n = w.streams.len().max(1) as f64;
    for (i, stream) in w.streams.iter_mut().enumerate() {
        let frac = i as f64 / n;
        for (_, pat) in &mut stream.mix {
            pat.set_phase(frac);
        }
    }
    debug_assert!(w.validate().is_ok(), "{:?}: {:?}", id, w.validate());
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn table1_footprints_are_the_printed_values() {
        use WorkloadId::*;
        let expect = [
            (Bt, 76),
            (Cg, 92),
            (Dc, 5876),
            (Ep, 16),
            (Ft, 5147),
            (Is, 164),
            (Lu, 615),
            (Mg, 3426),
            (Sp, 758),
            (Ua, 51),
        ];
        for (id, mb) in expect {
            assert_eq!(npb_footprint_mb(id), mb, "{id:?}");
        }
    }

    #[test]
    fn tokens_round_trip_through_from_str() {
        for id in WorkloadId::npb_all().into_iter().chain(WorkloadId::trace_study()) {
            assert_eq!(id.token().parse::<WorkloadId>(), Ok(id), "{id:?}");
            assert_eq!(id.name().parse::<WorkloadId>(), Ok(id), "paper spelling for {id:?}");
        }
        assert!("warehouse".parse::<WorkloadId>().is_err());
    }

    #[test]
    fn seven_of_ten_npb_fit_in_1gb() {
        let fits = WorkloadId::npb_all().iter().filter(|&&id| npb_footprint_mb(id) < 1024).count();
        assert_eq!(fits, 7, "the paper states 7 of 10 fit in 1 GB");
    }

    #[test]
    fn trace_study_footprints_exceed_2gb() {
        for id in WorkloadId::trace_study() {
            assert!(npb_footprint_mb(id) > 2048, "{id:?} must exceed 2 GB per Section IV");
        }
    }

    #[test]
    fn all_workloads_validate_at_all_scales() {
        for id in WorkloadId::npb_all().into_iter().chain(WorkloadId::trace_study()) {
            for div in [1u64, 16, 64, 256] {
                let w = workload(id, &SimScale { divisor: div });
                w.validate().unwrap_or_else(|e| panic!("{id:?} at /{div}: {e}"));
            }
        }
    }

    #[test]
    fn cheap_footprint_matches_built_workload() {
        for id in WorkloadId::npb_all().into_iter().chain(WorkloadId::trace_study()) {
            for div in [1u64, 16, 64, 256] {
                let scale = SimScale { divisor: div };
                assert_eq!(
                    footprint_bytes(id, &scale),
                    workload(id, &scale).footprint_bytes,
                    "{id:?} at /{div}"
                );
            }
        }
    }

    /// Pgbench's four streams, and SPECjbb's four equal-size warehouse
    /// regions, draw from one table, and `iter` shares it too.
    #[test]
    fn per_cpu_streams_share_one_zipf_table() {
        for id in [WorkloadId::Pgbench, WorkloadId::SpecJbb] {
            let w = workload(id, &SimScale { divisor: 1 });
            let zipfs: Vec<_> = w
                .streams
                .iter()
                .flat_map(|s| &s.mix)
                .filter_map(|(_, p)| match p {
                    Pattern::ZipfPages { zipf, .. } => Some(zipf),
                    _ => None,
                })
                .collect();
            assert_eq!(zipfs.len(), 4, "{id:?}");
            assert!(zipfs.iter().all(|z| z.shares_table(zipfs[0])), "{id:?}");
            assert_eq!(zipfs[0].table_holders(), 4, "{id:?}: no other holder");
            let it = w.iter(1);
            assert_eq!(zipfs[0].table_holders(), 8, "{id:?}: iter shares, never copies");
            drop(it);
            assert_eq!(zipfs[0].table_holders(), 4, "{id:?}");
        }
    }

    #[test]
    fn all_workloads_generate_records() {
        for id in WorkloadId::trace_study() {
            let w = workload(id, &SimScale::test_default());
            let recs = w.records(1, 5_000);
            assert_eq!(recs.len(), 5_000);
            assert!(recs.iter().all(|r| r.addr.0 < w.footprint_bytes));
        }
    }

    /// Predictive hot-page coverage: take the hottest pages of one access
    /// window (budgeted at 1/8 of the footprint, the 512 MB : 4 GB ratio of
    /// Table III) and measure what fraction of the *next* window they
    /// serve. This is precisely what hottest-coldest migration can exploit
    /// — pages migrated because they were hot must stay hot — so the
    /// ordering across workloads predicts the Table IV effectiveness
    /// ordering.
    fn predictive_coverage(id: WorkloadId) -> f64 {
        let w = workload(id, &SimScale { divisor: 64 });
        let page = 4096u64;
        let win = 100_000usize;
        let budget = (w.footprint_bytes / 8 / page) as usize;
        let mut it = w.iter(11);
        let mut prev_hot: Option<std::collections::HashSet<u64>> = None;
        let mut scores = Vec::new();
        for _ in 0..5 {
            let mut heat: HashMap<u64, u64> = HashMap::new();
            let mut covered = 0u64;
            for _ in 0..win {
                let r = it.next().unwrap();
                let p = r.addr.0 / page;
                *heat.entry(p).or_insert(0) += 1;
                if let Some(h) = &prev_hot {
                    if h.contains(&p) {
                        covered += 1;
                    }
                }
            }
            if prev_hot.is_some() {
                scores.push(covered as f64 / win as f64);
            }
            let mut v: Vec<(u64, u64)> = heat.into_iter().collect();
            v.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
            prev_hot = Some(v.into_iter().take(budget).map(|(p, _)| p).collect());
        }
        scores.iter().sum::<f64>() / scores.len() as f64
    }

    #[test]
    fn locality_ordering_predicts_table4() {
        let spec = predictive_coverage(WorkloadId::Spec2006Mix);
        let pg = predictive_coverage(WorkloadId::Pgbench);
        let mg = predictive_coverage(WorkloadId::Mg);
        let jbb = predictive_coverage(WorkloadId::SpecJbb);
        // Paper Table IV: SPEC2006 99.1% > pgbench 92.2% > (indexer 86.1%,
        // MG 84.3%) > SPECjbb 72.2% > FT 69.1%.
        //
        // FT is deliberately excluded from this static proxy: its FFT
        // passes dwell on one window far longer than the measurement
        // window, so hot-page prediction looks near-perfect here even
        // though the windows rotate (and defeat migration) at the full
        // trace horizon. FT's true migration behaviour is asserted by the
        // end-to-end simulations instead.
        assert!(spec > 0.75, "SPEC2006 mixture is the most concentratable, got {spec:.2}");
        assert!(spec > pg, "SPEC ({spec:.2}) must beat pgbench ({pg:.2})");
        assert!(pg > mg, "pgbench ({pg:.2}) must beat MG ({mg:.2})");
        // MG and SPECjbb are near each other by this proxy (84.3% vs
        // 72.2% in the paper); require MG not to fall meaningfully below.
        assert!(mg > jbb - 0.05, "MG ({mg:.2}) must not trail SPECjbb ({jbb:.2})");
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(WorkloadId::Ft.name(), "FT.C");
        assert_eq!(WorkloadId::Dc.name(), "DC.B");
        assert_eq!(WorkloadId::Spec2006Mix.name(), "SPEC2006 Mixture");
    }

    #[test]
    fn part_helper_stays_aligned_and_bounded() {
        let (s, l) = part(1 << 30, 3, 16, 9, 16);
        assert_eq!(s % 4096, 0);
        assert_eq!(l % 4096, 0);
        assert!(s + l <= 1 << 30);
        // Degenerate tiny footprint still yields a usable region.
        let (s2, l2) = part(8192, 0, 1, 1, 64);
        assert_eq!(s2, 0);
        assert!(l2 >= 4096);
    }
}
