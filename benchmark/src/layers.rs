//! The per-layer numbers: a traced in-process run on the same generated
//! files, composed from the public pieces `run_pipeline` itself uses, with
//! a span around every call into a layer; plus the direct timings of
//! single public functions the run is too coarse to isolate. End-to-end
//! numbers never come from here. `README.md` lists every crate function
//! called.

use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufReader, BufWriter, Write};
use std::time::{Duration, Instant};

use align::{
    align_window, dna_codes, sam_header, sw_scalar, Alignment, AlignmentRecord, Strand,
    StripedProfile,
};
use dht::{build_seed_index, CacheSet, LookupEnv, ProbeScratch, SeedEntry};
use meraligner::query::{
    drain_chunk_outcomes, extend_read_chunk, issue_read_chunk, AlignContext, ChunkScratch,
    ChunkState,
};
use meraligner::{run_pipeline, PipelineConfig, PipelineResult, Placement, TargetStore};
use pgas::{CommTag, GlobalRef, Machine, MachineSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use seq::fastx::{read_fasta, read_fastq};
use seq::seqdb::SeqDbBuilder;
use seq::{Kmer, KmerIter, PackedSeq, SeqDb};

use crate::e2e::{cli_config, WorkDir};
use crate::metrics::PER_LAYER;
use crate::spans::Recorder;
use crate::workloads::{Inputs, Workload};

/// What the layer pass produced.
pub struct Layers {
    /// One value per [`PER_LAYER`] row, in table order.
    pub values: Vec<f64>,
    /// Reads the composed run aligned.
    pub reads: usize,
    /// Reads whose best placement differs from `run_pipeline`'s.
    pub drifted_reads: usize,
    /// Self-checks that failed, described.
    pub failed_checks: Vec<String>,
}

/// Direct timings repeat their loop until it has run this long.
const MICRO_MIN: Duration = Duration::from_millis(150);
/// Reads sampled (evenly strided) for the probe and the kernel timings.
const PROBE_SAMPLE: usize = 20_000;
const WINDOW_SAMPLE: usize = 3_000;

/// Repeat `body` (which returns the units of work it did) until
/// [`MICRO_MIN`] has passed; nanoseconds per unit over all rounds.
fn ns_per_unit(mut body: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut units = 0u64;
    loop {
        units += body();
        let elapsed = started.elapsed();
        if elapsed >= MICRO_MIN {
            return elapsed.as_nanos() as f64 / units.max(1) as f64;
        }
    }
}

/// The step that samples at most `at_most` of `n` items evenly.
fn stride(n: usize, at_most: usize) -> usize {
    n.div_ceil(at_most).max(1)
}

/// What one rank's align closure hands back.
struct RankOut {
    spans: Vec<(&'static str, Instant, Instant)>,
    placements: Vec<(u32, Option<Placement>)>,
    alignments: Vec<(u32, u32, Alignment)>,
}

/// The composed run's products the checks and later timings need.
struct Composed {
    targets: SeqDb,
    queries: SeqDb,
    index: dht::SeedIndex,
    placements: Vec<Option<Placement>>,
    alignments: usize,
    index_phase_wall_s: f64,
    align_phase_wall_s: f64,
    seeds_per_read: f64,
}

/// The traced run: parse → pack → load → build → flags → align → SAM, the
/// CLI's own sequence, on one thread.
fn composed_run(rec: &mut Recorder, work: &WorkDir, cfg: &PipelineConfig) -> io::Result<Composed> {
    let (contig_records, read_records) = rec.time("seq.parse", |_| {
        io::Result::Ok((
            read_fasta(BufReader::new(File::open(work.path("contigs.fa"))?))?,
            read_fastq(BufReader::new(File::open(work.path("reads.fq"))?))?,
        ))
    })?;
    let (targets, queries) = rec.time("seq.pack", |_| {
        let mut t = SeqDbBuilder::new();
        for r in &contig_records {
            t.push(r.packed(), None);
        }
        let mut q = SeqDbBuilder::with_qualities();
        for r in &read_records {
            q.push(r.packed(), Some(&r.qual));
        }
        (t.finish(), q.finish())
    });

    let mut machine = Machine::new(cfg.machine_spec().machine_config());
    let p = cfg.ranks;
    let k = cfg.k;
    let mut store = rec.time("meraligner.load", |_| {
        TargetStore::load(&mut machine, &targets)
    });
    let index = rec.time("dht.build", |_| {
        let seqs = &store.seqs;
        build_seed_index(&mut machine, &cfg.build_config(), |r| {
            seqs.part(r).iter().enumerate().flat_map(move |(idx, t)| {
                KmerIter::new(t, k).map(move |(off, km)| SeedEntry {
                    kmer: km,
                    target: GlobalRef::new(r, idx),
                    offset: off,
                })
            })
        })
    });
    let index_phase_wall_s = machine
        .phases()
        .iter()
        .filter(|ph| ph.name.starts_with("index-"))
        .map(|ph| ph.wall_seconds)
        .sum();
    rec.time("meraligner.flags", |_| {
        store.compute_flags(
            &mut machine,
            &index,
            cfg.fragment_targets,
            cfg.min_fragment_seeds,
            cfg.buffer_size,
        )
    });

    let n_reads = queries.len();
    let read_parts: Vec<Vec<(u32, PackedSeq)>> = rec.time("meraligner.distribute", |_| {
        let mut order: Vec<u32> = (0..n_reads as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(cfg.permute_seed));
        (0..p)
            .map(|rank| {
                order[queries.rank_slice(rank, p)]
                    .iter()
                    .map(|&i| (i, queries.get(i as usize).seq))
                    .collect()
            })
            .collect()
    });
    let stride = cfg.seed_stride.max(1);
    let seeds_of = |len: usize| 2 * (len + 1).saturating_sub(k).div_ceil(stride);
    let seeds_per_read = (0..n_reads)
        .map(|i| seeds_of(queries.seq_len(i)) as f64)
        .sum::<f64>()
        / n_reads.max(1) as f64;

    let caches = CacheSet::new(machine.topo().nodes(), &cfg.cache);
    let per_rank = rec.time("meraligner.align_phase", |rec| {
        let per_rank = machine.phase("align", |ctx| {
            let actx = AlignContext {
                env: LookupEnv {
                    index: &index,
                    caches: Some(&caches),
                    max_hits: cfg.max_hits_per_seed,
                },
                store: &store,
                cfg,
            };
            let reads = &read_parts[ctx.rank];
            let mean_seeds = reads
                .iter()
                .map(|(_, r)| seeds_of(r.len()) as f64)
                .sum::<f64>()
                / reads.len().max(1) as f64;
            let chunk_reads = cfg.effective_lookup_chunk(mean_seeds).max(1);
            let mut scratch = ChunkScratch::default();
            let mut state = ChunkState::default();
            let mut out = RankOut {
                spans: Vec::new(),
                placements: Vec::with_capacity(reads.len()),
                alignments: Vec::new(),
            };
            for chunk in reads.chunks(chunk_reads) {
                let t0 = Instant::now();
                let from = ctx.batch_mark();
                issue_read_chunk(ctx, &actx, chunk, &mut scratch, &mut state);
                ctx.await_batches(from, ctx.batch_mark());
                let t1 = Instant::now();
                extend_read_chunk(ctx, &actx, chunk, &mut scratch, &mut state);
                let t2 = Instant::now();
                out.spans.push(("dht.issue", t0, t1));
                out.spans.push(("align.extend", t1, t2));
                for ((orig, _), outcome) in chunk.iter().zip(drain_chunk_outcomes(&mut state)) {
                    let best = outcome.best.as_ref().map(|(gref, aln)| Placement {
                        contig: store.orig_id(*gref) as u32,
                        t_beg: aln.t_beg as u32,
                        reverse: aln.strand == Strand::Reverse,
                        score: aln.score,
                    });
                    out.placements.push((*orig, best));
                    for (gref, aln) in outcome.all {
                        out.alignments
                            .push((*orig, store.orig_id(gref) as u32, aln));
                    }
                }
            }
            out
        });
        for (rank, out) in per_rank.iter().enumerate() {
            for &(name, start, end) in &out.spans {
                rec.add(name, start, end, rank as u32);
            }
        }
        per_rank
    });
    let align_phase_wall_s = machine.phases().last().map_or(0.0, |ph| ph.wall_seconds);

    let mut placements = vec![None; n_reads];
    let mut alignments = Vec::new();
    for out in per_rank {
        for (orig, best) in out.placements {
            placements[orig as usize] = best;
        }
        alignments.extend(out.alignments);
    }
    rec.time("align.sam", |_| {
        alignments.sort_by_key(|(r, c, a)| (*r, *c, a.t_beg));
        let contig_names: Vec<(String, usize)> = contig_records
            .iter()
            .map(|r| (r.id.clone(), r.seq.len()))
            .collect();
        let mut out = BufWriter::new(File::create(work.path("traced.sam"))?);
        out.write_all(sam_header(&contig_names).as_bytes())?;
        for (read, contig, aln) in &alignments {
            let record = AlignmentRecord::from_alignment(
                read_records[*read as usize].id.as_str(),
                contig_names[*contig as usize].0.as_str(),
                aln,
                queries.seq_len(*read as usize),
            );
            writeln!(out, "{}", record.to_sam_line())?;
        }
        out.flush()
    })?;

    Ok(Composed {
        targets,
        queries,
        index,
        placements,
        alignments: alignments.len(),
        index_phase_wall_s,
        align_phase_wall_s,
        seeds_per_read,
    })
}

/// `KmerIter` over every contig: nanoseconds per k-mer, and the k-mers.
fn time_kmers(targets: &SeqDb, k: usize) -> (f64, u64) {
    let contigs: Vec<PackedSeq> = (0..targets.len()).map(|i| targets.get(i).seq).collect();
    let mut kmers = 0u64;
    let ns = ns_per_unit(|| {
        kmers = 0;
        for c in &contigs {
            for (off, km) in KmerIter::new(c, k) {
                black_box((off, km));
                kmers += 1;
            }
        }
        kmers
    });
    (ns, kmers)
}

/// `FrozenPartition::get_many` over the reads' seeds, both strands, in
/// chunk-sized batches per owner partition: nanoseconds per seed.
fn time_probes(c: &Composed, cfg: &PipelineConfig) -> f64 {
    let chunk_reads = cfg.effective_lookup_chunk(c.seeds_per_read).max(1);
    let n = c.queries.len();
    let sample: Vec<PackedSeq> = (0..n)
        .step_by(stride(n, PROBE_SAMPLE))
        .map(|i| c.queries.get(i).seq)
        .collect();
    // Batches are collected before the clock starts: one Vec per (chunk,
    // owner partition).
    let mut batches: Vec<(usize, Vec<Kmer>)> = Vec::new();
    for chunk in sample.chunks(chunk_reads) {
        let mut by_owner: Vec<Vec<Kmer>> = vec![Vec::new(); c.index.ranks()];
        for read in chunk {
            for strand in [read, &read.reverse_complement()] {
                for (_, km) in KmerIter::new(strand, cfg.k) {
                    by_owner[c.index.owner_of(km)].push(km);
                }
            }
        }
        batches.extend(
            by_owner
                .into_iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty()),
        );
    }
    let mut scratch = ProbeScratch::default();
    let (mut hits, mut spans) = (Vec::new(), Vec::new());
    ns_per_unit(|| {
        let mut seeds = 0u64;
        for (owner, kmers) in &batches {
            hits.clear();
            spans.clear();
            c.index
                .partition(*owner)
                .get_many(kmers, &mut scratch, &mut hits, &mut spans);
            black_box((&hits, &spans));
            seeds += kmers.len() as u64;
        }
        seeds
    })
}

/// The extension kernel and its three parts on each sampled read against
/// its true window: ns/cell of `align_window`, ns/base of
/// `StripedProfile::new`, ns/cell of `StripedProfile::align`, ns/cell of
/// `sw_scalar` on the clipped rectangle.
fn time_kernels(inputs: &Inputs, cfg: &PipelineConfig) -> [f64; 4] {
    let contigs = &inputs.contigs.contigs;
    let pad = cfg.window_pad;
    let pairs: Vec<(Vec<u8>, Vec<u8>, usize)> = inputs
        .reads
        .iter()
        .step_by(stride(inputs.reads.len(), WINDOW_SAMPLE))
        .filter_map(|r| {
            let ci = contigs
                .partition_point(|c| c.genome_start <= r.truth.genome_start)
                .checked_sub(1)?;
            let c = &contigs[ci];
            let t0 = r.truth.genome_start - c.genome_start;
            if t0 + r.span > c.seq.len() {
                return None;
            }
            let beg = t0.saturating_sub(pad);
            let end = (t0 + r.span + pad).min(c.seq.len());
            let read = PackedSeq::from_ascii(&r.seq);
            let oriented = if r.truth.reverse {
                read.reverse_complement()
            } else {
                read
            };
            Some((
                dna_codes(&oriented),
                dna_codes(&c.seq.subseq(beg, end - beg)),
                beg,
            ))
        })
        .collect();
    if pairs.is_empty() {
        return [0.0; 4];
    }
    let ecfg = cfg.extend_config();
    let scoring = &cfg.scoring;
    let window = ns_per_unit(|| {
        pairs
            .iter()
            .map(|(q, w, off)| black_box(align_window(q, w, *off, scoring, &ecfg)).dp_cells)
            .sum()
    });
    let mut profiles = Vec::new();
    let profile = ns_per_unit(|| {
        profiles.clear();
        profiles.extend(
            pairs
                .iter()
                .map(|(q, _, _)| StripedProfile::new(q, scoring)),
        );
        pairs.iter().map(|(q, _, _)| q.len() as u64).sum()
    });
    let mut ends = Vec::new();
    let striped = ns_per_unit(|| {
        ends.clear();
        ends.extend(profiles.iter().zip(&pairs).map(|(p, (_, w, _))| p.align(w)));
        pairs
            .iter()
            .map(|(q, w, _)| (q.len() * w.len()) as u64)
            .sum()
    });
    let traceback = ns_per_unit(|| {
        ends.iter()
            .zip(&pairs)
            .map(|(hit, (q, w, _))| {
                black_box(sw_scalar(&q[..hit.q_end], &w[..hit.t_end], scoring));
                (hit.q_end * hit.t_end) as u64
            })
            .sum()
    });
    [window, profile, striped, traceback]
}

/// The simulator's own service pass, workload-independent: 96 ranks on 4
/// nodes each send 2 000 node batches round-robin to the other nodes and
/// await every eighth; host nanoseconds per batch.
fn time_service() -> f64 {
    const RANKS: usize = 96;
    const PPN: usize = 24;
    const BATCHES: u32 = 2_000;
    let spec = MachineSpec::new(RANKS, PPN).with_sequential(true);
    let mut machine = Machine::new(spec.machine_config());
    let started = Instant::now();
    machine.phase("service", |ctx| {
        let nodes = ctx.topo().nodes();
        let mut from = ctx.batch_mark();
        for i in 0..BATCHES {
            let node = (ctx.node() + 1 + i as usize % (nodes - 1)) % nodes;
            ctx.charge_lookup_node_batch(
                ctx.topo().lead_rank(node),
                64,
                64 * 24,
                CommTag::SeedLookup,
            );
            if i % 8 == 7 {
                ctx.await_batches(from, ctx.batch_mark());
                from = ctx.batch_mark();
            }
        }
    });
    started.elapsed().as_nanos() as f64 / (RANKS as f64 * f64::from(BATCHES))
}

fn timed_pipeline(cfg: &PipelineConfig, c: &Composed) -> (PipelineResult, f64) {
    let started = Instant::now();
    let result = run_pipeline(cfg, &c.targets, &c.queries);
    (result, started.elapsed().as_secs_f64())
}

/// `run_pipeline` wall with the machine trace on ÷ off, threads as the CLI
/// uses them: after one discarded run, off-on-on-off so that a drift over
/// the four runs cancels; the ratio of the two sums.
fn trace_overhead(c: &Composed, k: usize) -> f64 {
    let run = |trace: bool| {
        let mut cfg = cli_config(k);
        cfg.trace = trace;
        timed_pipeline(&cfg, c).1
    };
    run(false);
    let (off_a, on_a, on_b, off_b) = (run(false), run(true), run(true), run(false));
    (on_a + on_b) / (off_a + off_b)
}

/// Run the layer pass for one workload instance.
pub fn measure(
    rec: &mut Recorder,
    work: &WorkDir,
    workload: &Workload,
    inputs: &Inputs,
) -> io::Result<Layers> {
    let mut cfg = cli_config(workload.k);
    cfg.sequential = true;

    let c = rec.time("merbench.traced_run", |rec| composed_run(rec, work, &cfg))?;
    let (reference, reference_s) = rec.time("merbench.reference_run", |_| timed_pipeline(&cfg, &c));

    let mut failed_checks = Vec::new();
    let aligned = c.placements.iter().filter(|p| p.is_some()).count();
    if aligned != reference.aligned_reads {
        failed_checks.push(format!(
            "composed run aligned {aligned} reads, run_pipeline {}",
            reference.aligned_reads
        ));
    }
    let drifted_reads = c
        .placements
        .iter()
        .zip(&reference.placements)
        .filter(|(a, b)| a != b)
        .count();
    if drifted_reads != 0 {
        failed_checks.push(format!(
            "{drifted_reads} best placements differ from run_pipeline's"
        ));
    }
    if c.alignments != reference.alignments.len() {
        failed_checks.push(format!(
            "composed run reported {} alignments, run_pipeline {}",
            c.alignments,
            reference.alignments.len()
        ));
    }

    let (kmer_ns, kmers, probe_ns, kernels, service_ns) = rec.time("merbench.direct", |rec| {
        let (kmer_ns, kmers) = rec.time("seq.kmer", |_| time_kmers(&c.targets, cfg.k));
        let probe_ns = rec.time("dht.probe", |_| time_probes(&c, &cfg));
        let kernels = rec.time("align.kernels", |_| time_kernels(inputs, &cfg));
        let service_ns = rec.time("pgas.service", |_| time_service());
        (kmer_ns, kmers, probe_ns, kernels, service_ns)
    });
    let trace_ratio = rec.time("pgas.trace_pairs", |_| trace_overhead(&c, workload.k));
    if let Err(why) = rec.check() {
        failed_checks.push(format!("span recorder: {why}"));
    }

    let reads = c.queries.len();
    let bases = (c.targets.total_bases() + c.queries.total_bases()) as f64;
    let align = reference
        .align_phase()
        .expect("run_pipeline has an align phase");
    let agg = align.aggregate();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let registry = |key: &str| (pgas::metrics::lookup(key).expect("registry key").extract)(align);
    let phases_wall_s: f64 = reference.phases.iter().map(|ph| ph.wall_seconds).sum();
    let heap_bytes: usize = (0..c.index.ranks())
        .map(|r| c.index.partition(r).heap_bytes())
        .sum();
    let per_read = |s: f64| s * 1e6 / reads.max(1) as f64;
    let issue_s = rec.total_s("dht.issue");
    let extend_s = rec.total_s("align.extend");
    let build_s = rec.total_s("dht.build");
    // The part of the traced run `run_pipeline` also does: all but file
    // parsing, packing and SAM emit.
    let traced_s = rec.total_s("merbench.traced_run");
    let traced_pipeline_s =
        traced_s - rec.total_s("seq.parse") - rec.total_s("seq.pack") - rec.total_s("align.sam");

    let named: Vec<(&str, f64)> = vec![
        (
            "seq.parse_ns_per_base",
            rec.total_s("seq.parse") * 1e9 / bases,
        ),
        (
            "seq.pack_ns_per_base",
            rec.total_s("seq.pack") * 1e9 / bases,
        ),
        ("seq.bases", bases),
        ("seq.kmer_ns_per_kmer", kmer_ns),
        ("seq.kmers", kmers as f64),
        ("dht.build_s", build_s),
        (
            "dht.build_ns_per_entry",
            build_s * 1e9 / c.index.total_entries().max(1) as f64,
        ),
        ("dht.index_entries", c.index.total_entries() as f64),
        ("dht.index_distinct_seeds", c.index.distinct_seeds() as f64),
        ("dht.index_heap_mb", heap_bytes as f64 / (1 << 20) as f64),
        ("dht.issue_s", issue_s),
        ("dht.issue_us_per_read", per_read(issue_s)),
        ("dht.probe_ns_per_seed", probe_ns),
        ("dht.lookup_seeds", agg.node_batch_seeds as f64),
        ("dht.lookup_batches", agg.node_batches as f64),
        ("dht.fetch_refs", agg.target_batch_refs as f64),
        (
            "dht.seed_cache_hit_ratio",
            ratio(
                agg.seed_cache_hits,
                agg.seed_cache_hits + agg.seed_cache_misses,
            ),
        ),
        (
            "dht.target_cache_hit_ratio",
            ratio(
                agg.target_cache_hits,
                agg.target_cache_hits + agg.target_cache_misses,
            ),
        ),
        (
            "dht.exact_hash_skip_ratio",
            ratio(agg.exact_hash_skips, agg.exact_hash_checks),
        ),
        ("align.extend_s", extend_s),
        ("align.extend_us_per_read", per_read(extend_s)),
        ("align.window_ns_per_cell", kernels[0]),
        ("align.profile_ns_per_base", kernels[1]),
        ("align.striped_ns_per_cell", kernels[2]),
        ("align.traceback_ns_per_cell", kernels[3]),
        (
            "align.sam_ns_per_record",
            rec.total_s("align.sam") * 1e9 / c.alignments.max(1) as f64,
        ),
        (
            "align.alignments_per_read",
            ratio(reference.alignments_total, reference.aligned_reads as u64),
        ),
        ("align.exact_path_frac", reference.exact_path_fraction()),
        ("meraligner.load_s", rec.total_s("meraligner.load")),
        ("meraligner.index_phase_s", c.index_phase_wall_s),
        ("meraligner.flags_s", rec.total_s("meraligner.flags")),
        ("meraligner.align_phase_s", c.align_phase_wall_s),
        ("pgas.driver_s", reference_s - phases_wall_s),
        ("pgas.service_ns_per_batch", service_ns),
        ("pgas.trace_overhead_ratio", trace_ratio),
        ("pgas.sim_build_s", reference.construction_seconds()),
        ("pgas.sim_align_s", reference.align_seconds()),
        ("pgas.sim_comm_exposed_s", registry("comm_exposed_s")),
        ("pgas.sim_gate_stall_s", registry("gate_stall_s")),
        ("pgas.sim_handler_s", registry("handler_s")),
        ("pgas.msgs_remote", registry("msgs_remote")),
        ("pgas.bytes_remote", registry("bytes_remote")),
        ("pgas.max_queue_depth", registry("max_queue_depth")),
        ("merbench.traced_run_s", traced_s),
        (
            "merbench.traced_over_untraced",
            traced_pipeline_s / reference_s,
        ),
    ];
    assert!(
        named
            .iter()
            .map(|(n, _)| *n)
            .eq(PER_LAYER.iter().map(|m| m.name)),
        "layer values must follow the PER_LAYER table"
    );
    Ok(Layers {
        values: named.into_iter().map(|(_, v)| v).collect(),
        reads,
        drifted_reads,
        failed_checks,
    })
}
