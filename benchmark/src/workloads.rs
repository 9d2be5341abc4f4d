//! The four workloads and their seeded input generators.
//!
//! Every generator is fed from `--seed`; the program under test sees only
//! the `contigs.fa` / `reads.fq` written here. `README.md` records why each
//! workload exists and which layer it loads.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use genome::{
    simulate_genome, simulate_reads, ContigConfig, ContigSet, GenomeConfig, ReadConfig, ReadOrder,
    ReadTruth,
};
use seq::PackedSeq;

/// One workload: generator parameters (seeds are filled in per run) and
/// the seed length the CLI is driven with.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    genome: GenomeConfig,
    /// The reference is this many copies of the generated genome laid end
    /// to end, each with its own substitutions at `copy_divergence` per
    /// base (1 = the genome as generated).
    copies: usize,
    copy_divergence: f64,
    contigs: ContigConfig,
    reads: ReadConfig,
    /// Share of reads that get one benchmark-side 1–3 bp indel.
    indel_frac: f64,
    pub k: usize,
}

/// `--quick` divides every genome length (and with it the read count) by
/// this.
pub const QUICK_DIVISOR: usize = 20;

pub const NAMES: [&str; 4] = ["exact", "noisy", "repeat", "index"];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    let genome = |length, repeat_fraction, repeat_families, repeat_unit_len, repeat_divergence| {
        GenomeConfig {
            length,
            repeat_fraction,
            repeat_unit_len,
            repeat_families,
            repeat_divergence,
            seed: 0,
        }
    };
    let contigs = |mean_len, min_len, mean_gap| ContigConfig {
        mean_len,
        min_len,
        mean_gap,
        seed: 0,
    };
    let reads = |read_len, depth, error_rate, n_rate| ReadConfig {
        read_len,
        depth,
        error_rate,
        n_rate,
        rc_prob: 0.5,
        order: ReadOrder::Grouped,
        seed: 0,
    };
    Some(match name {
        "exact" => Workload {
            name: "exact",
            why: "error-free reads at depth 20: every read takes the exact-match path, so parse, pack, probe, fetch and SAM emit carry the run and the seed cache is reused",
            genome: genome(2_000_000, 0.0, 1, 400, 0.0),
            copies: 1,
            copy_divergence: 0.0,
            contigs: contigs(30_000, 2_000, 150),
            reads: reads(101, 20.0, 0.0, 0.0),
            indel_frac: 0.0,
            k: 51,
        },
        "noisy" => Workload {
            name: "noisy",
            why: "2.5 % substitutions plus indels at k=19: nearly every read misses the exact path with one candidate, so Smith-Waterman extension carries the run",
            genome: genome(2_000_000, 0.02, 5, 700, 0.03),
            copies: 1,
            copy_divergence: 0.0,
            contigs: contigs(12_000, 500, 40),
            reads: reads(100, 0.7, 0.025, 0.0005),
            indel_frac: 0.3,
            k: 19,
        },
        "repeat" => Workload {
            name: "repeat",
            why: "twelve 1 %-diverged copies of one segment and 180 bp reads: every seed has a hit list and every read a dozen candidates, so per-candidate work in extension carries the run",
            genome: genome(2_000_000 / 12, 0.0, 1, 400, 0.0),
            copies: 12,
            copy_divergence: 0.01,
            contigs: contigs(2_500, 300, 150),
            reads: reads(180, 0.063, 0.006, 0.0005),
            indel_frac: 0.0,
            k: 51,
        },
        "index" => Workload {
            name: "index",
            why: "6 Mbp reference and few reads: index build, freeze and the flag pass carry the run, caches stay cold and memory is largest",
            genome: genome(6_000_000, 0.06, 120, 300, 0.02),
            copies: 1,
            copy_divergence: 0.0,
            contigs: contigs(4_000, 300, 80),
            reads: reads(101, 0.1, 0.002, 0.0005),
            indel_frac: 0.0,
            k: 51,
        },
        _ => return None,
    })
}

/// One generated read: ASCII bases, where it came from, and how many
/// genome bases it spans (its length before any indel).
pub struct BenchRead {
    pub name: String,
    pub seq: Vec<u8>,
    pub truth: ReadTruth,
    pub span: usize,
}

/// A generated dataset.
pub struct Inputs {
    pub contigs: ContigSet,
    pub reads: Vec<BenchRead>,
}

/// SplitMix64: the stream behind the derived seeds and the indel mutator.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these `n`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.next() < (p * u64::MAX as f64) as u64
    }
}

/// `copies` copies of `base` end to end, each base of each copy replaced
/// by one of the other three with probability `divergence`.
pub fn diverged_copies(
    base: &[u8],
    copies: usize,
    divergence: f64,
    rng: &mut SplitMix64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(base.len() * copies);
    for _ in 0..copies {
        out.extend(
            base.iter()
                .map(|&b| match b"ACGT".iter().position(|&c| c == b) {
                    Some(code) if rng.chance(divergence) => b"ACGT"[(code + 1 + rng.below(3)) % 4],
                    _ => b,
                }),
        );
    }
    out
}

/// Give `seq` one insertion or one deletion of 1–3 bases at an interior
/// position. Insertion and deletion are equally likely.
pub fn mutate_indel(seq: &mut Vec<u8>, rng: &mut SplitMix64) {
    let len = 1 + rng.below(3);
    let insert = rng.next() & 1 == 0;
    // Keep ten bases either side so the indel is inside the alignment, not
    // absorbed by a soft clip.
    let margin = 10.min(seq.len() / 4);
    if seq.len() < 2 * margin + len + 1 {
        return;
    }
    let at = margin + rng.below(seq.len() - 2 * margin - len);
    if insert {
        let bases: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.below(4)]).collect();
        seq.splice(at..at, bases);
    } else {
        seq.drain(at..at + len);
    }
}

impl Workload {
    /// Generate the dataset for `seed`; `quick` shrinks the genome.
    pub fn generate(&self, seed: u64, quick: bool) -> Inputs {
        let mut seeds = SplitMix64(seed ^ fnv1a(self.name.as_bytes()));
        let mut gcfg = self.genome.clone();
        gcfg.seed = seeds.next();
        if quick {
            gcfg.length /= QUICK_DIVISOR;
        }
        let mut genome = simulate_genome(&gcfg);
        let mut copying = SplitMix64(seeds.next());
        if self.copies > 1 {
            let all = diverged_copies(
                &genome.to_ascii(),
                self.copies,
                self.copy_divergence,
                &mut copying,
            );
            genome = PackedSeq::from_ascii(&all);
        }
        let contigs = ContigSet::cut(
            &genome,
            &ContigConfig {
                seed: seeds.next(),
                ..self.contigs.clone()
            },
        );
        let sim = simulate_reads(
            &genome,
            &ReadConfig {
                seed: seeds.next(),
                ..self.reads.clone()
            },
        );
        let mut indels = SplitMix64(seeds.next());
        let reads = sim
            .into_iter()
            .map(|r| {
                let mut seq = r.seq.to_ascii();
                let span = seq.len();
                if indels.chance(self.indel_frac) {
                    mutate_indel(&mut seq, &mut indels);
                }
                BenchRead {
                    name: r.name,
                    seq,
                    truth: r.truth,
                    span,
                }
            })
            .collect();
        Inputs { contigs, reads }
    }
}

/// FNV-1a, so each workload draws a different stream from one `--seed`,
/// and the hash that compares two runs' SAM files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

impl Inputs {
    /// Write `contigs.fa` (60 columns) and `reads.fq` into `dir`, plus the
    /// empty `empty.fq` the set-up timing feeds the CLI.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        let mut fa = BufWriter::new(File::create(dir.join("contigs.fa"))?);
        for c in &self.contigs.contigs {
            writeln!(fa, ">{}", c.name)?;
            for line in c.seq.to_ascii().chunks(60) {
                fa.write_all(line)?;
                fa.write_all(b"\n")?;
            }
        }
        fa.flush()?;
        let mut fq = BufWriter::new(File::create(dir.join("reads.fq"))?);
        let qual = vec![b'I'; self.reads.iter().map(|r| r.seq.len()).max().unwrap_or(0)];
        for r in &self.reads {
            writeln!(fq, "@{}", r.name)?;
            fq.write_all(&r.seq)?;
            fq.write_all(b"\n+\n")?;
            fq.write_all(&qual[..r.seq.len()])?;
            fq.write_all(b"\n")?;
        }
        fq.flush()?;
        File::create(dir.join("empty.fq"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(name: &str, seed: u64, tag: &str) -> (Vec<u8>, Vec<u8>) {
        let dir = std::env::temp_dir().join(format!("merbench-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let w = by_name(name).unwrap();
        w.generate(seed, true).write(&dir).unwrap();
        let out = (
            std::fs::read(dir.join("contigs.fa")).unwrap(),
            std::fs::read(dir.join("reads.fq")).unwrap(),
        );
        std::fs::remove_dir_all(&dir).unwrap();
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        // `noisy` covers the genome, contig, read and indel generators,
        // `repeat` the copy mutator.
        for name in ["noisy", "repeat"] {
            let a = files(name, 42, "a");
            let b = files(name, 42, "b");
            let c = files(name, 43, "c");
            assert!(a == b, "{name}: same seed must write identical files");
            assert!(a.0 != c.0, "{name}: another seed must change contigs.fa");
            assert!(a.1 != c.1, "{name}: another seed must change reads.fq");
        }
    }

    #[test]
    fn copies_diverge_from_the_base_at_the_stated_rate() {
        let base: Vec<u8> = (0..20_000).map(|i| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
        let all = diverged_copies(&base, 3, 0.01, &mut SplitMix64(5));
        assert_eq!(all.len(), 3 * base.len());
        for copy in all.chunks(base.len()) {
            let diffs = copy.iter().zip(&base).filter(|(a, b)| a != b).count();
            assert!((120..=280).contains(&diffs), "{diffs} of 20000 differ");
            assert!(copy.iter().all(|c| b"ACGT".contains(c)));
        }
        assert_ne!(all[..base.len()], all[base.len()..2 * base.len()]);
        assert_eq!(all, diverged_copies(&base, 3, 0.01, &mut SplitMix64(5)));
    }

    #[test]
    fn workloads_draw_different_streams_from_one_seed() {
        let a = by_name("exact").unwrap().generate(1, true);
        let b = by_name("index").unwrap().generate(1, true);
        assert_ne!(
            a.contigs.contigs[0].seq.to_ascii()[..200],
            b.contigs.contigs[0].seq.to_ascii()[..200]
        );
    }

    #[test]
    fn every_name_resolves() {
        for name in NAMES {
            assert_eq!(by_name(name).unwrap().name, name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn indel_changes_length_by_at_most_three_and_is_deterministic() {
        let original: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        let (mut ins, mut del) = (0, 0);
        for s in 0..200u64 {
            let mut a = original.clone();
            let mut b = original.clone();
            mutate_indel(&mut a, &mut SplitMix64(s));
            mutate_indel(&mut b, &mut SplitMix64(s));
            assert_eq!(a, b, "same stream, same mutation");
            let change = a.len() as i64 - original.len() as i64;
            assert!((1..=3).contains(&change.abs()), "length change {change}");
            if change > 0 {
                ins += 1;
            } else {
                del += 1;
            }
            // The ten bases at either end are untouched.
            assert_eq!(a[..10], original[..10]);
            assert_eq!(a[a.len() - 10..], original[original.len() - 10..]);
            assert!(a.iter().all(|c| b"ACGT".contains(c)));
        }
        assert!(ins > 50 && del > 50, "both kinds occur: {ins} / {del}");
    }

    #[test]
    fn indels_leave_truth_untouched() {
        let w = by_name("noisy").unwrap();
        let mutated = w.generate(9, true);
        let plain = Workload {
            indel_frac: 0.0,
            ..by_name("noisy").unwrap()
        }
        .generate(9, true);
        assert_eq!(mutated.reads.len(), plain.reads.len());
        let mut changed = 0;
        for (m, p) in mutated.reads.iter().zip(&plain.reads) {
            assert_eq!(m.truth, p.truth);
            assert_eq!(m.span, p.seq.len());
            assert!(m.seq.len().abs_diff(p.seq.len()) <= 3);
            changed += usize::from(m.seq != p.seq);
        }
        let share = changed as f64 / plain.reads.len() as f64;
        assert!((0.2..0.4).contains(&share), "indel share {share}");
    }
}
