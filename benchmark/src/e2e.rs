//! The end-to-end numbers: the real `meraligner` CLI as a child process,
//! one at a time, on generated files.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use meraligner::{run_pipeline, PipelineConfig};
use seq::seqdb::SeqDbBuilder;
use seq::{PackedSeq, SeqDb};

use crate::proc::{run_cli, RunSample, CLI_PPN, CLI_RANKS};
use crate::sam::{check_sam, SamCheck};
use crate::stats::Summary;
use crate::workloads::{fnv1a, Inputs, Workload};

/// How many timed repetitions a timing gets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reps {
    /// Exactly this many.
    Count(usize),
    /// As many as fit in this long, and never fewer than [`MIN_TIMED`].
    For(Duration),
}

/// A median of fewer runs than this is not worth reporting.
const MIN_TIMED: usize = 3;

/// Timed set-up runs (after one discarded warm-up).
const SETUP_REPS: usize = 5;

/// The CLI's fixed knobs as a library configuration: what `meraligner`
/// builds from `--k K --ranks 8 --ppn 4` and its defaults.
pub fn cli_config(k: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(CLI_RANKS, CLI_PPN, k);
    cfg.max_hits_per_seed = 128;
    cfg.min_score = 20;
    cfg.collect_alignments = true;
    cfg
}

/// The generated dataset as the two containers the CLI builds from the
/// files: contigs without qualities, FASTQ reads with them.
pub fn seqdbs_of(inputs: &Inputs) -> (SeqDb, SeqDb) {
    let mut targets = SeqDbBuilder::new();
    for c in &inputs.contigs.contigs {
        targets.push(c.seq.clone(), None);
    }
    let mut queries = SeqDbBuilder::with_qualities();
    let qual = vec![b'I'; inputs.reads.iter().map(|r| r.seq.len()).max().unwrap_or(0)];
    for r in &inputs.reads {
        queries.push(PackedSeq::from_ascii(&r.seq), Some(&qual[..r.seq.len()]));
    }
    (targets.finish(), queries.finish())
}

/// Everything one workload's end-to-end pass measured.
pub struct EndToEnd {
    pub reads: usize,
    /// Wall seconds of the timed full runs.
    pub wall_s: Summary,
    /// Wall seconds of the timed empty-reads runs.
    pub setup_s: Summary,
    /// Peak resident MB of the timed full runs.
    pub peak_rss_mb: Summary,
    /// Simulated seconds of the in-process sequential run.
    pub sim_s: f64,
    pub check: SamCheck,
    /// Every repetition wrote the same SAM bytes.
    pub sam_repeats: bool,
    pub complaints: Vec<String>,
}

impl EndToEnd {
    pub fn reads_per_s(&self) -> f64 {
        self.reads as f64 / self.wall_s.median
    }

    /// Outputs are correct: nothing invalid, every run identical.
    pub fn correct(&self) -> bool {
        self.check.invalid == 0 && self.sam_repeats
    }
}

/// The files of one workload instance.
pub struct WorkDir {
    pub dir: PathBuf,
}

impl WorkDir {
    pub fn create(dir: PathBuf, inputs: &Inputs) -> io::Result<WorkDir> {
        std::fs::create_dir_all(&dir)?;
        inputs.write(&dir)?;
        Ok(WorkDir { dir })
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is under the ignored build
        // directory and is overwritten by the next run.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn timed_runs(
    reps: Reps,
    mut run: impl FnMut() -> io::Result<RunSample>,
) -> io::Result<Vec<RunSample>> {
    run()?; // warm-up: the first run after other activity pays cold page cache
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let done = match reps {
            Reps::Count(n) => samples.len() >= n,
            Reps::For(d) => samples.len() >= MIN_TIMED && started.elapsed() >= d,
        };
        if done {
            return Ok(samples);
        }
        samples.push(run()?);
    }
}

/// Measure one workload end to end.
pub fn measure(
    cli: &Path,
    work: &WorkDir,
    workload: &Workload,
    inputs: &Inputs,
    reps: Reps,
) -> io::Result<EndToEnd> {
    let contigs = work.path("contigs.fa");
    let sam = work.path("out.sam");

    let setup_reps = match reps {
        Reps::Count(n) => n.min(SETUP_REPS),
        Reps::For(_) => SETUP_REPS,
    };
    let setup = timed_runs(Reps::Count(setup_reps), || {
        run_cli(cli, &contigs, &work.path("empty.fq"), &sam, workload.k)
    })?;

    let mut hashes = Vec::new();
    let full = timed_runs(reps, || {
        let sample = run_cli(cli, &contigs, &work.path("reads.fq"), &sam, workload.k)?;
        hashes.push(fnv1a(&std::fs::read(&sam)?));
        Ok(sample)
    })?;
    let sam_repeats = hashes.windows(2).all(|w| w[0] == w[1]);

    let mut complaints = Vec::new();
    let check = check_sam(&std::fs::read_to_string(&sam)?, inputs, &mut complaints);

    let mut cfg = cli_config(workload.k);
    cfg.sequential = true;
    cfg.collect_alignments = false;
    let (targets, queries) = seqdbs_of(inputs);
    let sim = run_pipeline(&cfg, &targets, &queries);

    let col = |f: fn(&RunSample) -> f64, runs: &[RunSample]| {
        Summary::of(&runs.iter().map(f).collect::<Vec<_>>())
    };
    Ok(EndToEnd {
        reads: inputs.reads.len(),
        wall_s: col(|s| s.wall_s, &full),
        setup_s: col(|s| s.wall_s, &setup),
        peak_rss_mb: col(|s| s.peak_rss_kb as f64 / 1024.0, &full),
        sim_s: sim.sim_seconds(),
        check,
        sam_repeats,
        complaints,
    })
}
