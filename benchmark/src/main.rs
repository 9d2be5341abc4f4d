//! `merbench` — the host-clock benchmark. `run.sh` builds and starts it;
//! `README.md` documents the workloads, metrics and modes.

mod e2e;
mod json;
mod layers;
mod metrics;
mod proc;
mod sam;
mod spans;
mod stats;
mod workloads;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use e2e::{EndToEnd, Reps, WorkDir};
use json::{obj, Json};
use layers::Layers;
use metrics::{metrics_json, result_line, Better, END_TO_END, PER_LAYER};
use spans::Recorder;
use stats::Summary;

struct Options {
    cli: PathBuf,
    out_dir: PathBuf,
    seed: u64,
    workloads: Vec<&'static str>,
    reps: Reps,
    layers: bool,
    quick: bool,
    check_repeat: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--seed N] [--workload exact|noisy|repeat|index] [--reps R | --seconds S]\n\
         \x20             [--layers | --trace 0|1] [--quick] [--check-repeat] [--manifest]\n\
         see benchmark/README.md"
    );
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut o = Options {
        cli: PathBuf::new(),
        out_dir: PathBuf::new(),
        seed: 42,
        workloads: workloads::NAMES.to_vec(),
        reps: Reps::Count(5),
        layers: false,
        quick: false,
        check_repeat: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--cli" => o.cli = value().into(),
            "--out-dir" => o.out_dir = value().into(),
            "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
            "--workload" => {
                let name = value();
                match workloads::NAMES.iter().find(|n| **n == name) {
                    Some(known) => o.workloads = vec![known],
                    None => {
                        eprintln!("unknown workload {name}");
                        usage()
                    }
                }
            }
            "--reps" => match value().parse() {
                Ok(n) if n >= 1 => o.reps = Reps::Count(n),
                _ => usage(),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => o.reps = Reps::For(Duration::from_secs_f64(s)),
                _ => usage(),
            },
            "--layers" => o.layers = true,
            "--trace" => match value().as_str() {
                "0" => o.layers = false,
                "1" => o.layers = true,
                _ => usage(),
            },
            "--quick" => o.quick = true,
            "--check-repeat" => o.check_repeat = true,
            "--manifest" => {
                print!("{}", metrics::manifest().pretty());
                std::process::exit(0)
            }
            _ => usage(),
        }
    }
    if o.cli.as_os_str().is_empty() || o.out_dir.as_os_str().is_empty() {
        usage();
    }
    if o.quick {
        o.reps = Reps::Count(1);
    }
    o
}

/// One workload instance on disk, with what made it.
struct Instance {
    workload: workloads::Workload,
    inputs: workloads::Inputs,
    work: WorkDir,
}

fn instance(o: &Options, name: &str) -> io::Result<Instance> {
    let workload = workloads::by_name(name).expect("names are validated at parse time");
    let inputs = workload.generate(o.seed, o.quick);
    let dir = o
        .out_dir
        .join(format!("work-{name}-{}-{}", o.seed, std::process::id()));
    let work = WorkDir::create(dir, &inputs)?;
    Ok(Instance {
        workload,
        inputs,
        work,
    })
}

/// The five end-to-end values, in [`END_TO_END`] order.
fn end_to_end_values(r: &EndToEnd) -> [f64; 5] {
    [
        r.reads_per_s(),
        r.setup_s.median,
        r.peak_rss_mb.max,
        r.sim_s,
        r.check.correct_frac(),
    ]
}

fn summary_json(s: &Summary) -> Json {
    obj([
        ("n", Json::Int(s.n as i64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ])
}

fn end_to_end_rows(r: &EndToEnd) -> impl Iterator<Item = (&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .zip(end_to_end_values(r))
        .map(|(m, v)| (m.name, m.unit, v))
}

fn layer_rows(l: &Layers) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
    PER_LAYER
        .iter()
        .zip(&l.values)
        .map(|(m, v)| (m.name, m.unit, *v))
}

fn print_end_to_end(name: &str, r: &EndToEnd) {
    println!("== {name}: end to end, {} reads ==", r.reads);
    for (metric, unit, value) in end_to_end_rows(r) {
        println!("  {metric:<14} {value:>14.6} {unit}");
    }
    for (label, unit, s) in [
        ("wall_s", "s", &r.wall_s),
        ("setup_s", "s", &r.setup_s),
        ("peak_rss_mb", "MB", &r.peak_rss_mb),
    ] {
        println!(
            "  {label:<14} median {:.4} {unit}  q1 {:.4}  q3 {:.4}  min {:.4}  max {:.4}  n {}  spread {:.1}%",
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n,
            100.0 * s.spread()
        );
    }
    println!(
        "  reads_attempted {}  reads_failed {}  reads_invalid {}  sam_records {}  sam_repeats {}",
        r.check.attempted, r.check.failed, r.check.invalid, r.check.records, r.sam_repeats
    );
    for c in &r.complaints {
        println!("  ! {c}");
    }
}

fn end_to_end_json(r: &EndToEnd) -> Json {
    obj([
        ("reads", Json::Int(r.reads as i64)),
        ("metrics", metrics_json(end_to_end_rows(r))),
        (
            "timings",
            obj([
                ("wall_s", summary_json(&r.wall_s)),
                ("setup_s", summary_json(&r.setup_s)),
                ("peak_rss_mb", summary_json(&r.peak_rss_mb)),
            ]),
        ),
        ("reads_attempted", Json::Int(r.check.attempted as i64)),
        ("reads_failed", Json::Int(r.check.failed as i64)),
        ("reads_invalid", Json::Int(r.check.invalid as i64)),
        ("sam_records", Json::Int(r.check.records as i64)),
        ("correct", Json::Bool(r.correct())),
    ])
}

fn print_layers(name: &str, l: &Layers, rec: &Recorder) {
    println!("== {name}: per layer, {} reads ==", l.reads);
    let rows = rec.self_times();
    let root = rec.total_s("merbench.traced_run");
    println!(
        "  {:<26} {:>7} {:>10} {:>10} {:>7}",
        "span", "count", "total s", "self s", "% run"
    );
    for r in &rows {
        println!(
            "  {:<26} {:>7} {:>10.4} {:>10.4} {:>6.1}%",
            r.name,
            r.count,
            r.total_s,
            r.self_s,
            100.0 * r.total_s / root
        );
    }
    println!("  (% run: span total over merbench.traced_run; spans after merbench.reference_run are outside it)");
    for (metric, unit, value) in layer_rows(l) {
        println!("  {metric:<32} {value:>16.6} {unit}");
    }
    for c in &l.failed_checks {
        println!("  ! {c}");
    }
}

/// What identifies a results file's run.
fn results_doc(o: &Options, workloads: Vec<(String, Json)>) -> Json {
    obj([
        ("seed", Json::Int(o.seed as i64)),
        ("quick", Json::Bool(o.quick)),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// One end-to-end pass over the chosen workloads.
fn end_to_end_pass(o: &Options) -> io::Result<Vec<(&'static str, EndToEnd)>> {
    let mut pass = Vec::new();
    for name in &o.workloads {
        let inst = instance(o, name)?;
        let r = e2e::measure(&o.cli, &inst.work, &inst.workload, &inst.inputs, o.reps)?;
        print_end_to_end(name, &r);
        println!(
            "{}",
            result_line(
                r.correct(),
                r.check.attempted,
                r.check.invalid,
                end_to_end_rows(&r)
            )
        );
        pass.push((*name, r));
    }
    Ok(pass)
}

/// The layer pass for one workload; whether its self-checks held.
fn layer_pass(o: &Options, name: &'static str) -> io::Result<bool> {
    let inst = instance(o, name)?;
    let id = workloads::NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or(0);
    let mut rec = Recorder::new(id as u32);
    let l = layers::measure(&mut rec, &inst.work, &inst.workload, &inst.inputs)?;
    print_layers(name, &l, &rec);
    std::fs::write(
        o.out_dir.join(format!("trace_{name}.json")),
        rec.chrome_trace().line(),
    )?;
    let row = obj([
        ("reads", Json::Int(l.reads as i64)),
        ("per_layer", metrics_json(layer_rows(&l))),
        ("drifted_reads", Json::Int(l.drifted_reads as i64)),
        ("correct", Json::Bool(l.failed_checks.is_empty())),
    ]);
    std::fs::write(
        o.out_dir.join(format!("layers_{name}.json")),
        results_doc(o, vec![(name.to_string(), row)]).pretty(),
    )?;
    println!(
        "{}",
        result_line(
            l.failed_checks.is_empty(),
            l.reads,
            l.drifted_reads,
            layer_rows(&l)
        )
    );
    Ok(l.failed_checks.is_empty())
}

/// `--layers` over several workloads: one process each, because what the
/// traced run pays in page faults depends on what the heap held before it
/// (index build was ≈25 % cheaper as the second workload of a process).
fn layer_pass_per_process(o: &Options) -> io::Result<bool> {
    let mut ok = true;
    for name in &o.workloads {
        ok &= std::process::Command::new(std::env::current_exe()?)
            .args(std::env::args_os().skip(1))
            .args(["--workload", name])
            .status()?
            .success();
    }
    Ok(ok)
}

/// `--check-repeat`: a second end-to-end pass, compared with the first.
/// A timing may differ by its bound either way; a metric that is a pure
/// function of the inputs, and every count, must repeat exactly.
fn check_repeat(first: &[(&str, EndToEnd)], second: &[(&str, EndToEnd)]) -> bool {
    println!("== check-repeat: second pass against the first ==");
    println!(
        "  {:<8} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut steady = true;
    for ((name, a), (_, b)) in first.iter().zip(second) {
        for (m, (x, y)) in END_TO_END
            .iter()
            .zip(end_to_end_values(a).into_iter().zip(end_to_end_values(b)))
        {
            let diff = (y - x) / x;
            let worse = match m.better {
                Better::Higher => -diff,
                Better::Lower => diff,
            };
            let breach = if m.exact {
                x != y
            } else {
                diff.abs() > m.bound
            };
            steady &= !breach;
            println!(
                "  {name:<8} {:<14} {x:>14.6} {y:>14.6} {:>+8.2}% {:>6.1}%{}",
                m.name,
                100.0 * diff,
                100.0 * m.bound,
                match (breach, worse > 0.0) {
                    (true, _) => "  BREACH",
                    (false, true) => "  (worse)",
                    (false, false) => "",
                }
            );
        }
        let counts = |r: &EndToEnd| (r.reads, r.check);
        if counts(a) != counts(b) {
            steady = false;
            println!(
                "  {name:<8} counts differ: {:?} vs {:?}  BREACH",
                counts(a),
                counts(b)
            );
        }
    }
    steady
}

fn main() -> ExitCode {
    let o = parse_options();
    let run = || -> io::Result<bool> {
        std::fs::create_dir_all(&o.out_dir)?;
        if o.layers {
            return match o.workloads[..] {
                [one] => layer_pass(&o, one),
                _ => layer_pass_per_process(&o),
            };
        }
        let pass = end_to_end_pass(&o)?;
        let rows = pass
            .iter()
            .map(|(name, r)| (name.to_string(), end_to_end_json(r)))
            .collect();
        std::fs::write(
            o.out_dir.join("results.json"),
            results_doc(&o, rows).pretty(),
        )?;
        let mut ok = pass.iter().all(|(_, r)| r.correct());
        if o.check_repeat {
            ok &= check_repeat(&pass, &end_to_end_pass(&o)?);
        }
        Ok(ok)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("merbench: a check failed, see the lines marked ! or BREACH");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("merbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam::SamCheck;

    fn measured(wall_s: f64, sim_s: f64, correct: usize) -> EndToEnd {
        EndToEnd {
            reads: 1000,
            wall_s: Summary::of(&[wall_s]),
            setup_s: Summary::of(&[0.5]),
            peak_rss_mb: Summary::of(&[300.0]),
            sim_s,
            check: SamCheck {
                attempted: 990,
                correct,
                invalid: 0,
                failed: 990 - correct,
                records: 1200,
            },
            sam_repeats: true,
            complaints: Vec::new(),
        }
    }

    #[test]
    fn check_repeat_allows_timing_noise_and_nothing_else() {
        let first = [("exact", measured(2.0, 0.25, 980))];
        assert!(check_repeat(&first, &[("exact", measured(2.0, 0.25, 980))]));
        // 5 % slower is inside the 7 % bound, 10 % is not — in either direction.
        assert!(check_repeat(&first, &[("exact", measured(2.1, 0.25, 980))]));
        assert!(!check_repeat(
            &first,
            &[("exact", measured(2.2, 0.25, 980))]
        ));
        assert!(!check_repeat(
            &first,
            &[("exact", measured(1.8, 0.25, 980))]
        ));
        // The simulated clock and the counts must repeat to the last digit.
        assert!(!check_repeat(
            &first,
            &[("exact", measured(2.0, 0.250000001, 980))]
        ));
        assert!(!check_repeat(
            &first,
            &[("exact", measured(2.0, 0.25, 979))]
        ));
    }
}
