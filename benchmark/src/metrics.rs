//! The metric tables: the single place that names every metric, its unit,
//! its direction and (end to end) its bound. `BENCHMARK.json` at the repo
//! root is [`manifest`] written out; a test keeps the two equal.

use crate::json::{obj, Json};
use crate::workloads;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the median by which the metric may worsen before it counts
    /// as a regression.
    pub bound: f64,
    /// Whether two runs on the same inputs must agree to the last digit.
    pub exact: bool,
}

pub const END_TO_END: [EndToEndMetric; 5] = [
    EndToEndMetric {
        name: "reads_per_s",
        unit: "reads/s",
        better: Better::Higher,
        bound: 0.07,
        exact: false,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
    EndToEndMetric {
        name: "sim_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.12,
        exact: true,
    },
    EndToEndMetric {
        name: "correct_frac",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.01,
        exact: true,
    },
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Names are `<crate>.<metric>`; `README.md` says what each is measured
/// around and which end-to-end metric it should move on which workload.
pub const PER_LAYER: &[LayerMetric] = &[
    lower("seq.parse_ns_per_base", "ns/base"),
    lower("seq.pack_ns_per_base", "ns/base"),
    lower("seq.bases", "count"),
    lower("seq.kmer_ns_per_kmer", "ns/kmer"),
    lower("seq.kmers", "count"),
    lower("dht.build_s", "s"),
    lower("dht.build_ns_per_entry", "ns/entry"),
    lower("dht.index_entries", "count"),
    lower("dht.index_distinct_seeds", "count"),
    lower("dht.index_heap_mb", "MB"),
    lower("dht.issue_s", "s"),
    lower("dht.issue_us_per_read", "us/read"),
    lower("dht.probe_ns_per_seed", "ns/seed"),
    lower("dht.lookup_seeds", "count"),
    lower("dht.lookup_batches", "count"),
    lower("dht.fetch_refs", "count"),
    higher("dht.seed_cache_hit_ratio", "ratio"),
    higher("dht.target_cache_hit_ratio", "ratio"),
    higher("dht.exact_hash_skip_ratio", "ratio"),
    lower("align.extend_s", "s"),
    lower("align.extend_us_per_read", "us/read"),
    lower("align.window_ns_per_cell", "ns/cell"),
    lower("align.profile_ns_per_base", "ns/base"),
    lower("align.striped_ns_per_cell", "ns/cell"),
    lower("align.traceback_ns_per_cell", "ns/cell"),
    lower("align.sam_ns_per_record", "ns/record"),
    lower("align.alignments_per_read", "count"),
    higher("align.exact_path_frac", "fraction"),
    lower("meraligner.load_s", "s"),
    lower("meraligner.index_phase_s", "s"),
    lower("meraligner.flags_s", "s"),
    lower("meraligner.align_phase_s", "s"),
    lower("pgas.driver_s", "s"),
    lower("pgas.service_ns_per_batch", "ns/batch"),
    lower("pgas.trace_overhead_ratio", "ratio"),
    lower("pgas.sim_build_s", "s"),
    lower("pgas.sim_align_s", "s"),
    lower("pgas.sim_comm_exposed_s", "s"),
    lower("pgas.sim_gate_stall_s", "s"),
    lower("pgas.sim_handler_s", "s"),
    lower("pgas.msgs_remote", "count"),
    lower("pgas.bytes_remote", "count"),
    lower("pgas.max_queue_depth", "count"),
    lower("merbench.traced_run_s", "s"),
    lower("merbench.traced_over_untraced", "ratio"),
];

/// How long one driver run measures (`run_seconds` of the manifest).
pub const RUN_SECONDS: i64 = 10;

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    obj([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::NAMES
                    .iter()
                    .map(|name| {
                        let w = workloads::by_name(name).expect("NAMES lists known workloads");
                        obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `{name: {"value", "unit"}}` for `(name, unit, value)` rows, in order.
pub fn metrics_json<'a>(rows: impl Iterator<Item = (&'a str, &'a str, f64)>) -> Json {
    obj(rows.map(|(name, unit, value)| {
        (
            name,
            obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    }))
}

/// The one-line result the driver reads: `metrics` pairs each table name
/// with its measured value, in table order.
pub fn result_line<'a>(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: impl Iterator<Item = (&'a str, &'a str, f64)>,
) -> String {
    obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics_json(metrics)),
    ])
    .line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest().pretty(),
            "BENCHMARK.json is out of date: write `run.sh --manifest` over it"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut names: Vec<&str> = Vec::new();
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for name in workloads::NAMES {
            let w = workloads::by_name(name).unwrap();
            assert!(
                name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{name}"
            );
            names.push(w.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        // The set-up metric is there, lower is better, and no bound is larger.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, [("setup_s", "s", 0.5)].into_iter());
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
