//! The metric tables — names, units, direction, bounds — and the result
//! line. `BENCHMARK.json` states the same tables; `tests/smoke.rs` holds
//! the two together.

use std::fmt::Write;

/// One metric definition.
#[derive(Debug)]
pub struct Metric {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. An *operation* is one whole `gemm-ld`
/// process on a batch workload and one request on a serve workload;
/// every metric is defined on both (see README.md, "End-to-end metrics").
pub static END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("mld_per_s", "MLD/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("latency_p95_us", "us", "lower", 0.25),
    e2e("throughput_rps", "1/s", "higher", 0.25),
];

/// Single layers, timed from outside (`ldbench-layers`).
pub static PER_LAYER: [Metric; 39] = [
    layer("machine.popcnt_words_per_cycle", "words/cycle", "higher"),
    layer("machine.copy_gb_per_s", "GB/s", "higher"),
    layer("machine.spawn_s", "s", "lower"),
    layer("io.parse_ms_s", "s", "lower"),
    layer("io.parse_ms_mb_per_s", "MB/s", "higher"),
    layer("io.parse_txt_mb_per_s", "MB/s", "higher"),
    layer("bitmat.transpose_gb_per_s", "GB/s", "higher"),
    layer("io.r2_table_ns_per_pair", "ns", "lower"),
    layer("io.write_atomic_mb_per_s", "MB/s", "higher"),
    layer("cli.emit_s", "s", "lower"),
    layer("cli.emit_ns_per_pair", "ns", "lower"),
    layer("cli.emit_mb_per_s", "MB/s", "higher"),
    layer("kernels.pack_gb_per_s", "GB/s", "higher"),
    layer("kernels.syrk_words_per_cycle", "words/cycle", "higher"),
    layer("kernels.syrk_peak_share", "%", "higher"),
    layer("kernels.syrk_words", "count", "lower"),
    layer("kernels.gemm_words_per_cycle", "words/cycle", "higher"),
    layer("core.stat_rows_s", "s", "lower"),
    layer("core.stat_matrix_s", "s", "lower"),
    layer("core.triangle_s", "s", "lower"),
    layer("core.triangle_gb_per_s", "GB/s", "higher"),
    layer("parallel.efficiency_2t", "ratio", "higher"),
    layer("io.import_s", "s", "lower"),
    layer("io.import_mb_per_s", "MB/s", "higher"),
    layer("io.chunk_read_gb_per_s", "GB/s", "higher"),
    layer("core.outofcore_s", "s", "lower"),
    layer("core.outofcore_vs_memory", "ratio", "lower"),
    layer("core.outofcore_streamed_mb", "MB", "lower"),
    layer("serve.preload_s", "s", "lower"),
    layer("serve.registry_load_s", "s", "lower"),
    layer("serve.connect_health_us", "us", "lower"),
    layer("serve.persist_health_us", "us", "lower"),
    layer("serve.persist_pair_us", "us", "lower"),
    layer("serve.region_ns_per_pair", "ns", "lower"),
    layer("serve.region_mb_per_s", "MB/s", "higher"),
    layer("loadgen.late_p95_us", "us", "lower"),
    layer("process.wall_s", "s", "lower"),
    layer("process.cpu_s", "s", "lower"),
    layer("budget.explained_share", "ratio", "higher"),
];

/// The outcome of one run: counts plus one value per metric of a table.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (processes, requests).
    pub attempted: usize,
    /// Non-zero exits, non-`Ok` or timed-out responses, and outputs that
    /// failed the correctness check.
    pub failed: usize,
    /// `(name, value)` in table order.
    pub values: Vec<(&'static str, f64)>,
}

/// Why a run counts as failed — an error, or operations that failed —
/// or `None` if it did not.
pub fn failure(workload: &str, result: &std::io::Result<Outcome>) -> Option<String> {
    match result {
        Ok(o) if o.failed == 0 => None,
        Ok(o) => Some(format!("{workload}: {} operation(s) failed", o.failed)),
        Err(e) => Some(format!("{workload}: {e}")),
    }
}

impl Outcome {
    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(|| panic!("metric {name} was not recorded"), |(_, v)| *v)
    }

    /// Prints one line per metric of `table` and then, last, the result
    /// object. Panics if a metric of the table was not recorded: a
    /// missing name is a bug in the harness, not a measurement.
    pub fn print(&self, table: &[Metric]) {
        assert_eq!(self.values.len(), table.len(), "one value per metric");
        let mut json = String::new();
        for m in table {
            let v = self.get(m.name);
            assert!(v.is_finite(), "{} is not a number", m.name);
            println!("{:<34} {v:>16.6} {}", m.name, m.unit);
            let sep = if json.is_empty() { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{:<34} {share:>16.6} fraction", "failed_share");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
        );
    }
}
