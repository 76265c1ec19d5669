//! Benchmark harness for the Slice reproduction: one runner per paper
//! table and figure (see the `src/bin` binaries). Per-layer host-cost
//! probes live in the repository's `benchmark/` package.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::{
    bench_config, obs_doc, phases_obs_json, print_series, repo_root, run_bulk, run_sfs_baseline,
    run_sfs_slice, run_untar_mfs, run_untar_slice, run_uproxy_phases, series_obs_json, write_json,
    BulkResult, EngineTotals, SfsResult,
};

/// A bench binary's command line: `--switch` flags and `--name VALUE`
/// options, looked up by name. Every binary shares one rule for a bad
/// line: an option the usage line does not name, or one whose value is
/// missing or does not parse, prints the usage line and exits with
/// status 2.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    argv: Vec<String>,
    usage: &'static str,
}

impl BenchArgs {
    /// Captures the process arguments; `usage` is the line printed for a
    /// bad command line, and the `--names` it mentions are the options
    /// the binary accepts: any other `--…` argument (a typo, an option
    /// from a stale script) is refused instead of silently running with
    /// defaults.
    pub fn from_env(usage: &'static str) -> Self {
        let args = BenchArgs {
            argv: std::env::args().skip(1).collect(),
            usage,
        };
        let named = |arg: &str| {
            usage
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .any(|word| word == arg)
        };
        if args.argv.iter().any(|a| a.starts_with("--") && !named(a)) {
            args.bad_usage();
        }
        args
    }

    /// Prints the usage line and exits with status 2: what every bad
    /// command line ends in, including options that contradict each
    /// other.
    pub fn bad_usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2)
    }

    /// True when the switch `name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    /// The parsed value following option `name`, if the option is given.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let i = self.argv.iter().position(|a| a == name)?;
        let value = self.argv.get(i + 1).and_then(|v| v.parse().ok());
        Some(value.unwrap_or_else(|| self.bad_usage()))
    }

    /// The number following option `name`, or `default`.
    pub fn num(&self, name: &str, default: u64) -> u64 {
        self.opt(name).unwrap_or(default)
    }

    /// The comma-separated numbers following option `name` (zeros
    /// dropped), or `default`.
    pub fn list(&self, name: &str, default: &[u64]) -> Vec<u64> {
        let Some(raw) = self.opt::<String>(name) else {
            return default.to_vec();
        };
        let parsed: Result<Vec<u64>, _> = raw.split(',').map(|v| v.trim().parse()).collect();
        let values = parsed.unwrap_or_else(|_| self.bad_usage());
        values.into_iter().filter(|&v| v > 0).collect()
    }

    /// `--threads T`: workers for independent cells (default: available
    /// parallelism).
    pub fn threads(&self) -> usize {
        self.opt("--threads")
            .unwrap_or_else(slice_sim::default_threads)
    }

    /// Ends a binary's stdout with its report — the slice-obs JSON
    /// document `json` — and, under `--json-out`, also saves it as
    /// `BENCH_<name>.json` at the repository root.
    pub fn emit(&self, name: &str, json: &str) {
        println!("{json}");
        if self.flag("--json-out") {
            write_json(name, json);
        }
    }
}
