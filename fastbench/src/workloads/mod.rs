//! The four workloads. Each one builds fixed inputs, runs a fixed op
//! sequence (identical on every run of the same length, whatever its
//! `--seed`), checks every op's output, and in a traced run replays each
//! op through the public entry point of every layer below it.

pub mod fleet;
pub mod objectives;
pub mod paper;
pub mod serve_eco;

use fastbuf_core::SolveStats;

use crate::trace::Tracer;

/// Seed of every workload's generated inputs. It is a constant, not the
/// run's `--seed`: a seeded net, suite or edit script changes the work in
/// an op, and runs with different seeds must do identical work to be
/// compared.
pub const INPUT_SEED: u64 = 1;

/// A per-layer metric produced by a traced run.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Metric name without the workload prefix, e.g. `core.solve_ms_p50`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The measured or counted value.
    pub value: f64,
}

impl Layer {
    /// A timing or ratio.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Layer { name, unit, value }
    }

    /// An exact work counter; the determinism guard compares these across
    /// runs of the same build.
    pub fn count(name: &'static str, value: u64) -> Self {
        Layer {
            name,
            unit: "count",
            value: value as f64,
        }
    }

    /// Whether this is an exact counter (compared across runs).
    pub fn is_exact(&self) -> bool {
        matches!(self.unit, "count" | "bytes")
    }
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Name on the command line and prefix of its per-layer metrics.
    const NAME: &'static str;
    /// Nominal ops per second: a run of `s` seconds executes
    /// `round(s × RATE)` ops, so every run with the same arguments does
    /// the same work however fast the machine is.
    const RATE: f64;
    /// How many times an untraced run repeats set-up; `setup_s` is the
    /// median.
    const SETUPS: usize;

    /// What set-up builds: the inputs and the system ready for its first
    /// op.
    type Setup;
    /// The output of one op, checked after its timer stops.
    type Out;

    /// Generates the inputs and brings the system to its first op,
    /// recording set-up spans into `tr`; this is what `setup_s` times.
    /// `ops` is the length of the op sequence that follows.
    fn setup(ops: usize, tr: &mut Tracer) -> Result<Self::Setup, String>;

    /// Takes the references the checks compare against (and any op input
    /// derived from a solve) from a set-up. Not part of `setup_s`.
    fn prepare(setup: Self::Setup, tr: &mut Tracer) -> Result<Self, String>;

    /// Executes op `i`, the timed unit of work. With a tracer, each call
    /// into the system is wrapped in a span.
    fn op(&mut self, i: usize, tr: Option<&mut Tracer>) -> Self::Out;

    /// Checks op `i`'s output against the reference taken at set-up.
    fn check(&mut self, i: usize, out: Self::Out) -> Result<(), String>;

    /// Traced runs only: replays set-up work through its layers.
    fn replay_setup(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Traced runs only: replays op `i`'s inputs through each lower
    /// layer's entry point, one span per call, checking each result.
    fn replay(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String>;

    /// Per-layer metrics from the recorded spans and counters.
    fn layers(&self, tr: &Tracer) -> Vec<Layer>;
}

/// Runs `f` in a span when a tracer is given.
pub fn maybe_span<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    op: usize,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => t.span(name, op as u64, |_| f()),
        None => f(),
    }
}

/// The work counters of a [`SolveStats`], without its wall-clock field,
/// for exact comparison.
pub fn counters(s: &SolveStats) -> [u64; 19] {
    [
        s.wire_ops,
        s.merge_ops,
        s.addbuffer_ops,
        s.scan_candidate_visits,
        s.hull_builds,
        s.hull_input_candidates,
        s.hull_walk_steps,
        s.betas_generated,
        s.convex_pruned,
        s.slew_pruned,
        s.nodes_recomputed,
        s.nodes_reused,
        s.slab_candidates_scanned,
        s.slab_candidates_pruned,
        s.slab_bytes_peak as u64,
        s.parallel_subtrees,
        s.max_list_len as u64,
        s.root_list_len as u64,
        s.arena_entries as u64,
    ]
}

/// Exact bit equality of two slacks, as an error naming `what`.
pub fn same_bits(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: got {got:e}, reference {want:e}"))
    }
}

/// Median of the spans named `name`, in ms (0 when there are none).
pub fn p50_ms(tr: &Tracer, name: &str) -> f64 {
    crate::measure::median(&tr.durations_ms(name)).unwrap_or(0.0)
}
