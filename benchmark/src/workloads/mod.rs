//! The four workloads.
//!
//! A workload is built from a seed (input generation only sees the seed;
//! the program under test only sees the generated inputs), runs one
//! *repetition* of fixed work at a time, and knows how to turn a traced
//! repetition into the per-layer metrics only it can supply.

use std::collections::BTreeMap;
use std::path::Path;

use uintah_core::grid::iv;
use uintah_core::{IntVec, LoadBalancer};

use crate::rep::Rep;
use crate::span::Tracer;

pub mod campaign_mixed;
pub mod functional_burgers;
pub mod model_scale;
pub mod traced_comm;

/// Problem sizes: the measured ones, or small ones for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes every reported number is measured at.
    Full,
    /// `--quick`: seconds for the whole suite; never reported as a result.
    Quick,
}

/// Metric values by ledger name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One workload, generated from a seed.
pub trait Workload {
    /// Fingerprint of the generated inputs: equal seeds give equal
    /// fingerprints, different seeds different ones.
    fn inputs_digest(&self) -> u64;

    /// Run the workload's fixed work once, from scratch: every
    /// `Simulation` and `Service` is rebuilt.
    fn repetition(&self, rep: &mut Rep<'_>);

    /// Traced run only, once, outside the repetitions: measurements too
    /// slow for the timed loop. Adds per-layer metrics to `out`.
    fn traced_extras(&self, _tr: &mut Tracer, _out: &mut Metrics) {}
}

/// Build the workload called `name` for `seed`; `scratch` is a directory
/// of the run's own for stores and checkpoints.
pub fn generate(name: &str, seed: u64, size: Size, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "model-scale" => Box::new(model_scale::ModelScale::generate(seed, size)),
        "functional-burgers" => {
            Box::new(functional_burgers::FunctionalBurgers::generate(seed, size))
        }
        "traced-comm" => Box::new(traced_comm::TracedComm::generate(seed, size)),
        "campaign-mixed" => Box::new(campaign_mixed::CampaignMixed::generate(seed, size, scratch)),
        _ => return None,
    })
}

/// The four patch-to-rank policies, in the order the generators index.
pub const BALANCERS: [LoadBalancer; 4] = [
    LoadBalancer::Block,
    LoadBalancer::RoundRobin,
    LoadBalancer::Morton,
    LoadBalancer::Hilbert,
];

/// The 1024-patch layouts of the beyond-the-paper extension problem
/// (16x16x64-cell patches), and their 64-patch `--quick` stand-ins.
pub fn extension_layouts(size: Size) -> [IntVec; 3] {
    match size {
        Size::Full => [iv(16, 16, 4), iv(16, 8, 8), iv(8, 16, 8)],
        Size::Quick => [iv(4, 4, 4), iv(4, 2, 8), iv(2, 4, 8)],
    }
}

/// Patch extent of the extension problem.
pub const EXTENSION_PATCH: IntVec = iv(16, 16, 64);

/// Patch layout of every Table III problem.
pub const PAPER_LAYOUT: IntVec = iv(8, 8, 2);
