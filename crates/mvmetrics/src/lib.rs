//! Runtime telemetry for the Multiverse stack.
//!
//! This crate is the metrics counterpart of `mvtrace`: where traces
//! record *what happened in which order*, metrics report *how much of
//! it happened*. It holds data and its writers, no state and no
//! dependencies:
//!
//! * [`Sample`] — one exported series: a name, help text, labels and a
//!   counter or gauge value. The layers keep their own counters
//!   (`PatchStats`, `MvdStats`, the VM's `Stats`); the `multiverse`
//!   crate's `telemetry` module reads them into samples at export time,
//!   so an exported number is the source counter itself, never a copy
//!   that could lag it.
//! * exporters ([`export`]) that render samples as Prometheus text
//!   exposition or a versioned JSON document, built on the
//!   dependency-free writer helpers in [`json`].
//! * the variant-residency layer ([`residency`]): a per-switch flip
//!   timeline ([`residency::SwitchHistory`]) joined with profiler cycle
//!   attribution into per-(function, variant) resident-cycle rows and a
//!   switch-transition matrix, serialized as a versioned "switch
//!   history" file for profile-guided tooling (`mvc --variant-budget`).

pub mod export;
pub mod json;
pub mod residency;

use std::borrow::Cow;

/// One label pair attached to a sample, e.g. `("op", "flip")`. Values
/// borrow where they are static names and own where they are computed.
pub type Label = (&'static str, Cow<'static, str>);

/// One exported series.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Family name, e.g. `mv_rt_commits_total`.
    pub name: &'static str,
    /// One-line description, printed as the family's `# HELP`.
    pub help: &'static str,
    /// Label pairs, fixed when the sample is made; `None` when there
    /// are none, so an unlabeled sample is as cheap to make and drop as
    /// its name and value (see [`Sample::labels`]).
    labels: Option<Box<[Label]>>,
    /// The value.
    pub value: SampleValue,
}

impl Sample {
    /// An unlabeled counter sample.
    #[inline]
    pub fn counter(name: &'static str, help: &'static str, value: u64) -> Sample {
        Sample {
            name,
            help,
            labels: None,
            value: SampleValue::Counter(value),
        }
    }

    /// An unlabeled gauge sample.
    #[inline]
    pub fn gauge(name: &'static str, help: &'static str, value: f64) -> Sample {
        Sample {
            name,
            help,
            labels: None,
            value: SampleValue::Gauge(value),
        }
    }

    /// Sets the label pairs.
    #[inline]
    pub fn with_labels<const N: usize>(mut self, labels: [Label; N]) -> Sample {
        self.labels = Some(Box::new(labels));
        self
    }

    /// The label pairs, in the order they render.
    pub fn labels(&self) -> &[Label] {
        self.labels.as_deref().unwrap_or_default()
    }
}

/// The value part of a [`Sample`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SampleValue {
    /// A monotone count.
    Counter(u64),
    /// A value that can move both ways.
    Gauge(f64),
}

impl SampleValue {
    /// The metric type as both exporters spell it.
    pub fn kind(self) -> &'static str {
        match self {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
        }
    }
}
