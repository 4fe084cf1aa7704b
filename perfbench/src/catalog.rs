//! The benchmark's metrics and gated workloads, as `BENCHMARK.json` at
//! the repository root declares them. The file is compiled in, so a run
//! prints exactly the declared names and units and checks against the
//! declared bounds.

use serde_json::Value;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which are diagnostic).
    pub bound: Option<f64>,
}

/// One gated workload.
#[derive(Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: String,
    /// Why it exists, which layers it stresses and which it bypasses.
    pub why: String,
}

/// Everything `BENCHMARK.json` declares that a run needs.
#[derive(Debug)]
pub struct Catalog {
    /// Gated workloads, in declaration order.
    pub workloads: Vec<Workload>,
    /// Printed by every untraced run.
    pub end_to_end: Vec<Metric>,
    /// Printed by every traced run.
    pub per_layer: Vec<Metric>,
}

/// The compiled-in catalog.
pub fn get() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed"))
}

fn parse(text: &str) -> Result<Catalog, String> {
    let doc = serde_json::parse(text).map_err(|e| format!("{e:?}"))?;
    let list = |key: &str| -> Result<Vec<Value>, String> {
        doc.get(key)
            .and_then(Value::as_array)
            .cloned()
            .ok_or(format!("{key} is not a list"))
    };
    let text_of = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("{key} is not a string"))
    };
    let metric = |v: &Value| -> Result<Metric, String> {
        Ok(Metric {
            name: text_of(v, "name")?,
            unit: text_of(v, "unit")?,
            better: match text_of(v, "better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("better: {other:?}")),
            },
            bound: v.get("bound").and_then(Value::as_f64),
        })
    };
    Ok(Catalog {
        workloads: list("workloads")?
            .iter()
            .map(|w| {
                Ok(Workload {
                    name: text_of(w, "name")?,
                    why: text_of(w, "why")?,
                })
            })
            .collect::<Result<_, String>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn benchmark_json_names_units_and_bounds_are_well_formed() {
        let cat = get();
        let mut seen = BTreeSet::new();
        for m in cat.end_to_end.iter().chain(&cat.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(&m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &cat.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((2..=8).contains(&cat.workloads.len()));
        for w in &cat.workloads {
            assert!(valid_name(&w.name));
            assert!(crate::Variant::of(&w.name).is_some(), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
