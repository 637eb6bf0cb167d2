//! Order statistics and the metric records the report prints.

/// Quantile `q` of `sorted` by the "exclusive" method of Python's
/// `statistics.quantiles`, so a printed spread matches the one the
/// benchmark's acceptance check computes from repeated runs.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample");
    let pos = q * (n + 1) as f64;
    let j = pos.floor() as usize;
    if j < 1 {
        return sorted[0];
    }
    if j >= n {
        return sorted[n - 1];
    }
    sorted[j - 1] + (pos - j as f64) * (sorted[j] - sorted[j - 1])
}

/// Sorts a copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// One reported number: its value plus the sample count and quartiles
/// it was taken from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub p25: f64,
    pub p75: f64,
}

impl Metric {
    /// Quantile `q` of `samples` (0.5 for the median).
    pub fn quantile_of(name: &str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
        let s = sorted(samples);
        Metric {
            name: name.into(),
            unit,
            value: quantile(&s, q),
            samples: s.len(),
            p25: quantile(&s, 0.25),
            p75: quantile(&s, 0.75),
        }
    }

    /// Median of `samples`.
    pub fn median_of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::quantile_of(name, unit, samples, 0.5)
    }

    /// A single value: a count, or a figure derived from whole-run totals.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: 1,
            p25: value,
            p75: value,
        }
    }

    /// Interquartile distance as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.value.abs()
        }
    }
}
