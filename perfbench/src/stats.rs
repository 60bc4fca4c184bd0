//! Order statistics and the hand-rolled JSON the benchmark prints.

/// Median of `values` (the mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile `p` in `[0, 100]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Percentiles tried, highest first, when choosing a tail percentile.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile in [`TAIL_PERCENTILES`] that has at least ten
/// samples beyond it, with its value; `None` when there are too few samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let beyond = values.len() as f64 * (1.0 - p / 100.0);
        if beyond >= 10.0 - 1e-9 {
            percentile(values, p).map(|v| (p, v))
        } else {
            None
        }
    })
}

/// One-line summary of a timing: median, tail percentile (or the sample
/// count's reason for having none) and the sample count.
pub fn describe(values: &[f64], unit: &str) -> String {
    let med = median(values).unwrap_or(f64::NAN);
    let range = format!(
        "range {:.6}..{:.6} {unit}",
        percentile(values, 0.0).unwrap_or(f64::NAN),
        percentile(values, 100.0).unwrap_or(f64::NAN)
    );
    match tail(values) {
        Some((p, v)) => format!(
            "median {med:.6} {unit}, p{p} {v:.6} {unit}, {range}, {} samples",
            values.len()
        ),
        None => format!(
            "median {med:.6} {unit}, no percentile has 10 samples beyond it, {range}, {} samples",
            values.len()
        ),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints; non-finite values (which
/// JSON cannot hold) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&few).map(|t| t.0), Some(75.0));
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&many).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.5), "1.5");
    }
}
