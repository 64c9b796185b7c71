//! Compares two `BENCH_simspeed.json` files and reports per-row throughput
//! deltas, flagging regressions beyond a threshold.
//!
//! ```text
//! cargo run --release --bin perf-diff -- OLD.json NEW.json [--max-regress PCT]
//! ```
//!
//! Rows are matched by `(bench, policy)`. A row regresses when its new
//! `mcycles_per_sec` or `minsts_per_sec` falls more than `PCT` percent
//! below the old value (default 20). Rows present in only one of the two
//! files are listed (`gone` / `new`) rather than dropped. The fig13 sweep
//! wall-clock times are compared the same way (lower is better there).
//! Any other section a report carries is ignored.
//! Exit status is nonzero when any row regresses, so CI can run this
//! advisorily or as a gate.
//!
//! The parser is purpose-built for the writer in `simspeed.rs` — a flat
//! scan for string/number fields inside `{...}` objects — not a general
//! JSON reader; the repo builds offline with no serialization dependency.

use std::fmt::Write as _;
use std::process::ExitCode;

/// One throughput row pulled out of a report.
#[derive(Debug, Clone)]
struct Row {
    bench: String,
    policy: String,
    mcyc: f64,
    minst: f64,
}

/// The fields of a report that the diff consumes.
#[derive(Debug, Default)]
struct Report {
    rows: Vec<Row>,
    serial_seconds: Option<f64>,
    parallel_seconds: Option<f64>,
}

/// Extracts `"key": "value"` from one JSON object body.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts `"key": <number>` from one JSON object body.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Splits the `"throughput": [...]` array into per-row object bodies.
fn throughput_objects(json: &str) -> Vec<&str> {
    let Some(start) = json.find("\"throughput\":") else {
        return Vec::new();
    };
    let rest = &json[start..];
    let Some(open) = rest.find('[') else {
        return Vec::new();
    };
    let Some(close) = rest.find(']') else {
        return Vec::new();
    };
    let body = &rest[open + 1..close];
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    obj_start = i;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    out.push(&body[obj_start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

fn parse_report(json: &str) -> Report {
    let rows = throughput_objects(json)
        .into_iter()
        .filter_map(|obj| {
            Some(Row {
                bench: str_field(obj, "bench")?,
                policy: str_field(obj, "policy")?,
                mcyc: num_field(obj, "mcycles_per_sec")?,
                minst: num_field(obj, "minsts_per_sec")?,
            })
        })
        .collect();
    let sweep = json.find("\"fig13_sweep\":").map(|i| &json[i..]);
    Report {
        rows,
        serial_seconds: sweep.and_then(|s| num_field(s, "serial_seconds")),
        parallel_seconds: sweep.and_then(|s| num_field(s, "parallel_seconds")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut max_regress = 20.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-regress" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--max-regress needs a numeric percentage");
                    return ExitCode::from(2);
                };
                max_regress = v;
            }
            _ => paths.push(a.clone()),
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: perf-diff OLD.json NEW.json [--max-regress PCT]");
        return ExitCode::from(2);
    }
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let old = parse_report(&read(&paths[0]));
    let new = parse_report(&read(&paths[1]));
    if old.rows.is_empty() || new.rows.is_empty() {
        eprintln!(
            "no throughput rows parsed (old: {}, new: {})",
            old.rows.len(),
            new.rows.len()
        );
        return ExitCode::from(2);
    }

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:8} {:16} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "bench", "policy", "old Mc/s", "new Mc/s", "delta", "old Mi/s", "new Mi/s", "delta"
    );
    let mut regressions = Vec::new();
    for o in &old.rows {
        let Some(n) = new
            .rows
            .iter()
            .find(|n| n.bench == o.bench && n.policy == o.policy)
        else {
            let _ = writeln!(
                table,
                "{:8} {:16} {:>10.3} {:>10} {:>8} {:>10.3} {:>10} {:>8}",
                o.bench, o.policy, o.mcyc, "-", "gone", o.minst, "-", "gone"
            );
            continue;
        };
        let cyc_pct = (n.mcyc / o.mcyc - 1.0) * 100.0;
        let inst_pct = (n.minst / o.minst - 1.0) * 100.0;
        let _ = writeln!(
            table,
            "{:8} {:16} {:>10.3} {:>10.3} {:>+7.1}% {:>10.3} {:>10.3} {:>+7.1}%",
            o.bench, o.policy, o.mcyc, n.mcyc, cyc_pct, o.minst, n.minst, inst_pct
        );
        if cyc_pct < -max_regress {
            regressions.push(format!("{} {}: {:+.1}% Mcyc/s", o.bench, o.policy, cyc_pct));
        }
        if inst_pct < -max_regress {
            regressions.push(format!(
                "{} {}: {:+.1}% Minst/s",
                o.bench, o.policy, inst_pct
            ));
        }
    }
    // Rows only the new report has — surfaced, not silently dropped.
    for n in &new.rows {
        if !old
            .rows
            .iter()
            .any(|o| o.bench == n.bench && o.policy == n.policy)
        {
            let _ = writeln!(
                table,
                "{:8} {:16} {:>10} {:>10.3} {:>8} {:>10} {:>10.3} {:>8}",
                n.bench, n.policy, "-", n.mcyc, "new", "-", n.minst, "new"
            );
        }
    }
    // Wall clock: lower is better, so a regression is time growing.
    for (name, ov, nv) in [
        ("fig13 serial", old.serial_seconds, new.serial_seconds),
        ("fig13 parallel", old.parallel_seconds, new.parallel_seconds),
    ] {
        if let (Some(ov), Some(nv)) = (ov, nv) {
            let pct = (nv / ov - 1.0) * 100.0;
            let _ = writeln!(table, "{name:25} {ov:>8.2}s {nv:>8.2}s {pct:>+7.1}%");
            if pct > max_regress {
                regressions.push(format!("{name}: {pct:+.1}% wall clock"));
            }
        }
    }
    print!("{table}");
    if regressions.is_empty() {
        println!("ok: no row regressed more than {max_regress}%");
        ExitCode::SUCCESS
    } else {
        println!("REGRESSIONS (threshold {max_regress}%):");
        for r in &regressions {
            println!("  {r}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_with_extra_sections_still_parse() {
        let json = r#"{
  "throughput": [
    {"bench": "FFT", "policy": "Conv", "cycles": 1, "insts": 2, "host_seconds": 0.5, "mcycles_per_sec": 2.000, "minsts_per_sec": 4.000}
  ],
  "fig13_sweep": {"jobs": 64, "serial_seconds": 23.2251, "parallel_seconds": null},
  "intra_run": {"serial_seconds": 0.4831, "parallel_seconds": 0.7079}
}"#;
        let r = parse_report(json);
        assert_eq!(r.rows.len(), 1);
        assert_eq!((r.rows[0].mcyc, r.rows[0].minst), (2.0, 4.0));
        assert_eq!(r.serial_seconds, Some(23.2251));
        assert_eq!(r.parallel_seconds, None);
    }
}
