//! The one `BENCH_*.json` record shape every `tables <bench>-json`
//! prints: `{"bench","sweep","hardware_threads","rows":[…],"summary":{…}}`.
//! Rows keep their bench's own stable keys; bench-wide figures go under
//! `summary` (`{}` when a bench has none).

use hwperm_serve::Json;

/// Renders one bench record, newline-terminated.
pub fn render(
    bench: &str,
    sweep: &str,
    rows: impl IntoIterator<Item = Json>,
    summary: Vec<(&str, Json)>,
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let record = Json::obj([
        ("bench", Json::from(bench)),
        ("sweep", sweep.into()),
        ("hardware_threads", cores.into()),
        ("rows", rows.into_iter().collect()),
        ("summary", Json::obj(summary)),
    ]);
    format!("{record}\n")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Checks one bench's rendered record against its table entry: it
    /// parses, carries the common top-level keys in order with `bench`
    /// as its name, every row has exactly `row_keys` (in order), row
    /// `i` renders each `(key, value)` of `rows[i]` as `value`, and the
    /// summary holds exactly the `summary` pairs, in order.
    pub(crate) fn check_record(
        json: &str,
        bench: &str,
        row_keys: &[&str],
        rows: &[&[(&str, &str)]],
        summary: &[(&str, &str)],
    ) {
        let doc = Json::parse(json.as_bytes()).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        let Json::Obj(fields) = &doc else {
            panic!("record is not an object:\n{json}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["bench", "sweep", "hardware_threads", "rows", "summary"],
            "{json}"
        );
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some(bench));
        assert!(doc
            .get("sweep")
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty()));
        assert!(doc.get("hardware_threads").and_then(Json::as_u64).is_some());
        let got_rows = doc.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(got_rows.len(), rows.len(), "{json}");
        for (row, want) in got_rows.iter().zip(rows) {
            let Json::Obj(fields) = row else {
                panic!("row is not an object: {row}")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, row_keys, "{row}");
            for (key, value) in *want {
                assert_eq!(row.get(key).unwrap().to_string(), *value, "{key} in {row}");
            }
        }
        let Some(Json::Obj(got_summary)) = doc.get("summary") else {
            panic!("summary is not an object:\n{json}")
        };
        let keys: Vec<&str> = got_summary.iter().map(|(k, _)| k.as_str()).collect();
        let want_keys: Vec<&str> = summary.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, want_keys, "{json}");
        for ((key, got), (_, want)) in got_summary.iter().zip(summary) {
            assert_eq!(got.to_string(), *want, "summary {key}");
        }
    }
}
