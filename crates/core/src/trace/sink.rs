//! Trace exporters: JSONL (one record per line, machine-round-trippable)
//! and Chrome-trace (`trace_event` JSON array, opens directly in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)).
//!
//! The vendored environment has no JSON serializer/parser crate, so both
//! directions are hand-rolled against a fixed schema: every JSONL line is
//! `{"ts":<u64>,"worker":<u32>,"event":"<name>",<event fields...>}` with a
//! stable field order, and [`read_jsonl`] is a strict scanner over exactly
//! that shape — malformed input is an error, never a silent skip.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use super::{TraceEvent, TraceRecord, CONTROL_WORKER};

/// A destination format for a drained trace.
pub trait TraceSink {
    /// Serialize `records` (already time-sorted by
    /// [`TraceBuffer::drain`](super::TraceBuffer::drain)) into `out`.
    fn export(&self, records: &[TraceRecord], out: &mut dyn Write) -> io::Result<()>;

    /// Conventional file extension for this format (no leading dot).
    fn extension(&self) -> &'static str;
}

/// One compact JSON object per line; the canonical on-disk format, parsed
/// back by [`read_jsonl`], read by the `tracecat` CLI and round-tripped by
/// `tests/trace_observability.rs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonlSink;

/// Chrome `trace_event` JSON: task spans become `B`/`E` duration events on
/// per-worker tracks, everything else becomes instant (`i`) events, and
/// gauge samples become counter (`C`) tracks.  Timestamps are converted
/// from nanoseconds to the microseconds Chrome expects (keeping
/// sub-microsecond ordering as fractional digits).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChromeTraceSink;

/// Append the fixed-order event payload fields (everything after the
/// `"event"` tag) to a JSONL line.
fn push_event_fields(line: &mut String, event: &TraceEvent) {
    use std::fmt::Write as _;
    match *event {
        TraceEvent::TaskStart { depth } => {
            let _ = write!(line, ",\"depth\":{depth}");
        }
        TraceEvent::TaskEnd {
            nodes,
            prunes,
            backtracks,
            spawns,
            batch_pushes,
            poll_checks,
            max_depth,
        } => {
            let _ = write!(
                line,
                ",\"nodes\":{nodes},\"prunes\":{prunes},\"backtracks\":{backtracks},\
                 \"spawns\":{spawns},\"batch_pushes\":{batch_pushes},\
                 \"poll_checks\":{poll_checks},\"max_depth\":{max_depth}"
            );
        }
        TraceEvent::StealRequest { victim } => {
            let _ = write!(line, ",\"victim\":{victim}");
        }
        TraceEvent::StealHit {
            victim,
            tasks,
            remote,
        } => {
            let _ = write!(
                line,
                ",\"victim\":{victim},\"tasks\":{tasks},\"remote\":{remote}"
            );
        }
        TraceEvent::StealMiss { victim } => {
            let _ = write!(line, ",\"victim\":{victim}");
        }
        TraceEvent::IncumbentUpdate { version } => {
            let _ = write!(line, ",\"version\":{version}");
        }
        TraceEvent::SpeculationCommit { nodes }
        | TraceEvent::SpeculationDiscard { nodes }
        | TraceEvent::SpeculationCancel { nodes } => {
            let _ = write!(line, ",\"nodes\":{nodes}");
        }
        TraceEvent::Poll { stack_depth } => {
            let _ = write!(line, ",\"stack_depth\":{stack_depth}");
        }
        TraceEvent::SearchQueued { search_id } | TraceEvent::SearchFinished { search_id } => {
            let _ = write!(line, ",\"search_id\":{search_id}");
        }
        TraceEvent::SearchGranted { search_id, workers }
        | TraceEvent::GrantGrown { search_id, workers }
        | TraceEvent::GrantShrunk { search_id, workers } => {
            let _ = write!(line, ",\"search_id\":{search_id},\"workers\":{workers}");
        }
        TraceEvent::WorkerRevoked {
            search_id,
            slot,
            latency_ns,
        } => {
            let _ = write!(
                line,
                ",\"search_id\":{search_id},\"slot\":{slot},\"latency_ns\":{latency_ns}"
            );
        }
        TraceEvent::RuntimeGauge {
            active,
            granted,
            queued,
            completed,
            peak,
        } => {
            let _ = write!(
                line,
                ",\"active\":{active},\"granted\":{granted},\"queued\":{queued},\
                 \"completed\":{completed},\"peak\":{peak}"
            );
        }
    }
}

/// Render one record as its canonical single-line JSON form.
pub fn jsonl_line(record: &TraceRecord) -> String {
    let mut line = format!(
        "{{\"ts\":{},\"worker\":{},\"event\":\"{}\"",
        record.ts,
        record.worker,
        record.event.name()
    );
    push_event_fields(&mut line, &record.event);
    line.push('}');
    line
}

impl TraceSink for JsonlSink {
    fn export(&self, records: &[TraceRecord], out: &mut dyn Write) -> io::Result<()> {
        for record in records {
            writeln!(out, "{}", jsonl_line(record))?;
        }
        Ok(())
    }

    fn extension(&self) -> &'static str {
        "jsonl"
    }
}

/// Chrome-trace timestamp: microseconds with the nanosecond remainder kept
/// as three fractional digits, so event ordering survives the unit change.
fn chrome_ts(ts: u64) -> String {
    format!("{}.{:03}", ts / 1000, ts % 1000)
}

impl TraceSink for ChromeTraceSink {
    fn export(&self, records: &[TraceRecord], out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "[")?;
        // Name the tracks once up front so Perfetto shows "worker N"
        // instead of bare tids.
        let mut workers: Vec<u32> = records.iter().map(|r| r.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        let mut first = true;
        let sep = |out: &mut dyn Write, first: &mut bool| -> io::Result<()> {
            if *first {
                *first = false;
            } else {
                writeln!(out, ",")?;
            }
            Ok(())
        };
        for worker in &workers {
            sep(out, &mut first)?;
            let label = if *worker == CONTROL_WORKER {
                "runtime".to_string()
            } else {
                format!("worker {worker}")
            };
            write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{worker},\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            )?;
        }
        for record in records {
            sep(out, &mut first)?;
            let ts = chrome_ts(record.ts);
            let tid = record.worker;
            match record.event {
                TraceEvent::TaskStart { depth } => write!(
                    out,
                    "{{\"name\":\"task\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\
                     \"args\":{{\"depth\":{depth}}}}}"
                )?,
                TraceEvent::TaskEnd { nodes, .. } => write!(
                    out,
                    "{{\"name\":\"task\",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\
                     \"args\":{{\"nodes\":{nodes}}}}}"
                )?,
                TraceEvent::RuntimeGauge {
                    active,
                    granted,
                    queued,
                    ..
                } => write!(
                    out,
                    "{{\"name\":\"runtime_gauges\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"tid\":{tid},\"args\":{{\"active\":{active},\"granted\":{granted},\
                     \"queued\":{queued}}}}}"
                )?,
                TraceEvent::Poll { stack_depth } => write!(
                    out,
                    "{{\"name\":\"stack_depth\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"tid\":{tid},\"args\":{{\"depth\":{stack_depth}}}}}"
                )?,
                ref event => {
                    let mut args = String::new();
                    push_event_fields(&mut args, event);
                    // `args` begins with a comma: turn the tail of a JSONL
                    // object into the body of an args object.
                    let args = args.trim_start_matches(',');
                    write!(
                        out,
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                         \"tid\":{tid},\"args\":{{{args}}}}}",
                        event.name()
                    )?;
                }
            }
        }
        writeln!(out)?;
        writeln!(out, "]")
    }

    fn extension(&self) -> &'static str {
        "json"
    }
}

/// Export `records` through `sink` into `dir/stem.<ext>`, creating `dir`
/// if needed.  Returns the written path.
pub fn write_trace_file(
    dir: &Path,
    stem: &str,
    sink: &dyn TraceSink,
    records: &[TraceRecord],
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.{}", sink.extension()));
    let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
    sink.export(records, &mut file)?;
    file.flush()?;
    Ok(path)
}

/// A JSONL parse failure: the 1-based line number and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Strict field scanner for one canonical JSONL object: returns the
/// `(key, raw value)` pairs in order.  Only the shapes [`jsonl_line`]
/// emits are accepted — flat objects whose values are unsigned integers,
/// booleans, or simple quoted strings.
fn scan_fields(line: &str) -> Result<Vec<(&str, &str)>, String> {
    let inner = line
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or_else(|| "expected a {...} object".to_string())?;
    let mut fields = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let key_start = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted key at '{rest}'"))?;
        let key_end = key_start
            .find('"')
            .ok_or_else(|| "unterminated key".to_string())?;
        let key = &key_start[..key_end];
        let after_key = key_start[key_end + 1..]
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after key '{key}'"))?;
        let (value, remainder) = if let Some(quoted) = after_key.strip_prefix('"') {
            let end = quoted
                .find('"')
                .ok_or_else(|| format!("unterminated string value for '{key}'"))?;
            (&quoted[..end], quoted.get(end + 1..).unwrap_or(""))
        } else {
            let end = after_key.find(',').unwrap_or(after_key.len());
            (&after_key[..end], &after_key[end..])
        };
        if value.is_empty() {
            return Err(format!("empty value for key '{key}'"));
        }
        fields.push((key, value));
        rest = match remainder.strip_prefix(',') {
            Some(next) => next,
            None if remainder.is_empty() => remainder,
            None => return Err(format!("expected ',' or end after value of '{key}'")),
        };
    }
    Ok(fields)
}

fn field<'a>(fields: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn num<T: std::str::FromStr>(fields: &[(&str, &str)], key: &str) -> Result<T, String> {
    field(fields, key)?
        .parse::<T>()
        .map_err(|_| format!("field '{key}' is not a valid number"))
}

fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let fields = scan_fields(line)?;
    let ts: u64 = num(&fields, "ts")?;
    let worker: u32 = num(&fields, "worker")?;
    let name = field(&fields, "event")?;
    let event = match name {
        "task_start" => TraceEvent::TaskStart {
            depth: num(&fields, "depth")?,
        },
        "task_end" => TraceEvent::TaskEnd {
            nodes: num(&fields, "nodes")?,
            prunes: num(&fields, "prunes")?,
            backtracks: num(&fields, "backtracks")?,
            spawns: num(&fields, "spawns")?,
            batch_pushes: num(&fields, "batch_pushes")?,
            poll_checks: num(&fields, "poll_checks")?,
            max_depth: num(&fields, "max_depth")?,
        },
        "steal_request" => TraceEvent::StealRequest {
            victim: num(&fields, "victim")?,
        },
        "steal_hit" => TraceEvent::StealHit {
            victim: num(&fields, "victim")?,
            tasks: num(&fields, "tasks")?,
            remote: match field(&fields, "remote")? {
                "true" => true,
                "false" => false,
                other => return Err(format!("field 'remote' is not a bool: '{other}'")),
            },
        },
        "steal_miss" => TraceEvent::StealMiss {
            victim: num(&fields, "victim")?,
        },
        "incumbent_update" => TraceEvent::IncumbentUpdate {
            version: num(&fields, "version")?,
        },
        "speculation_commit" => TraceEvent::SpeculationCommit {
            nodes: num(&fields, "nodes")?,
        },
        "speculation_discard" => TraceEvent::SpeculationDiscard {
            nodes: num(&fields, "nodes")?,
        },
        "speculation_cancel" => TraceEvent::SpeculationCancel {
            nodes: num(&fields, "nodes")?,
        },
        "poll" => TraceEvent::Poll {
            stack_depth: num(&fields, "stack_depth")?,
        },
        "search_queued" => TraceEvent::SearchQueued {
            search_id: num(&fields, "search_id")?,
        },
        "search_granted" => TraceEvent::SearchGranted {
            search_id: num(&fields, "search_id")?,
            workers: num(&fields, "workers")?,
        },
        "search_finished" => TraceEvent::SearchFinished {
            search_id: num(&fields, "search_id")?,
        },
        "grant_grown" => TraceEvent::GrantGrown {
            search_id: num(&fields, "search_id")?,
            workers: num(&fields, "workers")?,
        },
        "grant_shrunk" => TraceEvent::GrantShrunk {
            search_id: num(&fields, "search_id")?,
            workers: num(&fields, "workers")?,
        },
        "worker_revoked" => TraceEvent::WorkerRevoked {
            search_id: num(&fields, "search_id")?,
            slot: num(&fields, "slot")?,
            latency_ns: num(&fields, "latency_ns")?,
        },
        "runtime_gauge" => TraceEvent::RuntimeGauge {
            active: num(&fields, "active")?,
            granted: num(&fields, "granted")?,
            queued: num(&fields, "queued")?,
            completed: num(&fields, "completed")?,
            peak: num(&fields, "peak")?,
        },
        other => return Err(format!("unknown event '{other}'")),
    };
    Ok(TraceRecord { ts, worker, event })
}

/// Parse a JSONL trace back into records.  Blank lines are permitted;
/// anything else that is not a canonical record line is a [`ParseError`].
pub fn read_jsonl(text: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let mut records = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        records.push(parse_line(line).map_err(|message| ParseError {
            line: index + 1,
            message,
        })?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_of_each() -> Vec<TraceRecord> {
        let events = vec![
            TraceEvent::TaskStart { depth: 3 },
            TraceEvent::TaskEnd {
                nodes: 10,
                prunes: 2,
                backtracks: 4,
                spawns: 1,
                batch_pushes: 1,
                poll_checks: 2,
                max_depth: 7,
            },
            TraceEvent::StealRequest { victim: 2 },
            TraceEvent::StealHit {
                victim: 2,
                tasks: 4,
                remote: true,
            },
            TraceEvent::StealMiss {
                victim: CONTROL_WORKER,
            },
            TraceEvent::IncumbentUpdate { version: 9 },
            TraceEvent::SpeculationCommit { nodes: 100 },
            TraceEvent::SpeculationDiscard { nodes: 40 },
            TraceEvent::SpeculationCancel { nodes: 13 },
            TraceEvent::Poll { stack_depth: 5 },
            TraceEvent::SearchQueued { search_id: 1 },
            TraceEvent::SearchGranted {
                search_id: 1,
                workers: 4,
            },
            TraceEvent::SearchFinished { search_id: 1 },
            TraceEvent::GrantGrown {
                search_id: 1,
                workers: 6,
            },
            TraceEvent::GrantShrunk {
                search_id: 1,
                workers: 2,
            },
            TraceEvent::WorkerRevoked {
                search_id: 1,
                slot: 3,
                latency_ns: 12_500,
            },
            TraceEvent::RuntimeGauge {
                active: 1,
                granted: 4,
                queued: 0,
                completed: 3,
                peak: 2,
            },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                ts: i as u64 * 100,
                worker: (i % 3) as u32,
                event,
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let records = one_of_each();
        let mut out = Vec::new();
        JsonlSink.export(&records, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let parsed = read_jsonl(&text).expect("canonical output parses");
        assert_eq!(parsed, records);
    }

    #[test]
    fn malformed_lines_are_errors_with_line_numbers() {
        let good = jsonl_line(&TraceRecord {
            ts: 1,
            worker: 0,
            event: TraceEvent::Poll { stack_depth: 0 },
        });
        for bad in [
            "not json",
            "{\"ts\":1}",
            "{\"ts\":1,\"worker\":0,\"event\":\"nope\"}",
            "{\"ts\":-1,\"worker\":0,\"event\":\"poll\",\"stack_depth\":0}",
            "{\"ts\":1,\"worker\":0,\"event\":\"poll\",\"stack_depth\":}",
        ] {
            let text = format!("{good}\n{bad}\n");
            let err = read_jsonl(&text).expect_err("malformed line must fail");
            assert_eq!(err.line, 2, "error should point at the bad line: {bad}");
        }
    }

    #[test]
    fn chrome_export_emits_balanced_spans_and_metadata() {
        let records = one_of_each();
        let mut out = Vec::new();
        ChromeTraceSink.export(&records, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
        assert!(text.contains("\"ph\":\"M\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"thread_name\""));
        // Rough brace balance check — the file must be one JSON array.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn write_trace_file_creates_the_directory() {
        let dir = std::env::temp_dir().join("yewpar-trace-sink-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_trace_file(&dir, "t", &JsonlSink, &one_of_each()).unwrap();
        assert!(path.ends_with("t.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read_jsonl(&text).unwrap().len(), one_of_each().len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
