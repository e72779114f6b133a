//! Exporters: JSONL event dumps, Chrome `trace_event` (Perfetto) traces
//! keyed on the simulated clock, and the per-epoch CSV summary.
//!
//! All writers produce to any `io::Write`, so tests render into `Vec<u8>`
//! and the CLI streams straight to files.

use std::io::{self, Write};

use crate::event::{DramOutcome, Event, EventKind};
use crate::json::JsonObject;

/// Render one event as a single JSON object (one JSONL line, no newline).
pub fn event_to_json(event: &Event) -> String {
    let obj = JsonObject::new().str("kind", event.kind().name()).u64("cycle", event.cycle());
    match *event {
        Event::Demand { page, on_package, is_write, latency, queuing, .. } => obj
            .u64("page", page)
            .bool("on_package", on_package)
            .bool("write", is_write)
            .u64("latency", latency)
            .u64("queuing", queuing)
            .finish(),
        Event::SwapStart { hot_page, cold_slot, case, .. } => obj
            .u64("hot_page", hot_page)
            .u64("cold_slot", cold_slot as u64)
            .u64("case", case as u64)
            .finish(),
        Event::SwapStep { step, .. } => obj.u64("step", step as u64).finish(),
        Event::SwapComplete { sub_blocks, .. } => obj.u64("sub_blocks", sub_blocks).finish(),
        Event::EpochRollover {
            epoch,
            demand_on,
            demand_off,
            migration_lines,
            stall_cycles,
            swaps_completed,
            rejected,
            ..
        } => obj
            .u64("epoch", epoch)
            .u64("demand_on", demand_on)
            .u64("demand_off", demand_off)
            .u64("migration_lines", migration_lines)
            .u64("stall_cycles", stall_cycles)
            .u64("swaps_completed", swaps_completed)
            .bool("rejected", rejected)
            .finish(),
        Event::PfTransition { slot, bit, set, .. } => {
            obj.u64("slot", slot as u64).str("bit", bit.label()).bool("set", set).finish()
        }
        Event::DramAccess { region, channel, bank, outcome, background, is_write, .. } => obj
            .str("region", region.label())
            .u64("channel", channel as u64)
            .u64("bank", bank as u64)
            .str(
                "outcome",
                match outcome {
                    DramOutcome::RowHit => "hit",
                    DramOutcome::RowMiss => "miss",
                    DramOutcome::BankConflict => "conflict",
                },
            )
            .bool("background", background)
            .bool("is_write", is_write)
            .finish(),
        Event::FaultInjected { class, detail, .. } => {
            obj.str("class", class.label()).u64("detail", detail).finish()
        }
        Event::TransferRetried { sub, attempt, .. } => {
            obj.u64("sub", sub as u64).u64("attempt", attempt as u64).finish()
        }
        Event::SwapAborted { step, rollback, .. } => {
            obj.u64("step", step as u64).bool("rollback", rollback).finish()
        }
        Event::SlotQuarantined { slot, parked_page, .. } => {
            obj.u64("slot", slot as u64).u64("parked_page", parked_page).finish()
        }
    }
}

/// Write every event as one JSON object per line.
pub fn write_jsonl<W: Write>(mut w: W, events: &[Event]) -> io::Result<()> {
    for event in events {
        writeln!(w, "{}", event_to_json(event))?;
    }
    Ok(())
}

/// Write a Chrome `trace_event` JSON document.
///
/// Timestamps are the simulated clock mapped to microseconds: `cpu_mhz`
/// cycles make one microsecond, so a 3.2 GHz run maps cycle 3200 to
/// `ts = 1.0`. Open the result at `ui.perfetto.dev` (or
/// `chrome://tracing`). Lanes: tid 0 carries demand accesses as complete
/// (`X`) spans, tid 1 carries swaps as async (`b`/`e`) spans with step and
/// P/F instants, tid 2 carries epoch counter tracks.
pub fn write_chrome_trace<W: Write>(mut w: W, events: &[Event], cpu_mhz: u64) -> io::Result<()> {
    let scale = 1.0 / cpu_mhz.max(1) as f64;
    let ts = |cycle: u64| (cycle as f64) * scale;

    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    write!(
        w,
        "{}",
        JsonObject::new()
            .str("name", "process_name")
            .str("ph", "M")
            .u64("pid", 0)
            .raw("args", &JsonObject::new().str("name", "hmm-sim").finish())
            .finish()
    )?;
    for (tid, name) in [(0u64, "demand"), (1, "migration"), (2, "epochs")] {
        write!(
            w,
            ",{}",
            JsonObject::new()
                .str("name", "thread_name")
                .str("ph", "M")
                .u64("pid", 0)
                .u64("tid", tid)
                .raw("args", &JsonObject::new().str("name", name).finish())
                .finish()
        )?;
    }

    let mut swap_id: u64 = 0;
    for event in events {
        let record = match *event {
            Event::Demand { cycle, page, on_package, is_write, latency, queuing } => {
                let start = cycle.saturating_sub(latency);
                Some(
                    JsonObject::new()
                        .str("name", if on_package { "demand(on)" } else { "demand(off)" })
                        .str("cat", "demand")
                        .str("ph", "X")
                        .u64("pid", 0)
                        .u64("tid", 0)
                        .f64("ts", ts(start))
                        .f64("dur", ts(latency).max(ts(1)))
                        .raw(
                            "args",
                            &JsonObject::new()
                                .u64("page", page)
                                .bool("write", is_write)
                                .u64("queuing_cycles", queuing)
                                .finish(),
                        )
                        .finish(),
                )
            }
            Event::SwapStart { cycle, hot_page, cold_slot, case } => {
                swap_id += 1;
                Some(
                    JsonObject::new()
                        .str("name", "swap")
                        .str("cat", "migration")
                        .str("ph", "b")
                        .u64("id", swap_id)
                        .u64("pid", 0)
                        .u64("tid", 1)
                        .f64("ts", ts(cycle))
                        .raw(
                            "args",
                            &JsonObject::new()
                                .u64("hot_page", hot_page)
                                .u64("cold_slot", cold_slot as u64)
                                .u64("case", case as u64)
                                .finish(),
                        )
                        .finish(),
                )
            }
            Event::SwapComplete { cycle, sub_blocks } => Some(
                JsonObject::new()
                    .str("name", "swap")
                    .str("cat", "migration")
                    .str("ph", "e")
                    .u64("id", swap_id.max(1))
                    .u64("pid", 0)
                    .u64("tid", 1)
                    .f64("ts", ts(cycle))
                    .raw("args", &JsonObject::new().u64("sub_blocks", sub_blocks).finish())
                    .finish(),
            ),
            Event::SwapStep { cycle, step } => Some(
                JsonObject::new()
                    .str("name", "swap_step")
                    .str("cat", "migration")
                    .str("ph", "i")
                    .str("s", "t")
                    .u64("pid", 0)
                    .u64("tid", 1)
                    .f64("ts", ts(cycle))
                    .raw("args", &JsonObject::new().u64("step", step as u64).finish())
                    .finish(),
            ),
            Event::PfTransition { cycle, slot, bit, set } => Some(
                JsonObject::new()
                    .str("name", if set { "bit_set" } else { "bit_clear" })
                    .str("cat", "table")
                    .str("ph", "i")
                    .str("s", "t")
                    .u64("pid", 0)
                    .u64("tid", 1)
                    .f64("ts", ts(cycle))
                    .raw(
                        "args",
                        &JsonObject::new()
                            .u64("slot", slot as u64)
                            .str("bit", bit.label())
                            .finish(),
                    )
                    .finish(),
            ),
            Event::EpochRollover { cycle, demand_on, demand_off, migration_lines, .. } => Some(
                JsonObject::new()
                    .str("name", "epoch traffic (lines)")
                    .str("cat", "epochs")
                    .str("ph", "C")
                    .u64("pid", 0)
                    .u64("tid", 2)
                    .f64("ts", ts(cycle))
                    .raw(
                        "args",
                        &JsonObject::new()
                            .u64("demand_on", demand_on)
                            .u64("demand_off", demand_off)
                            .u64("migration", migration_lines)
                            .finish(),
                    )
                    .finish(),
            ),
            Event::TransferRetried { cycle, sub, attempt } => Some(
                JsonObject::new()
                    .str("name", "transfer_retry")
                    .str("cat", "migration")
                    .str("ph", "i")
                    .str("s", "t")
                    .u64("pid", 0)
                    .u64("tid", 1)
                    .f64("ts", ts(cycle))
                    .raw(
                        "args",
                        &JsonObject::new()
                            .u64("sub", sub as u64)
                            .u64("attempt", attempt as u64)
                            .finish(),
                    )
                    .finish(),
            ),
            Event::SwapAborted { cycle, step, rollback } => Some(
                JsonObject::new()
                    .str("name", "swap_abort")
                    .str("cat", "migration")
                    .str("ph", "i")
                    .str("s", "t")
                    .u64("pid", 0)
                    .u64("tid", 1)
                    .f64("ts", ts(cycle))
                    .raw(
                        "args",
                        &JsonObject::new()
                            .u64("step", step as u64)
                            .bool("rollback", rollback)
                            .finish(),
                    )
                    .finish(),
            ),
            Event::SlotQuarantined { cycle, slot, parked_page } => Some(
                JsonObject::new()
                    .str("name", "slot_quarantine")
                    .str("cat", "migration")
                    .str("ph", "i")
                    .str("s", "p")
                    .u64("pid", 0)
                    .u64("tid", 1)
                    .f64("ts", ts(cycle))
                    .raw(
                        "args",
                        &JsonObject::new()
                            .u64("slot", slot as u64)
                            .u64("parked_page", parked_page)
                            .finish(),
                    )
                    .finish(),
            ),
            // Per-access DRAM events are too dense for a useful timeline;
            // they are summarised by counters and the JSONL dump instead.
            // Individual fault injections likewise: the retry/abort/
            // quarantine instants above carry the recovery story.
            Event::DramAccess { .. } | Event::FaultInjected { .. } => None,
        };
        if let Some(record) = record {
            write!(w, ",{record}")?;
        }
    }
    write!(w, "]}}")?;
    Ok(())
}

/// One row of the per-epoch CSV, reconstructed from
/// [`Event::EpochRollover`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRow {
    /// Cycle the epoch ended.
    pub cycle: u64,
    /// Zero-based epoch index (the final partial epoch reuses the next
    /// index).
    pub epoch: u64,
    /// Demand lines serviced on-package during the epoch.
    pub demand_on: u64,
    /// Demand lines serviced off-package during the epoch.
    pub demand_off: u64,
    /// Migration (copy) lines moved during the epoch.
    pub migration_lines: u64,
    /// Demand-stall cycles charged during the epoch.
    pub stall_cycles: u64,
    /// Swaps completed during the epoch.
    pub swaps_completed: u64,
    /// Whether the trigger at this boundary was rejected.
    pub rejected: bool,
}

/// Extract the epoch rows from an event stream, in cycle order.
pub fn epoch_rows(events: &[Event]) -> Vec<EpochRow> {
    events
        .iter()
        .filter_map(|e| match *e {
            Event::EpochRollover {
                cycle,
                epoch,
                demand_on,
                demand_off,
                migration_lines,
                stall_cycles,
                swaps_completed,
                rejected,
            } => Some(EpochRow {
                cycle,
                epoch,
                demand_on,
                demand_off,
                migration_lines,
                stall_cycles,
                swaps_completed,
                rejected,
            }),
            _ => None,
        })
        .collect()
}

/// Write the per-epoch CSV summary. Columns sum to the run's flat
/// counters: `demand_on + demand_off` over all rows equals the
/// controller's total demand lines, `swaps_completed` sums to
/// `SwapStats::completed`, and so on.
pub fn write_epoch_csv<W: Write>(mut w: W, rows: &[EpochRow]) -> io::Result<()> {
    writeln!(
        w,
        "epoch,cycle,demand_on,demand_off,migration_lines,stall_cycles,swaps_completed,rejected"
    )?;
    for r in rows {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            r.epoch,
            r.cycle,
            r.demand_on,
            r.demand_off,
            r.migration_lines,
            r.stall_cycles,
            r.swaps_completed,
            u8::from(r.rejected)
        )?;
    }
    Ok(())
}

/// Count of events of a given kind in a slice — convenience for
/// reconciliation checks and tests.
pub fn count_kind(events: &[Event], kind: EventKind) -> u64 {
    events.iter().filter(|e| e.kind() == kind).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PfBit;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::SwapStart { cycle: 100, hot_page: 7, cold_slot: 2, case: 1 },
            Event::PfTransition { cycle: 100, slot: 2, bit: PfBit::P, set: true },
            Event::Demand {
                cycle: 150,
                page: 7,
                on_package: false,
                is_write: true,
                latency: 40,
                queuing: 5,
            },
            Event::SwapStep { cycle: 180, step: 0 },
            Event::SwapComplete { cycle: 220, sub_blocks: 32 },
            Event::EpochRollover {
                cycle: 300,
                epoch: 0,
                demand_on: 10,
                demand_off: 5,
                migration_lines: 64,
                stall_cycles: 12,
                swaps_completed: 1,
                rejected: false,
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
            assert!(line.contains("\"kind\""));
        }
    }

    #[test]
    fn chrome_trace_is_balanced_json_with_swap_pairs() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_events(), 3200).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with('{') && text.ends_with('}'));
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces");
        assert_eq!(text.matches("\"ph\":\"b\"").count(), 1);
        assert_eq!(text.matches("\"ph\":\"e\"").count(), 1);
        assert!(text.contains("\"traceEvents\""));
    }

    #[test]
    fn epoch_csv_round_trips_rollover_events() {
        let rows = epoch_rows(&sample_events());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].demand_on, 10);
        let mut buf = Vec::new();
        write_epoch_csv(&mut buf, &rows).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("epoch,"));
        assert_eq!(lines.next().unwrap(), "0,300,10,5,64,12,1,0");
    }
}
