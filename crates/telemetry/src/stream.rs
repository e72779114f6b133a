//! Live frame streaming: a bounded, multi-subscriber frame hub.
//!
//! The serving layer wants to let clients *watch* a running simulation —
//! per-epoch progress frames over a chunked HTTP response — without ever
//! letting a slow (or absent) reader stall the simulation or grow memory
//! without bound. [`FrameHub`] is the piece that makes that safe:
//!
//! * The producer side ([`EpochFrameSink`], or `push` directly) renders
//!   each frame to one JSONL line and appends it to a bounded deque,
//!   evicting the oldest frame when full. Producing never blocks.
//! * Each subscriber holds only a `u64` cursor — the sequence number of
//!   the next frame it wants. Frames carry monotone sequence numbers, so
//!   a reader that fell behind the eviction horizon is told exactly how
//!   many frames it lost (an explicit `{"dropped":N}` frame) instead of
//!   silently skipping — same honesty rule as [`crate::ring::EventRing`].
//! * `close` marks the stream finished; drained subscribers then see
//!   [`Frame::Eof`] exactly once, which the HTTP layer turns into a clean
//!   end of the chunked body.
//!
//! The hub stores *rendered strings*, not [`Event`]s: rendering happens
//! once on the simulation thread (cheap — epoch rollovers are rare), and
//! N subscribers just clone the line under the lock.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::event::{Event, EventKind};
use crate::json::JsonObject;
use crate::sink::TelemetrySink;

/// What a subscriber gets for one `next` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// One rendered JSONL line (no trailing newline).
    Data(String),
    /// The subscriber lagged past the retention horizon; this many frames
    /// were evicted before it caught up. Delivered at most once per lag
    /// episode, then delivery resumes with live frames.
    Dropped(u64),
    /// The stream is closed and fully drained.
    Eof,
    /// Nothing available within the wait budget; poll again.
    Pending,
}

#[derive(Debug)]
struct HubState {
    /// Rendered frames; `frames[i]` has sequence number `start_seq + i`.
    frames: VecDeque<String>,
    /// Sequence number of `frames[0]`.
    start_seq: u64,
    /// Sequence number the *next* pushed frame will get.
    next_seq: u64,
    /// Total frames evicted over the hub's lifetime.
    evicted: u64,
    closed: bool,
}

/// Bounded multi-subscriber stream of rendered JSONL frames. See the
/// module docs for the contract.
#[derive(Debug)]
pub struct FrameHub {
    state: Mutex<HubState>,
    wake: Condvar,
    capacity: usize,
}

impl FrameHub {
    /// A hub retaining at most `capacity` undelivered frames.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(HubState {
                frames: VecDeque::new(),
                start_seq: 0,
                next_seq: 0,
                evicted: 0,
                closed: false,
            }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Append one rendered frame, evicting the oldest if at capacity.
    /// Pushes after `close` are ignored (the stream has already promised
    /// EOF to its subscribers).
    pub fn push(&self, line: String) {
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return;
        }
        if s.frames.len() == self.capacity {
            s.frames.pop_front();
            s.start_seq += 1;
            s.evicted += 1;
        }
        s.frames.push_back(line);
        s.next_seq += 1;
        drop(s);
        self.wake.notify_all();
    }

    /// Mark the stream finished. Idempotent.
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap();
        s.closed = true;
        drop(s);
        self.wake.notify_all();
    }

    /// Frames evicted before any subscriber read them, over the hub's
    /// lifetime (an upper bound on what any one subscriber lost).
    pub fn evicted(&self) -> u64 {
        self.state.lock().unwrap().evicted
    }

    /// Total frames ever pushed.
    pub fn pushed(&self) -> u64 {
        self.state.lock().unwrap().next_seq
    }

    /// Fetch the next frame for a subscriber at `*cursor`, waiting up to
    /// `wait` for one to arrive. Advances the cursor on `Data`/`Dropped`.
    /// A fresh subscriber starts at cursor 0 and (if the hub has not
    /// evicted anything yet) replays from the first frame.
    pub fn next(&self, cursor: &mut u64, wait: Duration) -> Frame {
        let mut s = self.state.lock().unwrap();
        loop {
            if *cursor < s.start_seq {
                let lost = s.start_seq - *cursor;
                *cursor = s.start_seq;
                return Frame::Dropped(lost);
            }
            if *cursor < s.next_seq {
                let line = s.frames[(*cursor - s.start_seq) as usize].clone();
                *cursor += 1;
                return Frame::Data(line);
            }
            if s.closed {
                return Frame::Eof;
            }
            let (guard, timed_out) = self.wake.wait_timeout(s, wait).unwrap();
            s = guard;
            if timed_out.timed_out() {
                // Re-check once under the lock, then hand control back to
                // the caller (which owns the socket-liveness decision).
                if *cursor < s.next_seq || *cursor < s.start_seq {
                    continue;
                }
                return if s.closed { Frame::Eof } else { Frame::Pending };
            }
        }
    }
}

/// Render one epoch-rollover event as the stream's JSONL frame. Field
/// order is part of the wire format (tests golden it).
pub fn epoch_frame(event: &Event) -> Option<String> {
    match *event {
        Event::EpochRollover {
            cycle,
            epoch,
            demand_on,
            demand_off,
            migration_lines,
            stall_cycles,
            swaps_completed,
            rejected,
        } => Some(
            JsonObject::new()
                .u64("epoch", epoch)
                .u64("cycle", cycle)
                .u64("demand_on", demand_on)
                .u64("demand_off", demand_off)
                .u64("migration_lines", migration_lines)
                .u64("stall_cycles", stall_cycles)
                .u64("swaps_completed", swaps_completed)
                .bool("rejected", rejected)
                .finish(),
        ),
        _ => None,
    }
}

/// A [`TelemetrySink`] that forwards epoch rollovers — and only those —
/// to a [`FrameHub`] as rendered frames. It is a pure observer: results,
/// counters and snapshots of a run are identical with or without it.
/// Cheap to clone; clones share the hub.
#[derive(Debug, Clone)]
pub struct EpochFrameSink {
    hub: std::sync::Arc<FrameHub>,
}

impl EpochFrameSink {
    /// A sink feeding `hub`.
    pub fn new(hub: std::sync::Arc<FrameHub>) -> Self {
        Self { hub }
    }
}

impl TelemetrySink for EpochFrameSink {
    #[inline]
    fn enabled(&self, kind: EventKind) -> bool {
        kind == EventKind::EpochRollover
    }

    fn emit(&self, event: Event) {
        if let Some(line) = epoch_frame(&event) {
            self.hub.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const NOW: Duration = Duration::from_millis(0);

    fn rollover(epoch: u64) -> Event {
        Event::EpochRollover {
            cycle: 1000 * (epoch + 1),
            epoch,
            demand_on: 10,
            demand_off: 4,
            migration_lines: 2,
            stall_cycles: 7,
            swaps_completed: 1,
            rejected: false,
        }
    }

    #[test]
    fn frames_replay_in_order_then_eof() {
        let hub = FrameHub::new(16);
        hub.push("a".into());
        hub.push("b".into());
        hub.close();
        let mut cur = 0;
        assert_eq!(hub.next(&mut cur, NOW), Frame::Data("a".into()));
        assert_eq!(hub.next(&mut cur, NOW), Frame::Data("b".into()));
        assert_eq!(hub.next(&mut cur, NOW), Frame::Eof);
        assert_eq!(hub.next(&mut cur, NOW), Frame::Eof, "EOF is sticky");
    }

    #[test]
    fn independent_cursors_see_the_same_stream() {
        let hub = FrameHub::new(16);
        hub.push("x".into());
        let (mut a, mut b) = (0, 0);
        assert_eq!(hub.next(&mut a, NOW), Frame::Data("x".into()));
        hub.push("y".into());
        assert_eq!(hub.next(&mut a, NOW), Frame::Data("y".into()));
        assert_eq!(hub.next(&mut b, NOW), Frame::Data("x".into()));
        assert_eq!(hub.next(&mut b, NOW), Frame::Data("y".into()));
    }

    #[test]
    fn lagging_cursor_gets_an_explicit_dropped_count() {
        let hub = FrameHub::new(2);
        for i in 0..5 {
            hub.push(format!("f{i}"));
        }
        // Capacity 2 → frames 0..3 evicted.
        let mut cur = 0;
        assert_eq!(hub.next(&mut cur, NOW), Frame::Dropped(3));
        assert_eq!(hub.next(&mut cur, NOW), Frame::Data("f3".into()));
        assert_eq!(hub.next(&mut cur, NOW), Frame::Data("f4".into()));
        assert_eq!(hub.next(&mut cur, NOW), Frame::Pending);
        assert_eq!(hub.evicted(), 3);
        assert_eq!(hub.pushed(), 5);
    }

    #[test]
    fn open_hub_reports_pending_not_eof() {
        let hub = FrameHub::new(4);
        let mut cur = 0;
        assert_eq!(hub.next(&mut cur, NOW), Frame::Pending);
        hub.close();
        assert_eq!(hub.next(&mut cur, NOW), Frame::Eof);
    }

    #[test]
    fn push_after_close_is_ignored() {
        let hub = FrameHub::new(4);
        hub.close();
        hub.push("late".into());
        let mut cur = 0;
        assert_eq!(hub.next(&mut cur, NOW), Frame::Eof);
        assert_eq!(hub.pushed(), 0);
    }

    #[test]
    fn waiting_subscriber_wakes_on_push() {
        let hub = Arc::new(FrameHub::new(4));
        let h2 = Arc::clone(&hub);
        let reader = std::thread::spawn(move || {
            let mut cur = 0;
            h2.next(&mut cur, Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(20));
        hub.push("live".into());
        assert_eq!(reader.join().unwrap(), Frame::Data("live".into()));
    }

    #[test]
    fn epoch_frame_golden_shape() {
        let line = epoch_frame(&rollover(3)).unwrap();
        assert_eq!(
            line,
            "{\"epoch\":3,\"cycle\":4000,\"demand_on\":10,\"demand_off\":4,\
             \"migration_lines\":2,\"stall_cycles\":7,\"swaps_completed\":1,\
             \"rejected\":false}"
        );
        assert!(epoch_frame(&Event::SwapStep { cycle: 1, step: 0 }).is_none());
    }

    #[test]
    fn sink_forwards_only_rollovers() {
        let hub = Arc::new(FrameHub::new(8));
        let sink = EpochFrameSink::new(Arc::clone(&hub));
        assert!(sink.enabled(EventKind::EpochRollover));
        assert!(!sink.enabled(EventKind::Demand));
        sink.emit(rollover(0));
        sink.emit(Event::SwapStep { cycle: 9, step: 1 });
        sink.emit(rollover(1));
        assert_eq!(hub.pushed(), 2);
        let mut cur = 0;
        let Frame::Data(first) = hub.next(&mut cur, NOW) else { panic!("want data") };
        assert!(first.starts_with("{\"epoch\":0,"));
    }
}
