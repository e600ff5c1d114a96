//! The streaming trace pipeline's one sink: fixed-size event batches
//! handed to a flush closure.
//!
//! Phase 1 (the traced machine run) and phase 2 (the replay engine) used
//! to be strictly sequential, with the full event `Vec` materialized in
//! between. This module lets them overlap. A [`BatchSink`] tees every
//! event into a materialized [`Trace`] and hands each full batch to its
//! flush closure, built by one of two constructors:
//!
//! * [`inline_sink`] replays each batch on the tracing thread itself —
//!   no second thread, the right shape on a one-CPU host;
//! * [`channel_sink`] sends each batch over a bounded
//!   [`std::sync::mpsc::sync_channel`] to a [`BatchStream`] on the
//!   consumer thread. Drained buffers come back on a second channel, so
//!   the steady state allocates nothing. Batching keeps the channel out
//!   of the hot path: at the default batch size the producer touches it
//!   once per few thousand events.
//!
//! Telemetry (all under `pipeline.*`): `pipeline.batches` and
//! `pipeline.events.streamed` count traffic, the
//! `pipeline.channel.depth` histogram samples queue depth at each send
//! (this batch included; always 0 inline), and
//! `pipeline.backpressure.producer_waits` /
//! `pipeline.backpressure.consumer_waits` count blocking waits on either
//! side of the channel (counted as 0 inline, where neither side waits).

use crate::event::{Event, EventSink, Trace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError, TrySendError};
use std::sync::Arc;

/// `pipeline.channel.depth` histogram buckets, in batches.
const DEPTH_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

/// An [`EventSink`] that hands fixed-size event batches to a flush
/// closure, teeing a materialized [`Trace`] copy for consumers that
/// still need the full event list afterwards (e.g. the static-elision
/// soundness check and the replay service's cache).
#[derive(Debug)]
pub struct BatchSink<F: FnMut(&mut Vec<Event>)> {
    batch: Vec<Event>,
    capacity: usize,
    tee: Trace,
    flush: F,
}

impl<F: FnMut(&mut Vec<Event>)> BatchSink<F> {
    /// A sink handing batches of `capacity` events to `flush`. The
    /// closure may swap the batch for a spare buffer; whatever buffer it
    /// leaves behind is cleared and refilled.
    fn new(capacity: usize, flush: F) -> Self {
        assert!(capacity > 0, "stream batch capacity must be nonzero");
        BatchSink {
            batch: Vec::with_capacity(capacity),
            capacity,
            tee: Trace::new(),
            flush,
        }
    }

    fn flush(&mut self) {
        databp_telemetry::count!("pipeline.batches");
        databp_telemetry::count!("pipeline.events.streamed", self.batch.len() as u64);
        (self.flush)(&mut self.batch);
        self.batch.clear();
    }

    /// Flushes the tail batch and returns the teed trace, without its
    /// growth slack. The flush closure drops here, which ends a
    /// [`channel_sink`]'s stream.
    pub fn finish(mut self) -> Trace {
        if !self.batch.is_empty() {
            self.flush();
        }
        self.tee.shrink_to_fit();
        self.tee
    }
}

impl<F: FnMut(&mut Vec<Event>)> EventSink for BatchSink<F> {
    fn emit(&mut self, ev: Event) {
        self.tee.push(ev);
        self.batch.push(ev);
        if self.batch.len() == self.capacity {
            self.flush();
        }
    }
}

/// A sink that calls `feed` with each full batch of `capacity` events,
/// on the tracing thread.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn inline_sink(
    capacity: usize,
    mut feed: impl FnMut(&[Event]),
) -> BatchSink<impl FnMut(&mut Vec<Event>)> {
    // Neither side of a channel exists, so neither ever waits; count the
    // zeros so every streaming snapshot has the same schema.
    databp_telemetry::count!("pipeline.backpressure.producer_waits", 0);
    databp_telemetry::count!("pipeline.backpressure.consumer_waits", 0);
    BatchSink::new(capacity, move |batch: &mut Vec<Event>| {
        databp_telemetry::observe!("pipeline.channel.depth", DEPTH_BUCKETS, 0);
        feed(batch);
    })
}

/// A sink whose batches of `capacity` events cross a bounded channel
/// holding at most `depth` batches to the returned [`BatchStream`]. The
/// producer blocks while the channel is full (backpressure); dropping
/// or [finishing](BatchSink::finish) the sink ends the stream.
///
/// A flush panics if the [`BatchStream`] has been dropped: the stream
/// has lost its consumer and the trace would silently vanish.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn channel_sink(
    capacity: usize,
    depth: usize,
) -> (BatchSink<impl FnMut(&mut Vec<Event>)>, BatchStream) {
    let (tx, rx) = mpsc::sync_channel::<Vec<Event>>(depth);
    let (spares, spare_rx) = mpsc::channel::<Vec<Event>>();
    // Batches sent and not yet received; a statistic only.
    let queued = Arc::new(AtomicUsize::new(0));
    let stream = BatchStream {
        rx,
        spares,
        queued: Arc::clone(&queued),
    };
    let sink = BatchSink::new(capacity, move |batch: &mut Vec<Event>| {
        let spare = spare_rx
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(capacity));
        let full = std::mem::replace(batch, spare);
        let depth = queued.fetch_add(1, Ordering::Relaxed) + 1;
        databp_telemetry::observe!("pipeline.channel.depth", DEPTH_BUCKETS, depth as u64);
        let full = match tx.try_send(full) {
            Ok(()) => return,
            Err(TrySendError::Full(full)) => full,
            Err(TrySendError::Disconnected(_)) => panic!("streaming consumer dropped mid-trace"),
        };
        databp_telemetry::count!("pipeline.backpressure.producer_waits");
        if tx.send(full).is_err() {
            panic!("streaming consumer dropped mid-trace");
        }
    });
    (sink, stream)
}

/// The consuming end of a [`channel_sink`].
#[derive(Debug)]
pub struct BatchStream {
    rx: Receiver<Vec<Event>>,
    spares: Sender<Vec<Event>>,
    queued: Arc<AtomicUsize>,
}

impl BatchStream {
    /// Calls `f` with every batch, in order, until the sink is gone and
    /// the channel drained, handing each drained buffer back to the
    /// producer.
    pub fn for_each(self, mut f: impl FnMut(&[Event])) {
        while let Some(batch) = self.recv() {
            f(&batch);
            self.recycle(batch);
        }
    }

    /// The next batch, blocking until one arrives; `None` at end of
    /// stream.
    fn recv(&self) -> Option<Vec<Event>> {
        let batch = match self.rx.try_recv() {
            Ok(batch) => batch,
            Err(TryRecvError::Empty) => {
                databp_telemetry::count!("pipeline.backpressure.consumer_waits");
                self.rx.recv().ok()?
            }
            Err(TryRecvError::Disconnected) => return None,
        };
        self.queued.fetch_sub(1, Ordering::Relaxed);
        Some(batch)
    }

    fn recycle(&self, mut batch: Vec<Event>) {
        batch.clear();
        // After the tail batch the producer is gone; its spare is
        // simply dropped.
        let _ = self.spares.send(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObjectDesc;

    fn w(ba: u32) -> Event {
        Event::Write {
            pc: 0,
            ba,
            ea: ba + 4,
            value: 0,
            old: 0,
        }
    }

    /// Streams `events` through a [`channel_sink`] to a consumer thread
    /// that sleeps `delay_ms` per batch; returns the teed trace and the
    /// events the consumer saw.
    fn stream(
        capacity: usize,
        depth: usize,
        events: &[Event],
        delay_ms: u64,
    ) -> (Trace, Vec<Event>) {
        let (mut sink, stream) = channel_sink(capacity, depth);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            stream.for_each(|b| {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                got.extend_from_slice(b);
            });
            got
        });
        for &ev in events {
            sink.emit(ev);
        }
        let tee = sink.finish();
        (tee, consumer.join().unwrap())
    }

    #[test]
    fn batches_arrive_in_order_and_end_of_stream_after_close() {
        let events: Vec<Event> = (0..8).map(|i| w(i * 4)).collect();
        assert_eq!(stream(3, 2, &events, 0).1, events);
    }

    #[test]
    fn tee_keeps_a_full_trace_copy() {
        let events = vec![
            Event::Install {
                obj: ObjectDesc::Global { id: 0 },
                ba: 0,
                ea: 4,
            },
            w(0),
            w(4),
        ];
        let (tee, got) = stream(2, 4, &events, 0);
        assert_eq!(tee.events(), events.as_slice());
        assert_eq!(got, events);
    }

    #[test]
    fn backpressure_blocks_producer_until_consumer_drains() {
        // Depth-1 channel, slow consumer: every batch must still arrive.
        let events: Vec<Event> = (0..16).map(|i| w(i * 4)).collect();
        assert_eq!(stream(1, 1, &events, 1).1, events);
    }

    #[test]
    fn inline_sink_feeds_every_batch_and_the_tail() {
        let events: Vec<Event> = (0..7).map(|i| w(i * 4)).collect();
        let mut sizes = Vec::new();
        let mut sink = inline_sink(3, |b: &[Event]| sizes.push(b.len()));
        for &ev in &events {
            sink.emit(ev);
        }
        assert_eq!(sink.finish().events(), events.as_slice());
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn recycled_batches_are_reused() {
        // Single-threaded: send one batch, hand its buffer back with a
        // capacity no fresh buffer has, and see it carry a later batch.
        let (mut sink, stream) = channel_sink(1, 4);
        sink.emit(w(0));
        let mut drained = stream.recv().unwrap();
        drained.reserve_exact(1000);
        stream.recycle(drained);
        sink.emit(w(4)); // takes the recycled buffer as its spare
        sink.emit(w(8)); // fills and sends it
        assert_eq!(stream.recv().unwrap().capacity(), 1);
        let reused = stream.recv().unwrap();
        assert_eq!(reused, vec![w(8)], "recycled batch comes back cleared");
        assert!(reused.capacity() >= 1000);
    }

    #[test]
    #[should_panic(expected = "consumer dropped")]
    fn send_after_receiver_drop_panics() {
        let (mut sink, stream) = channel_sink(1, 1);
        drop(stream);
        sink.emit(w(0));
    }

    #[test]
    fn dropping_sender_without_sending_ends_stream() {
        let (sink, stream) = channel_sink(4, 1);
        drop(sink);
        let mut batches = 0;
        stream.for_each(|_| batches += 1);
        assert_eq!(batches, 0);
    }
}
