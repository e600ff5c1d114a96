//! The streaming trace pipeline: fixed-size event batches over a bounded
//! SPSC channel.
//!
//! Phase 1 (the traced machine run) and phase 2 (the replay engine) used
//! to be strictly sequential, with the full event `Vec` materialized in
//! between. This module lets them overlap: the tracer's [`StreamSink`]
//! packs events into [`EventBatch`]es and sends them through the bounded
//! channel created by [`batch_channel`], while the consumer replays each
//! batch as it arrives. Drained batches are recycled through a free list,
//! so the steady state allocates nothing.
//!
//! The channel is deliberately minimal — one producer, one consumer, a
//! `Mutex` + two `Condvar`s — because the workspace vendors no
//! concurrency crates. Batching keeps the lock out of the hot path: at
//! the default batch size the producer takes the lock once per few
//! thousand events.
//!
//! Telemetry (all under `pipeline.*`): `pipeline.batches` and
//! `pipeline.events.streamed` count traffic, the
//! `pipeline.channel.depth` histogram samples queue depth at each send,
//! and `pipeline.backpressure.producer_waits` /
//! `pipeline.backpressure.consumer_waits` count blocking waits on either
//! side.

use crate::event::{Event, EventSink, Trace};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A fixed-capacity run of consecutive trace events.
#[derive(Debug, Default)]
pub struct EventBatch {
    events: Vec<Event>,
}

impl EventBatch {
    /// The batched events, in program order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[derive(Debug, Default)]
struct Shared {
    queue: VecDeque<EventBatch>,
    /// Drained batches returned by the consumer, reused by the producer.
    free: Vec<EventBatch>,
    tx_closed: bool,
    rx_closed: bool,
}

#[derive(Debug)]
struct Chan {
    shared: Mutex<Shared>,
    /// Signaled when queue space frees up (or the receiver goes away).
    can_send: Condvar,
    /// Signaled when a batch arrives (or the sender goes away).
    can_recv: Condvar,
    depth: usize,
}

impl Chan {
    /// Locks the shared state, shrugging off poisoning: the flags and
    /// queue stay consistent under every early `return`/panic path, and
    /// the `Drop` impls must not double-panic while unwinding.
    fn lock(&self) -> MutexGuard<'_, Shared> {
        match self.shared.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Creates a bounded SPSC channel holding at most `depth` in-flight
/// batches. The producer blocks when the queue is full (backpressure),
/// the consumer blocks when it is empty.
///
/// # Panics
///
/// Panics if `depth` is zero.
pub fn batch_channel(depth: usize) -> (BatchSender, BatchReceiver) {
    assert!(depth > 0, "batch channel depth must be nonzero");
    let ch = Arc::new(Chan {
        shared: Mutex::new(Shared::default()),
        can_send: Condvar::new(),
        can_recv: Condvar::new(),
        depth,
    });
    (
        BatchSender {
            ch: Arc::clone(&ch),
        },
        BatchReceiver { ch },
    )
}

/// The producing end of a [`batch_channel`]. Dropping it closes the
/// channel: the receiver drains what is queued, then sees end-of-stream.
#[derive(Debug)]
pub struct BatchSender {
    ch: Arc<Chan>,
}

impl BatchSender {
    /// A recycled batch if the consumer returned one, otherwise a fresh
    /// empty batch.
    pub fn take_spare(&self) -> EventBatch {
        let mut sh = self.ch.lock();
        sh.free.pop().unwrap_or_default()
    }

    /// Queues `batch`, blocking while the channel is full.
    ///
    /// # Panics
    ///
    /// Panics if the receiver has been dropped — the stream has lost its
    /// consumer and the trace would silently vanish.
    pub fn send(&self, batch: EventBatch) {
        databp_telemetry::count!("pipeline.batches");
        databp_telemetry::count!("pipeline.events.streamed", batch.events.len() as u64);
        let mut sh = self.ch.lock();
        while sh.queue.len() >= self.ch.depth && !sh.rx_closed {
            databp_telemetry::count!("pipeline.backpressure.producer_waits");
            sh = self.ch.can_send.wait(sh).unwrap_or_else(|p| p.into_inner());
        }
        assert!(!sh.rx_closed, "streaming consumer dropped mid-trace");
        sh.queue.push_back(batch);
        databp_telemetry::observe!(
            "pipeline.channel.depth",
            &[1, 2, 4, 8, 16, 32, 64],
            sh.queue.len() as u64
        );
        drop(sh);
        self.ch.can_recv.notify_one();
    }
}

impl Drop for BatchSender {
    fn drop(&mut self) {
        let mut sh = self.ch.lock();
        sh.tx_closed = true;
        drop(sh);
        self.ch.can_recv.notify_one();
    }
}

/// The consuming end of a [`batch_channel`].
#[derive(Debug)]
pub struct BatchReceiver {
    ch: Arc<Chan>,
}

impl BatchReceiver {
    /// The next batch, blocking until one arrives. `None` once the
    /// sender is gone and the queue is drained — end of stream.
    pub fn recv(&self) -> Option<EventBatch> {
        let mut sh = self.ch.lock();
        loop {
            if let Some(batch) = sh.queue.pop_front() {
                drop(sh);
                self.ch.can_send.notify_one();
                return Some(batch);
            }
            if sh.tx_closed {
                return None;
            }
            databp_telemetry::count!("pipeline.backpressure.consumer_waits");
            sh = self.ch.can_recv.wait(sh).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Returns a drained batch to the free list so the producer can
    /// refill it without allocating.
    pub fn recycle(&self, mut batch: EventBatch) {
        batch.events.clear();
        let mut sh = self.ch.lock();
        sh.free.push(batch);
    }
}

impl Drop for BatchReceiver {
    fn drop(&mut self) {
        let mut sh = self.ch.lock();
        sh.rx_closed = true;
        drop(sh);
        self.ch.can_send.notify_one();
    }
}

/// An [`EventSink`] that streams events into a [`batch_channel`] in
/// fixed-size batches, teeing a materialized [`Trace`] copy for
/// consumers that still need the full event list afterwards (e.g. the
/// static-elision soundness check and the replay service's cache).
#[derive(Debug)]
pub struct StreamSink {
    tx: BatchSender,
    batch: EventBatch,
    capacity: usize,
    tee: Trace,
}

impl StreamSink {
    /// A sink sending batches of up to `capacity` events through `tx`
    /// and keeping a full [`Trace`] copy, returned by
    /// [`StreamSink::close`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(tx: BatchSender, capacity: usize) -> Self {
        assert!(capacity > 0, "stream batch capacity must be nonzero");
        StreamSink {
            batch: tx.take_spare(),
            tx,
            capacity,
            tee: Trace::new(),
        }
    }

    /// Flushes the tail batch and closes the channel (the sender drops
    /// here), returning the teed trace.
    pub fn close(mut self) -> Trace {
        if !self.batch.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            self.tx.send(batch);
        }
        self.tee
    }
}

impl EventSink for StreamSink {
    fn emit(&mut self, ev: Event) {
        self.tee.push(ev);
        self.batch.events.push(ev);
        if self.batch.len() == self.capacity {
            let full = std::mem::replace(&mut self.batch, self.tx.take_spare());
            self.tx.send(full);
        }
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

    #[test]
    fn batches_arrive_in_order_and_end_of_stream_after_close() {
        let (tx, rx) = batch_channel(2);
        let mut sink = StreamSink::new(tx, 3);
        let events: Vec<Event> = (0..8).map(|i| w(i * 4)).collect();
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(b) = rx.recv() {
                got.extend_from_slice(b.events());
                rx.recycle(b);
            }
            got
        });
        for &ev in &events {
            sink.emit(ev);
        }
        sink.close();
        assert_eq!(consumer.join().unwrap(), events);
    }

    #[test]
    fn tee_keeps_a_full_trace_copy() {
        let (tx, rx) = batch_channel(4);
        let mut sink = StreamSink::new(tx, 2);
        let events = vec![
            Event::Install {
                obj: ObjectDesc::Global { id: 0 },
                ba: 0,
                ea: 4,
            },
            w(0),
            w(4),
        ];
        let consumer = std::thread::spawn(move || {
            let mut n = 0;
            while let Some(b) = rx.recv() {
                n += b.len();
                rx.recycle(b);
            }
            n
        });
        for &ev in &events {
            sink.emit(ev);
        }
        let tee = sink.close();
        assert_eq!(tee.events(), events.as_slice());
        assert_eq!(consumer.join().unwrap(), events.len());
    }

    #[test]
    fn backpressure_blocks_producer_until_consumer_drains() {
        // Depth-1 channel, slow consumer: every batch must still arrive.
        let (tx, rx) = batch_channel(1);
        let mut sink = StreamSink::new(tx, 1);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(b) = rx.recv() {
                std::thread::sleep(std::time::Duration::from_millis(1));
                got.extend_from_slice(b.events());
                rx.recycle(b);
            }
            got
        });
        let events: Vec<Event> = (0..16).map(|i| w(i * 4)).collect();
        for &ev in &events {
            sink.emit(ev);
        }
        sink.close();
        assert_eq!(consumer.join().unwrap(), events);
    }

    #[test]
    fn recycled_batches_are_reused() {
        let (tx, rx) = batch_channel(2);
        let b = tx.take_spare();
        tx.send(b);
        let b = rx.recv().unwrap();
        rx.recycle(b);
        let spare = tx.take_spare();
        assert!(spare.is_empty(), "recycled batch comes back cleared");
    }

    #[test]
    #[should_panic(expected = "consumer dropped")]
    fn send_after_receiver_drop_panics() {
        let (tx, rx) = batch_channel(1);
        drop(rx);
        tx.send(EventBatch::default());
    }

    #[test]
    fn dropping_sender_without_sending_ends_stream() {
        let (tx, rx) = batch_channel(1);
        drop(tx);
        assert!(rx.recv().is_none());
    }
}
