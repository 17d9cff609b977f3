//! The one drop-oldest ring behind every bounded evidence sink.
//!
//! The flight recorder, the span-store shards, each event-bus
//! subscriber, the metrics history, the watchdog's alert log and the
//! obs plane's resume ring all keep "the newest N of something" and
//! must say exactly how much they lost. [`BoundedRing`] is that one
//! shape: a fixed-capacity FIFO that evicts its oldest item when full
//! and counts every item it took in, evicted, or handed out.
//!
//! The ring has no interior locking. An owner shared across threads
//! holds it in a `Mutex`; every push, drain and read then sees one
//! consistent ring, so push order is the order readers observe.

use std::collections::VecDeque;

/// A fixed-capacity FIFO with drop-oldest eviction and exact loss
/// accounting: after every operation
/// `len() + dropped() + drained() == pushed()`.
///
/// A capacity of 0 keeps nothing and counts every push as dropped.
#[derive(Debug)]
pub struct BoundedRing<T> {
    items: VecDeque<T>,
    capacity: usize,
    pushed: u64,
    dropped: u64,
    drained: u64,
}

impl<T> BoundedRing<T> {
    /// An empty ring retaining at most `capacity` items. Storage grows
    /// on demand up to the capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            items: VecDeque::new(),
            capacity,
            pushed: 0,
            dropped: 0,
            drained: 0,
        }
    }

    /// Appends `item`, first evicting the oldest item when the ring is
    /// full. Returns the item's ticket: its 0-based push index, so
    /// consecutive pushes get consecutive tickets.
    pub fn push(&mut self, item: T) -> u64 {
        let ticket = self.pushed;
        self.pushed += 1;
        if self.is_full() {
            self.dropped += 1;
            if self.capacity == 0 {
                return ticket;
            }
            self.items.pop_front();
        }
        self.items.push_back(item);
        ticket
    }

    /// Appends an item written in place. When the ring is full, the
    /// oldest item is evicted by turning it into the newest and handing
    /// it to `fill` to overwrite, so the new item keeps the evicted
    /// one's storage; while the ring has room, `fill` overwrites a
    /// `fresh()` item instead. Neither runs at capacity 0. Returns the
    /// ticket, as [`Self::push`] does, and the evicted item counts as
    /// dropped.
    pub fn push_with(&mut self, fresh: impl FnOnce() -> T, fill: impl FnOnce(&mut T)) -> u64 {
        let ticket = self.pushed;
        self.pushed += 1;
        if self.is_full() {
            self.dropped += 1;
            if self.capacity == 0 {
                return ticket;
            }
            self.items.rotate_left(1);
        } else {
            self.items.push_back(fresh());
        }
        fill(self.items.back_mut().expect("the ring holds the item"));
        ticket
    }

    /// Removes and yields every retained item, oldest first. The items
    /// count as drained as soon as this is called, whether or not the
    /// iterator is consumed.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.drained += self.items.len() as u64;
        self.items.drain(..)
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.items.iter()
    }

    /// The most items the ring retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when the next push evicts (always true at capacity 0).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Items ever pushed; the next push's ticket.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Items evicted (or refused at capacity 0) before anyone drained
    /// them.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items handed out by [`Self::drain`].
    #[must_use]
    pub fn drained(&self) -> u64 {
        self.drained
    }
}
