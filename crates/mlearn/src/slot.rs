//! Atomic model slot for zero-downtime hot-reload.
//!
//! A [`ModelSlot`] holds the currently deployed model behind an
//! `ArcSwap`-style handle: readers take a cheap snapshot (one `Arc`
//! clone under a short critical section) and keep scoring against that
//! immutable model for as long as they hold the `Arc`, while a writer
//! swaps in a replacement at any time. A swap never blocks readers for
//! longer than the pointer exchange, never invalidates a model a reader
//! is mid-inference on, and bumps a monotone version so every downstream
//! decision (an alert, a verdict) is attributable to exactly one model
//! generation.
//!
//! The slot is generic so the detector can wrap its classifier without
//! this crate depending on it.

use std::sync::{Arc, Mutex};

/// Shared, swappable handle to the current model. Cloning the slot
/// shares it: all clones observe the same swaps.
#[derive(Debug)]
pub struct ModelSlot<T> {
    current: Arc<Mutex<(Arc<T>, u64)>>,
}

impl<T> Clone for ModelSlot<T> {
    fn clone(&self) -> Self {
        ModelSlot { current: Arc::clone(&self.current) }
    }
}

impl<T> ModelSlot<T> {
    /// Wraps the initial model at version 1.
    pub fn new(model: T) -> Self {
        ModelSlot { current: Arc::new(Mutex::new((Arc::new(model), 1))) }
    }

    /// Snapshot of the deployed model and its version. The returned
    /// `Arc` stays valid across any number of subsequent swaps.
    pub fn load(&self) -> (Arc<T>, u64) {
        let guard = self.current.lock().expect("model slot poisoned");
        (Arc::clone(&guard.0), guard.1)
    }

    /// Atomically replaces the deployed model; returns the new version.
    /// In-flight readers keep the model they loaded; the next `load`
    /// observes the replacement.
    pub fn swap(&self, model: T) -> u64 {
        let mut guard = self.current.lock().expect("model slot poisoned");
        let version = guard.1 + 1;
        *guard = (Arc::new(model), version);
        version
    }

    /// Overrides the version without counting a reload (snapshot
    /// restore only).
    pub fn force_version(&self, version: u64) {
        let mut guard = self.current.lock().expect("model slot poisoned");
        guard.1 = version.max(1);
    }

    /// Current model version.
    pub fn version(&self) -> u64 {
        self.current.lock().expect("model slot poisoned").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_bumps_version_and_readers_keep_their_snapshot() {
        let slot = ModelSlot::new(vec![1, 2, 3]);
        let (old, v1) = slot.load();
        assert_eq!(v1, 1);
        let v2 = slot.swap(vec![9]);
        assert_eq!(v2, 2);
        // The pre-swap snapshot is untouched; a fresh load sees the new model.
        assert_eq!(*old, vec![1, 2, 3]);
        let (new, v) = slot.load();
        assert_eq!((&*new, v), (&vec![9], 2));
    }

    #[test]
    fn clones_share_the_slot() {
        let a = ModelSlot::new(0u32);
        let b = a.clone();
        b.swap(7);
        assert_eq!(*a.load().0, 7);
        assert_eq!(a.version(), b.version());
    }

    #[test]
    fn swaps_race_safely_across_threads() {
        let slot = ModelSlot::new(0usize);
        std::thread::scope(|scope| {
            let reader = slot.clone();
            scope.spawn(move || {
                for _ in 0..1000 {
                    let (m, v) = reader.load();
                    // A loaded model always matches its version tag.
                    assert_eq!(*m + 1, v as usize);
                }
            });
            let writer = slot.clone();
            scope.spawn(move || {
                for i in 1..100 {
                    assert_eq!(writer.swap(i), i as u64 + 1);
                }
            });
        });
        assert_eq!(slot.version(), 100);
    }
}
