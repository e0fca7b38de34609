//! Press-invariant channel cache.
//!
//! Everything the pipeline derives from a [`Scene`] at a fixed frequency
//! grid — static multipath response, backscatter path gain, AGC full
//! scale — is invariant across presses: only the tag's reflection and the
//! receiver noise change snapshot to snapshot. Re-evaluating all of it
//! (per subcarrier, with tissue-stack ABCD products inside) in every
//! synthesis call — time-domain snapshots or spectral lines — would be
//! pure waste. [`ChannelCache`] holds that invariant slice, and
//! [`SharedChannelCache`] shares one entry read-only between the
//! pipeline and every `wiforce::batch` worker.
//!
//! Invalidation is by value, not by notification: an entry stores the
//! FNV-1a [`scene_fingerprint`] of every scene and grid field it was
//! built from, and [`SharedChannelCache::get_or_build`] rebuilds whenever
//! the fingerprint of the requested scene differs (a mover edit, a
//! blockage change, a tag move — anything). A stale entry can therefore
//! never be observed, which the cache-equivalence fixture tests pin.

use crate::scene::Scene;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wiforce_dsp::hash::Fnv;
use wiforce_dsp::Complex;

/// The press-invariant part of the channel for one `(scene, grid)` pair.
#[derive(Debug, Clone)]
pub struct ChannelCache {
    /// [`scene_fingerprint`] of the scene + grid this was built from.
    pub fingerprint: u64,
    /// Absolute grid frequencies, Hz (ascending).
    pub freqs_hz: Vec<f64>,
    /// Static response (direct + clutter) per grid frequency.
    pub statics: Vec<Complex>,
    /// Backscatter path gain (excluding the tag reflection) per grid
    /// frequency.
    pub gains: Vec<Complex>,
    /// Direct-path amplitude at the carrier (burst-interference scale).
    pub direct_amp: f64,
    /// AGC full-scale amplitude: strongest static magnitude × 1.5.
    pub full_scale: f64,
    /// Memoized sounding-response tables ([`Self::response_tables`]).
    response_memo: ResponseMemo,
}

/// FNV-1a token over a sequence of raw `u64` words — how sounders derive
/// the `config_token` half of a [`ChannelCache::response_tables`] key
/// from their press-invariant configuration fields.
pub fn config_token(words: impl IntoIterator<Item = u64>) -> u64 {
    wiforce_dsp::hash::fnv_words(words)
}

/// Type-erased, bounded map of press-invariant sounding-response tables,
/// keyed by `(table token, config token)`. The channel crate
/// cannot name its callers' table types, so entries are
/// stored as `Arc<dyn Any>` and downcast on the way out; a key collision
/// with a different stored type is treated as a miss and overwritten.
///
/// Hit/miss totals live here as atomics (not in the telemetry stream)
/// for the same reason as [`SharedChannelCache`]'s: a warm memo survives
/// across runs and which thread builds an entry is a scheduling
/// accident, so per-thread counters would break deterministic merges.
struct ResponseMemo {
    map: Mutex<HashMap<(u64, u64), Arc<dyn Any + Send + Sync>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Entry bound for [`ResponseMemo`]: generous next to what callers store
/// (press-invariant entries only — a handful per tag and sounder), tiny
/// next to the planes it guards. On overflow the map is cleared — the
/// next lookups rebuild, correctness is unaffected.
const RESPONSE_MEMO_CAP: usize = 256;

impl Default for ResponseMemo {
    fn default() -> Self {
        ResponseMemo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for ResponseMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.map.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("ResponseMemo")
            .field("entries", &len)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl Clone for ResponseMemo {
    fn clone(&self) -> Self {
        ResponseMemo {
            map: Mutex::new(self.map.lock().expect("response memo poisoned").clone()),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
        }
    }
}

impl ChannelCache {
    /// Evaluates the press-invariant channel state for `scene` at
    /// `freqs_hz` — the same arithmetic, in the same order, as the
    /// uncached pipeline setup, so cached and uncached runs agree
    /// bit-for-bit.
    pub fn build(scene: &Scene, freqs_hz: &[f64]) -> Self {
        let statics: Vec<Complex> = freqs_hz.iter().map(|&f| scene.static_response(f)).collect();
        let gains: Vec<Complex> = freqs_hz
            .iter()
            .map(|&f| scene.backscatter_gain(f))
            .collect();
        let direct_amp = scene.direct_response(scene.carrier_hz).abs();
        let full_scale = statics.iter().map(|s| s.abs()).fold(0.0_f64, f64::max) * 1.5;
        ChannelCache {
            fingerprint: scene_fingerprint(scene, freqs_hz),
            freqs_hz: freqs_hz.to_vec(),
            statics,
            gains,
            direct_amp,
            full_scale,
            response_memo: ResponseMemo::default(),
        }
    }

    /// Returns the memoized sounding-response tables for the
    /// `(tag-table token, sounder config token)` pair, calling `build`
    /// only on a miss. `T` is whatever press-invariant table the caller
    /// gathers from per snapshot (the pipeline keeps the tag's EM plan
    /// and the four per-state true channels, state-major); it is stored
    /// type-erased and downcast on every hit. Stale entries are
    /// impossible: a scene mutation changes the fingerprint, and
    /// [`SharedChannelCache::get_or_build`] replaces the whole cache entry,
    /// memo included, before this is ever consulted; a tag-table or
    /// sounder-config change changes the key.
    pub fn response_tables<T: Any + Send + Sync>(
        &self,
        token: u64,
        config_token: u64,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let key = (token, config_token);
        {
            let map = self
                .response_memo
                .map
                .lock()
                .expect("response memo poisoned");
            if let Some(entry) = map.get(&key) {
                if let Ok(hit) = Arc::clone(entry).downcast::<T>() {
                    self.response_memo.hits.fetch_add(1, Ordering::Relaxed);
                    return hit;
                }
            }
        }
        // build outside the lock: entries are pure functions of the key,
        // so a racing double-build stores identical tables
        self.response_memo.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build());
        let mut map = self
            .response_memo
            .map
            .lock()
            .expect("response memo poisoned");
        if map.len() >= RESPONSE_MEMO_CAP {
            map.clear();
        }
        map.insert(key, Arc::clone(&built) as Arc<dyn Any + Send + Sync>);
        built
    }

    /// Lifetime `(hits, misses)` totals of [`Self::response_tables`] on
    /// this entry (shared across every `Arc` holder; a `clone()` of the
    /// cache value itself snapshots and then diverges).
    pub fn response_stats(&self) -> (u64, u64) {
        (
            self.response_memo.hits.load(Ordering::Relaxed),
            self.response_memo.misses.load(Ordering::Relaxed),
        )
    }

    /// Zeroes the response-table hit/miss totals (entries are kept) —
    /// how benches measure the steady-state hit rate after warmup.
    pub fn reset_response_stats(&self) {
        self.response_memo.hits.store(0, Ordering::Relaxed);
        self.response_memo.misses.store(0, Ordering::Relaxed);
    }
}

/// FNV-1a hash over the raw bits of every scene field (geometry, power,
/// clutter paths, movers, tissue stack, blockage) plus the grid
/// frequencies — the identity under which [`ChannelCache`] entries are
/// valid. Any field change, however small, changes the fingerprint.
pub fn scene_fingerprint(scene: &Scene, freqs_hz: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.f64(scene.carrier_hz);
    for p in [scene.tx_pos_m, scene.rx_pos_m, scene.tag_pos_m] {
        for v in p {
            h.f64(v);
        }
    }
    h.f64(scene.tx_power_dbm);
    h.f64(scene.antenna_gain_dbi);
    h.word(scene.multipath.len() as u64);
    for path in scene.multipath.paths() {
        h.f64(path.distance_m);
        h.f64(path.gain.re);
        h.f64(path.gain.im);
    }
    h.word(scene.movers.len() as u64);
    for m in &scene.movers {
        h.f64(m.distance0_m);
        h.f64(m.speed_m_per_s);
        h.f64(m.gain.re);
        h.f64(m.gain.im);
    }
    match &scene.tissue {
        None => h.word(0),
        Some(layers) => {
            h.word(1 + layers.len() as u64);
            for l in layers {
                h.f64(l.dielectric.rel_permittivity);
                h.f64(l.dielectric.loss_tangent);
                h.f64(l.dielectric.conductivity_s_per_m);
                h.f64(l.thickness_m);
            }
        }
    }
    h.f64(scene.direct_blockage_db);
    h.f64(scene.tissue_excess_db_per_pass);
    h.word(freqs_hz.len() as u64);
    for &f in freqs_hz {
        h.f64(f);
    }
    h.finish()
}

/// A process-shareable slot holding the current [`ChannelCache`] entry.
///
/// `Clone` shares the underlying slot (it is an `Arc`), so a cloned
/// `Simulation` — as `wiforce::batch` makes per worker — reuses the same
/// entry instead of rebuilding per thread. Readers get an
/// `Arc<ChannelCache>` and never block each other beyond the lookup lock.
///
/// Hit/miss statistics live on the shared slot as atomics, NOT in the
/// telemetry stream: which thread performs the single build is a
/// scheduling accident, and a warm slot survives across runs, so
/// per-thread telemetry counters would break the sweep's
/// deterministic-merge guarantee. [`Self::stats`] reads the totals.
#[derive(Debug, Clone, Default)]
pub struct SharedChannelCache {
    slot: Arc<Mutex<Option<Arc<ChannelCache>>>>,
    stats: Arc<CacheStats>,
}

#[derive(Debug, Default)]
struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedChannelCache {
    /// An empty cache slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached entry for `(scene, freqs_hz)`, building (and
    /// storing) it when the slot is empty or fingerprint-stale.
    pub fn get_or_build(&self, scene: &Scene, freqs_hz: &[f64]) -> Arc<ChannelCache> {
        let fp = scene_fingerprint(scene, freqs_hz);
        let mut slot = self.slot.lock().expect("channel cache poisoned");
        if let Some(entry) = slot.as_ref() {
            if entry.fingerprint == fp {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(entry);
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(ChannelCache::build(scene, freqs_hz));
        *slot = Some(Arc::clone(&built));
        built
    }

    /// Lifetime `(hits, misses)` totals across every clone of this slot.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.stats.hits.load(Ordering::Relaxed),
            self.stats.misses.load(Ordering::Relaxed),
        )
    }

    /// Zeroes the hit/miss totals (the entry itself is kept).
    pub fn reset_stats(&self) {
        self.stats.hits.store(0, Ordering::Relaxed);
        self.stats.misses.store(0, Ordering::Relaxed);
    }

    /// Drops the current entry (the next lookup rebuilds). Fingerprint
    /// checks already catch every scene mutation; this exists for tests
    /// and for callers that want to bound memory.
    pub fn invalidate(&self) {
        *self.slot.lock().expect("channel cache poisoned") = None;
    }

    /// `(hits, misses)` of the current entry's response-table memo
    /// ([`ChannelCache::response_stats`]); `(0, 0)` when the slot is
    /// empty.
    pub fn response_stats(&self) -> (u64, u64) {
        self.slot
            .lock()
            .expect("channel cache poisoned")
            .as_ref()
            .map(|e| e.response_stats())
            .unwrap_or((0, 0))
    }

    /// Zeroes the current entry's response-table hit/miss totals.
    pub fn reset_response_stats(&self) {
        if let Some(e) = self.slot.lock().expect("channel cache poisoned").as_ref() {
            e.reset_response_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movers::MovingScatterer;

    fn freqs() -> Vec<f64> {
        (0..8).map(|i| 0.9e9 + i as f64 * 195.3e3).collect()
    }

    #[test]
    fn build_matches_direct_evaluation_bitwise() {
        let scene = Scene::tissue_phantom(0.9e9, 45.0);
        let f = freqs();
        let c = ChannelCache::build(&scene, &f);
        for (k, &fk) in f.iter().enumerate() {
            let s = scene.static_response(fk);
            let g = scene.backscatter_gain(fk);
            assert_eq!(c.statics[k].re.to_bits(), s.re.to_bits());
            assert_eq!(c.statics[k].im.to_bits(), s.im.to_bits());
            assert_eq!(c.gains[k].re.to_bits(), g.re.to_bits());
            assert_eq!(c.gains[k].im.to_bits(), g.im.to_bits());
        }
        let fs = f
            .iter()
            .map(|&fk| scene.static_response(fk).abs())
            .fold(0.0_f64, f64::max)
            * 1.5;
        assert_eq!(c.full_scale.to_bits(), fs.to_bits());
    }

    #[test]
    fn fingerprint_tracks_every_field_class() {
        let base = Scene::fig12(0.9e9);
        let f = freqs();
        let fp0 = scene_fingerprint(&base, &f);
        assert_eq!(fp0, scene_fingerprint(&base.clone(), &f), "deterministic");

        let mut moved = base.clone();
        moved.tag_pos_m[0] += 1e-9;
        assert_ne!(fp0, scene_fingerprint(&moved, &f), "geometry");

        let mut blocked = base.clone();
        blocked.direct_blockage_db = 45.0;
        assert_ne!(fp0, scene_fingerprint(&blocked, &f), "blockage");

        let mut mover = base.clone();
        mover.movers.push(MovingScatterer::walker(0.1));
        assert_ne!(fp0, scene_fingerprint(&mover, &f), "movers");

        let tissue = Scene::tissue_phantom(0.9e9, 0.0);
        assert_ne!(fp0, scene_fingerprint(&tissue, &f), "tissue");

        let mut f2 = f.clone();
        f2[3] += 1.0;
        assert_ne!(fp0, scene_fingerprint(&base, &f2), "grid");
    }

    #[test]
    fn response_memo_is_keyed_and_counted() {
        let cache = ChannelCache::build(&Scene::fig12(0.9e9), &freqs());
        let cfg_a = config_token([64, 5, 0x0FD3]);
        let cfg_b = config_token([64, 5, 0x0FD4]);
        assert_ne!(cfg_a, cfg_b, "config token tracks the words");

        let a = cache.response_tables(7, cfg_a, || vec![1.0_f64, 2.0]);
        let a2: Arc<Vec<f64>> =
            cache.response_tables(7, cfg_a, || panic!("must not rebuild on a hit"));
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(cache.response_stats(), (1, 1));

        // a different config token (sounder edit) is a distinct entry…
        let b = cache.response_tables(7, cfg_b, || vec![3.0_f64]);
        assert_eq!(b[0], 3.0);
        // …as is a different table token (tag edit)
        let c = cache.response_tables(8, cfg_a, || vec![4.0_f64]);
        assert_eq!(c[0], 4.0);
        assert_eq!(cache.response_stats(), (1, 3));

        // a colliding key holding another type rebuilds instead of
        // serving the wrong table
        let d: Arc<Vec<u32>> = cache.response_tables(7, cfg_a, || vec![9_u32]);
        assert_eq!(d[0], 9);

        cache.reset_response_stats();
        assert_eq!(cache.response_stats(), (0, 0));
        // entries survive a stats reset
        let _: Arc<Vec<u32>> = cache.response_tables(7, cfg_a, || panic!("entry kept"));
        assert_eq!(cache.response_stats(), (1, 0));
    }

    #[test]
    fn response_memo_caps_its_entry_count() {
        let cache = ChannelCache::build(&Scene::fig12(0.9e9), &freqs());
        for i in 0..(2 * super::RESPONSE_MEMO_CAP as u64) {
            let _ = cache.response_tables(i, 0, || i);
        }
        let (h, m) = cache.response_stats();
        assert_eq!(h, 0);
        assert_eq!(m, 2 * super::RESPONSE_MEMO_CAP as u64);
        // the map was cleared at capacity, so a re-lookup of an early key
        // rebuilds — bounded memory, never a stale or wrong entry
        let v = cache.response_tables(0, 0, || 123_u64);
        assert_eq!(*v, 123);
    }

    #[test]
    fn shared_cache_hits_and_invalidates() {
        let shared = SharedChannelCache::new();
        let scene = Scene::fig12(0.9e9);
        let f = freqs();
        let a = shared.get_or_build(&scene, &f);
        let b = shared.get_or_build(&scene, &f);
        assert!(Arc::ptr_eq(&a, &b), "second lookup hits");
        // clones share the slot (what batch workers rely on) — and the
        // hit/miss totals, which clones also share
        let c = shared.clone().get_or_build(&scene, &f);
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(shared.stats(), (2, 1), "two hits, one build");

        let mut mutated = scene.clone();
        mutated.direct_blockage_db = 10.0;
        let d = shared.get_or_build(&mutated, &f);
        assert!(!Arc::ptr_eq(&a, &d), "scene mutation rebuilds");
        assert_eq!(d.fingerprint, scene_fingerprint(&mutated, &f));

        shared.invalidate();
        let e = shared.get_or_build(&mutated, &f);
        assert!(!Arc::ptr_eq(&d, &e), "invalidate drops the entry");
        assert_eq!(d.full_scale.to_bits(), e.full_scale.to_bits());

        shared.reset_stats();
        assert_eq!(shared.stats(), (0, 0));
    }
}
