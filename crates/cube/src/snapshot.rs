//! Versioned binary snapshots of a built cube (`scube-cube::snapshot`).
//!
//! SCube's whole point is *interactive* exploration of a materialized cube,
//! but a cube used to die with the process: every session re-mined and
//! re-built. A [`CubeSnapshot`] persists everything a serving session needs
//! — the [`SegregationCube`] (cells + [`crate::cube::CubeLabels`]) *and* the
//! [`VerticalDb`] postings behind it — so `load` restores both exact lookups
//! and the explorer fallback for non-materialized ⋆-combinations without
//! re-mining anything.
//!
//! ## Format (versions 4 and 5)
//!
//! All integers are little-endian; strings are `u32` length + UTF-8 bytes.
//! The data region is laid out as fixed-width tables behind an offset
//! directory, so a reader can either *decode* the file onto the heap
//! ([`CubeSnapshot::load`], any host) or *map* it and serve postings
//! straight out of the page cache ([`CubeSnapshot::open_mmap`],
//! little-endian hosts — N daemons then share one physical copy):
//!
//! ```text
//! [0..8)    magic  "SCUBESNP"
//! [8..12)   format version (u32, currently 4)
//! [12]      posting representation tag (Posting::SERIAL_TAG)
//! [13..21)  FxHash checksum (u64) of bytes [24..)   — the full checksum
//! [21..24)  zero padding
//! [24..96)  offset directory: nine u64s
//!             meta_off, meta_len, postdir_off, n_postings,
//!             slots_off, slots_len, store_off, store_len, meta_sum
//! meta      build cfg (materialization tag u8, Atkinson b f64), labels,
//!           n_units (u32), min_support (u64), cells (sorted by (sa, ca)),
//!           n_transactions (u32), v_units (u32), tid → unit map (u32 each)
//! postdir   n_postings × (slot offset u64, slot length u64, cardinality u64)
//! slots     posting slots (Posting::write_slot), each at an 8-aligned
//!           file offset, zero padding between slots
//! store     maintenance store: context totals + cell minorities, in the
//!           same encoding as the v3 payload tail
//! ```
//!
//! `meta_sum` is an FxHash over the directory (sans itself), the meta
//! region, and the posting directory — everything `open_mmap` must trust
//! *eagerly*. Verifying it costs O(metadata), not O(file): posting slots
//! are validated structurally per slot ([`Posting::map_slot`], enough to
//! rule out panics and out-of-universe tids, in time proportional to slot
//! metadata), and the maintenance-store region stays raw bytes: the first
//! update runs an O(keys) index scan over it, after which each histogram
//! is decoded (and validated) individually when an update dirties its
//! entry — a small batch touches a handful of entries, never the whole
//! store (`LazyStore`). That keeps a cold `open_mmap` at milliseconds
//! even for multi-gigabyte snapshots. The
//! full checksum at [13..21) covers every byte after the header and is
//! what the heap loader checks; [`CubeSnapshot::open_mmap_verified`]
//! checks it too for paranoid opens.
//!
//! ## Version 5: partial measure suites
//!
//! A cube built with a proper subset of the six indexes
//! ([`MeasureSet`], `CubeBuilder::measures`) persists as **version 5** —
//! same header, directory, posting, and store layout, two meta changes:
//!
//! * a measure-set byte (bit `i` = `SegIndex::ALL[i]`) follows the
//!   Atkinson parameter;
//! * cells store only coordinates + `minority u64` + `total u64` +
//!   `num_units u32` inline; the selected measures' values follow as
//!   columnar fixed-width tables — per measure (in `SegIndex::ALL`
//!   order), `n_cells` × 9-byte slots (presence byte + f64 bits, zero
//!   when absent), cells in the same sorted coordinate order.
//!
//! The full suite **always** writes v4 — bit-identical to pre-v5
//! releases — and a v5 file declaring the full set is rejected as
//! non-canonical, so each logical snapshot still has exactly one byte
//! representation. v1–v4 readers imply [`MeasureSet::FULL`].
//! [`CubeSnapshot::open_mmap`] accepts v5: the meta region was always
//! heap-decoded, and posting slots stay zero-copy.
//!
//! Versions 1–3 (a single length-prefixed payload, no directory) still
//! load via [`CubeSnapshot::load`]; the writer only emits v4/v5. v1 predates
//! the build-configuration section and the maintenance store (the builder
//! defaults `AllFrequent` / [`DEFAULT_ATKINSON_B`] apply and the store is
//! recomputed); v2 added both; v3 marked the retraction-capable
//! maintenance era. Unknown versions error — never panic
//! (`tests/snapshot_compat.rs`, which also pins v1 and v3 golden bytes).
//!
//! Cells are written in sorted coordinate order, postings in item order,
//! and store entries in canonical key order, so serialization is
//! *canonical*: saving, loading, and saving again reproduces identical
//! bytes — and a mapped snapshot re-saves to exactly the bytes it was
//! opened from (property-tested in `tests/snapshot_roundtrip.rs` and
//! `tests/mmap_differential.rs`). [`CubeSnapshot::save`] writes through a
//! same-directory temp file, fsyncs, and renames over the target, so a
//! crash mid-save leaves the previous snapshot bytes intact instead of a
//! torn file.

use std::path::Path;
use std::sync::Arc;

use scube_bitmap::{EwahBitmap, Posting};
use scube_common::mmap::{ByteRegion, MmapFile};
use scube_common::{FxHashMap, Result, ScubeError};
use scube_data::{ItemId, TransactionDb, UnitScratch, VerticalDb};
use scube_segindex::{IndexValues, MeasureSet, DEFAULT_ATKINSON_B};

use crate::builder::{CubeBuilder, Materialize};
use crate::coords::CellCoords;
use crate::cube::{CubeLabels, SegregationCube};
use crate::eval::histogram;
use crate::update::{MaintenanceStore, UpdateBatch, UpdateOutcome, UpdateStats};

const MAGIC: &[u8; 8] = b"SCUBESNP";
const VERSION_5: u32 = 5;
const VERSION: u32 = 4;
const VERSION_3: u32 = 3;
const VERSION_2: u32 = 2;
const VERSION_1: u32 = 1;
const HEADER_LEN: usize = 8 + 4 + 1 + 8;
/// v4 offset directory: starts 8-aligned after the header + 3 pad bytes.
const DIR_OFF: usize = HEADER_LEN + 3;
const DIR_WORDS: usize = 9;
/// v4 meta region: starts right after the directory.
const META_OFF: usize = DIR_OFF + DIR_WORDS * 8;
/// One v4 posting-directory entry: slot offset, slot length, cardinality.
const POSTDIR_ENTRY: usize = 24;
/// Ceiling on length-field-driven preallocations while decoding: the
/// checksum is not cryptographic, so a crafted file could otherwise declare
/// a 4-billion-element vector and abort the process on allocation instead
/// of returning a decode error. Vectors still grow to any genuine size.
const PREALLOC_CAP: usize = 1 << 16;

/// A persistable pairing of a built cube with the vertical database it was
/// built from — everything the query engine needs to serve both
/// materialized and non-materialized cells.
#[derive(Debug, Clone)]
pub struct CubeSnapshot<P: Posting = EwahBitmap> {
    cube: SegregationCube,
    vertical: VerticalDb<P>,
    /// Materialization strategy the cube was built with — recorded so an
    /// [`UpdateBatch`] can decide whether promoted itemsets need a
    /// closedness check.
    materialize: Materialize,
    /// Atkinson shape parameter the cube was built with — recorded so
    /// re-evaluated dirty cells reproduce the original floats bit for bit.
    atkinson_b: f64,
    /// The measure subset the cube was built with — recorded so updates
    /// re-fold exactly the selected indexes. [`MeasureSet::FULL`] persists
    /// as format v4 (byte-identical to pre-measure-layer snapshots); any
    /// proper subset persists as the compact v5 value-table layout.
    measures: MeasureSet,
    /// The integer per-unit histograms behind every cell value, kept so
    /// updates fold deltas in instead of re-deriving from full postings.
    /// Mapped snapshots leave it lazy ([`LazyStore`]): entries decode one
    /// by one as updates dirty them.
    maintenance: MaintenanceStore,
}

/// The undecoded remainder of a mapped snapshot's maintenance-store
/// region. `open_mmap` attaches the raw region without even scanning it —
/// queries never touch the store, so a cold open stays O(metadata). The
/// first update runs the O(keys) *index* scan ([`MaintenanceStore::
/// ensure_indexed`]): every key is parsed and validated, every histogram
/// blob is bounds-checked and recorded as a byte range, nothing is
/// decoded. From then on each entry moves from a range here to a decoded
/// map entry exactly when an update dirties it — a small [`UpdateBatch`]
/// on a million-context store decodes a handful of histograms, not the
/// store. Histogram contents are validated per entry at decode time (unit
/// range, ascending units, nonzero counts — the same [`Reader::pairs`]
/// rejections the eager loaders apply), so corruption in an entry is
/// caught the moment that entry is first trusted.
#[derive(Debug, Clone)]
pub(crate) struct LazyStore {
    region: ByteRegion,
    n_items: usize,
    n_units: u32,
    /// Context key → byte range of its totals blob (count prefix
    /// included) within `region`. Keys here and in the decoded map are
    /// disjoint.
    pub(crate) ctx_ranges: FxHashMap<Vec<ItemId>, (usize, usize)>,
    /// Cell coordinates → byte range of its minority blob.
    pub(crate) min_ranges: FxHashMap<CellCoords, (usize, usize)>,
    /// False until the index scan has run (the maps above are empty and
    /// the whole region is still authoritative).
    pub(crate) indexed: bool,
}

impl MaintenanceStore {
    /// The store of a cube that carries none — a v1 file, which predates
    /// the store, a report-only build, or a cube taken apart with
    /// [`CubeSnapshot::into_parts`]:
    /// every context and every non-`⋆`-SA cell tidset re-intersected from
    /// the postings and histogrammed by [`histogram`], the routine the
    /// builder emits the store with.
    fn rederive<P: Posting>(cube: &SegregationCube, vertical: &VerticalDb<P>) -> Self {
        let mut scratch = UnitScratch::new(vertical.num_units());
        let mut store = MaintenanceStore::default();
        let mut context_tids: FxHashMap<&[ItemId], P> = FxHashMap::default();
        for (coords, _) in cube.cells() {
            if !context_tids.contains_key(coords.ca.as_slice()) {
                let tids = vertical.tidset(&coords.ca);
                store.contexts.insert(coords.ca.clone(), histogram(vertical, &tids, &mut scratch));
                context_tids.insert(&coords.ca, tids);
            }
        }
        for (coords, _) in cube.cells().filter(|(coords, _)| !coords.sa.is_empty()) {
            let mut refs: Vec<&P> = vec![&context_tids[coords.ca.as_slice()]];
            refs.extend(coords.sa.iter().map(|&item| vertical.posting(item)));
            let tids = P::intersect_many(&refs).expect("context plus non-empty SA side");
            store.minorities.insert(coords.clone(), histogram(vertical, &tids, &mut scratch));
        }
        store
    }

    /// A store whose entries all still live in a mapped region,
    /// undecoded and unscanned.
    pub(crate) fn deferred(region: ByteRegion, n_items: usize, n_units: u32) -> Self {
        MaintenanceStore {
            contexts: FxHashMap::default(),
            minorities: FxHashMap::default(),
            lazy: Some(LazyStore {
                region,
                n_items,
                n_units,
                ctx_ranges: FxHashMap::default(),
                min_ranges: FxHashMap::default(),
                indexed: false,
            }),
        }
    }

    /// Build the per-entry byte index over a mapped store region: parse
    /// (and validate) every key, bounds-check and skip every histogram
    /// blob, record its range. O(keys + entry count), no histogram
    /// decoding. No-op for heap stores and already-indexed regions.
    pub(crate) fn ensure_indexed(&mut self) -> Result<()> {
        let Some(lazy) = &mut self.lazy else { return Ok(()) };
        if lazy.indexed {
            return Ok(());
        }
        let mut r = Reader { bytes: lazy.region.as_slice(), pos: 0 };
        let n_contexts = r.u32()? as usize;
        for _ in 0..n_contexts {
            let key = r.ids(lazy.n_items)?;
            let range = r.skip_pairs()?;
            if lazy.ctx_ranges.insert(key, range).is_some() {
                return Err(corrupt("duplicate maintenance context"));
            }
        }
        let n_minorities = r.u32()? as usize;
        for _ in 0..n_minorities {
            let sa = r.ids(lazy.n_items)?;
            let ca = r.ids(lazy.n_items)?;
            let range = r.skip_pairs()?;
            if lazy.min_ranges.insert(CellCoords { sa, ca }, range).is_some() {
                return Err(corrupt("duplicate maintenance cell"));
            }
        }
        if r.pos != r.bytes.len() {
            return Err(corrupt("trailing bytes after the maintenance store"));
        }
        lazy.indexed = true;
        Ok(())
    }

    /// Decode one histogram blob out of a lazy region, validating it
    /// exactly as the eager loader would.
    fn decode_lazy_pairs(lazy: &LazyStore, range: (usize, usize)) -> Result<Vec<(u32, u64)>> {
        let blob = lazy
            .region
            .as_slice()
            .get(range.0..range.1)
            .ok_or_else(|| corrupt("histogram range out of bounds"))?;
        let mut r = Reader { bytes: blob, pos: 0 };
        let pairs = r.pairs(lazy.n_units)?;
        if r.pos != blob.len() {
            return Err(corrupt("trailing bytes in a histogram blob"));
        }
        Ok(pairs)
    }

    /// Move a context's totals from the lazy region into the decoded map
    /// if they are still lazy; no-op when already decoded or absent.
    pub(crate) fn ensure_context(&mut self, ca: &[ItemId]) -> Result<()> {
        if self.contexts.contains_key(ca) {
            return Ok(());
        }
        if let Some(lazy) = &mut self.lazy {
            if let Some(range) = lazy.ctx_ranges.remove(ca) {
                let pairs = Self::decode_lazy_pairs(lazy, range)?;
                self.contexts.insert(ca.to_vec(), pairs);
            }
        }
        Ok(())
    }

    /// Move a cell's minority counts from the lazy region into the
    /// decoded map if they are still lazy; no-op otherwise.
    pub(crate) fn ensure_minority(&mut self, coords: &CellCoords) -> Result<()> {
        if self.minorities.contains_key(coords) {
            return Ok(());
        }
        if let Some(lazy) = &mut self.lazy {
            if let Some(range) = lazy.min_ranges.remove(coords) {
                let pairs = Self::decode_lazy_pairs(lazy, range)?;
                self.minorities.insert(coords.clone(), pairs);
            }
        }
        Ok(())
    }

    /// Decode every still-lazy entry and drop the mapped region — what
    /// the wholesale relabel path needs (it rebuilds both maps under new
    /// ids, so nothing may stay as bytes).
    pub(crate) fn materialize_all(&mut self) -> Result<()> {
        self.ensure_indexed()?;
        let Some(mut lazy) = self.lazy.take() else { return Ok(()) };
        for (key, range) in std::mem::take(&mut lazy.ctx_ranges) {
            let pairs = Self::decode_lazy_pairs(&lazy, range)?;
            self.contexts.insert(key, pairs);
        }
        for (coords, range) in std::mem::take(&mut lazy.min_ranges) {
            let pairs = Self::decode_lazy_pairs(&lazy, range)?;
            self.minorities.insert(coords, pairs);
        }
        Ok(())
    }
}

impl<P: Posting> CubeSnapshot<P> {
    /// Pair a cube with its vertical database.
    ///
    /// A cube fresh from [`CubeBuilder`] carries the per-unit histograms
    /// its build computed; they move in as the snapshot's maintenance
    /// store, so pairing runs no histogram pass. Pass the vertical
    /// database the cube was built over. A cube without them (a
    /// [`CubeBuilder::report_only`] build, or one taken apart with
    /// [`Self::into_parts`]) has them re-derived from `vertical`.
    ///
    /// Fails when the two disagree on shape (unit count, item count): a
    /// mismatched pairing would serve materialized lookups from one dataset
    /// and explorer fallbacks from another.
    pub fn new(mut cube: SegregationCube, vertical: VerticalDb<P>) -> Result<Self> {
        Self::validate_pairing(&cube, &vertical)?;
        let maintenance = match cube.take_store() {
            Some(store) => store,
            None => MaintenanceStore::rederive(&cube, &vertical),
        };
        debug_assert!(maintenance.covers(&cube), "the store covers the cube it came with");
        Ok(CubeSnapshot {
            cube,
            vertical,
            materialize: Materialize::default(),
            atkinson_b: DEFAULT_ATKINSON_B,
            measures: MeasureSet::FULL,
            maintenance,
        })
    }

    /// The shape checks behind [`Self::new`], shared with the
    /// deserializer (which carries its own, already-validated store).
    fn validate_pairing(cube: &SegregationCube, vertical: &VerticalDb<P>) -> Result<()> {
        if cube.num_units() != vertical.num_units() {
            return Err(ScubeError::Inconsistent(format!(
                "snapshot: cube has {} units but vertical database has {}",
                cube.num_units(),
                vertical.num_units()
            )));
        }
        if cube.labels().num_items() != vertical.num_items() {
            return Err(ScubeError::Inconsistent(format!(
                "snapshot: cube labels {} items but vertical database has {}",
                cube.labels().num_items(),
                vertical.num_items()
            )));
        }
        if cube.labels().unit_names.len() != cube.num_units() as usize {
            return Err(ScubeError::Inconsistent(format!(
                "snapshot: {} unit names for {} units",
                cube.labels().unit_names.len(),
                cube.num_units()
            )));
        }
        Ok(())
    }

    /// Record the build configuration (materialization strategy, Atkinson
    /// parameter, and measure subset) the cube was built with.
    /// [`Self::from_db`] does this automatically; use it when pairing a
    /// cube and vertical database by hand so later [`Self::apply_update`]
    /// calls maintain the cube under the same parameters.
    pub fn with_build_config(
        mut self,
        materialize: Materialize,
        atkinson_b: f64,
        measures: MeasureSet,
    ) -> Self {
        self.materialize = materialize;
        self.atkinson_b = atkinson_b;
        self.measures = measures;
        self
    }

    /// Build both halves from a transaction database in one pass: the
    /// vertical database is constructed once and shared with the builder,
    /// and the builder's configuration is recorded for later updates.
    pub fn from_db(db: &TransactionDb, builder: &CubeBuilder) -> Result<Self>
    where
        P: Send + Sync,
    {
        let vertical: VerticalDb<P> = VerticalDb::build(db);
        let cube = builder.build_from_vertical(db, &vertical)?;
        let cfg = builder.config();
        Ok(CubeSnapshot::new(cube, vertical)?.with_build_config(
            cfg.materialize,
            cfg.atkinson_b,
            cfg.measures,
        ))
    }

    /// Fold a batch of appended rows and retractions into the snapshot in
    /// place: postings extended at their tails (or shrunk), newly-frequent
    /// itemsets promoted, below-threshold or no-longer-closed cells
    /// demoted, and exactly the dirty cells re-evaluated under the
    /// recorded build configuration — bit-identical to a full rebuild on
    /// the edited data for single-valued-per-row attributes; see
    /// [`UpdateBatch`] for the narrow multi-valued dictionary-order caveat
    /// (cell values are exact in every case) and [`crate::update`] for the
    /// machinery.
    ///
    /// ```
    /// use scube_cube::{CubeBuilder, CubeSnapshot, UpdateBatch};
    /// use scube_data::{Attribute, Schema, TransactionDbBuilder};
    ///
    /// let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")])?;
    /// let mut b = TransactionDbBuilder::new(schema);
    /// for (sex, unit) in [("F", "u0"), ("F", "u0"), ("M", "u1")] {
    ///     b.add_row(&[vec![sex], vec!["north"]], unit)?;
    /// }
    /// let mut snap: CubeSnapshot = CubeSnapshot::from_db(&b.finish(), &CubeBuilder::new())?;
    /// assert_eq!(snap.cube().get_by_names(&[("sex", "F")], &[]).unwrap().total, 3);
    ///
    /// // A new individual arrives — in a brand-new unit.
    /// let mut batch = UpdateBatch::new();
    /// batch.add_row(&[("sex", "F"), ("region", "north")], "u2");
    /// let stats = snap.apply_update(&batch)?;
    /// assert_eq!((stats.rows_added, stats.new_units), (1, 1));
    /// let women = snap.cube().get_by_names(&[("sex", "F")], &[]).unwrap();
    /// assert_eq!((women.minority, women.total), (3, 4));
    /// # Ok::<(), scube_common::ScubeError>(())
    /// ```
    pub fn apply_update(&mut self, batch: &UpdateBatch) -> Result<UpdateStats>
    where
        P: Send + Sync,
    {
        self.apply_update_threads(batch, 1)
    }

    /// As [`Self::apply_update`], fanning dirty-cell re-evaluation over up
    /// to `threads` scoped worker threads (per-worker scratches,
    /// deterministic results — the parallel update is bit-identical to the
    /// serial one, property-tested in `tests/cube_update_equivalence.rs`).
    pub fn apply_update_threads(
        &mut self,
        batch: &UpdateBatch,
        threads: usize,
    ) -> Result<UpdateStats>
    where
        P: Send + Sync,
    {
        Ok(self.apply_update_outcome(batch, threads)?.stats)
    }

    /// As [`Self::apply_update_threads`], also returning the dirtiness
    /// probe the serving layers use to invalidate exactly the affected
    /// cache entries.
    pub(crate) fn apply_update_outcome(
        &mut self,
        batch: &UpdateBatch,
        threads: usize,
    ) -> Result<UpdateOutcome<P>>
    where
        P: Send + Sync,
    {
        crate::update::apply_update(
            &mut self.cube,
            &mut self.vertical,
            &mut self.maintenance,
            batch,
            self.materialize,
            self.atkinson_b,
            self.measures,
            threads,
        )
    }

    /// Serving-layer constructor parts: both halves plus the build
    /// configuration and maintenance store (the concurrent engine keeps
    /// the store so [`crate::serve::ConcurrentCubeEngine::apply_update`]
    /// folds deltas at the same cost as the snapshot path).
    pub(crate) fn into_serving_parts(
        self,
    ) -> (SegregationCube, VerticalDb<P>, MaintenanceStore, Materialize, f64, MeasureSet) {
        (
            self.cube,
            self.vertical,
            self.maintenance,
            self.materialize,
            self.atkinson_b,
            self.measures,
        )
    }

    /// The materialization strategy the cube was built with (recorded in
    /// snapshot format v2; `AllFrequent` for loaded v1 files).
    pub fn materialize(&self) -> Materialize {
        self.materialize
    }

    /// The Atkinson shape parameter the cube was built with (recorded in
    /// snapshot format v2; the default for loaded v1 files).
    pub fn atkinson_b(&self) -> f64 {
        self.atkinson_b
    }

    /// The measure subset the cube was built with (recorded in snapshot
    /// format v5; [`MeasureSet::FULL`] for v1–v4 files).
    pub fn measures(&self) -> MeasureSet {
        self.measures
    }

    /// The materialized cube.
    pub fn cube(&self) -> &SegregationCube {
        &self.cube
    }

    /// The vertical database (item postings + tid → unit map).
    pub fn vertical(&self) -> &VerticalDb<P> {
        &self.vertical
    }

    /// Take ownership of both halves. The cube comes back without the
    /// maintenance store; pairing it again with [`Self::new`] re-derives
    /// the store from the postings.
    pub fn into_parts(self) -> (SegregationCube, VerticalDb<P>) {
        (self.cube, self.vertical)
    }

    /// Serialize into the version-4 binary format (module docs): offset
    /// directory, meta region, posting directory, 8-aligned posting slots,
    /// maintenance-store region. Canonical — identical snapshots produce
    /// identical bytes, whatever path (build, load, update, mmap) produced
    /// the value.
    pub fn to_bytes(&self) -> Vec<u8> {
        let meta = self.encode_meta();

        // Posting slots (8-aligned, zero padding between) + directory.
        let n_postings = self.vertical.num_items();
        let postdir_off = META_OFF + meta.len();
        let slots_off = (postdir_off + n_postings * POSTDIR_ENTRY).next_multiple_of(8);
        let mut postdir = Vec::with_capacity(n_postings * POSTDIR_ENTRY);
        let mut slots = Vec::new();
        for posting in self.vertical.postings() {
            slots.resize(slots.len().next_multiple_of(8), 0);
            let start = slots.len();
            posting.write_slot(&mut slots);
            put_u64(&mut postdir, (slots_off + start) as u64);
            put_u64(&mut postdir, (slots.len() - start) as u64);
            put_u64(&mut postdir, posting.cardinality());
        }
        let store_off = slots_off + slots.len();

        let mut out = Vec::with_capacity(store_off + 1024);
        out.extend_from_slice(MAGIC);
        let version = if self.measures.is_full() { VERSION } else { VERSION_5 };
        out.extend_from_slice(&version.to_le_bytes());
        out.push(P::SERIAL_TAG);
        out.extend_from_slice(&[0u8; 8]); // full checksum, patched below
        out.extend_from_slice(&[0u8; 3]); // padding to an 8-aligned directory
        for word in [
            META_OFF as u64,
            meta.len() as u64,
            postdir_off as u64,
            n_postings as u64,
            slots_off as u64,
            slots.len() as u64,
            store_off as u64,
            0, // store length, patched below
            0, // meta checksum, patched below
        ] {
            put_u64(&mut out, word);
        }
        out.extend_from_slice(&meta);
        out.extend_from_slice(&postdir);
        out.resize(slots_off, 0); // alignment padding before the first slot
        out.extend_from_slice(&slots);
        encode_store(&self.maintenance, &mut out);
        let store_len = (out.len() - store_off) as u64;
        out[DIR_OFF + 7 * 8..DIR_OFF + 8 * 8].copy_from_slice(&store_len.to_le_bytes());
        let meta_sum = checksum2(&out[DIR_OFF..DIR_OFF + 8 * 8], &out[META_OFF..slots_off]);
        out[DIR_OFF + 8 * 8..META_OFF].copy_from_slice(&meta_sum.to_le_bytes());
        let full_sum = checksum(&out[DIR_OFF..]);
        out[13..21].copy_from_slice(&full_sum.to_le_bytes());
        out
    }

    /// The v4/v5 meta region: build configuration, labels, cube metadata,
    /// cells in canonical (sa, ca) order, and the tid → unit map. A full
    /// measure suite writes the v4 layout (values inline per cell); a
    /// subset writes the v5 layout (measure-set byte, population summary
    /// per cell, then one fixed-width value table per selected measure).
    fn encode_meta(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        let labels = self.cube.labels();

        // Build configuration.
        meta.push(match self.materialize {
            Materialize::AllFrequent => 0,
            Materialize::ClosedOnly => 1,
        });
        put_u64(&mut meta, self.atkinson_b.to_bits());
        if !self.measures.is_full() {
            meta.push(self.measures.bits());
        }

        // Labels.
        put_u32(&mut meta, labels.num_items() as u32);
        for item in 0..labels.num_items() as ItemId {
            put_str(&mut meta, labels.attr_of(item));
            put_str(&mut meta, labels.value_of(item));
            meta.push(labels.is_sa_item(item) as u8);
        }
        put_str_list(&mut meta, &labels.sa_attrs);
        put_str_list(&mut meta, &labels.ca_attrs);
        put_str_list(&mut meta, &labels.unit_names);

        // Cube metadata.
        put_u32(&mut meta, self.cube.num_units());
        put_u64(&mut meta, self.cube.min_support());

        // Cells in canonical (sa, ca) order.
        let mut cells: Vec<(&CellCoords, &IndexValues)> = self.cube.cells().collect();
        cells.sort_by(|a, b| a.0.cmp(b.0));
        put_u32(&mut meta, cells.len() as u32);
        if self.measures.is_full() {
            for (coords, values) in &cells {
                put_ids(&mut meta, &coords.sa);
                put_ids(&mut meta, &coords.ca);
                put_values(&mut meta, values);
            }
        } else {
            // v5: coordinates + population summary inline, then one
            // fixed-width little-endian value table per selected measure
            // (9 bytes per cell: presence byte + f64 bits, zero when
            // absent), in `SegIndex::ALL` order — columnar, so a reader
            // interested in one index touches one contiguous table.
            for (coords, values) in &cells {
                put_ids(&mut meta, &coords.sa);
                put_ids(&mut meta, &coords.ca);
                put_u64(&mut meta, values.minority);
                put_u64(&mut meta, values.total);
                put_u32(&mut meta, values.num_units);
            }
            for index in self.measures.iter() {
                for (_, values) in &cells {
                    put_f64_slot(&mut meta, values.get(index));
                }
            }
        }

        // Transaction space and tid → unit map.
        put_u32(&mut meta, self.vertical.num_transactions());
        put_u32(&mut meta, self.vertical.num_units());
        for &u in self.vertical.units() {
            put_u32(&mut meta, u);
        }
        meta
    }

    /// Deserialize a snapshot, verifying magic, version, representation
    /// tag, and checksum before trusting any field. The current v4/v5
    /// formats and legacy v1–v3 files all load; any other version is an
    /// error, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(corrupt("shorter than the fixed header"));
        }
        if &bytes[..8] != MAGIC {
            return Err(corrupt("bad magic (not a scube snapshot)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        match version {
            VERSION | VERSION_5 => Self::from_bytes_v4(bytes, version),
            VERSION_1 | VERSION_2 | VERSION_3 => Self::from_bytes_legacy(bytes, version),
            _ => Err(corrupt(&format!(
                "unsupported format version {version} (want {VERSION_1}..={VERSION_5})"
            ))),
        }
    }

    /// Check the representation-tag byte at offset 12 (all versions).
    fn check_tag(bytes: &[u8]) -> Result<()> {
        let tag = bytes[12];
        if tag != P::SERIAL_TAG {
            return Err(corrupt(&format!(
                "posting representation tag {tag} does not match the requested \
                 representation (tag {})",
                P::SERIAL_TAG
            )));
        }
        Ok(())
    }

    /// The v1–v3 single-payload decoder (fully validating; the only read
    /// path these versions have).
    fn from_bytes_legacy(bytes: &[u8], version: u32) -> Result<Self> {
        Self::check_tag(bytes)?;
        let stored_sum = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if checksum(payload) != stored_sum {
            return Err(corrupt("checksum mismatch (truncated or corrupted payload)"));
        }

        let mut r = Reader { bytes: payload, pos: 0 };

        // Build configuration (since v2; v1 predates it and gets the
        // builder defaults).
        let (materialize, atkinson_b) = if version >= VERSION_2 {
            let materialize = match r.u8()? {
                0 => Materialize::AllFrequent,
                1 => Materialize::ClosedOnly,
                t => return Err(corrupt(&format!("unknown materialization tag {t}"))),
            };
            let b = f64::from_bits(r.u64()?);
            if !b.is_finite() {
                return Err(corrupt("non-finite Atkinson parameter"));
            }
            (materialize, b)
        } else {
            (Materialize::default(), DEFAULT_ATKINSON_B)
        };

        // Labels. Like every length below, the declared count only seeds a
        // *capped* preallocation: a crafted length cannot force a huge
        // up-front allocation — the loop hits end-of-data first.
        let n_items = r.u32()? as usize;
        let mut items = Vec::with_capacity(n_items.min(PREALLOC_CAP));
        for _ in 0..n_items {
            let attr = r.str()?;
            let value = r.str()?;
            let is_sa = r.u8()? != 0;
            items.push((attr, value, is_sa));
        }
        let labels = CubeLabels {
            items,
            sa_attrs: r.str_list()?,
            ca_attrs: r.str_list()?,
            unit_names: r.str_list()?,
        };

        // Cube metadata.
        let n_units = r.u32()?;
        let min_support = r.u64()?;

        // Cells.
        let n_cells = r.u32()? as usize;
        let mut cells: FxHashMap<CellCoords, IndexValues> =
            scube_common::hash::fx_map_with_capacity(n_cells.min(PREALLOC_CAP));
        for _ in 0..n_cells {
            let sa = r.ids(n_items)?;
            let ca = r.ids(n_items)?;
            let values = r.values()?;
            if cells.insert(CellCoords { sa, ca }, values).is_some() {
                return Err(corrupt("duplicate cell coordinates"));
            }
        }
        let cube = SegregationCube::new(cells, labels, n_units, min_support);

        // Vertical database.
        let n_transactions = r.u32()?;
        let v_units = r.u32()?;
        let mut unit_of = Vec::with_capacity((n_transactions as usize).min(PREALLOC_CAP));
        for _ in 0..n_transactions {
            unit_of.push(r.u32()?);
        }
        let n_postings = r.u32()? as usize;
        if n_postings != n_items {
            return Err(corrupt("posting count does not match item count"));
        }
        let mut postings = Vec::with_capacity(n_postings.min(PREALLOC_CAP));
        for _ in 0..n_postings {
            let (posting, consumed) = P::read_bytes(&r.bytes[r.pos..])
                .ok_or_else(|| corrupt("malformed posting payload"))?;
            r.pos += consumed;
            postings.push(posting);
        }

        // Maintenance store: stored since v2, reconstructed for v1 files.
        let maintenance =
            if version >= VERSION_2 { Some(decode_store(&mut r, n_items, v_units)?) } else { None };
        if r.pos != r.bytes.len() {
            return Err(corrupt("trailing bytes after the payload"));
        }
        let vertical = VerticalDb::from_parts(postings, n_transactions, unit_of, v_units)
            .ok_or_else(|| corrupt("inconsistent vertical database parts"))?;

        Self::validate_pairing(&cube, &vertical)?;
        let maintenance = match maintenance {
            Some(store) => {
                if !store.covers(&cube) {
                    return Err(corrupt("maintenance store does not cover the cube"));
                }
                store
            }
            None => MaintenanceStore::rederive(&cube, &vertical),
        };
        Ok(CubeSnapshot {
            cube,
            vertical,
            materialize,
            atkinson_b,
            measures: MeasureSet::FULL,
            maintenance,
        })
    }

    /// The v4/v5 heap decoder: verify the full checksum, walk the
    /// directory, decode every region, and validate exactly as strictly as
    /// the legacy path (owned postings via [`Posting::read_slot`], full
    /// [`VerticalDb::from_parts`] and store-coverage checks).
    fn from_bytes_v4(bytes: &[u8], version: u32) -> Result<Self> {
        if bytes.len() < META_OFF {
            return Err(corrupt("shorter than the fixed v4 header"));
        }
        Self::check_tag(bytes)?;
        let stored_sum = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
        if checksum(&bytes[DIR_OFF..]) != stored_sum {
            return Err(corrupt("checksum mismatch (truncated or corrupted payload)"));
        }
        if bytes[HEADER_LEN..DIR_OFF] != [0u8; 3] {
            return Err(corrupt("nonzero header padding"));
        }
        let d = Directory::parse(bytes)?;
        let meta = decode_meta(&bytes[META_OFF..d.postdir_off], version)?;
        if d.n_postings != meta.n_items {
            return Err(corrupt("posting count does not match item count"));
        }
        let mut postings = Vec::with_capacity(d.n_postings.min(PREALLOC_CAP));
        for i in 0..d.n_postings {
            let (off, len, card) = d.postdir_entry(bytes, i)?;
            let posting = P::read_slot(&bytes[off..off + len], card)
                .ok_or_else(|| corrupt("malformed posting slot"))?;
            postings.push(posting);
        }
        let store = {
            let mut r = Reader { bytes: &bytes[d.store_off..d.store_off + d.store_len], pos: 0 };
            let store = decode_store(&mut r, meta.n_items, meta.v_units)?;
            if r.pos != r.bytes.len() {
                return Err(corrupt("trailing bytes after the maintenance store"));
            }
            store
        };
        let vertical =
            VerticalDb::from_parts(postings, meta.n_transactions, meta.unit_of, meta.v_units)
                .ok_or_else(|| corrupt("inconsistent vertical database parts"))?;
        Self::validate_pairing(&meta.cube, &vertical)?;
        if !store.covers(&meta.cube) {
            return Err(corrupt("maintenance store does not cover the cube"));
        }
        Ok(CubeSnapshot {
            cube: meta.cube,
            vertical,
            materialize: meta.materialize,
            atkinson_b: meta.atkinson_b,
            measures: meta.measures,
            maintenance: store,
        })
    }

    /// Map a v4 snapshot file and serve its postings zero-copy out of the
    /// page cache — every daemon that opens the same file shares one
    /// physical copy.
    ///
    /// Validation is O(metadata), which is what keeps a cold open at
    /// milliseconds regardless of file size: the header, the offset
    /// directory, the meta region, and the posting directory are verified
    /// against `meta_sum`; each posting slot is checked *structurally*
    /// ([`Posting::map_slot`] — panic-freedom and tid range, not content),
    /// and the maintenance-store region is decoded and fully validated
    /// only when an update first needs it. Bit rot inside a slot that
    /// happens to keep a valid structure is the one corruption class this
    /// cannot catch — [`Self::open_mmap_verified`] reads the whole file
    /// and checks the full checksum for that.
    ///
    /// Errors (never panics, never UB) on truncated or corrupted files, on
    /// v1–v3 files (load and re-save to convert them to v4), and on
    /// big-endian hosts, where the fixed-width tables cannot be
    /// reinterpreted in place — [`Self::load`] works everywhere.
    ///
    /// The returned snapshot behaves exactly like a loaded one: queries
    /// are answered bit-identically (`tests/mmap_differential.rs`), and
    /// mutation (`apply_update`) transparently copies the touched postings
    /// onto the heap.
    pub fn open_mmap(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_mmap_inner(path.as_ref(), false)
    }

    /// As [`Self::open_mmap`], additionally verifying the full-payload
    /// checksum — an O(file) read that rules out bit rot everywhere, for
    /// callers that prefer eager certainty over a milliseconds open.
    pub fn open_mmap_verified(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_mmap_inner(path.as_ref(), true)
    }

    fn open_mmap_inner(path: &Path, verify_full: bool) -> Result<Self> {
        if cfg!(target_endian = "big") {
            return Err(ScubeError::Inconsistent(
                "snapshot: open_mmap requires a little-endian host (use load)".into(),
            ));
        }
        let file = Arc::new(MmapFile::open(path)?);
        let whole = ByteRegion::whole(Arc::clone(&file));
        let bytes = file.as_bytes();
        if bytes.len() < META_OFF {
            return Err(corrupt("shorter than the fixed v4 header"));
        }
        if &bytes[..8] != MAGIC {
            return Err(corrupt("bad magic (not a scube snapshot)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if (VERSION_1..=VERSION_3).contains(&version) {
            return Err(corrupt(&format!(
                "format v{version} predates mapped serving — load and re-save to convert to v4"
            )));
        }
        if version != VERSION && version != VERSION_5 {
            return Err(corrupt(&format!(
                "unsupported format version {version} (want {VERSION_1}..={VERSION_5})"
            )));
        }
        Self::check_tag(bytes)?;
        if bytes[HEADER_LEN..DIR_OFF] != [0u8; 3] {
            return Err(corrupt("nonzero header padding"));
        }
        if verify_full {
            let stored_sum = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
            if checksum(&bytes[DIR_OFF..]) != stored_sum {
                return Err(corrupt("checksum mismatch (truncated or corrupted payload)"));
            }
        }
        let d = Directory::parse(bytes)?;
        if checksum2(&bytes[DIR_OFF..DIR_OFF + 8 * 8], &bytes[META_OFF..d.slots_off]) != d.meta_sum
        {
            return Err(corrupt("meta checksum mismatch (corrupted directory or meta region)"));
        }
        let meta = decode_meta(&bytes[META_OFF..d.postdir_off], version)?;
        if d.n_postings != meta.n_items {
            return Err(corrupt("posting count does not match item count"));
        }
        let mut postings = Vec::with_capacity(d.n_postings.min(PREALLOC_CAP));
        for i in 0..d.n_postings {
            let (off, len, card) = d.postdir_entry(bytes, i)?;
            let region =
                whole.slice(off, len).ok_or_else(|| corrupt("posting slot out of bounds"))?;
            let posting = P::map_slot(region, card, meta.n_transactions)
                .ok_or_else(|| corrupt("malformed posting slot"))?;
            postings.push(posting);
        }
        // `map_slot` guaranteed every posting stays below `n_transactions`,
        // so the O(data) posting re-scan of `from_parts` is unnecessary —
        // that scan is precisely what would make a cold open O(file).
        let vertical = VerticalDb::from_validated_parts(
            postings,
            meta.n_transactions,
            meta.unit_of,
            meta.v_units,
        )
        .ok_or_else(|| corrupt("inconsistent vertical database parts"))?;
        Self::validate_pairing(&meta.cube, &vertical)?;
        let store_region =
            whole.slice(d.store_off, d.store_len).ok_or_else(|| corrupt("store out of bounds"))?;
        Ok(CubeSnapshot {
            cube: meta.cube,
            vertical,
            materialize: meta.materialize,
            atkinson_b: meta.atkinson_b,
            measures: meta.measures,
            maintenance: MaintenanceStore::deferred(store_region, meta.n_items, meta.v_units),
        })
    }

    /// Write the snapshot to a file, atomically: the bytes go to a
    /// same-directory temp file, are fsynced, and are renamed over the
    /// target. A crash, kill, or full disk mid-save therefore never
    /// replaces an existing snapshot with a torn one — the target path
    /// holds either the previous bytes or the complete new ones
    /// (`tests/snapshot_atomic_save.rs` kills a writer mid-save to prove
    /// it). On error the temp file is removed best-effort.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        write_atomic(path, &self.to_bytes())
    }

    /// Load a snapshot from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| ScubeError::io_at(path.display().to_string(), e))?;
        Self::from_bytes(&bytes)
    }
}

/// FxHash over the whole payload — fast, deterministic, and plenty for
/// detecting truncation and bit rot (this is an integrity check, not an
/// authenticity one).
fn checksum(payload: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = scube_common::hash::FxHasher::default();
    h.write(payload);
    // Fold the length in so a truncated all-zero tail cannot collide.
    h.write_u64(payload.len() as u64);
    h.finish()
}

/// FxHash over two concatenated slices (the v4 `meta_sum`, whose coverage
/// skips the `meta_sum` word itself). Length-folded like [`checksum`].
fn checksum2(a: &[u8], b: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = scube_common::hash::FxHasher::default();
    h.write(a);
    h.write(b);
    h.write_u64((a.len() + b.len()) as u64);
    h.finish()
}

/// Atomic, durable file replacement: write to a unique same-directory temp
/// file, fsync, rename over `path`. The rename is what makes an
/// interrupted save harmless — POSIX guarantees the target names either
/// the old or the new bytes, never a mixture.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let io = |e: std::io::Error| ScubeError::io_at(path.display().to_string(), e);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let base = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".into());
    let tmp = dir.join(format!(
        ".{base}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(io)
}

/// The v4 offset directory, parsed and cross-validated: every region must
/// tile the file exactly (header, directory, meta, posting directory,
/// alignment padding, slots, store — in that order, no gaps, no overlap),
/// so a reader can trust offsets before trusting contents.
struct Directory {
    postdir_off: usize,
    n_postings: usize,
    slots_off: usize,
    store_off: usize,
    store_len: usize,
    meta_sum: u64,
}

impl Directory {
    fn parse(bytes: &[u8]) -> Result<Directory> {
        let mut w = [0u64; DIR_WORDS];
        for (i, word) in w.iter_mut().enumerate() {
            let at = DIR_OFF + 8 * i;
            *word = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        }
        let [meta_off, meta_len, postdir_off, n_postings, slots_off, slots_len, store_off, store_len, meta_sum] =
            w;
        let bad = |msg: &str| corrupt(&format!("directory: {msg}"));
        if meta_off != META_OFF as u64 {
            return Err(bad("bad meta offset"));
        }
        if meta_off.checked_add(meta_len) != Some(postdir_off) {
            return Err(bad("meta region and posting directory disagree"));
        }
        let postdir_end = n_postings
            .checked_mul(POSTDIR_ENTRY as u64)
            .and_then(|l| postdir_off.checked_add(l))
            .ok_or_else(|| bad("posting directory length overflow"))?;
        if postdir_end.checked_next_multiple_of(8) != Some(slots_off) {
            return Err(bad("posting directory and slots disagree"));
        }
        if slots_off.checked_add(slots_len) != Some(store_off) {
            return Err(bad("slots and store disagree"));
        }
        if store_off.checked_add(store_len) != Some(bytes.len() as u64) {
            return Err(bad("regions do not span the file"));
        }
        Ok(Directory {
            postdir_off: postdir_off as usize,
            n_postings: n_postings as usize,
            slots_off: slots_off as usize,
            store_off: store_off as usize,
            store_len: store_len as usize,
            meta_sum,
        })
    }

    /// Entry `i` of the posting directory: absolute slot offset, slot
    /// length, cardinality — with the slot range checked to lie inside the
    /// slots region.
    fn postdir_entry(&self, bytes: &[u8], i: usize) -> Result<(usize, usize, u64)> {
        let at = self.postdir_off + i * POSTDIR_ENTRY;
        let word =
            |k: usize| u64::from_le_bytes(bytes[at + 8 * k..at + 8 * k + 8].try_into().expect("8"));
        let (off, len, card) = (word(0), word(1), word(2));
        let end = off.checked_add(len).ok_or_else(|| corrupt("posting slot overflow"))?;
        if off < self.slots_off as u64 || end > self.store_off as u64 {
            return Err(corrupt("posting slot outside the slots region"));
        }
        Ok((off as usize, len as usize, card))
    }
}

/// The decoded v4/v5 meta region — everything but postings and the
/// maintenance store.
struct MetaParts {
    materialize: Materialize,
    atkinson_b: f64,
    measures: MeasureSet,
    cube: SegregationCube,
    n_items: usize,
    n_transactions: u32,
    v_units: u32,
    unit_of: Vec<u32>,
}

/// Decode the v4/v5 meta region (exactly; trailing bytes are an error).
/// v4 carries no measure-set byte (the set is implicitly full) and stores
/// every cell's six tagged-optional values inline; v5 adds the measure
/// byte after the Atkinson parameter and moves the per-cell values into
/// columnar fixed-width tables, one per selected measure.
fn decode_meta(bytes: &[u8], version: u32) -> Result<MetaParts> {
    let mut r = Reader { bytes, pos: 0 };

    // Build configuration.
    let materialize = match r.u8()? {
        0 => Materialize::AllFrequent,
        1 => Materialize::ClosedOnly,
        t => return Err(corrupt(&format!("unknown materialization tag {t}"))),
    };
    let atkinson_b = f64::from_bits(r.u64()?);
    if !atkinson_b.is_finite() {
        return Err(corrupt("non-finite Atkinson parameter"));
    }
    let measures = if version >= VERSION_5 {
        let bits = r.u8()?;
        let set = MeasureSet::from_bits(bits)
            .ok_or_else(|| corrupt(&format!("invalid measure-set byte {bits:#04x}")))?;
        if set.is_full() {
            // Canonical form: a full set is always written as v4.
            return Err(corrupt("v5 snapshot declares the full measure set (must be v4)"));
        }
        set
    } else {
        MeasureSet::FULL
    };

    // Labels.
    let n_items = r.u32()? as usize;
    let mut items = Vec::with_capacity(n_items.min(PREALLOC_CAP));
    for _ in 0..n_items {
        let attr = r.str()?;
        let value = r.str()?;
        let is_sa = r.u8()? != 0;
        items.push((attr, value, is_sa));
    }
    let labels = CubeLabels {
        items,
        sa_attrs: r.str_list()?,
        ca_attrs: r.str_list()?,
        unit_names: r.str_list()?,
    };

    // Cube metadata and cells.
    let n_units = r.u32()?;
    let min_support = r.u64()?;
    let n_cells = r.u32()? as usize;
    let mut cells: FxHashMap<CellCoords, IndexValues> =
        scube_common::hash::fx_map_with_capacity(n_cells.min(PREALLOC_CAP));
    if measures.is_full() {
        for _ in 0..n_cells {
            let sa = r.ids(n_items)?;
            let ca = r.ids(n_items)?;
            let values = r.values()?;
            if cells.insert(CellCoords { sa, ca }, values).is_some() {
                return Err(corrupt("duplicate cell coordinates"));
            }
        }
    } else {
        // v5: coordinates and counts first, in canonical cell order, then
        // one fixed-width value column per selected measure.
        let mut order = Vec::with_capacity(n_cells.min(PREALLOC_CAP));
        for _ in 0..n_cells {
            let sa = r.ids(n_items)?;
            let ca = r.ids(n_items)?;
            let values = IndexValues {
                minority: r.u64()?,
                total: r.u64()?,
                num_units: r.u32()?,
                ..IndexValues::default()
            };
            order.push((CellCoords { sa, ca }, values));
        }
        for index in measures.iter() {
            for (_, values) in order.iter_mut() {
                values.set(index, r.f64_slot()?);
            }
        }
        for (coords, values) in order {
            if cells.insert(coords, values).is_some() {
                return Err(corrupt("duplicate cell coordinates"));
            }
        }
    }
    let cube = SegregationCube::new(cells, labels, n_units, min_support);

    // Transaction space and tid → unit map.
    let n_transactions = r.u32()?;
    let v_units = r.u32()?;
    let mut unit_of = Vec::with_capacity((n_transactions as usize).min(PREALLOC_CAP));
    for _ in 0..n_transactions {
        unit_of.push(r.u32()?);
    }
    if r.pos != r.bytes.len() {
        return Err(corrupt("trailing bytes in the meta region"));
    }
    Ok(MetaParts {
        materialize,
        atkinson_b,
        measures,
        cube,
        n_items,
        n_transactions,
        v_units,
        unit_of,
    })
}

/// Encode the maintenance store: context totals then cell minorities, in
/// canonical key order so serialization stays path-independent — an
/// updated snapshot and a rebuilt one produce identical bytes. This is
/// both the v4 store region and the tail of the v2/v3 payload.
///
/// A partially-decoded mapped store stays canonical without decoding the
/// rest: still-lazy entries splice their histogram bytes verbatim out of
/// the mapped region (they came from this writer, so the bytes *are* the
/// canonical encoding), interleaved with re-encoded decoded entries in
/// one sorted key order. An untouched region skips even the merge and is
/// spliced whole.
/// A store key paired with `Some(byte range)` when it lives undecoded in
/// the lazy region, `None` when it was decoded (and possibly mutated).
type KeyedRanges<'a, K> = Vec<(&'a K, Option<(usize, usize)>)>;

fn encode_store(store: &MaintenanceStore, out: &mut Vec<u8>) {
    if let Some(lazy) = &store.lazy {
        if !lazy.indexed {
            debug_assert!(store.contexts.is_empty() && store.minorities.is_empty());
            out.extend_from_slice(lazy.region.as_slice());
            return;
        }
    }
    let lazy_bytes = store.lazy.as_ref().map(|l| l.region.as_slice());
    let splice = |out: &mut Vec<u8>, range: (usize, usize)| {
        out.extend_from_slice(
            &lazy_bytes.expect("lazy range implies lazy region")[range.0..range.1],
        );
    };

    let mut ctx_keys: KeyedRanges<Vec<ItemId>> = store.contexts.keys().map(|k| (k, None)).collect();
    if let Some(lazy) = &store.lazy {
        ctx_keys.extend(lazy.ctx_ranges.iter().map(|(k, &r)| (k, Some(r))));
    }
    ctx_keys.sort_unstable_by(|a, b| a.0.cmp(b.0));
    put_u32(out, ctx_keys.len() as u32);
    for (key, range) in ctx_keys {
        put_ids(out, key);
        match range {
            None => put_pairs(out, &store.contexts[key]),
            Some(r) => splice(out, r),
        }
    }

    let mut cell_keys: KeyedRanges<CellCoords> =
        store.minorities.keys().map(|k| (k, None)).collect();
    if let Some(lazy) = &store.lazy {
        cell_keys.extend(lazy.min_ranges.iter().map(|(k, &r)| (k, Some(r))));
    }
    cell_keys.sort_unstable_by(|a, b| a.0.cmp(b.0));
    put_u32(out, cell_keys.len() as u32);
    for (coords, range) in cell_keys {
        put_ids(out, &coords.sa);
        put_ids(out, &coords.ca);
        match range {
            None => put_pairs(out, &store.minorities[coords]),
            Some(r) => splice(out, r),
        }
    }
}

/// Decode a maintenance store from `r` (same validation whatever the
/// enclosing version: sorted keys' structure, unit range, nonzero counts).
fn decode_store(r: &mut Reader<'_>, n_items: usize, v_units: u32) -> Result<MaintenanceStore> {
    let mut store = MaintenanceStore::default();
    let n_contexts = r.u32()? as usize;
    for _ in 0..n_contexts {
        let key = r.ids(n_items)?;
        let pairs = r.pairs(v_units)?;
        if store.contexts.insert(key, pairs).is_some() {
            return Err(corrupt("duplicate maintenance context"));
        }
    }
    let n_minorities = r.u32()? as usize;
    for _ in 0..n_minorities {
        let sa = r.ids(n_items)?;
        let ca = r.ids(n_items)?;
        let pairs = r.pairs(v_units)?;
        if store.minorities.insert(CellCoords { sa, ca }, pairs).is_some() {
            return Err(corrupt("duplicate maintenance cell"));
        }
    }
    Ok(store)
}

fn corrupt(msg: &str) -> ScubeError {
    ScubeError::Inconsistent(format!("snapshot: {msg}"))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_str_list(out: &mut Vec<u8>, list: &[String]) {
    put_u32(out, list.len() as u32);
    for s in list {
        put_str(out, s);
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[ItemId]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u32(out, id);
    }
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(u32, u64)]) {
    put_u32(out, pairs.len() as u32);
    for &(unit, count) in pairs {
        put_u32(out, unit);
        put_u64(out, count);
    }
}

fn put_f64_opt(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Fixed-width (9-byte) optional value for the v5 columnar tables:
/// presence byte then the f64 bits, zero bits when absent. Fixed width
/// keeps every column the same length, so a value can be located by
/// `column_base + 9 * cell_index` without scanning.
fn put_f64_slot(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        None => {
            out.push(0);
            out.extend_from_slice(&[0u8; 8]);
        }
    }
}

fn put_values(out: &mut Vec<u8>, v: &IndexValues) {
    put_f64_opt(out, v.dissimilarity);
    put_f64_opt(out, v.gini);
    put_f64_opt(out, v.information);
    put_f64_opt(out, v.isolation);
    put_f64_opt(out, v.interaction);
    put_f64_opt(out, v.atkinson);
    put_u64(out, v.minority);
    put_u64(out, v.total);
    put_u32(out, v.num_units);
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| corrupt("length overflow"))?;
        let s = self.bytes.get(self.pos..end).ok_or_else(|| corrupt("unexpected end of data"))?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid UTF-8 in string"))
    }

    fn str_list(&mut self) -> Result<Vec<String>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }

    /// A sorted id list whose entries must reference known items.
    fn ids(&mut self, n_items: usize) -> Result<Vec<ItemId>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        let mut prev: Option<ItemId> = None;
        for _ in 0..n {
            let id = self.u32()?;
            if id as usize >= n_items {
                return Err(corrupt("cell coordinate references an unknown item"));
            }
            if prev.is_some_and(|p| id <= p) {
                return Err(corrupt("cell coordinates not strictly increasing"));
            }
            prev = Some(id);
            out.push(id);
        }
        Ok(out)
    }

    /// Skip an ascending-pairs blob without decoding it, returning its
    /// byte range (count prefix included) within the reader's buffer —
    /// the structural half of [`Self::pairs`], used by the lazy store's
    /// index scan.
    fn skip_pairs(&mut self) -> Result<(usize, usize)> {
        let start = self.pos;
        let n = self.u32()? as usize;
        let len = n.checked_mul(12).ok_or_else(|| corrupt("length overflow"))?;
        self.take(len)?;
        Ok((start, self.pos))
    }

    /// Ascending `(unit, count)` pairs over known units, counts nonzero.
    fn pairs(&mut self, n_units: u32) -> Result<Vec<(u32, u64)>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let unit = self.u32()?;
            let count = self.u64()?;
            if unit >= n_units {
                return Err(corrupt("histogram references an unknown unit"));
            }
            if prev.is_some_and(|p| unit <= p) {
                return Err(corrupt("histogram units not strictly increasing"));
            }
            if count == 0 {
                return Err(corrupt("histogram stores a zero count"));
            }
            prev = Some(unit);
            out.push((unit, count));
        }
        Ok(out)
    }

    fn f64_opt(&mut self) -> Result<Option<f64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f64::from_bits(self.u64()?))),
            _ => Err(corrupt("bad optional-value tag")),
        }
    }

    /// Fixed-width counterpart of [`Self::f64_opt`] for the v5 columnar
    /// value tables. An absent slot must carry zero payload bits so the
    /// encoding stays canonical (one byte pattern per logical value).
    fn f64_slot(&mut self) -> Result<Option<f64>> {
        let tag = self.u8()?;
        let bits = self.u64()?;
        match tag {
            0 if bits == 0 => Ok(None),
            0 => Err(corrupt("absent value slot with nonzero payload")),
            1 => Ok(Some(f64::from_bits(bits))),
            _ => Err(corrupt("bad value-slot tag")),
        }
    }

    fn values(&mut self) -> Result<IndexValues> {
        Ok(IndexValues {
            dissimilarity: self.f64_opt()?,
            gini: self.f64_opt()?,
            information: self.f64_opt()?,
            isolation: self.f64_opt()?,
            interaction: self.f64_opt()?,
            atkinson: self.f64_opt()?,
            minority: self.u64()?,
            total: self.u64()?,
            num_units: self.u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Materialize;
    use scube_bitmap::{DenseBitmap, TidVec};
    use scube_data::{Attribute, Schema, TransactionDbBuilder};

    fn db() -> TransactionDb {
        let schema =
            Schema::new(vec![Attribute::sa("sex"), Attribute::sa("age"), Attribute::ca("region")])
                .unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        let rows = [
            ("F", "young", "north", "u0"),
            ("F", "young", "north", "u0"),
            ("M", "old", "north", "u0"),
            ("F", "old", "south", "u1"),
            ("M", "young", "south", "u1"),
            ("M", "old", "south", "u1"),
            ("F", "young", "south", "u0"),
            ("M", "young", "north", "u1"),
        ];
        for (s, a, r, u) in rows {
            b.add_row(&[vec![s], vec![a], vec![r]], u).unwrap();
        }
        b.finish()
    }

    fn roundtrip<P: Posting + Send + Sync + PartialEq + std::fmt::Debug>() {
        let db = db();
        let snap: CubeSnapshot<P> =
            CubeSnapshot::from_db(&db, &CubeBuilder::new().materialize(Materialize::ClosedOnly))
                .unwrap();
        let bytes = snap.to_bytes();
        let loaded = CubeSnapshot::<P>::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.cube(), snap.cube());
        assert_eq!(loaded.vertical().units(), snap.vertical().units());
        assert_eq!(loaded.vertical().postings(), snap.vertical().postings());
        // Canonical: saving the loaded snapshot reproduces the same bytes.
        assert_eq!(loaded.to_bytes(), bytes);
    }

    #[test]
    fn roundtrip_all_representations() {
        roundtrip::<EwahBitmap>();
        roundtrip::<DenseBitmap>();
        roundtrip::<TidVec>();
    }

    #[test]
    fn file_roundtrip() {
        let db = db();
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let path = std::env::temp_dir().join("scube_snapshot_file_roundtrip.scube");
        snap.save(&path).unwrap();
        let loaded: CubeSnapshot = CubeSnapshot::load(&path).unwrap();
        assert_eq!(loaded.cube(), snap.cube());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_update_decodes_only_dirty_store_entries() {
        let db = db();
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let path =
            std::env::temp_dir().join(format!("scube_lazy_store_{}.scube", std::process::id()));
        snap.save(&path).unwrap();

        // Heap path: load, update, serialize — the reference bytes.
        let mut batch = UpdateBatch::new();
        batch.add_row(&[("sex", "F"), ("age", "young"), ("region", "north")], "u0");
        let mut heap = CubeSnapshot::<EwahBitmap>::load(&path).unwrap();
        heap.apply_update(&batch).unwrap();
        let want = heap.to_bytes();

        // Mapped path: the same batch only touches "north"-side entries,
        // so the "south" contexts and cells must stay undecoded ranges.
        let mut mapped = CubeSnapshot::<EwahBitmap>::open_mmap(&path).unwrap();
        assert!(
            !mapped.maintenance.lazy.as_ref().unwrap().indexed,
            "open stays O(metadata): not even the index scan runs"
        );
        mapped.apply_update(&batch).unwrap();
        let lazy = mapped.maintenance.lazy.as_ref().expect("undirtied entries stay mapped");
        assert!(lazy.indexed);
        assert!(!lazy.ctx_ranges.is_empty(), "delta-clean contexts stay undecoded");
        assert!(!lazy.min_ranges.is_empty(), "delta-clean cells stay undecoded");
        assert!(!mapped.maintenance.contexts.is_empty(), "dirty contexts were decoded and updated");
        // Decoded and lazy key sets partition the store.
        for ca in mapped.maintenance.contexts.keys() {
            assert!(!lazy.ctx_ranges.contains_key(ca), "context {ca:?} both decoded and lazy");
        }
        for coords in mapped.maintenance.minorities.keys() {
            assert!(!lazy.min_ranges.contains_key(coords), "cell both decoded and lazy");
        }
        // The mixed writer (re-encoded dirty entries + verbatim-spliced
        // clean ranges) is still canonical: byte-identical to the heap
        // path's fully-decoded store.
        assert_eq!(mapped.to_bytes(), want, "partially-decoded store serializes canonically");
        assert_eq!(mapped.cube(), heap.cube());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v5_subset_roundtrip_all_representations() {
        use scube_segindex::SegIndex;
        fn check<P: Posting + Send + Sync + PartialEq + std::fmt::Debug>() {
            let db = db();
            let measures = MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation);
            let snap: CubeSnapshot<P> =
                CubeSnapshot::from_db(&db, &CubeBuilder::new().measures(measures)).unwrap();
            let bytes = snap.to_bytes();
            assert_eq!(&bytes[8..12], &VERSION_5.to_le_bytes(), "subset builds persist as v5");
            let loaded = CubeSnapshot::<P>::from_bytes(&bytes).unwrap();
            assert_eq!(loaded.measures(), measures);
            assert_eq!(loaded.cube(), snap.cube());
            assert_eq!(loaded.vertical().postings(), snap.vertical().postings());
            // Canonical: resaving reproduces identical bytes.
            assert_eq!(loaded.to_bytes(), bytes);
            // Unselected measures are absent in every cell.
            for (_, v) in loaded.cube().cells() {
                assert!(v.dissimilarity.is_none() && v.information.is_none());
                assert!(v.interaction.is_none() && v.atkinson.is_none());
            }
        }
        check::<EwahBitmap>();
        check::<DenseBitmap>();
        check::<TidVec>();
    }

    #[test]
    fn full_measure_set_always_writes_v4() {
        let db = db();
        let snap: CubeSnapshot =
            CubeSnapshot::from_db(&db, &CubeBuilder::new().measures(MeasureSet::FULL)).unwrap();
        let bytes = snap.to_bytes();
        assert_eq!(&bytes[8..12], &VERSION.to_le_bytes());
        let loaded = CubeSnapshot::<EwahBitmap>::from_bytes(&bytes).unwrap();
        assert!(loaded.measures().is_full());
    }

    #[test]
    fn v5_declaring_full_set_is_rejected_as_non_canonical() {
        // Take a real v4 snapshot, stamp version 5 (whose meta would then
        // need a measure byte), and fix the checksums: the reader must
        // reject it — a full suite has exactly one canonical encoding (v4).
        let db = db();
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let mut bytes = snap.to_bytes();
        bytes[8..12].copy_from_slice(&VERSION_5.to_le_bytes());
        let sum = checksum(&bytes[DIR_OFF..]);
        bytes[13..21].copy_from_slice(&sum.to_le_bytes());
        assert!(CubeSnapshot::<EwahBitmap>::from_bytes(&bytes).is_err());

        // And directly: a v5 meta region declaring the full measure byte.
        let mut meta = Vec::new();
        meta.push(0); // AllFrequent
        put_u64(&mut meta, DEFAULT_ATKINSON_B.to_bits());
        meta.push(MeasureSet::FULL.bits());
        let err = decode_meta(&meta, VERSION_5).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("full measure set"), "{err}");
    }

    #[test]
    fn v5_bad_measure_byte_and_bad_slots_error() {
        // Measure byte 0 (empty) and 0xFF (unknown bits) are both invalid.
        for bits in [0u8, 0xFF] {
            let mut meta = Vec::new();
            meta.push(0);
            put_u64(&mut meta, DEFAULT_ATKINSON_B.to_bits());
            meta.push(bits);
            assert!(decode_meta(&meta, VERSION_5).is_err(), "measure byte {bits:#04x}");
        }
        // An absent value slot must carry zero payload bits.
        let mut r = Reader { bytes: &[0u8, 1, 0, 0, 0, 0, 0, 0, 0], pos: 0 };
        assert!(r.f64_slot().is_err(), "absent slot with nonzero payload");
        let mut r = Reader { bytes: &[2u8, 0, 0, 0, 0, 0, 0, 0, 0], pos: 0 };
        assert!(r.f64_slot().is_err(), "bad slot tag");
    }

    #[test]
    fn rejects_wrong_magic_version_tag() {
        let db = db();
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let good = snap.to_bytes();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(CubeSnapshot::<EwahBitmap>::from_bytes(&bad).is_err(), "magic");

        let mut bad = good.clone();
        bad[8] = 99;
        assert!(CubeSnapshot::<EwahBitmap>::from_bytes(&bad).is_err(), "version");

        // An EWAH snapshot must not load as TidVec.
        assert!(CubeSnapshot::<TidVec>::from_bytes(&good).is_err(), "tag");
    }

    #[test]
    fn rejects_corruption_and_truncation() {
        let db = db();
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let good = snap.to_bytes();

        // Flip one payload byte: the checksum must catch it.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(CubeSnapshot::<EwahBitmap>::from_bytes(&bad).is_err(), "bit flip");

        // Truncations anywhere must error, never panic.
        for cut in [0, 5, HEADER_LEN, HEADER_LEN + 3, good.len() / 2, good.len() - 1] {
            assert!(
                CubeSnapshot::<EwahBitmap>::from_bytes(&good[..cut]).is_err(),
                "truncate at {cut}"
            );
        }
    }

    #[test]
    fn crafted_huge_lengths_error_instead_of_allocating() {
        // A syntactically valid header and checksum around a payload whose
        // length fields promise billions of elements: decoding must return
        // an error (end of data), not attempt the allocation.
        for payload in [
            u32::MAX.to_le_bytes().to_vec(), // n_items = 4 billion
            {
                // Empty labels/cells, then n_transactions = 4 billion.
                let mut p = Vec::new();
                put_u32(&mut p, 0); // items
                put_u32(&mut p, 0); // sa_attrs
                put_u32(&mut p, 0); // ca_attrs
                put_u32(&mut p, 0); // unit_names
                put_u32(&mut p, 0); // n_units
                put_u64(&mut p, 1); // min_support
                put_u32(&mut p, 0); // cells
                put_u32(&mut p, u32::MAX); // n_transactions
                p
            },
        ] {
            // Legacy (v3) framing: a single checksummed payload.
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&VERSION_3.to_le_bytes());
            bytes.push(EwahBitmap::SERIAL_TAG);
            bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            assert!(CubeSnapshot::<EwahBitmap>::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn crafted_v4_directory_errors_instead_of_allocating() {
        // A well-formed v4 header whose directory promises 2^60 postings:
        // parsing must reject the directory (regions cannot tile the
        // file), not attempt the allocation.
        let mut bytes = vec![0u8; META_OFF];
        bytes[..8].copy_from_slice(MAGIC);
        bytes[8..12].copy_from_slice(&VERSION.to_le_bytes());
        bytes[12] = EwahBitmap::SERIAL_TAG;
        let dir: [u64; DIR_WORDS] = [META_OFF as u64, 0, META_OFF as u64, 1 << 60, 0, 0, 0, 0, 0];
        for (i, w) in dir.iter().enumerate() {
            bytes[DIR_OFF + 8 * i..DIR_OFF + 8 * i + 8].copy_from_slice(&w.to_le_bytes());
        }
        let sum = checksum(&bytes[DIR_OFF..]);
        bytes[13..21].copy_from_slice(&sum.to_le_bytes());
        let err = CubeSnapshot::<EwahBitmap>::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("directory"), "{err}");
    }

    #[test]
    fn v4_layout_directory_is_consistent() {
        let db = db();
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let bytes = snap.to_bytes();
        assert_eq!(&bytes[8..12], &VERSION.to_le_bytes());
        let word = |i: usize| {
            u64::from_le_bytes(bytes[DIR_OFF + 8 * i..DIR_OFF + 8 * i + 8].try_into().unwrap())
        };
        assert_eq!(word(0), META_OFF as u64, "meta_off");
        assert_eq!(word(2), META_OFF as u64 + word(1), "postdir_off");
        assert_eq!(word(3), snap.vertical().num_items() as u64, "n_postings");
        assert_eq!(word(4) % 8, 0, "slots 8-aligned");
        assert_eq!(word(6), word(4) + word(5), "store_off");
        assert_eq!(word(6) + word(7), bytes.len() as u64, "regions span the file");
        // Every posting slot sits 8-aligned inside the slots region.
        let postdir = word(2) as usize;
        for i in 0..word(3) as usize {
            let at = postdir + i * POSTDIR_ENTRY;
            let off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            assert_eq!(off % 8, 0, "slot {i} aligned");
            assert!(off >= word(4) && off + len <= word(6), "slot {i} in bounds");
        }
    }

    #[test]
    fn save_is_atomic_over_existing_snapshot() {
        // Make the save fail *after* the target exists (target becomes a
        // directory → rename fails): the original bytes must be untouched
        // and no temp file may linger.
        let db = db();
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let dir = std::env::temp_dir().join("scube_snapshot_atomic_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.scube");
        snap.save(&path).unwrap();
        let original = std::fs::read(&path).unwrap();
        // A save onto a path whose parent vanished fails cleanly.
        let gone = dir.join("nope").join("snap.scube");
        assert!(snap.save(&gone).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), original, "target untouched");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files cleaned up: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_parts_rejected() {
        let db = db();
        let vertical: VerticalDb = VerticalDb::build(&db);
        let cube = CubeBuilder::new().build(&db).unwrap();
        // A vertical database over different data (one fewer unit).
        let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        b.add_row(&[vec!["F"], vec!["north"]], "solo").unwrap();
        let other: VerticalDb = VerticalDb::build(&b.finish());
        assert!(CubeSnapshot::new(cube.clone(), other).is_err());
        assert!(CubeSnapshot::new(cube, vertical).is_ok());
    }
}
