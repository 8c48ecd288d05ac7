//! Property test for the builder-emitted maintenance store: the per-unit
//! histograms a build carries into its snapshot must equal, entry for
//! entry, a from-scratch derivation that re-intersects every context and
//! cell tidset from the postings — across materializations, serial and
//! parallel builds, posting representations, and measure sets. A cube
//! taken apart and re-paired, and a report-only build (both re-derive
//! their store), must save to the same bytes as the freshly built one.

use std::collections::BTreeMap;

use proptest::prelude::*;
use scube::prelude::*;
use scube_bitmap::{DenseBitmap, EwahBitmap, Posting, TidVec};
use scube_data::{ItemId, TransactionDb, UnitScratch, VerticalDb};
use scube_datagen::BoardsConfig;

type Pairs = Vec<(u32, u64)>;

/// A maintenance store in canonical order: context totals by context, and
/// minority counts by `(A, B)` coordinates.
#[derive(Debug, PartialEq, Default)]
struct Store {
    contexts: BTreeMap<Vec<ItemId>, Pairs>,
    minorities: BTreeMap<(Vec<ItemId>, Vec<ItemId>), Pairs>,
}

/// The oracle: per distinct context `B`, the histogram of `tidset(B)`; per
/// cell with a non-`⋆` SA side, the histogram of `tidset(B)` intersected
/// with the SA postings. Every tidset is re-intersected from the postings.
fn oracle_store<P: Posting>(cube: &SegregationCube, vertical: &VerticalDb<P>) -> Store {
    let mut scratch = UnitScratch::new(vertical.num_units());
    let mut hist = |tids: &P| {
        vertical.unit_histogram_into(tids, &mut scratch);
        scratch.sorted_pairs()
    };
    let mut store = Store::default();
    let mut context_tids: BTreeMap<Vec<ItemId>, P> = BTreeMap::new();
    for (coords, _) in cube.cells() {
        if !context_tids.contains_key(&coords.ca) {
            let tids = vertical.tidset(&coords.ca);
            store.contexts.insert(coords.ca.clone(), hist(&tids));
            context_tids.insert(coords.ca.clone(), tids);
        }
    }
    for (coords, _) in cube.cells() {
        if coords.sa.is_empty() {
            continue;
        }
        let tids = if coords.ca.is_empty() {
            vertical.tidset(&coords.sa)
        } else {
            let mut refs: Vec<&P> = vec![&context_tids[&coords.ca]];
            refs.extend(coords.sa.iter().map(|&item| vertical.posting(item)));
            P::intersect_many(&refs).expect("context plus non-empty SA side")
        };
        store.minorities.insert((coords.sa.clone(), coords.ca.clone()), hist(&tids));
    }
    store
}

/// Little-endian cursor over a snapshot's store region.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn u32(&mut self) -> u32 {
        let (head, rest) = self.0.split_at(4);
        self.0 = rest;
        u32::from_le_bytes(head.try_into().unwrap())
    }
    fn u64(&mut self) -> u64 {
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        u64::from_le_bytes(head.try_into().unwrap())
    }
    fn ids(&mut self) -> Vec<ItemId> {
        let n = self.u32();
        (0..n).map(|_| self.u32()).collect()
    }
    fn pairs(&mut self) -> Pairs {
        let n = self.u32();
        (0..n).map(|_| (self.u32(), self.u64())).collect()
    }
}

/// The store a v4/v5 snapshot persists, read back from its store region
/// (offset and length are directory words 6 and 7, at bytes 72 and 80).
fn saved_store(bytes: &[u8]) -> Store {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (off, len) = (word(72), word(80));
    let mut r = Cursor(&bytes[off..off + len]);
    let mut store = Store::default();
    for _ in 0..r.u32() {
        let key = r.ids();
        store.contexts.insert(key, r.pairs());
    }
    for _ in 0..r.u32() {
        let sa = r.ids();
        let ca = r.ids();
        store.minorities.insert((sa, ca), r.pairs());
    }
    assert!(r.0.is_empty(), "the store region is fully consumed");
    store
}

fn final_table(sector_bias: f64, seed: u64, n_companies: usize) -> TransactionDb {
    let boards = scube_datagen::generate(
        BoardsConfig::italy(n_companies).sector_bias(sector_bias).seed(seed),
    );
    let dataset = boards.to_dataset(vec![]).expect("generator output is valid");
    scube::build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .expect("pipeline succeeds")
        .db
}

/// Build every (threads, measures) variant of one materialization over one
/// representation and check the store and the re-paired bytes; all
/// variants with the same measures must also save to the same bytes.
fn check<P: Posting + Send + Sync>(db: &TransactionDb, min_support: u64, materialize: Materialize) {
    let vertical: VerticalDb<P> = VerticalDb::build(db);
    let subset = MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation);
    for measures in [MeasureSet::FULL, subset] {
        let mut first: Option<Vec<u8>> = None;
        for threads in [None, Some(2), Some(3)] {
            let what = format!("{materialize:?} {measures:?} threads {threads:?}");
            let mut builder = CubeBuilder::new()
                .min_support(min_support)
                .materialize(materialize)
                .measures(measures)
                .parallel(threads.is_some());
            if let Some(n) = threads {
                builder = builder.threads(n);
            }
            let cube = builder.build_from_vertical(db, &vertical).expect("cube builds");
            let cfg = builder.config();
            let pair =
                |cube, vertical| {
                    CubeSnapshot::<P>::new(cube, vertical)
                        .expect("snapshot pairs")
                        .with_build_config(cfg.materialize, cfg.atkinson_b, cfg.measures)
                };

            let built = pair(cube, vertical.clone());
            let bytes = built.to_bytes();
            assert_eq!(
                saved_store(&bytes),
                oracle_store(built.cube(), &vertical),
                "{what}: builder-emitted store"
            );

            let (cube, vertical) = built.into_parts();
            assert_eq!(pair(cube, vertical.clone()).to_bytes(), bytes, "{what}: re-paired bytes");

            let report = builder.report_only(true).build_from_vertical(db, &vertical);
            let report = pair(report.expect("cube builds"), vertical);
            assert_eq!(report.to_bytes(), bytes, "{what}: report-only bytes");

            match &first {
                Some(first) => assert_eq!(&bytes, first, "{what}: bytes across threads"),
                None => first = Some(bytes),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn builder_store_matches_the_oracle(
        bias_idx in 0usize..3,
        seed in any::<u64>(),
        divisor in 40u64..120,
    ) {
        let bias = [0.0, 0.5, 1.0][bias_idx];
        let db = final_table(bias, seed, 250);
        let minsup = (db.len() as u64 / divisor).max(1);
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            check::<EwahBitmap>(&db, minsup, materialize);
            check::<DenseBitmap>(&db, minsup, materialize);
            check::<TidVec>(&db, minsup, materialize);
        }
    }
}
