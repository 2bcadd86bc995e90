//! The fixed "rich configuration" the query and serve phases run on. It
//! needs no advisor run, so a change to the advisor cannot change what
//! those phases measure.

use cadb_bench::experiments::plan::{index_rich_config, mv_rich_config};
use cadb_common::{ColumnId, Result};
use cadb_compression::CompressionKind;
use cadb_engine::{
    Configuration, Database, IndexSpec, PhysicalStructure, WhatIfOptimizer, Workload,
};

/// Tables that get a PAGE-compressed clustered index on column 0.
const CLUSTERED_TABLES: [&str; 2] = ["lineitem", "orders"];

/// PAGE-compressed clustered indexes on column 0 of `lineitem` and
/// `orders`; the `plan` experiment's index-rich secondaries, alternating
/// ROW and PAGE compression so both the null-suppression and the
/// dictionary kernels run; and the `plan` experiment's MV indexes.
pub fn rich_configuration(db: &Database, w: &Workload) -> Result<Configuration> {
    let opt = WhatIfOptimizer::new(db);
    let priced = |spec: IndexSpec| {
        let size = opt.estimate_uncompressed_size(&spec).compressed(0.5);
        PhysicalStructure { spec, size }
    };
    let mut cfg = Configuration::empty();
    for name in CLUSTERED_TABLES {
        let spec = IndexSpec::clustered(db.table_id(name)?, vec![ColumnId(0)])
            .with_compression(CompressionKind::Page);
        cfg.add(priced(spec));
    }
    for (i, s) in index_rich_config(db, w).structures().iter().enumerate() {
        let kind = if i % 2 == 0 {
            CompressionKind::Row
        } else {
            CompressionKind::Page
        };
        cfg.add(priced(s.spec.with_compression(kind)));
    }
    for s in mv_rich_config(db, w).structures() {
        cfg.add(s.clone());
    }
    Ok(cfg)
}
