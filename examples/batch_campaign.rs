//! A batch campaign over three suite circuits × two simulation backends,
//! sharing parsed netlists, collapsed fault universes and generated
//! `T0`s through the engine's artifact cache.
//!
//! ```text
//! cargo run --release --example batch_campaign
//! ```

use bist_batch::{BatchError, Campaign, CampaignEngine};
use subseq_bist::tgen::TgenConfig;
use subseq_bist::Backend;

fn main() -> Result<(), BatchError> {
    let campaign = Campaign::new()
        .suite_circuits(["s27", "a298", "a344"])
        .backends([Backend::Packed, Backend::Sharded { threads: 0 }])
        .seeds([1999])
        .tgen(TgenConfig::new().max_length(256).compaction_budget(100));
    let outcome = CampaignEngine::new().run(&campaign, &mut [])?;
    print!("{}", outcome.summary);
    println!("  cache: {}", outcome.cache);
    Ok(())
}
