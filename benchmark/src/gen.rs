//! The seeded operation stream of the live workloads.
//!
//! `--seed` drives key names and draw order only: every seed gives the
//! same number of preloaded keys, callers and operations and the same
//! publish/resolve mix, so runs of different seeds are comparable and two
//! runs of one seed issue byte-identical requests. The program under test
//! sees only the generated operations.

use geometa_sim::rng::SplitMix64;
use geometa_sim::topology::SiteId;

/// Sites of the 4-DC topology every live workload runs on.
pub const SITES: usize = 4;

/// Share of publishes in the measured stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Publish, resolve, publish, resolve, …
    Half,
    /// Three publishes, then one resolve.
    ThreeQuarters,
}

impl Mix {
    fn is_publish(self, i: usize) -> bool {
        match self {
            Mix::Half => i.is_multiple_of(2),
            Mix::ThreeQuarters => i % 4 != 3,
        }
    }
}

/// A published key, with what a later resolve of it must return.
#[derive(Clone, Debug)]
pub struct Written {
    /// Registry key.
    pub name: String,
    /// File size the entry carries.
    pub size: u64,
    /// Site whose client published it.
    pub origin: SiteId,
}

/// One measured operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// Publish a key no one has written yet.
    Publish {
        /// Registry key.
        name: String,
        /// File size to record.
        size: u64,
    },
    /// Resolve the preloaded key with this index.
    Resolve {
        /// Index into [`Stream::preload`].
        key: u32,
    },
}

/// An operation and the site whose client issues it.
#[derive(Clone, Debug)]
pub struct Step {
    /// Index of the issuing site (and of its client).
    pub site: u16,
    /// What to do.
    pub op: Op,
}

/// Everything one repetition replays.
pub struct Stream {
    /// Keys published during set-up, round-robin from the four sites.
    pub preload: Vec<Written>,
    /// The measured operations of each caller thread, in issue order.
    pub callers: Vec<Vec<Step>>,
}

impl Stream {
    /// Measured operations over all callers.
    pub fn total_ops(&self) -> usize {
        self.callers.iter().map(Vec::len).sum()
    }
}

/// Generate the stream for `seed`: `preload` keys, and `ops` measured
/// operations split evenly over `callers` threads. Each operation is
/// issued from a uniformly drawn site; resolves draw a preloaded key
/// uniformly.
pub fn generate(seed: u64, preload: usize, callers: usize, ops: usize, mix: Mix) -> Stream {
    let root = SplitMix64::new(seed);
    // The seed is part of every name, so two seeds never share a key and
    // hash placement differs between them.
    let tag = format!("{:08x}", root.split(0).next_u64() as u32);
    let mut sizes = root.split(1);
    let preload: Vec<Written> = (0..preload)
        .map(|i| Written {
            name: format!("wf-{tag}/pre/{i:06}.dat"),
            size: 1 + sizes.range_u64(1 << 30),
            origin: SiteId((i % SITES) as u16),
        })
        .collect();
    let per_caller = ops / callers;
    let callers = (0..callers)
        .map(|c| {
            let mut rng = root.split(2 + c as u64);
            (0..per_caller)
                .map(|i| Step {
                    site: rng.range_usize(SITES) as u16,
                    op: if mix.is_publish(i) {
                        Op::Publish {
                            name: format!("wf-{tag}/out/c{c}/{i:06}.dat"),
                            size: 1 + rng.range_u64(1 << 30),
                        }
                    } else {
                        Op::Resolve {
                            key: rng.range_usize(preload.len()) as u32,
                        }
                    },
                })
                .collect()
        })
        .collect();
    Stream { preload, callers }
}
