//! Seeded request streams. The program under test sees only the requests
//! generated here; the same seed always yields the same stream.

use platform::{AppId, SystemSpec};
use sdf::Rational;

/// SplitMix64: small, seedable and independent of the program's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One caller request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Admit {
        app: usize,
        contract: Option<Rational>,
        affinity: Option<String>,
    },
    /// Release the oldest resident the caller still holds.
    Release,
    Rebalance,
    Estimate {
        mask: u64,
    },
}

/// `count` values spread evenly over 0..100, in random order: a stream's
/// op shares then hold exactly, and only its order is random.
fn shuffled_percentiles(count: usize, rng: &mut Rng) -> Vec<u64> {
    let mut rolls: Vec<u64> = (0..count as u64).map(|i| i * 100 / count as u64).collect();
    for i in (1..rolls.len()).rev() {
        rolls.swap(i, rng.below(i as u64 + 1) as usize);
    }
    rolls
}

/// The `admit-local` mix, after `fleet-bench`'s: 45% admit (half with a
/// contract at 3/5 of isolation throughput, half with an affinity tag),
/// 30% release, 10% rebalance and 15% estimate over random masks. The
/// shares are exact and only the order is random: the non-admit median
/// sits where cheap estimates and rebalances give way to releases, so it
/// would move with every chance wobble in the mix.
pub fn admit_local(spec: &SystemSpec, groups: usize, count: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let apps = spec.application_count() as u64;
    shuffled_percentiles(count, &mut rng)
        .into_iter()
        .map(|roll| match roll {
            0..=44 => {
                let app = rng.below(apps) as usize;
                let contract = (rng.below(2) == 0).then(|| {
                    spec.application(AppId(app)).isolation_throughput() * Rational::new(3, 5)
                });
                let affinity = (rng.below(2) == 0).then(|| format!("uc{}", app % groups.max(1)));
                Op::Admit {
                    app,
                    contract,
                    affinity,
                }
            }
            45..=74 => Op::Release,
            75..=84 => Op::Rebalance,
            _ => Op::Estimate {
                mask: rng.below((1 << apps) - 1) + 1,
            },
        })
        .collect()
}

/// The fixed use-case masks `wire-cheap` estimates over: at most 8
/// distinct non-empty masks.
pub fn wire_masks(spec: &SystemSpec, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x5749_5245);
    let all = (1u64 << spec.application_count()) - 1;
    let mut masks: Vec<u64> = (0..8).map(|_| rng.below(all) + 1).collect();
    masks.sort_unstable();
    masks.dedup();
    masks
}

/// The `wire-cheap` mix: 80% estimate over the fixed masks, 10% admit
/// without a contract and 10% release, in random order. Admits and
/// releases strictly alternate, so the resident count stays within one of
/// its starting value for the whole stream.
pub fn wire_cheap(spec: &SystemSpec, masks: &[u64], count: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let apps = spec.application_count() as u64;
    let mut admit_next = true;
    shuffled_percentiles(count, &mut rng)
        .into_iter()
        .map(|roll| {
            if roll < 80 {
                Op::Estimate {
                    mask: masks[rng.below(masks.len() as u64) as usize],
                }
            } else {
                let app = rng.below(apps) as usize;
                admit_next = !admit_next;
                if admit_next {
                    Op::Release
                } else {
                    Op::Admit {
                        app,
                        contract: None,
                        affinity: None,
                    }
                }
            }
        })
        .collect()
}
