//! The Smallbank runtime twin (DESIGN §16): an associative-heavy
//! read-modify-write transaction mix over two account tables keyed by a
//! bounded customer id.
//!
//! Smallbank is the canonical RMW microbenchmark: nearly every
//! transaction reads a balance, combines it with an amount, and writes
//! it back to the *same* key. That access shape is exactly what the two
//! tentpole optimizations target, so — following the paper's methodology
//! of manually applying each optimization to the runtime twin while the
//! automatic passes are validated on the IR kernel ([`crate::smallbank_ir`]) —
//! the variants are:
//!
//! * **fused** — each balance update is a single-pass [`Assoc::rmw`] /
//!   [`DenseMap::rmw`] (one probe) instead of `read` + `write` (two
//!   probes): the manual image of the fusion pass's `read→bin→write ⇒
//!   RMW` rewrite;
//! * **dense** — the account tables become [`DenseMap`]s over the
//!   customer-id bound: the manual image of adaptive representation
//!   selection proving `key = h & (N-1)` bounded and picking the
//!   direct-indexed layout over the hashtable.
//!
//! Both are semantics-preserving (the objective is identical across all
//! four variants) and strictly cheaper on the ledger's cost and — for
//! dense — footprint axes.

use crate::Rng;
use memoir_runtime::{stats, Assoc, DenseMap};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct SmallbankParams {
    /// Number of customers; must be a power of two (ids are masked).
    pub customers: usize,
    /// Transactions to run.
    pub txns: usize,
}

impl Default for SmallbankParams {
    fn default() -> Self {
        SmallbankParams {
            customers: 1_024,
            txns: 40_000,
        }
    }
}

/// Which manual optimizations the variant applies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmallbankVariant {
    /// Fused single-pass RMW instead of read + write.
    pub fused: bool,
    /// Dense direct-indexed tables instead of hashtables.
    pub dense: bool,
}

impl SmallbankVariant {
    /// Both optimizations on.
    pub fn all() -> Self {
        SmallbankVariant {
            fused: true,
            dense: true,
        }
    }
}

/// Outcome: the observable objective plus the memory/cost ledger.
#[derive(Clone, Debug)]
pub struct SmallbankOutcome {
    /// Checksum over balances observed by the transaction mix plus the
    /// final sum of all accounts.
    pub objective: i64,
    /// The ledger snapshot (cost = time proxy, peak = max RSS proxy).
    pub ledger: stats::Ledger,
}

/// One account table in the variant's representation.
enum Table {
    Hash(Assoc<u64, i64>),
    Dense(DenseMap<i64>),
}

impl Table {
    fn new(dense: bool, cap: usize) -> Table {
        if dense {
            Table::Dense(DenseMap::new(cap))
        } else {
            Table::Hash(Assoc::new())
        }
    }

    fn read(&self, k: u64) -> i64 {
        match self {
            Table::Hash(t) => *t.read(&k),
            Table::Dense(t) => *t.read(k as usize),
        }
    }

    fn write(&mut self, k: u64, v: i64) {
        match self {
            Table::Hash(t) => t.write(k, v),
            Table::Dense(t) => t.write(k as usize, v),
        }
    }

    /// `t[k] = op(t[k])`: one storage pass when fused, read-then-write
    /// when not. Returns the new value (the transaction observes it).
    fn rmw(&mut self, fused: bool, k: u64, op: impl Fn(i64) -> i64) -> i64 {
        if fused {
            let mut out = 0;
            match self {
                Table::Hash(t) => t.rmw(&k, |v| {
                    out = op(*v);
                    out
                }),
                Table::Dense(t) => t.rmw(k as usize, |v| {
                    out = op(*v);
                    out
                }),
            }
            out
        } else {
            let v = op(self.read(k));
            self.write(k, v);
            v
        }
    }
}

/// Runs the workload; resets the thread ledger first.
pub fn run_smallbank(p: &SmallbankParams, v: SmallbankVariant) -> SmallbankOutcome {
    assert!(p.customers.is_power_of_two(), "customer ids are masked");
    stats::reset();
    let mask = (p.customers - 1) as u64;
    let mut checking = Table::new(v.dense, p.customers);
    let mut savings = Table::new(v.dense, p.customers);
    for c in 0..p.customers as u64 {
        checking.write(c, 1_000 + (c as i64 % 7) * 10);
        savings.write(c, 5_000 + (c as i64 % 13) * 100);
    }

    let mut rng = Rng(0x5A11_BA9C ^ 0x9E3779B97F4A7C15);
    let mut objective: i64 = 0;
    for _ in 0..p.txns {
        let s = rng.next();
        let cust = s & mask;
        let amt = ((s >> 24) & 0xFF) as i64 + 1;
        // The Smallbank mix: balance 15%, deposit-checking 15%,
        // transact-savings 15%, amalgamate 10%, write-check 25%,
        // send-payment 20%.
        let op = (s >> 56) % 100;
        if op < 15 {
            // balance: read both accounts.
            let total = checking.read(cust) + savings.read(cust);
            stats::charge(1.0);
            objective = objective.wrapping_add(total & 0xFFF);
        } else if op < 30 {
            // deposit_checking: checking[c] += amt.
            objective = objective.wrapping_add(checking.rmw(v.fused, cust, |x| x + amt) & 1);
        } else if op < 45 {
            // transact_savings: savings[c] += amt.
            objective = objective.wrapping_add(savings.rmw(v.fused, cust, |x| x + amt) & 1);
        } else if op < 55 {
            // amalgamate: move savings into checking.
            let sv = savings.read(cust);
            savings.write(cust, 0);
            objective = objective.wrapping_add(checking.rmw(v.fused, cust, |x| x + sv) & 1);
        } else if op < 80 {
            // write_check: debit checking, with an overdraft penalty.
            let bal = checking.read(cust);
            stats::charge(1.0);
            let debit = if bal < amt { amt + 1 } else { amt };
            objective = objective.wrapping_add(checking.rmw(v.fused, cust, |x| x - debit) & 1);
        } else {
            // send_payment: debit one customer, credit another.
            let dst = (s >> 13) & mask;
            checking.rmw(v.fused, cust, |x| x - amt);
            objective = objective.wrapping_add(checking.rmw(v.fused, dst, |x| x + amt) & 1);
        }
    }

    // Final audit: sum every balance (reads the whole key space).
    for c in 0..p.customers as u64 {
        objective = objective
            .wrapping_add(checking.read(c))
            .wrapping_add(savings.read(c));
    }
    SmallbankOutcome {
        objective,
        ledger: stats::snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SmallbankParams {
        SmallbankParams {
            customers: 256,
            txns: 6_000,
        }
    }

    #[test]
    fn deterministic_objective() {
        let a = run_smallbank(&small(), SmallbankVariant::default());
        let b = run_smallbank(&small(), SmallbankVariant::default());
        assert_eq!(a.objective, b.objective);
        assert_ne!(a.objective, 0);
    }

    /// Fusion and representation change cost and layout, not semantics.
    #[test]
    fn variants_preserve_objective() {
        let base = run_smallbank(&small(), SmallbankVariant::default());
        for v in [
            SmallbankVariant {
                fused: true,
                ..Default::default()
            },
            SmallbankVariant {
                dense: true,
                ..Default::default()
            },
            SmallbankVariant::all(),
        ] {
            let out = run_smallbank(&small(), v);
            assert_eq!(out.objective, base.objective, "{v:?}");
        }
    }

    /// The fusion payoff: one storage pass per update beats two.
    #[test]
    fn fusion_reduces_cost() {
        let p = small();
        for dense in [false, true] {
            let unfused = run_smallbank(
                &p,
                SmallbankVariant {
                    fused: false,
                    dense,
                },
            );
            let fused = run_smallbank(&p, SmallbankVariant { fused: true, dense });
            assert!(
                fused.ledger.cost < unfused.ledger.cost,
                "fused {} must beat unfused {} (dense={dense})",
                fused.ledger.cost,
                unfused.ledger.cost
            );
        }
    }

    /// The adaptive-representation payoff: the bounded key space makes
    /// the direct-indexed layout cheaper per op *and* smaller than the
    /// hashtable at full population.
    #[test]
    fn dense_reduces_cost_and_rss() {
        let p = small();
        let hash = run_smallbank(&p, SmallbankVariant::default());
        let dense = run_smallbank(
            &p,
            SmallbankVariant {
                dense: true,
                ..Default::default()
            },
        );
        assert!(
            dense.ledger.cost < 0.5 * hash.ledger.cost,
            "dense cost {} must halve hashtable cost {}",
            dense.ledger.cost,
            hash.ledger.cost
        );
        assert!(
            dense.ledger.peak_bytes < hash.ledger.peak_bytes,
            "dense peak {}B must undercut hashtable peak {}B",
            dense.ledger.peak_bytes,
            hash.ledger.peak_bytes
        );
    }

    /// Both optimizations compose.
    #[test]
    fn all_is_cheapest() {
        let p = small();
        let base = run_smallbank(&p, SmallbankVariant::default());
        let all = run_smallbank(&p, SmallbankVariant::all());
        assert_eq!(all.objective, base.objective);
        assert!(all.ledger.cost < 0.5 * base.ledger.cost);
    }
}
