//! `htap_durable`: a `DurableStore` account table receiving
//! read-modify-write update transactions, with an explicit checkpoint
//! every few commits. After each commit a visible-sum scan runs at a fresh
//! snapshot, alternating between the RM and the software path, so
//! analytics run beside an ongoing update stream. It drives `mvcc`
//! directly because the engine has no write path yet.
//!
//! Each pass is one epoch on a fresh simulated machine and store, so the
//! version chains grow within a pass and every pass does the same amount
//! of work.
//!
//! Oracle: a shadow ledger of the issued updates predicts each snapshot's
//! exact balance sum; every scan must return it and see every account.

use crate::clock::Instant;
use crate::stats::SimTally;
use crate::{Bench, Config, Pass, RunState, Scale};
use durability::DurabilityConfig;
use fabric_sim::{MemoryHierarchy, SimConfig};
use fabric_types::rng::DetRng;
use fabric_types::{ColumnType, Schema, Value};
use mvcc::scan::{rm_visible_sum, sw_visible_sum};
use mvcc::{DurableStore, LogicalId};
use relmem::RmConfig;
use std::collections::BTreeMap;

/// Balance column of the account table.
const BALANCE: usize = 1;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    accounts: usize,
    /// Update transactions (rounds) per pass.
    rounds: usize,
    /// Distinct accounts each transaction updates.
    updates: usize,
    /// Commits between explicit checkpoints.
    checkpoint_every: usize,
}

/// At full scale 32768 accounts of 32-byte versions start at 1 MiB, the
/// size of the simulated L2, and grow by 1024 versions per pass.
fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            accounts: 32_768,
            rounds: 128,
            updates: 8,
            checkpoint_every: 16,
        },
        Scale::Small => Sizes {
            accounts: 2_048,
            rounds: 32,
            updates: 4,
            checkpoint_every: 8,
        },
    }
}

/// One epoch: a fresh machine and store, and the shadow ledger.
struct Epoch {
    mem: MemoryHierarchy,
    store: DurableStore,
    ids: Vec<LogicalId>,
    ledger: i64,
    rng: DetRng,
}

pub struct HtapDurable {
    seed: u64,
    sizes: Sizes,
    epoch: Option<Epoch>,
}

/// Generate an epoch's opening balances (untimed by the store).
fn opening_balances(seed: u64, index: u64, accounts: usize) -> (Vec<Vec<Value>>, DetRng) {
    let mut rng = DetRng::seed_from_u64(crate::pass_seed(seed, index));
    let rows = (0..accounts as i64)
        .map(|a| vec![Value::I64(a), Value::I64(rng.gen_range(0..10_000i64))])
        .collect();
    (rows, rng)
}

/// Create the store on a fresh machine and load the accounts in one
/// commit, followed by a checkpoint.
fn open_epoch(
    sizes: Sizes,
    seed: u64,
    rows: Vec<Vec<Value>>,
    rng: DetRng,
) -> Result<Epoch, String> {
    let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
    let schema = Schema::from_pairs(&[("acct", ColumnType::I64), ("balance", ColumnType::I64)]);
    let capacity = sizes.accounts + sizes.rounds * sizes.updates + 16;
    let mut store =
        DurableStore::create(&mut mem, schema, capacity, DurabilityConfig::quiet(seed), 0)
            .map_err(|e| format!("create store: {e}"))?;
    let ledger = rows.iter().map(|r| r[BALANCE].as_i64().unwrap_or(0)).sum();
    let mut txn = store.begin();
    for r in rows {
        txn.insert(r);
    }
    let ids = store
        .commit(&mut mem, txn)
        .map_err(|e| format!("load accounts: {e}"))?
        .inserted;
    store
        .checkpoint(&mut mem)
        .map_err(|e| format!("first checkpoint: {e}"))?;
    Ok(Epoch {
        mem,
        store,
        ids,
        ledger,
        rng,
    })
}

/// Host durations of one round's calls, for the per-layer samples.
#[derive(Default)]
struct RoundTimes {
    read_ns: Vec<u64>,
    commit_ns: u64,
    checkpoint_ns: Option<u64>,
    scan_ns: u64,
}

impl HtapDurable {
    fn build(&self, index: u64, run: &mut RunState) -> Result<(Epoch, u64, u64), String> {
        let (sizes, seed) = (self.sizes, self.seed);
        let (built, _) = run.tracer.root("setup", |tr| {
            let t0 = Instant::now();
            let (rows, rng) = tr.span("workload.generate", || {
                opening_balances(seed, index, sizes.accounts)
            });
            let gen_ns = crate::elapsed_ns(t0);
            let t1 = Instant::now();
            let epoch = tr.span("engine.register", || open_epoch(sizes, seed, rows, rng))?;
            Ok::<_, String>((epoch, gen_ns, crate::elapsed_ns(t1)))
        });
        built
    }
}

impl Bench for HtapDurable {
    fn setup(cfg: &Config, run: &mut RunState) -> Result<(Self, u64, u64), String> {
        let mut b = HtapDurable {
            seed: cfg.seed,
            sizes: sizes(cfg.scale),
            epoch: None,
        };
        let (epoch, gen_ns, reg_ns) = b.build(0, run)?;
        b.epoch = Some(epoch);
        Ok((b, gen_ns, reg_ns))
    }

    fn begin_pass(&mut self, index: u64, run: &mut RunState) -> Result<(), String> {
        // The set-up already opened epoch 0. The old epoch is dropped
        // before the next is built, so two never hold memory at once.
        if index > 0 {
            self.epoch = None;
            self.epoch = Some(self.build(index, run)?.0);
        }
        Ok(())
    }

    fn pass(&mut self, index: u64, run: &mut RunState) -> Result<Pass, String> {
        let sizes = self.sizes;
        let ep = self.epoch.as_mut().ok_or("pass without an epoch")?;
        let mut sim = SimTally::default();
        let stats0 = ep.mem.stats();
        let now0 = ep.mem.now();
        let media0 = ep.store.media().stats();
        for round in 0..sizes.rounds {
            let use_rm = round % 2 == 0;
            let mut times = RoundTimes::default();
            let (result, _) = run.tracer.root("op", |tr| {
                let Epoch {
                    mem,
                    store,
                    ids,
                    ledger,
                    rng,
                } = &mut *ep;
                // Read-modify-write `updates` distinct accounts.
                let mut picked: Vec<LogicalId> = Vec::with_capacity(sizes.updates);
                while picked.len() < sizes.updates {
                    let l = ids[rng.gen_range(0..ids.len())];
                    if !picked.contains(&l) {
                        picked.push(l);
                    }
                }
                let mut txn = store.begin();
                let mut delta_sum = 0i64;
                for &l in &picked {
                    let read = tr.span("mvcc.read", || store.read(mem, &txn, l, BALANCE));
                    times.read_ns.push(tr.last_ns());
                    let balance = match read {
                        Ok(Some(v)) => v.as_i64().map_err(|e| format!("balance: {e}"))?,
                        Ok(None) => return Err(format!("account {l} not visible")),
                        Err(e) => return Err(format!("read {l}: {e}")),
                    };
                    let delta = rng.gen_range(-500..=500i64);
                    delta_sum += delta;
                    txn.update(l, vec![(BALANCE, Value::I64(balance + delta))]);
                }
                let committed = tr.span("mvcc.commit", || store.commit(mem, txn));
                times.commit_ns = tr.last_ns();
                committed.map_err(|e| format!("commit: {e}"))?;
                *ledger += delta_sum;
                if round % sizes.checkpoint_every == sizes.checkpoint_every - 1 {
                    let ck = tr.span("durability.checkpoint", || store.checkpoint(mem));
                    times.checkpoint_ns = Some(tr.last_ns());
                    ck.map_err(|e| format!("checkpoint: {e}"))?;
                }
                let ts = store.snapshot_ts();
                let versions = store.table().version_count() as u64;
                let t0 = Instant::now();
                let scanned = if use_rm {
                    tr.span("mvcc.rm_scan", || {
                        rm_visible_sum(mem, store.table(), BALANCE, ts, RmConfig::prototype())
                    })
                } else {
                    tr.span("mvcc.sw_scan", || {
                        sw_visible_sum(mem, store.table(), BALANCE, ts)
                    })
                };
                times.scan_ns = crate::elapsed_ns(t0);
                let (sum, visible) = scanned.map_err(|e| format!("scan: {e}"))?;
                let expected = (*ledger, ids.len() as u64);
                tr.span("bench.check", || {
                    // Integer sums below 2^53 are exact in f64.
                    if sum == expected.0 as f64 && visible == expected.1 {
                        Ok((visible, versions))
                    } else {
                        Err(format!(
                            "{} scan at ts {ts}: sum {sum} over {visible} rows, ledger {} over {}",
                            if use_rm { "RM" } else { "SW" },
                            expected.0,
                            expected.1
                        ))
                    }
                })
            });
            run.latency(times.scan_ns);
            for ns in &times.read_ns {
                run.sample("mvcc.read_us", *ns);
            }
            run.sample("mvcc.commit_us", times.commit_ns);
            if let Some(ns) = times.checkpoint_ns {
                run.sample("durability.checkpoint_ms", ns);
            }
            let scan_metric = if use_rm {
                "mvcc.rm_scan_ms"
            } else {
                "mvcc.sw_scan_ms"
            };
            if let Ok((visible, versions)) = &result {
                run.sample(scan_metric, times.scan_ns);
                sim.count("scan.visible_rows", *visible);
                sim.count("scan.versions", *versions);
                sim.count("wal.user_bytes", (sizes.updates * 8) as u64);
            }
            run.outcome(result.is_ok(), || {
                format!(
                    "htap_durable pass {index} round {round}: {}",
                    result.unwrap_err()
                )
            });
        }
        let ep = self.epoch.as_ref().ok_or("pass without an epoch")?;
        sim.mem = ep.mem.stats().delta_since(&stats0);
        sim.cycles = ep.mem.now() - now0;
        // One core, no parallel region: the window's top-down breakdown
        // comes straight from the statistics delta.
        sim.add_topdown(&fabric_sim::TopDown {
            cores: vec![sim.mem.topdown(0, 0)],
        });
        let media1 = ep.store.media().stats();
        sim.count("wal.bytes", media1.append_bytes - media0.append_bytes);
        sim.count(
            "checkpoint.pages",
            media1.checkpoint_pages - media0.checkpoint_pages,
        );
        Ok(Pass {
            host_ns: 0,
            queries: sizes.rounds as u64,
            sim,
        })
    }

    fn finish(&self, _run: &mut RunState, out: &mut BTreeMap<&'static str, f64>) {
        // No engine in this workload: the query log and the operator
        // cache are not exercised.
        out.insert("obs.querylog.recorded", 0.0);
        out.insert("obs.querylog.dropped", 0.0);
        out.insert("exec.opcache.evictions", 0.0);
    }
}
