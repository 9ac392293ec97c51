//! Row-oriented page layout and the two access paths: near-data geometry
//! fetch (the RS fabric) versus ship-everything-to-host.

use crate::config::RsConfig;
use crate::flash::FlashArray;
use fabric_sim::{
    Category, CircuitBreaker, Cycles, FaultPlan, FaultStats, MemoryHierarchy, RecoveryPolicy,
};
use fabric_types::{crc32, FabricError, FieldSlice, Geometry, OutputMode, Predicate, Result};
use relmem::packer;

/// Device name reported in breaker fail-fast errors.
const DEVICE_NAME: &str = "relstore-ssd";
/// Link name reported in shipment-corruption errors.
const LINK_NAME: &str = "host-link";

/// A table stored row-major on flash pages. Rows never straddle pages
/// (pages carry `rows_per_page` whole rows plus padding).
#[derive(Debug, Clone)]
pub struct StoredTable {
    pub first_page: u64,
    pub pages: usize,
    pub rows: usize,
    pub row_width: usize,
    pub rows_per_page: usize,
}

impl StoredTable {
    /// Page index and in-page byte offset of row `i`.
    pub fn locate(&self, i: usize) -> (u64, usize) {
        let page = self.first_page + (i / self.rows_per_page) as u64;
        let off = (i % self.rows_per_page) * self.row_width;
        (page, off)
    }
}

/// Statistics of one fetch operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RsStats {
    pub pages_read: u64,
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    /// Bytes that crossed the host link.
    pub bytes_shipped: u64,
    /// Faults injected into this fetch (failed page reads, corrupted
    /// shipments) by the active [`fabric_sim::FaultPlan`].
    pub injected_faults: u64,
    /// Recovery attempts (page re-reads, link re-shipments).
    pub retries: u64,
}

impl RsStats {
    /// Record every counter into a metrics registry under
    /// `<prefix>.<counter>` — the single serialization path for stats
    /// (replaces hand-rolled formatters; see fabric-lint `raw-stats-print`).
    pub fn record_into(&self, registry: &mut fabric_sim::MetricsRegistry, prefix: &str) {
        for (name, value) in [
            ("pages_read", self.pages_read),
            ("rows_scanned", self.rows_scanned),
            ("rows_emitted", self.rows_emitted),
            ("bytes_shipped", self.bytes_shipped),
            ("injected_faults", self.injected_faults),
            ("retries", self.retries),
        ] {
            registry.counter_add_fmt(format_args!("{prefix}.{name}"), value);
        }
    }
}

/// The simulated computational SSD.
pub struct SsdDevice {
    cfg: RsConfig,
    flash: FlashArray,
    data: Vec<u8>,
    next_page: u64,
    link_ns_per_byte: f64,
    link_base: Cycles,
    ctrl_row: Cycles,
    cpu_ghz: f64,
    /// Active fault plan; `None` = infallible device (the historical
    /// behaviour, bit- and cycle-identical to before faults existed).
    faults: Option<FaultPlan>,
    policy: RecoveryPolicy,
    /// Consecutive-failure breaker guarding the whole device.
    health: CircuitBreaker,
    /// CRC-32 of every stored page, computed at store time; the frame the
    /// host checks shipments against.
    page_crcs: Vec<u32>,
    /// Durable page programs completed over the device's lifetime — the
    /// device-global counter [`FabricError::PowerLoss::writes_done`]
    /// reports.
    durable_writes: u64,
}

impl SsdDevice {
    /// Build a device whose clock is the simulation's CPU clock (so device
    /// completion times compose with [`MemoryHierarchy::stall_until`]).
    pub fn new(cfg: RsConfig, mem: &MemoryHierarchy) -> Self {
        let sim = mem.config().clone();
        let sim2 = sim.clone();
        let policy = RecoveryPolicy::default();
        SsdDevice {
            flash: FlashArray::new(&cfg, move |ns| sim2.ns_to_cycles(ns)),
            data: Vec::new(),
            next_page: 0,
            link_ns_per_byte: cfg.link_ns_per_byte,
            link_base: sim.ns_to_cycles(cfg.link_base_ns),
            ctrl_row: sim.ns_to_cycles(cfg.ctrl_ns_per_row),
            cpu_ghz: sim.cpu_ghz,
            faults: None,
            health: CircuitBreaker::new(&policy),
            policy,
            page_crcs: Vec::new(),
            durable_writes: 0,
            cfg,
        }
    }

    /// Durable page programs completed so far, across every
    /// [`Self::store_rows_durable`] call.
    pub fn durable_writes(&self) -> u64 {
        self.durable_writes
    }

    pub fn config(&self) -> &RsConfig {
        &self.cfg
    }

    /// Arm the device with a seeded fault plan and recovery budgets. Every
    /// subsequent fetch runs page reads and shipments under injection.
    pub fn inject_faults(&mut self, plan: FaultPlan, policy: RecoveryPolicy) {
        self.faults = Some(plan);
        self.health = CircuitBreaker::new(&policy);
        self.policy = policy;
    }

    /// Disarm fault injection (the plan's stats are discarded).
    pub fn clear_faults(&mut self) {
        self.faults = None;
        self.health = CircuitBreaker::new(&self.policy);
    }

    /// Faults injected so far by the active plan (all zero when disarmed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Health of the device's circuit breaker.
    pub fn health(&self) -> &CircuitBreaker {
        &self.health
    }

    /// CRC-32 frame of stored page `page`, if it exists.
    pub fn page_crc(&self, page: u64) -> Option<u32> {
        self.page_crcs.get(page as usize).copied()
    }

    fn ns_to_cycles(&self, ns: f64) -> Cycles {
        ((ns * self.cpu_ghz).round() as Cycles).max(1)
    }

    /// Store `rows` fixed-width rows (concatenated in `bytes`) onto flash.
    /// Untimed: loading happens outside the measured window.
    pub fn store_rows(&mut self, bytes: &[u8], row_width: usize) -> Result<StoredTable> {
        if row_width == 0 || !bytes.len().is_multiple_of(row_width) {
            return Err(FabricError::Storage(format!(
                "byte length {} not a multiple of row width {row_width}",
                bytes.len()
            )));
        }
        if row_width > self.cfg.page_bytes {
            return Err(FabricError::Storage("row wider than a flash page".into()));
        }
        let rows = bytes.len() / row_width;
        let rows_per_page = self.cfg.page_bytes / row_width;
        let pages = rows.div_ceil(rows_per_page).max(1);
        let first_page = self.next_page;
        self.next_page += pages as u64;
        self.data
            .resize((self.next_page as usize) * self.cfg.page_bytes, 0);
        for i in 0..rows {
            let page = first_page as usize + i / rows_per_page;
            let off = (i % rows_per_page) * row_width;
            let dst = page * self.cfg.page_bytes + off;
            self.data[dst..dst + row_width]
                .copy_from_slice(&bytes[i * row_width..(i + 1) * row_width]);
        }
        // Frame every page with a CRC-32 at store time.
        self.page_crcs.resize(self.next_page as usize, 0);
        for p in first_page as usize..self.next_page as usize {
            let base = p * self.cfg.page_bytes;
            self.page_crcs[p] = crc32(&self.data[base..base + self.cfg.page_bytes]);
        }
        Ok(StoredTable {
            first_page,
            pages,
            rows,
            row_width,
            rows_per_page,
        })
    }

    /// Store rows through the *timed, fault-aware* write path: every page
    /// is programmed through the flash array under the active fault plan,
    /// so flash write errors (retried with backoff, then
    /// [`FabricError::FlashWriteError`]), silent torn page writes (caught
    /// later by [`Self::verify_pages`]), and power cuts
    /// ([`FabricError::PowerLoss`], leaving a prefix of the in-flight
    /// page) all apply. The recorded page CRC is always that of the
    /// *intended* page image — a torn page is exactly a CRC mismatch.
    ///
    /// `PowerLoss::writes_done` reports the *device-global* durable-write
    /// count ([`Self::durable_writes`]), not a per-call index. On any
    /// failure the unused remainder of the allocation is rolled back:
    /// `next_page` retreats to just past the last page the device
    /// physically touched (a power cut's torn prefix stays on the
    /// medium, with its intended CRC recorded), so a failed store never
    /// leaves never-programmed zero pages behind. Pages fully programmed
    /// by the failed call remain on the medium but are unreachable — no
    /// [`StoredTable`] refers to them.
    pub fn store_rows_durable(
        &mut self,
        mem: &mut MemoryHierarchy,
        bytes: &[u8],
        row_width: usize,
    ) -> Result<StoredTable> {
        if row_width == 0 || !bytes.len().is_multiple_of(row_width) {
            return Err(FabricError::Storage(format!(
                "byte length {} not a multiple of row width {row_width}",
                bytes.len()
            )));
        }
        if row_width > self.cfg.page_bytes {
            return Err(FabricError::Storage("row wider than a flash page".into()));
        }
        let rows = bytes.len() / row_width;
        let rows_per_page = self.cfg.page_bytes / row_width;
        let pages = rows.div_ceil(rows_per_page).max(1);
        let first_page = self.next_page;
        self.next_page += pages as u64;
        self.data
            .resize((self.next_page as usize) * self.cfg.page_bytes, 0);
        self.page_crcs.resize(self.next_page as usize, 0);

        mem.trace_begin("rs.store_durable", Category::Store);
        let start = mem.now();
        let mut write_done = start;
        let mut failure = None;
        // Pages the device physically touched (for failure rollback).
        let mut reached = 0usize;
        for p in 0..pages {
            let page = first_page + p as u64;
            // The intended page image: whole rows plus zero padding.
            let mut image = vec![0u8; self.cfg.page_bytes];
            let row_lo = p * rows_per_page;
            let row_hi = ((p + 1) * rows_per_page).min(rows);
            for i in row_lo..row_hi {
                let off = (i - row_lo) * row_width;
                image[off..off + row_width]
                    .copy_from_slice(&bytes[i * row_width..(i + 1) * row_width]);
            }
            self.page_crcs[page as usize] = crc32(&image);

            // Fault dance: power cut first (one draw per durable write),
            // then the program-retry loop, then a possible silent tear.
            enum PageOutcome {
                Stored(Cycles),
                Torn(usize, Cycles),
                Crashed(usize),
                Failed(u32),
            }
            let page_bytes = self.cfg.page_bytes;
            let outcome = {
                let flash = &mut self.flash;
                match self.faults.as_mut() {
                    None => PageOutcome::Stored(flash.write_page(page, start)),
                    Some(plan) => {
                        if plan.write_crash() {
                            PageOutcome::Crashed(plan.crash_keep(page_bytes))
                        } else {
                            let mut attempts = 0u32;
                            let mut at = start;
                            loop {
                                attempts += 1;
                                let done = flash.write_page(page, at);
                                if !plan.flash_write_failed() {
                                    break match plan.torn_write(page_bytes) {
                                        Some(keep) => PageOutcome::Torn(keep, done),
                                        None => PageOutcome::Stored(done),
                                    };
                                }
                                flash.note_failed_write();
                                if attempts > self.policy.max_retries {
                                    break PageOutcome::Failed(attempts);
                                }
                                at = done + self.policy.backoff_cycles(attempts, self.cpu_ghz);
                            }
                        }
                    }
                }
            };

            let base = page as usize * self.cfg.page_bytes;
            match outcome {
                PageOutcome::Stored(done) => {
                    self.data[base..base + self.cfg.page_bytes].copy_from_slice(&image);
                    write_done = write_done.max(done);
                    self.durable_writes += 1;
                    reached = p + 1;
                }
                PageOutcome::Torn(keep, done) => {
                    // The device reports success; only `keep` bytes made it.
                    self.data[base..base + keep].copy_from_slice(&image[..keep]);
                    write_done = write_done.max(done);
                    self.durable_writes += 1;
                    reached = p + 1;
                    mem.trace_instant(
                        "rs.fault.torn",
                        Category::Fault,
                        &[("page", page), ("keep", keep as u64)],
                    );
                }
                PageOutcome::Crashed(keep) => {
                    // The torn prefix is physically on the medium; the
                    // page's intended CRC stays recorded so the tear is a
                    // plain CRC mismatch to any later reader.
                    self.data[base..base + keep].copy_from_slice(&image[..keep]);
                    reached = p + 1;
                    mem.trace_instant("rs.fault.power", Category::Fault, &[("page", page)]);
                    mem.metrics_mut().counter_add("rs.power_losses", 1);
                    mem.flight_dump("power-loss");
                    failure = Some(FabricError::PowerLoss {
                        device: DEVICE_NAME.into(),
                        writes_done: self.durable_writes,
                    });
                    break;
                }
                PageOutcome::Failed(attempts) => {
                    reached = p;
                    mem.trace_instant(
                        "rs.fault.flash_write",
                        Category::Fault,
                        &[("page", page), ("attempt", attempts as u64)],
                    );
                    failure = Some(FabricError::FlashWriteError { page, attempts });
                    break;
                }
            }
        }
        if failure.is_some() {
            // Roll back the never-programmed remainder of the allocation:
            // the medium ends just past the last page the device touched.
            let keep_pages = first_page as usize + reached;
            self.next_page = keep_pages as u64;
            self.data.truncate(keep_pages * self.cfg.page_bytes);
            self.page_crcs.truncate(keep_pages);
        }
        mem.stall_until(write_done);
        mem.trace_end(
            "rs.store_durable",
            Category::Store,
            &[
                ("pages", pages as u64),
                ("failed", u64::from(failure.is_some())),
            ],
        );
        let mut rs = mem.metrics_mut().scoped("durability.relstore");
        if failure.is_none() {
            rs.counter_add("tables", 1);
            rs.counter_add("pages", pages as u64);
            rs.counter_add("bytes", bytes.len() as u64);
        } else {
            rs.counter_add("failures", 1);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(StoredTable {
                first_page,
                pages,
                rows,
                row_width,
                rows_per_page,
            }),
        }
    }

    /// Pages of `t` whose stored bytes no longer match the CRC recorded
    /// at store time — the scrub pass that exposes silent torn writes.
    pub fn verify_pages(&self, t: &StoredTable) -> Vec<u64> {
        (t.first_page..t.first_page + t.pages as u64)
            .filter(|&p| {
                let base = p as usize * self.cfg.page_bytes;
                let stored = &self.data[base..base + self.cfg.page_bytes];
                self.page_crcs.get(p as usize).copied() != Some(crc32(stored))
            })
            .collect()
    }

    fn row_bytes(&self, t: &StoredTable, i: usize) -> &[u8] {
        let (page, off) = t.locate(i);
        let base = page as usize * self.cfg.page_bytes + off;
        &self.data[base..base + t.row_width]
    }

    /// Read `page` under the active fault plan, retrying with backoff.
    /// Each retry is physically another read: it re-occupies the page's
    /// die and channel, so contention compounds under fault storms. A
    /// latent sector error fails every attempt and surfaces as
    /// [`FabricError::FlashReadError`].
    fn read_page_checked(
        &mut self,
        mem: &mut MemoryHierarchy,
        page: u64,
        issue_at: Cycles,
        stats: &mut RsStats,
    ) -> Result<Cycles> {
        let flash = &mut self.flash;
        let Some(plan) = self.faults.as_mut() else {
            return Ok(flash.read_page(page, issue_at));
        };
        let mut attempts = 0u32;
        let mut at = issue_at;
        loop {
            attempts += 1;
            let done = flash.read_page(page, at);
            if !plan.flash_read_failed(page) {
                return Ok(done);
            }
            stats.injected_faults += 1;
            flash.note_failed_read();
            mem.trace_instant(
                "rs.fault.flash",
                Category::Fault,
                &[("page", page), ("attempt", attempts as u64)],
            );
            if attempts > self.policy.max_retries {
                return Err(FabricError::FlashReadError { page, attempts });
            }
            stats.retries += 1;
            at = done + self.policy.backoff_cycles(attempts, self.cpu_ghz);
        }
    }

    /// Ship `bytes` over the host link, arriving no earlier than
    /// `arrive_at`. Under a fault plan the host checks the shipment's
    /// CRC-32 frame (charged per shipped line) and requests re-shipment on
    /// corruption, bounded by the retry budget.
    fn finish_shipment(
        &mut self,
        mem: &mut MemoryHierarchy,
        arrive_at: Cycles,
        bytes: usize,
        stats: &mut RsStats,
    ) -> Result<()> {
        let Some(plan) = self.faults.as_mut() else {
            mem.stall_until(arrive_at);
            return Ok(());
        };
        let reship = self.link_base
            + ((bytes.max(1) as f64 * self.link_ns_per_byte * self.cpu_ghz).round() as Cycles)
                .max(1);
        let check = ((bytes / 64).max(1)) as u64 * mem.costs().value_op;
        let mut arrive = arrive_at;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            mem.stall_until(arrive);
            mem.cpu(check);
            if !plan.link_corrupted() {
                return Ok(());
            }
            stats.injected_faults += 1;
            mem.trace_instant(
                "rs.fault.link",
                Category::Fault,
                &[("attempt", attempts as u64)],
            );
            if attempts > self.policy.max_retries {
                return Err(FabricError::CorruptBatch {
                    device: LINK_NAME.into(),
                    attempts,
                });
            }
            stats.retries += 1;
            arrive = mem.now() + self.policy.backoff_cycles(attempts, self.cpu_ghz) + reship;
        }
    }

    /// Breaker gate shared by every fetch entry point.
    fn admit(&mut self) -> Result<()> {
        if self.health.allow() {
            Ok(())
        } else {
            Err(FabricError::DeviceTimeout {
                device: DEVICE_NAME.into(),
                attempts: 0,
            })
        }
    }

    /// Near-data path: the controller reads pages with full channel
    /// parallelism, evaluates the geometry (projection + selection), and
    /// ships only the packed result over the host link. Blocks the CPU
    /// until the result has arrived (`mem.stall_until`).
    pub fn fetch_geometry(
        &mut self,
        mem: &mut MemoryHierarchy,
        t: &StoredTable,
        fields: Vec<FieldSlice>,
        predicate: Predicate,
    ) -> Result<(Vec<u8>, RsStats)> {
        let g = Geometry::packed(0, t.row_width, t.rows, fields).with_predicate(predicate);
        g.validate()?;
        self.admit()?;

        mem.trace_begin("rs.fetch_geometry", Category::Store);
        let start = mem.now();
        let mut stats = RsStats {
            pages_read: t.pages as u64,
            rows_scanned: t.rows as u64,
            ..RsStats::default()
        };
        // Flash: all pages, issued as fast as the channels accept them.
        let mut flash_done = start;
        for p in 0..t.pages as u64 {
            match self.read_page_checked(mem, t.first_page + p, start, &mut stats) {
                Ok(done) => flash_done = flash_done.max(done),
                Err(e) => {
                    self.health.record_failure();
                    mem.trace_end("rs.fetch_geometry", Category::Store, &[("failed", 1)]);
                    return Err(e);
                }
            }
        }
        // Controller: streams rows as pages land.
        let ctrl_done = start + t.rows as u64 * self.ctrl_row;

        // Functional result.
        let mut out = Vec::new();
        let mut emitted = 0u64;
        for i in 0..t.rows {
            let row = self.row_bytes(t, i);
            if packer::row_qualifies(&g, row)? {
                packer::pack_row(&g, row, &mut out);
                emitted += 1;
            }
        }

        // Host link: pipelined with production; the last byte arrives after
        // the slower of (device production, link drain).
        let link_done = start
            + self.link_base
            + self.ns_to_cycles(out.len().max(1) as f64 * self.link_ns_per_byte);
        if let Err(e) = self.finish_shipment(
            mem,
            flash_done.max(ctrl_done).max(link_done),
            out.len(),
            &mut stats,
        ) {
            mem.trace_end("rs.fetch_geometry", Category::Store, &[("failed", 1)]);
            return Err(e);
        }
        self.health.record_success();

        stats.rows_emitted = emitted;
        stats.bytes_shipped = out.len() as u64;
        mem.trace_end(
            "rs.fetch_geometry",
            Category::Store,
            &[
                ("pages", stats.pages_read),
                ("rows_emitted", emitted),
                ("bytes_shipped", stats.bytes_shipped),
            ],
        );
        Ok((out, stats))
    }

    /// Near-data aggregation: only the aggregate scalars cross the link
    /// (§IV-B applied to storage).
    pub fn fetch_aggregate(
        &mut self,
        mem: &mut MemoryHierarchy,
        t: &StoredTable,
        g: &Geometry,
    ) -> Result<(Vec<fabric_types::Value>, RsStats)> {
        let OutputMode::Aggregate(specs) = &g.mode else {
            return Err(FabricError::Storage(
                "fetch_aggregate needs an Aggregate geometry".into(),
            ));
        };
        g.validate()?;
        self.admit()?;
        mem.trace_begin("rs.fetch_aggregate", Category::Store);
        let start = mem.now();
        let mut stats = RsStats {
            pages_read: t.pages as u64,
            rows_scanned: t.rows as u64,
            bytes_shipped: 64,
            ..RsStats::default()
        };
        let mut flash_done = start;
        for p in 0..t.pages as u64 {
            match self.read_page_checked(mem, t.first_page + p, start, &mut stats) {
                Ok(done) => flash_done = flash_done.max(done),
                Err(e) => {
                    self.health.record_failure();
                    mem.trace_end("rs.fetch_aggregate", Category::Store, &[("failed", 1)]);
                    return Err(e);
                }
            }
        }
        let ctrl_done = start + t.rows as u64 * self.ctrl_row;

        let mut bank = relmem::aggregate::AggBank::new(specs);
        let mut emitted = 0u64;
        for i in 0..t.rows {
            let row = self.row_bytes(t, i);
            if packer::row_qualifies(g, row)? {
                bank.update_raw(row)?;
                emitted += 1;
            }
        }
        if let Err(e) = self.finish_shipment(
            mem,
            flash_done.max(ctrl_done) + self.link_base,
            64,
            &mut stats,
        ) {
            mem.trace_end("rs.fetch_aggregate", Category::Store, &[("failed", 1)]);
            return Err(e);
        }
        self.health.record_success();
        stats.rows_emitted = emitted;
        mem.trace_end(
            "rs.fetch_aggregate",
            Category::Store,
            &[("pages", stats.pages_read), ("rows_emitted", emitted)],
        );
        Ok((bank.finish()?, stats))
    }

    /// Host-side baseline: ship every page over the link; the host filters
    /// and projects on the CPU afterwards (the caller does that part).
    /// Returns the raw row bytes (page padding stripped).
    pub fn fetch_raw(
        &mut self,
        mem: &mut MemoryHierarchy,
        t: &StoredTable,
    ) -> Result<(Vec<u8>, RsStats)> {
        self.admit()?;
        mem.trace_begin("rs.fetch_raw", Category::Store);
        let start = mem.now();
        let mut stats = RsStats {
            pages_read: t.pages as u64,
            rows_scanned: t.rows as u64,
            rows_emitted: t.rows as u64,
            ..RsStats::default()
        };
        let mut flash_done = start;
        for p in 0..t.pages as u64 {
            match self.read_page_checked(mem, t.first_page + p, start, &mut stats) {
                Ok(done) => flash_done = flash_done.max(done),
                Err(e) => {
                    self.health.record_failure();
                    mem.trace_end("rs.fetch_raw", Category::Store, &[("failed", 1)]);
                    return Err(e);
                }
            }
        }
        let shipped = (t.pages * self.cfg.page_bytes) as u64;
        let link_done =
            start + self.link_base + self.ns_to_cycles(shipped as f64 * self.link_ns_per_byte);
        if let Err(e) =
            self.finish_shipment(mem, flash_done.max(link_done), shipped as usize, &mut stats)
        {
            mem.trace_end("rs.fetch_raw", Category::Store, &[("failed", 1)]);
            return Err(e);
        }
        self.health.record_success();

        let mut out = Vec::with_capacity(t.rows * t.row_width);
        for i in 0..t.rows {
            out.extend_from_slice(self.row_bytes(t, i));
        }
        stats.bytes_shipped = shipped;
        mem.trace_end(
            "rs.fetch_raw",
            Category::Store,
            &[("pages", stats.pages_read), ("bytes_shipped", shipped)],
        );
        Ok((out, stats))
    }

    /// Reset device queue state between experiments.
    pub fn reset_timing(&mut self) {
        self.flash.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
    use fabric_types::{AggFunc, AggSpec, CmpOp, ColumnPredicate, ColumnType, Value};

    /// 2000 rows of 4 i32 columns; c_j(i) = i * 4 + j.
    fn setup() -> (MemoryHierarchy, SsdDevice, StoredTable) {
        let mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
        let rows = 2000usize;
        let mut bytes = Vec::with_capacity(rows * 16);
        for i in 0..rows {
            for j in 0..4 {
                bytes.extend_from_slice(&((i * 4 + j) as i32).to_le_bytes());
            }
        }
        let t = dev.store_rows(&bytes, 16).unwrap();
        (mem, dev, t)
    }

    fn f32field(col: usize, offset: usize) -> FieldSlice {
        FieldSlice::new(col, offset, ColumnType::I32)
    }

    #[test]
    fn layout_and_locate() {
        let (_, _, t) = setup();
        assert_eq!(t.rows_per_page, 256);
        assert_eq!(t.pages, 8); // 2000 / 256 -> 8 pages
        assert_eq!(t.locate(0), (0, 0));
        assert_eq!(t.locate(256), (1, 0));
        assert_eq!(t.locate(257), (1, 16));
    }

    #[test]
    fn near_data_projection_returns_correct_bytes() {
        let (mut mem, mut dev, t) = setup();
        let (out, stats) = dev
            .fetch_geometry(&mut mem, &t, vec![f32field(2, 8)], Predicate::always_true())
            .unwrap();
        assert_eq!(out.len(), 2000 * 4);
        assert_eq!(stats.rows_emitted, 2000);
        // Row 100, column 2 = 402.
        let v = i32::from_le_bytes(out[400..404].try_into().unwrap());
        assert_eq!(v, 402);
    }

    #[test]
    fn near_data_selection_filters() {
        let (mut mem, mut dev, t) = setup();
        let pred = Predicate::always_true().and(ColumnPredicate::new(
            f32field(0, 0),
            CmpOp::Lt,
            Value::I32(40),
        ));
        let (out, stats) = dev
            .fetch_geometry(&mut mem, &t, vec![f32field(0, 0)], pred)
            .unwrap();
        assert_eq!(stats.rows_emitted, 10); // c0 = 4i < 40 -> i < 10
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn near_data_ships_fewer_bytes_and_finishes_faster_for_narrow_projections() {
        let (mut mem, mut dev, t) = setup();
        let t0 = mem.now();
        let (_, near) = dev
            .fetch_geometry(&mut mem, &t, vec![f32field(0, 0)], Predicate::always_true())
            .unwrap();
        let near_time = mem.now() - t0;
        dev.reset_timing();
        let t0 = mem.now();
        let (_, host) = dev.fetch_raw(&mut mem, &t).unwrap();
        let host_time = mem.now() - t0;
        assert!(near.bytes_shipped < host.bytes_shipped / 3);
        assert!(
            near_time <= host_time,
            "near {near_time} vs host {host_time}"
        );
    }

    #[test]
    fn aggregate_ships_only_scalars() {
        let (mut mem, mut dev, t) = setup();
        let g = Geometry::packed(0, 16, t.rows, vec![f32field(1, 4)]).with_mode(
            OutputMode::Aggregate(vec![
                AggSpec::count(),
                AggSpec::over(AggFunc::Sum, f32field(1, 4)),
            ]),
        );
        let (vals, stats) = dev.fetch_aggregate(&mut mem, &t, &g).unwrap();
        assert_eq!(vals[0], Value::I64(2000));
        let expect: i64 = (0..2000i64).map(|i| i * 4 + 1).sum();
        assert_eq!(vals[1], Value::I64(expect));
        assert_eq!(stats.bytes_shipped, 64);
    }

    #[test]
    fn fetch_raw_roundtrips_rows() {
        let (mut mem, mut dev, t) = setup();
        let (out, _) = dev.fetch_raw(&mut mem, &t).unwrap();
        assert_eq!(out.len(), 2000 * 16);
        let v = i32::from_le_bytes(out[16 * 1234 + 12..16 * 1234 + 16].try_into().unwrap());
        assert_eq!(v, (1234 * 4 + 3) as i32);
    }

    #[test]
    fn store_validates_input() {
        let (mem, _, _) = setup();
        let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
        assert!(dev.store_rows(&[1, 2, 3], 2).is_err());
        assert!(dev.store_rows(&[0; 8192], 8192).is_err()); // row > page
    }

    #[test]
    fn transient_flash_faults_recover_with_identical_bytes() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, mut dev, t) = setup();
        let (clean, _) = dev.fetch_raw(&mut mem, &t).unwrap();
        dev.reset_timing();

        let cfg = FaultConfig {
            flash_transient_prob: 0.2,
            link_corrupt_prob: 0.2,
            ..FaultConfig::quiet(77)
        };
        dev.inject_faults(FaultPlan::new(cfg), RecoveryPolicy::default());
        let t0 = mem.now();
        let (faulty, stats) = dev.fetch_raw(&mut mem, &t).unwrap();
        assert_eq!(clean, faulty, "recovered fetch must be bit-identical");
        assert!(stats.injected_faults > 0, "p=0.2 over 8 pages should hit");
        assert_eq!(stats.retries, stats.injected_faults);
        assert!(mem.now() > t0);
        assert_eq!(dev.fault_stats().total(), stats.injected_faults);
    }

    #[test]
    fn latent_sector_error_surfaces_cleanly() {
        use fabric_sim::{BreakerState, FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, mut dev, t) = setup();
        // Latent probability 1.0: every page is bad, retries cannot help.
        let cfg = FaultConfig::quiet(3).with_latent(1.0);
        let policy = RecoveryPolicy::default();
        dev.inject_faults(FaultPlan::new(cfg), policy);
        let err = dev.fetch_raw(&mut mem, &t).unwrap_err();
        assert_eq!(
            err,
            FabricError::FlashReadError {
                page: t.first_page,
                attempts: policy.max_retries + 1,
            }
        );
        // Repeated failures trip the breaker; further fetches fail fast.
        let _ = dev.fetch_raw(&mut mem, &t).unwrap_err();
        let _ = dev.fetch_raw(&mut mem, &t).unwrap_err();
        assert!(matches!(
            dev.health().state(),
            BreakerState::Open { .. } | BreakerState::HalfOpen
        ));
        let err = dev.fetch_raw(&mut mem, &t).unwrap_err();
        assert_eq!(
            err,
            FabricError::DeviceTimeout {
                device: "relstore-ssd".into(),
                attempts: 0,
            }
        );
        assert!(dev.health().rejections > 0);
    }

    #[test]
    fn unshippable_link_surfaces_corrupt_batch() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let (mut mem, mut dev, t) = setup();
        let cfg = FaultConfig {
            link_corrupt_prob: 1.0,
            ..FaultConfig::quiet(3)
        };
        let policy = RecoveryPolicy::default();
        dev.inject_faults(FaultPlan::new(cfg), policy);
        let err = dev
            .fetch_geometry(&mut mem, &t, vec![f32field(0, 0)], Predicate::always_true())
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::CorruptBatch {
                device: "host-link".into(),
                attempts: policy.max_retries + 1,
            }
        );
    }

    #[test]
    fn quiet_plan_changes_nothing_but_the_crc_check() {
        use fabric_sim::{FaultPlan, RecoveryPolicy};
        let (mut mem, mut dev, t) = setup();
        let (clean, clean_stats) = dev.fetch_raw(&mut mem, &t).unwrap();
        dev.reset_timing();
        dev.inject_faults(FaultPlan::quiet(), RecoveryPolicy::default());
        let (quiet, quiet_stats) = dev.fetch_raw(&mut mem, &t).unwrap();
        assert_eq!(clean, quiet);
        assert_eq!(clean_stats.bytes_shipped, quiet_stats.bytes_shipped);
        assert_eq!(quiet_stats.injected_faults, 0);
        assert_eq!(quiet_stats.retries, 0);
    }

    #[test]
    fn page_crcs_frame_stored_pages() {
        let (_, dev, t) = setup();
        for p in 0..t.pages as u64 {
            assert!(dev.page_crc(t.first_page + p).is_some());
        }
        assert!(dev.page_crc(t.first_page + t.pages as u64).is_none());
    }

    #[test]
    fn multiple_tables_coexist() {
        let (mut mem, mut dev, t1) = setup();
        let bytes: Vec<u8> = (0..64u8).collect();
        let t2 = dev.store_rows(&bytes, 8).unwrap();
        assert!(t2.first_page >= t1.first_page + t1.pages as u64);
        let (out, _) = dev.fetch_raw(&mut mem, &t2).unwrap();
        assert_eq!(out, bytes);
    }

    fn row_bytes_i32(rows: usize) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(rows * 16);
        for i in 0..rows {
            for j in 0..4 {
                bytes.extend_from_slice(&((i * 4 + j) as i32).to_le_bytes());
            }
        }
        bytes
    }

    #[test]
    fn durable_store_pays_program_time_and_reads_back_identical() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
        let bytes = row_bytes_i32(2000);
        let t0 = mem.now();
        let t = dev.store_rows_durable(&mut mem, &bytes, 16).unwrap();
        assert!(mem.now() > t0, "page programs cost time");
        assert_eq!(dev.verify_pages(&t), Vec::<u64>::new());
        let (out, _) = dev.fetch_raw(&mut mem, &t).unwrap();
        assert_eq!(out, bytes);
    }

    #[test]
    fn flash_write_faults_retry_then_fail_past_the_budget() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
        let mut cfg = FaultConfig::quiet(77);
        cfg.flash_write_prob = 0.1;
        dev.inject_faults(FaultPlan::new(cfg), RecoveryPolicy::default());
        // Retries absorb a 10% program-failure rate over many pages.
        let bytes = row_bytes_i32(4000);
        let t = dev.store_rows_durable(&mut mem, &bytes, 16).unwrap();
        assert!(dev.fault_stats().flash_write_errors > 0);
        assert_eq!(dev.verify_pages(&t), Vec::<u64>::new());
        let (out, _) = dev.fetch_raw(&mut mem, &t).unwrap();
        assert_eq!(out, bytes);
        // A certain-failure plan exhausts the retry budget.
        let mut cfg = FaultConfig::quiet(78);
        cfg.flash_write_prob = 1.0;
        dev.inject_faults(FaultPlan::new(cfg), RecoveryPolicy::default());
        let err = dev.store_rows_durable(&mut mem, &bytes, 16).unwrap_err();
        assert!(matches!(err, FabricError::FlashWriteError { .. }), "{err}");
    }

    #[test]
    fn torn_pages_are_caught_by_verify_pages() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
        let mut cfg = FaultConfig::quiet(79);
        cfg.torn_write_prob = 0.25;
        dev.inject_faults(FaultPlan::new(cfg), RecoveryPolicy::default());
        let bytes = row_bytes_i32(4000);
        let t = dev.store_rows_durable(&mut mem, &bytes, 16).unwrap();
        let torn = dev.verify_pages(&t);
        let expect = dev.fault_stats().torn_writes;
        assert!(expect > 0, "seed 79 should tear at least one page");
        assert_eq!(torn.len() as u64, expect);
        for p in &torn {
            assert!((t.first_page..t.first_page + t.pages as u64).contains(p));
        }
    }

    #[test]
    fn a_power_cut_leaves_a_prefix_and_is_deterministic() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let run = |crash_at: u64| {
            let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
            let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
            let cfg = FaultConfig::quiet(80).with_crash_at(crash_at);
            dev.inject_faults(FaultPlan::new(cfg), RecoveryPolicy::default());
            let bytes = row_bytes_i32(2000);
            let err = dev.store_rows_durable(&mut mem, &bytes, 16).unwrap_err();
            // The failed store rolls its unused allocation back: the
            // medium ends at the torn in-flight page, with no zero pages
            // (or zero CRCs) beyond it.
            assert_eq!(dev.next_page, 3);
            assert_eq!(dev.data.len(), 3 * dev.cfg.page_bytes);
            assert_eq!(dev.page_crcs.len(), 3);
            (err, dev.data.clone())
        };
        let (err, data) = run(3);
        match err {
            FabricError::PowerLoss {
                device,
                writes_done,
            } => {
                assert_eq!(device, DEVICE_NAME);
                assert_eq!(writes_done, 2, "two pages durable before the cut");
            }
            other => panic!("expected PowerLoss, got {other}"),
        }
        // Same seed, same crash point → bit-identical surviving media.
        let (_, data2) = run(3);
        assert_eq!(data, data2);
    }

    #[test]
    fn power_cut_counts_durable_writes_device_globally() {
        use fabric_sim::{FaultConfig, FaultPlan, RecoveryPolicy};
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut dev = SsdDevice::new(RsConfig::smartssd(), &mem);
        // One plan across two stores: the first (8 pages) survives whole,
        // the second cuts at device write 11 — its 3rd page.
        let cfg = FaultConfig::quiet(80).with_crash_at(11);
        dev.inject_faults(FaultPlan::new(cfg), RecoveryPolicy::default());
        let bytes = row_bytes_i32(2000);
        let t1 = dev.store_rows_durable(&mut mem, &bytes, 16).unwrap();
        assert_eq!(t1.pages, 8);
        assert_eq!(dev.durable_writes(), 8);
        let err = dev.store_rows_durable(&mut mem, &bytes, 16).unwrap_err();
        match err {
            FabricError::PowerLoss { writes_done, .. } => {
                assert_eq!(
                    writes_done, 10,
                    "writes_done spans the device, not the failing call"
                );
            }
            other => panic!("expected PowerLoss, got {other}"),
        }
        // Rollback keeps the first table intact and ends the medium at
        // the second store's torn page.
        assert_eq!(dev.next_page, t1.first_page + t1.pages as u64 + 3);
        assert_eq!(dev.page_crcs.len() as u64, dev.next_page);
        assert_eq!(dev.data.len(), dev.next_page as usize * dev.cfg.page_bytes);
        assert_eq!(dev.verify_pages(&t1), Vec::<u64>::new());
        let (out, _) = dev.fetch_raw(&mut mem, &t1).unwrap();
        assert_eq!(out, bytes);
    }
}
