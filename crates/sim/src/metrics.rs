//! Communication-overhead accounting.
//!
//! The paper analyzes computation cost (§IV-E) but not communication;
//! for a deployment study the wire budget matters just as much. This
//! module counts messages and bytes for a measurement period:
//! queries (RSU → broadcast), bit reports (vehicle → RSU), and
//! end-of-period uploads (RSU → server), in both the dense and
//! compact ([`PeriodUpload::encode_compact`]) forms.

use crate::protocol::{BitReport, PeriodUpload, Query};

/// Message and byte counters for one measurement period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommunicationMetrics {
    /// Queries answered (one per vehicle per RSU passage).
    pub queries: u64,
    /// Bit reports transmitted.
    pub reports: u64,
    /// Period uploads transmitted.
    pub uploads: u64,
    /// Bytes of query frames received by vehicles.
    pub query_bytes: u64,
    /// Bytes of report frames received by RSUs.
    pub report_bytes: u64,
    /// Upload bytes with the dense encoding.
    pub upload_bytes_dense: u64,
    /// Upload bytes with the size-adaptive encoding.
    pub upload_bytes_compact: u64,
}

impl CommunicationMetrics {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts one query/report exchange.
    pub fn record_exchange(&mut self, query: &Query, report: &BitReport) {
        self.queries += 1;
        self.reports += 1;
        self.query_bytes += query.encode().len() as u64;
        self.report_bytes += report.encode().len() as u64;
    }

    /// Accounts one period upload (both encodings, for comparison).
    pub fn record_upload(&mut self, upload: &PeriodUpload) {
        self.uploads += 1;
        self.upload_bytes_dense += upload.encode().len() as u64;
        self.upload_bytes_compact += upload.encode_compact().len() as u64;
    }

    /// Vehicle-side bytes per passage (query down + report up), or
    /// `None` before any exchange.
    ///
    /// Earlier versions returned a `0.0` sentinel, which silently
    /// dragged down averages when merged-period tables mixed idle and
    /// busy periods; callers must now decide how to render "no data"
    /// (the experiment tables print `n/a`).
    #[must_use]
    pub fn bytes_per_passage(&self) -> Option<f64> {
        if self.reports == 0 {
            None
        } else {
            Some((self.query_bytes + self.report_bytes) as f64 / self.reports as f64)
        }
    }

    /// Fraction of upload bytes saved by the compact encoding, or `None`
    /// before any upload (previously a misleading `0.0` sentinel — "no
    /// uploads" is not "zero savings").
    #[must_use]
    pub fn upload_savings(&self) -> Option<f64> {
        if self.upload_bytes_dense == 0 {
            None
        } else {
            Some(1.0 - self.upload_bytes_compact as f64 / self.upload_bytes_dense as f64)
        }
    }

    /// Merges counters from another period or a parallel worker.
    pub fn merge(&mut self, other: &CommunicationMetrics) {
        self.queries += other.queries;
        self.reports += other.reports;
        self.uploads += other.uploads;
        self.query_bytes += other.query_bytes;
        self.report_bytes += other.report_bytes;
        self.upload_bytes_dense += other.upload_bytes_dense;
        self.upload_bytes_compact += other.upload_bytes_compact;
    }
}

/// Per-link fault counters: what the channel did to the frames that
/// crossed it (see [`crate::faults::Channel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkMetrics {
    /// Frames offered to the link.
    pub frames: u64,
    /// Frame copies actually handed to the receiver (duplication can
    /// push this above `frames`; loss pulls it below).
    pub delivered: u64,
    /// Frames dropped outright.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Frames delivered too late to count (reordered past the period
    /// boundary) and therefore discarded by the receiver.
    pub late: u64,
    /// Delivered copies that lost their tail bytes.
    pub truncated: u64,
    /// Delivered copies with a flipped bit.
    pub bit_flipped: u64,
}

impl LinkMetrics {
    /// Merges counters from another worker or period.
    pub fn merge(&mut self, other: &LinkMetrics) {
        self.frames += other.frames;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.late += other.late;
        self.truncated += other.truncated;
        self.bit_flipped += other.bit_flipped;
    }

    /// Fraction of offered frames that never reached the receiver
    /// (dropped or late), or `None` before any traffic (a `0.0` sentinel
    /// here read as "perfect link" for links that carried nothing).
    #[must_use]
    pub fn loss_fraction(&self) -> Option<f64> {
        if self.frames == 0 {
            None
        } else {
            Some((self.dropped + self.late) as f64 / self.frames as f64)
        }
    }
}

/// End-to-end fault accounting for one measurement period: what the two
/// lossy links did, what the receivers rejected, what the crash model
/// destroyed, and how the upload retry loop fared.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultMetrics {
    /// The vehicle → RSU report link.
    pub report_link: LinkMetrics,
    /// The RSU → server upload link (counts every attempt, including
    /// retransmissions).
    pub upload_link: LinkMetrics,
    /// Delivered report frames the RSU could not decode (corruption
    /// broke the wire format).
    pub reports_undecodable: u64,
    /// Decoded reports rejected for an out-of-range index (corruption
    /// survived the format but not validation).
    pub reports_rejected: u64,
    /// Reports destroyed by RSU crashes (received before the crash,
    /// after the last checkpoint).
    pub reports_lost_to_crash: u64,
    /// RSU crash events that fired.
    pub crashes: u64,
    /// Upload attempts (first sends plus retransmissions).
    pub upload_attempts: u64,
    /// Retransmissions alone.
    pub upload_retries: u64,
    /// Acks lost on the return path (the upload arrived but the RSU
    /// retried anyway).
    pub acks_lost: u64,
    /// Uploads abandoned after exhausting the retry budget.
    pub uploads_abandoned: u64,
    /// Simulated seconds spent in retry backoff across all RSUs.
    pub backoff_seconds: f64,
    /// Re-sent uploads the server recognized and discarded idempotently.
    pub upload_duplicates: u64,
    /// Same-sequence uploads whose content differed (corruption that
    /// still parsed, or an equivocating RSU).
    pub upload_conflicts: u64,
    /// Uploads with a stale sequence number (late arrivals from an
    /// earlier period), ignored.
    pub upload_stale: u64,
}

impl FaultMetrics {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges counters from another worker or period.
    pub fn merge(&mut self, other: &FaultMetrics) {
        self.report_link.merge(&other.report_link);
        self.upload_link.merge(&other.upload_link);
        self.reports_undecodable += other.reports_undecodable;
        self.reports_rejected += other.reports_rejected;
        self.reports_lost_to_crash += other.reports_lost_to_crash;
        self.crashes += other.crashes;
        self.upload_attempts += other.upload_attempts;
        self.upload_retries += other.upload_retries;
        self.acks_lost += other.acks_lost;
        self.uploads_abandoned += other.uploads_abandoned;
        self.backoff_seconds += other.backoff_seconds;
        self.upload_duplicates += other.upload_duplicates;
        self.upload_conflicts += other.upload_conflicts;
        self.upload_stale += other.upload_stale;
    }
}

// ---------------------------------------------------------------------
// Bridges into the unified metrics registry (`vcps-obs`).
//
// The three structs above predate the registry and keep their typed,
// serializable shape for return values; `record_into` folds each into
// registry counters so one `RegistrySnapshot` (with its associative,
// commutative merge) carries a whole run's story instead of three
// bespoke `merge` implementations. Counter semantics are identical:
// every field adds, so recording per-worker structs into a shared
// registry commutes exactly like the hand-rolled merges did.
// ---------------------------------------------------------------------

impl CommunicationMetrics {
    /// Folds these counters into `obs` under the `comm.` prefix (no-op
    /// when `obs` is disabled).
    pub fn record_into(&self, obs: &vcps_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.add("comm.queries", self.queries);
        obs.add("comm.reports", self.reports);
        obs.add("comm.uploads", self.uploads);
        obs.add("comm.query_bytes", self.query_bytes);
        obs.add("comm.report_bytes", self.report_bytes);
        obs.add("comm.upload_bytes_dense", self.upload_bytes_dense);
        obs.add("comm.upload_bytes_compact", self.upload_bytes_compact);
    }
}

impl LinkMetrics {
    /// Folds these counters into `obs` under `faults.<link>.` for the
    /// given link name (no-op when `obs` is disabled).
    pub fn record_into(&self, obs: &vcps_obs::Obs, link: &str) {
        if !obs.is_enabled() {
            return;
        }
        let put = |field: &str, v: u64| obs.add(&format!("faults.{link}.{field}"), v);
        put("frames", self.frames);
        put("delivered", self.delivered);
        put("dropped", self.dropped);
        put("duplicated", self.duplicated);
        put("late", self.late);
        put("truncated", self.truncated);
        put("bit_flipped", self.bit_flipped);
    }
}

impl FaultMetrics {
    /// Folds these counters into `obs` under the `faults.` prefix; the
    /// accumulated simulated backoff is also recorded as a microsecond
    /// histogram sample (no-op when `obs` is disabled).
    pub fn record_into(&self, obs: &vcps_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        self.report_link.record_into(obs, "report_link");
        self.upload_link.record_into(obs, "upload_link");
        obs.add("faults.reports_undecodable", self.reports_undecodable);
        obs.add("faults.reports_rejected", self.reports_rejected);
        obs.add("faults.reports_lost_to_crash", self.reports_lost_to_crash);
        obs.add("faults.crashes", self.crashes);
        obs.add("faults.upload_attempts", self.upload_attempts);
        obs.add("faults.upload_retries", self.upload_retries);
        obs.add("faults.acks_lost", self.acks_lost);
        obs.add("faults.uploads_abandoned", self.uploads_abandoned);
        obs.add("faults.upload_duplicates", self.upload_duplicates);
        obs.add("faults.upload_conflicts", self.upload_conflicts);
        obs.add("faults.upload_stale", self.upload_stale);
        if self.backoff_seconds > 0.0 {
            obs.observe(
                "faults.backoff_us",
                (self.backoff_seconds * 1e6).round() as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::TrustedAuthority;
    use crate::MacAddress;
    use vcps_bitarray::BitArray;
    use vcps_core::RsuId;

    fn sample_query() -> Query {
        let ca = TrustedAuthority::new(1);
        Query {
            rsu: RsuId(1),
            certificate: ca.issue(RsuId(1)),
            array_size: 1024,
        }
    }

    #[test]
    fn exchange_accounting() {
        let mut m = CommunicationMetrics::new();
        let report = BitReport {
            mac: MacAddress([2, 0, 0, 0, 0, 1]),
            index: 5,
        };
        m.record_exchange(&sample_query(), &report);
        m.record_exchange(&sample_query(), &report);
        assert_eq!(m.queries, 2);
        assert_eq!(m.reports, 2);
        // Query frame: 33 bytes; report frame: 15 bytes.
        assert_eq!(m.bytes_per_passage(), Some(48.0));
    }

    #[test]
    fn upload_accounting_shows_compact_savings() {
        let mut m = CommunicationMetrics::new();
        let mut bits = BitArray::new(1 << 14);
        bits.set(7);
        m.record_upload(&PeriodUpload {
            rsu: RsuId(1),
            counter: 1,
            bits,
        });
        assert_eq!(m.uploads, 1);
        assert!(m.upload_bytes_compact < m.upload_bytes_dense);
        assert!(m.upload_savings().unwrap() > 0.9);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CommunicationMetrics {
            queries: 1,
            reports: 1,
            uploads: 1,
            query_bytes: 10,
            report_bytes: 20,
            upload_bytes_dense: 30,
            upload_bytes_compact: 15,
        };
        a.merge(&a.clone());
        assert_eq!(a.queries, 2);
        assert_eq!(a.upload_bytes_dense, 60);
    }

    /// Regression: zero-denominator ratios used to come back as `0.0`
    /// sentinels, indistinguishable from genuine measurements of zero;
    /// they must now be absent.
    #[test]
    fn empty_metrics_have_no_ratios() {
        let m = CommunicationMetrics::new();
        assert_eq!(m.bytes_per_passage(), None);
        assert_eq!(m.upload_savings(), None);
        assert_eq!(LinkMetrics::default().loss_fraction(), None);
    }

    #[test]
    fn link_metrics_merge_and_loss_fraction() {
        let mut a = LinkMetrics {
            frames: 10,
            delivered: 7,
            dropped: 2,
            duplicated: 0,
            late: 1,
            truncated: 1,
            bit_flipped: 0,
        };
        assert!((a.loss_fraction().unwrap() - 0.3).abs() < 1e-12);
        a.merge(&a.clone());
        assert_eq!(a.frames, 20);
        assert_eq!(a.dropped, 4);
    }

    #[test]
    fn fault_metrics_merge_sums_everything() {
        let mut f = FaultMetrics::new();
        f.report_link.frames = 5;
        f.reports_lost_to_crash = 3;
        f.upload_retries = 2;
        f.backoff_seconds = 1.5;
        let mut g = f;
        g.merge(&f);
        assert_eq!(g.report_link.frames, 10);
        assert_eq!(g.reports_lost_to_crash, 6);
        assert_eq!(g.upload_retries, 4);
        assert!((g.backoff_seconds - 3.0).abs() < 1e-12);
    }

    #[test]
    fn record_into_mirrors_struct_counters() {
        let mut comm = CommunicationMetrics::new();
        comm.queries = 7;
        comm.upload_bytes_compact = 90;
        let mut faults = FaultMetrics::new();
        faults.report_link.frames = 5;
        faults.report_link.dropped = 2;
        faults.upload_retries = 3;
        faults.backoff_seconds = 0.5;

        let obs = vcps_obs::Obs::enabled();
        comm.record_into(&obs);
        faults.record_into(&obs);
        // Recording twice sums, exactly like the struct merges.
        faults.record_into(&obs);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["comm.queries"], 7);
        assert_eq!(snap.counters["comm.upload_bytes_compact"], 90);
        assert_eq!(snap.counters["faults.report_link.frames"], 10);
        assert_eq!(snap.counters["faults.report_link.dropped"], 4);
        assert_eq!(snap.counters["faults.upload_retries"], 6);
        assert_eq!(snap.histograms["faults.backoff_us"].count, 2);
        assert_eq!(snap.histograms["faults.backoff_us"].sum, 1_000_000);

        // Disabled: nothing recorded, nothing allocated.
        let off = vcps_obs::Obs::disabled();
        comm.record_into(&off);
        faults.record_into(&off);
        assert!(off.snapshot().is_empty());
    }
}
