//! Network and application metrics DeepFlow attaches to traces.
//!
//! The paper's motivating capability (§1, §4.1.3): when a trace shows a slow
//! or failed span, the correlated *network* metrics (retransmissions, RTT,
//! resets, zero-window stalls) tell the operator whether the network
//! infrastructure is the root cause — without a separate packet-analysis
//! tool.

use crate::time::DurationNs;
use serde::{Deserialize, Serialize};

/// L4 flow metrics, maintained per flow per capture point by the flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct FlowMetrics {
    /// Packets sent client→server.
    pub packets_tx: u64,
    /// Packets sent server→client.
    pub packets_rx: u64,
    /// Bytes sent client→server.
    pub bytes_tx: u64,
    /// Bytes sent server→client.
    pub bytes_rx: u64,
    /// Retransmitted segments observed (either direction).
    pub retransmissions: u64,
    /// TCP RST segments observed.
    pub resets: u64,
    /// Zero-window advertisements observed (receiver stall / backlog —
    /// the RabbitMQ case in Fig. 12).
    pub zero_windows: u64,
    /// SYN retries beyond the first (connection-establishment trouble —
    /// the ARP-storm case in §4.1.2).
    pub syn_retries: u64,
    /// Smoothed round-trip time estimate.
    pub rtt: DurationNs,
    /// Server response time (first response byte − last request byte),
    /// the L4-visible part of server latency.
    pub srt: DurationNs,
    /// Whether the connection completed the handshake.
    pub established: bool,
}

impl FlowMetrics {
    /// Merge a peer observation of the same flow (e.g. when re-aggregating
    /// at the server). Counters add; RTT/SRT take the max (worst observed).
    pub fn merge(&mut self, other: &FlowMetrics) {
        self.packets_tx += other.packets_tx;
        self.packets_rx += other.packets_rx;
        self.bytes_tx += other.bytes_tx;
        self.bytes_rx += other.bytes_rx;
        self.retransmissions += other.retransmissions;
        self.resets += other.resets;
        self.zero_windows += other.zero_windows;
        self.syn_retries += other.syn_retries;
        self.rtt = self.rtt.max(other.rtt);
        self.srt = self.srt.max(other.srt);
        self.established |= other.established;
    }

    /// A quick health verdict used by troubleshooting views: any
    /// retransmission, reset, zero-window or SYN retry marks the flow
    /// anomalous.
    pub fn is_anomalous(&self) -> bool {
        self.retransmissions > 0 || self.resets > 0 || self.zero_windows > 0 || self.syn_retries > 0
    }
}

/// L7 metrics aggregated per (flow, endpoint) by the agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct L7Metrics {
    /// Requests observed.
    pub request_count: u64,
    /// Responses observed.
    pub response_count: u64,
    /// Responses classified as client errors.
    pub client_errors: u64,
    /// Responses classified as server errors.
    pub server_errors: u64,
    /// Requests with no response (incomplete sessions).
    pub timeouts: u64,
    /// Sum of session durations (for mean latency).
    pub latency_sum: DurationNs,
    /// Maximum session duration.
    pub latency_max: DurationNs,
}

impl L7Metrics {
    /// Record one completed session.
    pub fn record_session(&mut self, latency: DurationNs, client_error: bool, server_error: bool) {
        self.request_count += 1;
        self.response_count += 1;
        if client_error {
            self.client_errors += 1;
        }
        if server_error {
            self.server_errors += 1;
        }
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
    }

    /// Record a request that never got a response.
    pub fn record_timeout(&mut self) {
        self.request_count += 1;
        self.timeouts += 1;
    }

    /// Mean latency over completed sessions.
    pub fn latency_mean(&self) -> DurationNs {
        self.latency_sum
            .as_nanos()
            .checked_div(self.response_count)
            .map_or(DurationNs::ZERO, DurationNs)
    }

    /// Error ratio over all requests.
    pub fn error_ratio(&self) -> f64 {
        if self.request_count == 0 {
            0.0
        } else {
            (self.client_errors + self.server_errors + self.timeouts) as f64
                / self.request_count as f64
        }
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: &L7Metrics) {
        self.request_count += other.request_count;
        self.response_count += other.response_count;
        self.client_errors += other.client_errors;
        self.server_errors += other.server_errors;
        self.timeouts += other.timeouts;
        self.latency_sum += other.latency_sum;
        self.latency_max = self.latency_max.max(other.latency_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_metrics_merge_adds_counters_and_maxes_rtt() {
        let mut a = FlowMetrics {
            packets_tx: 10,
            retransmissions: 1,
            rtt: DurationNs::from_micros(100),
            ..Default::default()
        };
        let b = FlowMetrics {
            packets_tx: 5,
            retransmissions: 2,
            rtt: DurationNs::from_micros(250),
            established: true,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.packets_tx, 15);
        assert_eq!(a.retransmissions, 3);
        assert_eq!(a.rtt, DurationNs::from_micros(250));
        assert!(a.established);
    }

    #[test]
    fn anomaly_detection() {
        let healthy = FlowMetrics::default();
        assert!(!healthy.is_anomalous());
        let sick = FlowMetrics {
            zero_windows: 3,
            ..Default::default()
        };
        assert!(sick.is_anomalous());
    }

    #[test]
    fn l7_metrics_session_accounting() {
        let mut m = L7Metrics::default();
        m.record_session(DurationNs::from_millis(10), false, false);
        m.record_session(DurationNs::from_millis(30), false, true);
        m.record_timeout();
        assert_eq!(m.request_count, 3);
        assert_eq!(m.response_count, 2);
        assert_eq!(m.server_errors, 1);
        assert_eq!(m.timeouts, 1);
        assert_eq!(m.latency_mean(), DurationNs::from_millis(20));
        assert!((m.error_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.latency_max, DurationNs::from_millis(30));
    }

    #[test]
    fn l7_metrics_merge() {
        let mut a = L7Metrics::default();
        a.record_session(DurationNs::from_millis(5), false, false);
        let mut b = L7Metrics::default();
        b.record_session(DurationNs::from_millis(15), true, false);
        a.merge(&b);
        assert_eq!(a.request_count, 2);
        assert_eq!(a.client_errors, 1);
        assert_eq!(a.latency_mean(), DurationNs::from_millis(10));
    }
}
