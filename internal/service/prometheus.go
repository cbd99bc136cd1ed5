package service

import (
	"fmt"
	"io"
	"sort"
)

// writePrometheus renders a MetricsSnapshot in the Prometheus text
// exposition format (version 0.0.4), so standard scrapers consume the
// daemon without bespoke glue: GET /metrics?format=prometheus. Every
// counter documented for the JSON form appears here under a
// seqbist_-prefixed name that embeds the same leaf (e.g.
// `jobs.submitted` -> seqbist_jobs_submitted_total); scripts/
// checklinks.sh holds the two surfaces to that rule.
func writePrometheus(w io.Writer, snap MetricsSnapshot) {
	c := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	c("seqbist_jobs_submitted_total", "Jobs accepted for execution.", snap.Jobs.Submitted)
	c("seqbist_jobs_done_total", "Jobs finished successfully.", snap.Jobs.Done)
	c("seqbist_jobs_failed_total", "Jobs that ended in error.", snap.Jobs.Failed)
	c("seqbist_jobs_canceled_total", "Jobs canceled before completion.", snap.Jobs.Canceled)
	c("seqbist_jobs_coalesced_total", "Submissions attached to an identical in-flight execution.", snap.Jobs.Coalesced)
	fmt.Fprintf(w, "# HELP seqbist_jobs_by_state Jobs currently retained, by lifecycle state.\n# TYPE seqbist_jobs_by_state gauge\n")
	states := make([]string, 0, len(snap.Jobs.ByState))
	for st := range snap.Jobs.ByState {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "seqbist_jobs_by_state{state=%q} %d\n", st, snap.Jobs.ByState[State(st)])
	}

	c("seqbist_sweeps_started_total", "Batch sweeps accepted.", snap.Sweeps.Started)
	c("seqbist_sweeps_finished_total", "Batch sweeps that reached a terminal state.", snap.Sweeps.Finished)
	g("seqbist_sweeps_active", "Sweeps currently running.", float64(snap.Sweeps.Active))

	g("seqbist_cache_entries", "Result-cache entries resident.", float64(snap.Cache.Entries))
	c("seqbist_cache_hits_total", "Result-cache hits.", snap.Cache.Hits)
	c("seqbist_cache_misses_total", "Result-cache misses.", snap.Cache.Misses)

	c("seqbist_fsim_proc2_sims_total", "Procedure 2 expanded-sequence fault simulations.", snap.Fsim.Proc2Sims)
	c("seqbist_fsim_patterns_applied_total", "Input vectors applied by the fault-simulation engines.", snap.Fsim.PatternsApplied)
	c("seqbist_fsim_gates_evaluated_total", "Gate evaluations performed by the active-region engine.", snap.Fsim.GatesEvaluated)
	c("seqbist_fsim_gates_skipped_total", "Gate evaluations proven unnecessary and skipped.", snap.Fsim.GatesSkipped)
	c("seqbist_fsim_groups_quiescent_total", "Whole group-time-unit evaluations skipped as quiescent.", snap.Fsim.GroupsQuiescent)
	c("seqbist_fsim_groups_escalated_total", "Group-calls promoted to the flat full-netlist stepper by the activity heuristic.", snap.Fsim.GroupsEscalated)
	c("seqbist_fsim_groups_repacked_total", "Live fault groups dissolved by repacking the live faults into dense groups.", snap.Fsim.GroupsRepacked)

	fmt.Fprintf(w, "# HELP seqbist_phase_seconds_total Cumulative pipeline wall time by stage (atpg, select, compact, bist).\n# TYPE seqbist_phase_seconds_total counter\n")
	phases := make([]string, 0, len(snap.PhaseSeconds))
	for ph := range snap.PhaseSeconds {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		fmt.Fprintf(w, "seqbist_phase_seconds_total{phase=%q} %g\n", ph, snap.PhaseSeconds[ph])
	}

	c("seqbist_strategy_races_total", "Decided strategy races (in-pipeline and sweep-level).", snap.Strategy.Races)
	strategies := make([]string, 0, len(snap.Strategy.PerStrategy))
	for name := range snap.Strategy.PerStrategy {
		strategies = append(strategies, name)
	}
	sort.Strings(strategies)
	labeled := func(name, help string, value func(StrategyCounters) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, st := range strategies {
			fmt.Fprintf(w, "%s{strategy=%q} %g\n", name, st, value(snap.Strategy.PerStrategy[st]))
		}
	}
	labeled("seqbist_strategy_runs_total", "Pipeline selection runs by configured strategy.",
		func(sc StrategyCounters) float64 { return float64(sc.Runs) })
	labeled("seqbist_strategy_trials_total", "Full Procedure 1 selection runs evaluated, by strategy.",
		func(sc StrategyCounters) float64 { return float64(sc.Trials) })
	labeled("seqbist_strategy_wins_total", "Races won, by winning strategy.",
		func(sc StrategyCounters) float64 { return float64(sc.Wins) })
	labeled("seqbist_strategy_wall_seconds_total", "Cumulative selection wall time by strategy.",
		func(sc StrategyCounters) float64 { return sc.WallSeconds })

	tenants := make([]string, 0, len(snap.Tenant.PerTenant))
	for name := range snap.Tenant.PerTenant {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	tenantMetric := func(name, help, kind string, value func(TenantCounters) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, t := range tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, t, value(snap.Tenant.PerTenant[t]))
		}
	}
	tenantMetric("seqbist_tenant_submitted_total", "Admitted submissions by tenant.", "counter",
		func(tc TenantCounters) float64 { return float64(tc.Submitted) })
	tenantMetric("seqbist_tenant_done_total", "Jobs finished successfully, by tenant.", "counter",
		func(tc TenantCounters) float64 { return float64(tc.Done) })
	tenantMetric("seqbist_tenant_rejected_quota_total", "Submissions rejected by a tenant quota (429 quota_exceeded).", "counter",
		func(tc TenantCounters) float64 { return float64(tc.RejectedQuota) })
	tenantMetric("seqbist_tenant_rejected_rate_total", "Submissions rejected by the tenant's token bucket (429 rate_limited).", "counter",
		func(tc TenantCounters) float64 { return float64(tc.RejectedRate) })
	tenantMetric("seqbist_tenant_claims_won_total", "Cluster claims won on the tenant's records.", "counter",
		func(tc TenantCounters) float64 { return float64(tc.ClaimsWon) })
	tenantMetric("seqbist_tenant_queued", "Tenant's jobs currently queued.", "gauge",
		func(tc TenantCounters) float64 { return float64(tc.Queued) })
	tenantMetric("seqbist_tenant_running", "Tenant's jobs currently running.", "gauge",
		func(tc TenantCounters) float64 { return float64(tc.Running) })
	tenantMetric("seqbist_tenant_active_sweeps", "Tenant's non-terminal sweeps.", "gauge",
		func(tc TenantCounters) float64 { return float64(tc.ActiveSweeps) })
	tenantMetric("seqbist_tenant_drain_per_sec", "Measured completion rate feeding the tenant's Retry-After answers.", "gauge",
		func(tc TenantCounters) float64 { return tc.DrainPerSec })
	tenantMetric("seqbist_tenant_weight", "Deficit-round-robin weight in force.", "gauge",
		func(tc TenantCounters) float64 { return float64(tc.Weight) })
	tenantMetric("seqbist_tenant_priority", "Scheduling priority class in force.", "gauge",
		func(tc TenantCounters) float64 { return float64(tc.Priority) })

	g("seqbist_workers", "Synthesis worker-pool size.", float64(snap.Workers))
	g("seqbist_queue_depth", "Pending-job queue capacity.", float64(snap.QueueDepth))
	g("seqbist_queue_len", "Queued jobs no claim has picked up yet.", float64(snap.QueueLen))
	c("seqbist_http_rate_limited_total", "Submissions answered 429 by the per-client rate limiter.", snap.HTTP.RateLimited)

	if st := snap.Store; st != nil {
		c("seqbist_store_records_written_total", "Record-log appends since the store opened.", st.RecordsWritten)
		g("seqbist_store_bytes_on_disk", "Store footprint: log + snapshot + spilled results.", float64(st.BytesOnDisk))
		c("seqbist_store_compactions_total", "Snapshot compactions since open.", st.Compactions)
		if st.LastCompaction != "" {
			// last_compaction is exported as presence of the compactions
			// counter plus this info label, text-format style.
			fmt.Fprintf(w, "# HELP seqbist_store_last_compaction_info RFC 3339 time of the most recent compaction.\n# TYPE seqbist_store_last_compaction_info gauge\nseqbist_store_last_compaction_info{time=%q} 1\n", st.LastCompaction)
		}
		c("seqbist_store_records_replayed_total", "Records rehydrated at startup.", st.RecordsReplayed)
		c("seqbist_store_records_refreshed_total", "Peers' records folded in after startup (cluster mode).", st.RecordsRefreshed)
		c("seqbist_store_skipped_frames_total", "Torn or corrupt frames skipped scanning the shared log.", st.SkippedFrames)
		g("seqbist_store_truncated_tail", "1 if a torn record was discarded from the log tail at startup.", boolGauge(st.TruncatedTail))
		c("seqbist_store_jobs_recovered_total", "Job records rebuilt into live state at startup.", st.JobsRecovered)
		c("seqbist_store_sweeps_recovered_total", "Sweep records rebuilt into live state at startup.", st.SweepsRecovered)
		c("seqbist_store_orphans_requeued_total", "Jobs re-enqueued after being orphaned by a crash.", st.OrphansRequeued)
		c("seqbist_store_write_errors_total", "Store writes that failed.", st.WriteErrors)
		g("seqbist_store_degraded", "1 while persistence is failing and new submissions are rejected.", boolGauge(st.Degraded))
		g("seqbist_store_parked_records", "Writes held in memory awaiting replay by the recovery probe.", float64(st.ParkedRecords))
		g("seqbist_store_epoch", "Current log generation of the segmented WAL.", float64(st.Epoch))
		g("seqbist_store_segments_live", "Per-node WAL segment files currently on disk.", float64(st.SegmentsLive))
		c("seqbist_store_segments_deleted_total", "Segment files removed by compaction GC since open.", st.SegmentsDeleted)
		g("seqbist_store_manifest_bytes", "On-disk size of the manifest (shared ordering log) files.", float64(st.ManifestBytes))
	}

	if cl := snap.Cluster; cl != nil {
		fmt.Fprintf(w, "# HELP seqbist_cluster_node Identity of this cluster member (node_id label).\n# TYPE seqbist_cluster_node gauge\nseqbist_cluster_node{node_id=%q} 1\n", cl.NodeID)
		g("seqbist_cluster_peers", "Other nodes with a fresh heartbeat.", float64(cl.Peers))
		g("seqbist_cluster_degraded_peers", "Fresh peers advertising Degraded in their heartbeat.", float64(cl.DegradedPeers))
		g("seqbist_cluster_nodes_seen", "Distinct node identities ever recorded in the store.", float64(cl.NodesSeen))
		c("seqbist_cluster_claims_won_total", "Lease claims this daemon won.", cl.ClaimsWon)
		c("seqbist_cluster_claims_lost_total", "Lease claims this daemon lost to a peer.", cl.ClaimsLost)
		g("seqbist_cluster_claims_held", "Leases currently held.", float64(cl.ClaimsHeld))
		c("seqbist_cluster_leases_expired_total", "Expired leases acted on (stolen or lost).", cl.LeasesExpired)
		c("seqbist_cluster_jobs_stolen_total", "Claims won on a dead or stalled peer's work.", cl.JobsStolen)
		c("seqbist_cluster_remote_done_total", "Local jobs completed by peers' terminal records.", cl.RemoteDone)
		c("seqbist_cluster_sweeps_adopted_total", "Orphaned sweeps adopted from owners that stopped heartbeating.", cl.SweepsAdopted)
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
