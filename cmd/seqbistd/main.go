// Command seqbistd is the BIST-synthesis daemon: a long-lived HTTP
// service that accepts synthesis jobs and batch sweeps (registry circuits
// or uploaded .bench netlists plus a generation config), runs the full
// loading-and-expansion pipeline on a worker pool, serves results from a
// content-addressed cache on resubmission, streams sweep progress as
// NDJSON, and exports operational counters at /metrics.
//
// Usage:
//
//	seqbistd -addr :8080 -workers 8
//
// A daemon is a cluster of one: its queue is the queued records in its
// store, drained by a claim loop. Several daemons become one cluster by
// sharing a -data-dir under distinct -node-id values: they cooperatively
// drain a single queue, and a SIGKILLed member's in-flight jobs are
// stolen by survivors once its -lease-ttl lapses (see DESIGN.md §10 and
// scripts/cluster_e2e.sh):
//
//	seqbistd -addr :8080 -data-dir ./cluster -node-id n1 &
//	seqbistd -addr :8081 -data-dir ./cluster -node-id n2 &
//
// With -tenants pointing at a tenant config file, submissions
// authenticate with "Authorization: Bearer <key>", per-tenant quotas
// and rate budgets gate admission, and queued work is claimed by
// weighted fair share instead of strict FIFO (see API.md
// "Multi-tenancy" and scripts/fairness_e2e.sh):
//
//	seqbistd -addr :8080 -data-dir ./d -node-id n1 -tenants tenants.json
//
// API (full reference with schemas in API.md):
//
//	curl -X POST localhost:8080/v1/jobs -d '{"circuit":"s298","config":{"n":8}}'
//	curl localhost:8080/v1/jobs/job-000001
//	curl localhost:8080/v1/jobs/job-000001/result
//	curl -X DELETE localhost:8080/v1/jobs/job-000001
//	curl -X POST localhost:8080/v1/sweeps -d '{"circuits":[{"circuit":"s27"},{"circuit":"s298"}],"config":{"n":8}}'
//	curl -N localhost:8080/v1/sweeps/sweep-0001/events   # NDJSON stream
//	curl localhost:8080/metrics
//	curl localhost:8080/healthz
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"seqbist/internal/bench"
	"seqbist/internal/service"
	"seqbist/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "synthesis worker-pool size")
	queue := flag.Int("queue", 64, "pending-job queue capacity")
	cacheSize := flag.Int("cache", 128, "result-cache entries (negative disables)")
	flag.Int("sim-workers", 0, "deprecated, ignored: every job's fault simulation runs on its worker's goroutine; scale with -workers")
	maxSweep := flag.Int("max-sweep-members", 0, "max circuits per sweep (0 = default 64)")
	maxBench := flag.Int64("max-bench-bytes", 0, "uploaded .bench size cap in bytes (0 = default 1 MiB, negative = unlimited)")
	maxSignals := flag.Int("max-bench-signals", 0, "uploaded netlist signal cap (0 = default 250k, negative = unlimited)")
	dataDir := flag.String("data-dir", "", "persistence directory: jobs, sweeps, event logs, and results survive restarts and crashes (empty = in-memory only)")
	fsync := flag.Bool("fsync", true, "with -data-dir, fsync the record log after every write (survives power loss; -fsync=false trades that for lower write latency and still survives SIGKILL)")
	compactBytes := flag.Int64("compact-bytes", 0, "with -data-dir, log size that triggers an online compaction round (0 = default 8 MiB, negative disables automatic compaction)")
	staleAfter := flag.Duration("stale-after", 0, "with -data-dir, how long a cluster member may go silent before compaction stops waiting for it and GC reclaims past its watermark (0 = default 30s)")
	nodeID := flag.String("node-id", "", "cluster identity: daemons started with distinct -node-id values on one shared -data-dir cooperatively drain a single queue, stealing a killed member's leases (requires -data-dir)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "how long a claimed job stays fenced to its claimant without renewal (the claim loop polls every lease-ttl/20, clamped to [100ms, 1s])")
	rate := flag.Float64("rate", 0, "per-client submissions/second accepted on POST /v1/jobs and /v1/sweeps before answering 429 (0 = unlimited; a tenant's configured rate overrides this for its bucket)")
	rateBurst := flag.Int("rate-burst", 0, "with -rate, token-bucket burst depth (0 = max(1, ceil(rate)))")
	tenantsFile := flag.String("tenants", "", "multi-tenant config file: {\"tenants\":[{\"name\",\"key\",\"weight\",\"priority\",\"max_queued_jobs\",\"max_active_sweeps\",\"rate\",\"rate_burst\"}]}; submissions authenticate with 'Authorization: Bearer <key>' and are scheduled by weighted fair share (empty = single-tenant mode, everything anonymous)")
	defaultStrategy := flag.String("default-strategy", "", "strategy applied to submissions that set none: greedy, restart, anneal, genetic, or race (empty = greedy)")
	probeInterval := flag.Duration("probe-interval", 0, "with -data-dir, how often a degraded daemon probes the store for recovery — also the Retry-After it advertises on 503 (0 = default 2s)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 0, "graceful-shutdown drain bound before in-flight HTTP requests are abandoned (0 = default 10s)")
	faultFlag := flag.String("fault-enospc-flag", "", "TEST ONLY: path of a flag file; while it exists, every store write fails with ENOSPC (drives scripts/chaos_e2e.sh)")
	flag.Parse()

	// Flag validation rides the service's single validation edge (the
	// placeholder circuit satisfies the shape check; real submissions
	// carry their own).
	if err := service.ValidateSpec(service.JobSpec{
		Circuit: "s27",
		Config:  service.GenConfig{Strategy: *defaultStrategy},
	}); err != nil {
		fmt.Fprintf(os.Stderr, "seqbistd: invalid flags: %v\n", err)
		os.Exit(1)
	}
	var tenants []service.TenantConfig
	if *tenantsFile != "" {
		f, err := os.Open(*tenantsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seqbistd: -tenants: %v\n", err)
			os.Exit(1)
		}
		tenants, err = service.ParseTenants(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "seqbistd: -tenants %s: %v\n", *tenantsFile, err)
			os.Exit(1)
		}
	}

	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		MaxSweepMembers: *maxSweep,
		BenchLimits:     benchLimits(*maxBench, *maxSignals),
		LeaseTTL:        *leaseTTL,
		RateLimit:       *rate,
		RateBurst:       *rateBurst,
		Tenants:         tenants,
		DefaultStrategy: *defaultStrategy,
		ProbeInterval:   *probeInterval,
		ShutdownTimeout: *shutdownTimeout,
	}
	if *nodeID != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "seqbistd: -node-id requires -data-dir (the cluster coordinates through the shared store)")
			os.Exit(1)
		}
		for _, r := range *nodeID {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
				fmt.Fprintf(os.Stderr, "seqbistd: -node-id %q: only letters, digits, '-' and '_' are allowed (it names records and IDs)\n", *nodeID)
				os.Exit(1)
			}
		}
		cfg.NodeID = *nodeID
	}
	if *dataDir != "" {
		opts := store.Options{
			Dir: *dataDir, Fsync: *fsync, NodeID: cfg.NodeID,
			CompactBytes: *compactBytes, StaleAfter: *staleAfter,
		}
		if *faultFlag != "" {
			opts.FS = store.NewFlagFaultFS(*faultFlag)
		}
		st, err := store.Open(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seqbistd: opening -data-dir: %v\n", err)
			os.Exit(1)
		}
		// The service owns the store and flushes it on graceful
		// shutdown, after the worker pool drains.
		cfg.Store = st
	}
	if err := service.Serve(*addr, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "seqbistd: %v\n", err)
		os.Exit(1)
	}
}

// benchLimits maps the flag values onto bench.Limits (zero keeps the
// service defaults, negative disables the respective limit).
func benchLimits(maxBytes int64, maxSignals int) bench.Limits {
	lim := bench.UploadLimits
	if maxBytes != 0 {
		lim.MaxBytes = maxBytes
	}
	if maxSignals != 0 {
		lim.MaxSignals = maxSignals
	}
	return lim
}
