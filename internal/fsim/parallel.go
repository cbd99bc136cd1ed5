package fsim

// Cone-sharded parallel scheduler for the Engine.
//
// Groups are mutually independent once the fault-free value trace is
// known: each group owns its state words, the circuit, plans, and fault
// list are read-only, and the forcing masks and propagation stamps live
// in a per-worker scratch. The scheduler therefore computes the
// good-machine trace for the whole subsequence first, fans the live
// groups out to a fixed set of workers, and merges the per-group
// detections back in the serial schedule's (time, group, lane) order.
// Detection results — Detected, DetTime, NumDetected, and the order of
// newly reported faults — are bit-for-bit identical to the serial path
// for every worker count.
//
// Work is divided by static cone-aware shards rather than a dynamic
// work-stealing queue. Groups are packed in cone-locality order
// (packOrder), so consecutive groups share most of their active regions;
// netlist.ConePartition cuts that ordered list into contiguous,
// weight-balanced shards at the points of least region overlap. Each
// worker then owns a near-disjoint slice of the netlist: its scratch's
// per-signal words, stamps, and forcing masks keep touching the same
// cache lines from group to group instead of interleaving the whole
// netlist with every other worker. Shards are rebuilt only when enough
// groups die for the balance to drift (half the groups since the last
// build), so the steady state has no scheduling overhead beyond one
// goroutine launch per shard.

import (
	"runtime"
	"sync"

	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

// DefaultParallelism is the worker count Run uses for group sharding: one
// worker per available CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// earlyExitStride is the number of time units Run extends between checks
// of the all-detected early-exit condition. It scales with the circuit's
// sequential depth (memoized on the Circuit): a fault needs at least that
// many cycles to traverse the state registers to an observation point, so
// shallow circuits can afford frequent checks and exit as soon as
// coverage completes, while deep circuits use longer chunks that amortize
// trace construction and goroutine scheduling.
func earlyExitStride(c *netlist.Circuit) int {
	stride := 4 * (c.SequentialDepth() + 1)
	if stride < 8 {
		stride = 8
	}
	if stride > 256 {
		stride = 256
	}
	return stride
}

// liveGroups returns the indices of groups that still carry undetected
// faults. The returned slice is pooled on the Engine and valid until the
// next call.
func (e *Engine) liveGroups() []int {
	live := e.liveBuf[:0]
	for gi := range e.groups {
		if e.groups[gi].alive != 0 {
			live = append(live, gi)
		}
	}
	e.liveBuf = live
	return live
}

// ensureShards (re)builds the static cone-aware shards over the live
// groups. A shard is a contiguous run of the locality-ordered group list;
// netlist.ConePartition balances the region weights and places the cuts
// where adjacent regions overlap least. Shards are kept until half the
// groups they were built over have died, then rebuilt to restore balance.
func (e *Engine) ensureShards(live []int) {
	if e.shards != nil && len(live)*2 > e.shardLive {
		return
	}
	cones := e.conesBuf[:0]
	for _, gi := range live {
		cones = append(cones, e.groups[gi].plan.gates)
	}
	e.conesBuf = cones
	parts := netlist.ConePartition(cones, e.workers)
	shards := e.shards[:0]
	for _, part := range parts {
		var shard []int
		if len(shards) < len(e.shards) {
			shard = e.shards[len(shards)][:0]
		}
		for _, idx := range part {
			shard = append(shard, live[idx])
		}
		shards = append(shards, shard)
	}
	e.shards = shards
	e.shardLive = len(live)
}

// ensureWorkerScratch grows the per-worker scratch pool to n entries.
// Scratches are retained across calls: Extend/Evaluate invocations are
// sequential, so reuse is safe and keeps the hot path allocation-free.
func (e *Engine) ensureWorkerScratch(n int) {
	for len(e.workerScratch) < n {
		e.workerScratch = append(e.workerScratch, newScratch(e.c))
	}
}

// runShards executes fn(worker, group index) for every live group of
// every shard, one goroutine per shard. Dead groups (detected since the
// shards were built) are skipped.
func (e *Engine) runShards(fn func(w, gi int)) {
	var wg sync.WaitGroup
	for w := range e.shards {
		if len(e.shards[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, gi := range e.shards[w] {
				if e.groups[gi].alive != 0 {
					fn(w, gi)
				}
			}
		}(w)
	}
	wg.Wait()
}

// extendParallel is Extend's sharded path: live groups are simulated
// concurrently against the precomputed good trace, committing their state
// words, and detections are merged in serial order afterwards.
func (e *Engine) extendParallel(seq vectors.Sequence, goodVals [][]logic.Value, live []int) []int {
	e.ensureShards(live)
	e.ensureWorkerScratch(len(e.shards))
	e.runShards(func(w, gi int) {
		e.extendGroup(e.workerScratch[w], &e.groups[gi], gi, seq, goodVals)
	})
	// Gather the per-worker detection buffers and merge them in the
	// serial emission order (mergeDetections sorts by time, group, lane).
	all := e.sc.dets[:0]
	for _, sc := range e.workerScratch {
		all = append(all, sc.dets...)
		sc.dets = sc.dets[:0]
		sc.flushInto(e)
	}
	newly := e.mergeDetections(all, len(seq))
	e.sc.dets = all[:0]
	return newly
}

// evaluateParallel is Evaluate's sharded path: non-committing, merging
// per-group newly-detected lists in group order (the serial order) and
// summing divergence. The per-group merge buffers are pooled on the
// Engine.
func (e *Engine) evaluateParallel(seq vectors.Sequence, goodVals [][]logic.Value, live []int) (newly []int, divergence int) {
	e.ensureShards(live)
	e.ensureWorkerScratch(len(e.shards))
	ngroups := len(e.groups)
	for len(e.newlyBuf) < ngroups {
		e.newlyBuf = append(e.newlyBuf, nil)
	}
	if cap(e.divBuf) < ngroups {
		e.divBuf = make([]int, ngroups)
	}
	e.divBuf = e.divBuf[:ngroups]
	for _, gi := range live {
		e.newlyBuf[gi] = e.newlyBuf[gi][:0]
		e.divBuf[gi] = 0
	}
	e.runShards(func(w, gi int) {
		g := &e.groups[gi]
		detAll := e.evaluateGroup(e.workerScratch[w], g, seq, goodVals, &e.divBuf[gi])
		for detAll != 0 {
			lane := trailingZeros(detAll)
			detAll &^= 1 << uint(lane)
			e.newlyBuf[gi] = append(e.newlyBuf[gi], g.fault[lane])
		}
	})
	for _, sc := range e.workerScratch {
		sc.flushInto(e)
	}
	for _, gi := range live {
		newly = append(newly, e.newlyBuf[gi]...)
		divergence += e.divBuf[gi]
	}
	return newly, divergence
}
