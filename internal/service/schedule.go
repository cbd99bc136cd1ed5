package service

import (
	"maps"
	"slices"

	"seqbist/internal/store"
)

// This file is the claim loop's scheduling policy: the order in which
// claimWork considers records. PR 5's loop walked the mirror in Seq
// order — strict FIFO — which lets one tenant's saturating sweep starve
// everyone behind it. The replacement is deficit-round-robin over
// tenants within descending priority classes, applied to *queued*
// records only: running work is never preempted (stealing still follows
// lease expiry, not priority), and terminal records keep absolute
// precedence so cancel-detach stays as responsive as before. The
// deficit counters are soft local state owned by the cluster goroutine;
// the durable fairness input is the Tenant field on every record, so
// any member's loop computes the same shares from the same store.
// See DESIGN.md §15.

// tenantClass is the scheduling profile the DRR order needs per tenant.
type tenantClass struct {
	weight   int
	priority int
}

// schedClass adapts the tenant config table for the DRR order. Weight 0
// (unconfigured or unlisted tenant) schedules as 1.
func (s *Service) schedClass(name string) tenantClass {
	tc := s.tenantConfig(name)
	w := tc.Weight
	if w < 1 {
		w = 1
	}
	return tenantClass{weight: w, priority: tc.Priority}
}

// drrState is deficit-round-robin state that outlives one claim tick:
// each tenant's unspent credit and whose turn it is. A tick claims only
// as many records as it has free worker slots — one, when a single
// worker frees — so the rotation has to resume where the previous
// tick's claims left it; a fresh round per tick would hand every claim
// to the first tenant in the rotation and ignore the weights.
type drrState struct {
	deficit map[string]float64
	turn    string
}

// next picks the tenant to serve from backlog (tenants with pending
// records): within the highest priority class present, the tenant whose
// turn it is while its credit lasts, otherwise the next tenant after it
// in name order (wrapping), so every cluster member visits tenants in
// the same rotation.
func (d *drrState) next(backlog map[string][]store.JobRecord, class func(string) tenantClass) string {
	top, first := 0, true
	for name := range backlog {
		if p := class(name).priority; first || p > top {
			top, first = p, false
		}
	}
	if _, ok := backlog[d.turn]; ok && class(d.turn).priority == top && d.deficit[d.turn] >= 1 {
		return d.turn
	}
	var after, wrap string
	for name := range backlog {
		if class(name).priority != top {
			continue
		}
		if name > d.turn && (after == "" || name < after) {
			after = name
		}
		if wrap == "" || name < wrap {
			wrap = name
		}
	}
	if after != "" {
		return after
	}
	return wrap
}

// charge spends one unit of name's credit on one claim, first opening a
// new turn — one quantum of the tenant's weight — unless name is the
// tenant mid-turn with credit left.
func (d *drrState) charge(name string, class func(string) tenantClass) {
	if name != d.turn || d.deficit[name] < 1 {
		d.turn = name
		d.deficit[name] += float64(class(name).weight)
	}
	d.deficit[name]--
}

// order emits recs in claim order — priority classes descending,
// deficit-round-robin by tenant weight within each class, FIFO (input
// order) within each tenant — spending d's credit as it goes. Tenants
// with no backlog are dropped from d first and a tenant whose backlog
// empties forfeits its remaining credit (classic DRR: no hoarding while
// idle, and the map stays bounded).
//
// The fairness invariant (pinned by TestDRROrderWeightedBound): among
// continuously-backlogged tenants of one class, tenant t's k-th job
// appears within ceil(k/w_t)+1 rounds, i.e. by global position
// (ceil(k/w_t)+1)·W where W is the class's total weight.
func (d *drrState) order(recs []store.JobRecord, class func(string) tenantClass) []store.JobRecord {
	backlog := make(map[string][]store.JobRecord)
	for _, rec := range recs {
		name := tenantName(rec.Tenant)
		backlog[name] = append(backlog[name], rec)
	}
	maps.DeleteFunc(d.deficit, func(name string, _ float64) bool {
		_, ok := backlog[name]
		return !ok
	})
	out := make([]store.JobRecord, 0, len(recs))
	for len(backlog) > 0 {
		name := d.next(backlog, class)
		out = append(out, backlog[name][0])
		d.charge(name, class)
		if backlog[name] = backlog[name][1:]; len(backlog[name]) == 0 {
			delete(backlog, name)
			d.deficit[name] = 0
		}
	}
	return out
}

// scheduleRecords orders one tick's mirror snapshot for claimWork:
// terminal records first (the cancel-detach path must stay immediate),
// then non-queued records (running work — steal candidates on lease
// expiry — keeps its Seq order), then the queued backlog under DRR.
// Queued records already in flight here (claimed, not yet started) are
// left out, since a record visited but skipped would cost its tenant a
// turn. The ordering runs on a copy of s.drr: claimWork charges s.drr
// only for the claims it wins, so credit is never spent on records this
// tick leaves queued. Called from the cluster goroutine, which owns
// s.drr.
func (s *Service) scheduleRecords(jobs []store.JobRecord) []store.JobRecord {
	var terminal, running, queued []store.JobRecord
	for _, rec := range jobs {
		switch {
		case State(rec.State).Terminal():
			terminal = append(terminal, rec)
		case State(rec.State) == StateQueued:
			queued = append(queued, rec)
		default:
			running = append(running, rec)
		}
	}
	s.mu.Lock()
	queued = slices.DeleteFunc(queued, func(rec store.JobRecord) bool {
		j := s.jobs[rec.ID]
		return j != nil && j.exec != nil
	})
	s.mu.Unlock()
	sim := drrState{deficit: maps.Clone(s.drr.deficit), turn: s.drr.turn}
	queued = sim.order(queued, s.schedClass)
	maps.DeleteFunc(s.drr.deficit, func(name string, _ float64) bool {
		_, ok := sim.deficit[name]
		return !ok
	})
	out := make([]store.JobRecord, 0, len(jobs))
	out = append(out, terminal...)
	out = append(out, running...)
	return append(out, queued...)
}
