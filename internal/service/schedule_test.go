package service

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seqbist/internal/store"
)

// queuedRecs builds a queued-record backlog from tenant names in arrival
// order, with Seq reflecting arrival so FIFO-within-tenant is checkable.
func queuedRecs(tenants ...string) []store.JobRecord {
	recs := make([]store.JobRecord, len(tenants))
	for i, name := range tenants {
		recs[i] = store.JobRecord{
			ID:     fmt.Sprintf("job-%06d", i+1),
			Seq:    int64(i + 1),
			State:  string(StateQueued),
			Tenant: name,
		}
	}
	return recs
}

// drrOrder is one DRR ordering of recs from a fresh rotation, carrying
// the given per-tenant credit (which it spends and prunes in place).
func drrOrder(recs []store.JobRecord, class func(string) tenantClass, deficits map[string]float64) []store.JobRecord {
	d := drrState{deficit: deficits}
	return d.order(recs, class)
}

// TestDRROrderWeightedBound is the fairness property test: under random
// weights and random arrival interleavings, every continuously-backlogged
// tenant's k-th job appears within (ceil(k/w)+1)·W global positions,
// where W is the total weight of the class. Strict FIFO violates this
// wildly (one flooding tenant pushes everyone else to the tail); DRR
// must not.
func TestDRROrderWeightedBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		nTenants := 2 + rng.Intn(5)
		weights := make(map[string]int, nTenants)
		var totalW int
		var arrivals []string
		for i := 0; i < nTenants; i++ {
			name := fmt.Sprintf("t%d", i)
			weights[name] = 1 + rng.Intn(8)
			totalW += weights[name]
			// Every tenant stays backlogged through the whole order:
			// enough jobs that nobody's queue empties before round
			// ceil(maxJobs/minWeight).
			for j := 0; j < 24; j++ {
				arrivals = append(arrivals, name)
			}
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })

		class := func(name string) tenantClass { return tenantClass{weight: weights[name]} }
		out := drrOrder(queuedRecs(arrivals...), class, map[string]float64{})

		if len(out) != len(arrivals) {
			t.Fatalf("trial %d: %d records in, %d out", trial, len(arrivals), len(out))
		}
		seen := make(map[string]int)      // jobs emitted so far per tenant
		lastSeq := make(map[string]int64) // FIFO within tenant
		for pos, rec := range out {
			name := rec.Tenant
			seen[name]++
			k := seen[name]
			bound := (int(math.Ceil(float64(k)/float64(weights[name]))) + 1) * totalW
			if pos+1 > bound {
				t.Fatalf("trial %d: tenant %s (weight %d) job #%d at position %d, bound %d",
					trial, name, weights[name], k, pos+1, bound)
			}
			if rec.Seq <= lastSeq[name] {
				t.Fatalf("trial %d: tenant %s order not FIFO: seq %d after %d", trial, name, rec.Seq, lastSeq[name])
			}
			lastSeq[name] = rec.Seq
		}
	}
}

// TestDRROrderWeightedShares pins the exact share within one full round:
// weight 3 vs weight 1 means the first four claims split 3/1.
func TestDRROrderWeightedShares(t *testing.T) {
	weights := map[string]int{"big": 3, "small": 1}
	class := func(name string) tenantClass { return tenantClass{weight: weights[name]} }
	// A "small" flood arriving first must not starve "big"'s share.
	arrivals := []string{"small", "small", "small", "small", "big", "big", "big", "big"}
	out := drrOrder(queuedRecs(arrivals...), class, map[string]float64{})
	counts := map[string]int{}
	for _, rec := range out[:4] {
		counts[rec.Tenant]++
	}
	if counts["big"] != 3 || counts["small"] != 1 {
		t.Fatalf("first round split %v, want big=3 small=1", counts)
	}
}

// TestDRROrderPriorityClasses checks higher classes drain completely
// first regardless of weights, and that ordering is queued-only policy:
// scheduleRecords keeps terminal and running records ahead of any
// queued reordering.
func TestDRROrderPriorityClasses(t *testing.T) {
	class := func(name string) tenantClass {
		if name == "express" {
			return tenantClass{weight: 1, priority: 5}
		}
		return tenantClass{weight: 9, priority: 0}
	}
	arrivals := []string{"bulk", "bulk", "express", "bulk", "express", "bulk"}
	out := drrOrder(queuedRecs(arrivals...), class, map[string]float64{})
	for i, rec := range out[:2] {
		if rec.Tenant != "express" {
			t.Fatalf("position %d is %s; the higher class must drain first (order %v)", i, rec.Tenant, tenantsOf(out))
		}
	}
	for _, rec := range out[2:] {
		if rec.Tenant != "bulk" {
			t.Fatalf("bulk work missing from the tail: %v", tenantsOf(out))
		}
	}
}

// TestDRROrderDeficitLifecycle checks the deficit map's contract across
// ticks: credit seeded for a backlogged tenant is spent on extra claims,
// and tenants absent from the input are forgotten entirely.
func TestDRROrderDeficitLifecycle(t *testing.T) {
	class := func(string) tenantClass { return tenantClass{weight: 1} }
	deficits := map[string]float64{"a": 2, "ghost": 7}
	out := drrOrder(queuedRecs("b", "b", "b", "a", "a", "a"), class, deficits)
	// Tenant a carries 2 credit + 1 weight = 3 claims in round one; b
	// gets 1. So the first four emitted are 3×a, 1×b in some rotation.
	counts := map[string]int{}
	for _, rec := range out[:4] {
		counts[rec.Tenant]++
	}
	if counts["a"] != 3 || counts["b"] != 1 {
		t.Fatalf("carried deficit not honored: first four are %v, want a=3 b=1", counts)
	}
	if _, ok := deficits["ghost"]; ok {
		t.Fatal("deficit of an absent tenant must be dropped (unbounded map otherwise)")
	}
	// Both tenants drained to empty: classic DRR forfeits their credit.
	if deficits["a"] != 0 || deficits["b"] != 0 {
		t.Fatalf("emptied backlogs must forfeit credit, have %v", deficits)
	}
}

// TestScheduleRecords checks the full claim-order policy around the DRR
// core: terminal records first (cancel-detach latency), running records
// next in Seq order (steal candidates), queued records last under DRR.
func TestScheduleRecords(t *testing.T) {
	svc := New(Config{Workers: 1, Tenants: []TenantConfig{
		{Name: "paid", Key: "pk", Weight: 4},
	}})
	defer svc.Close()

	recs := []store.JobRecord{
		{ID: "job-000001", Seq: 1, State: string(StateQueued), Tenant: "anonymous"},
		{ID: "job-000002", Seq: 2, State: string(StateRunning), Tenant: "paid"},
		{ID: "job-000003", Seq: 3, State: string(StateCanceled), Tenant: "anonymous"},
		{ID: "job-000004", Seq: 4, State: string(StateQueued), Tenant: "paid"},
		{ID: "job-000005", Seq: 5, State: string(StateQueued), Tenant: "paid"},
	}
	out := svc.scheduleRecords(recs)
	got := make([]string, len(out))
	for i, rec := range out {
		got[i] = rec.ID
	}
	// Terminal 3 first, running 2 next; the queued tail is one DRR
	// round — the rotation is name-sorted, so anonymous spends its
	// weight-1 share, then paid drains both jobs on its weight of 4.
	want := []string{"job-000003", "job-000002", "job-000001", "job-000004", "job-000005"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claim order %v, want %v", got, want)
		}
	}
}

func tenantsOf(recs []store.JobRecord) []string {
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = rec.Tenant
	}
	return out
}
