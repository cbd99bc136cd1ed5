package fsim

// Repacking the live faults into dense groups.
//
// New packs the whole fault list into 64-lane groups once. As faults are
// detected and dropped the groups thin out, but a live group costs
// nearly as much with a few live lanes as with 64: its region is the
// union of its faults' cones, a group escalated to the full-netlist
// stepper evaluates every gate whatever its occupancy, and one lane
// whose machine stays diverged keeps the whole group from quiescence.
// So at the top of every Evaluate and Extend, once the live faults fill
// at most half of the live groups' lanes, the engine packs them into
// fresh full groups: first the lanes whose machine differs from the
// fault-free state in some flip-flop, then the quiet lanes, each part in
// construction packing order. Diverged machines then share a few hot
// groups, and the quiet ones share groups that stay quiescent until a
// fault site activates.
//
// Detection, detection time and divergence are per-lane quantities, and
// each lane's diverged flip-flop bits move with it into its new slot, so
// repacking changes no result. The one thing group order decides, the
// order of a newly-detected list, is put back into construction packing
// order through Engine.rank. The FullEvaluation reference never repacks,
// and Reset restores the construction packing.

import (
	"slices"

	"seqbist/internal/logic"
)

// liveLane is one live fault in the current packing: its fault index,
// its group and lane, and whether its machine is diverged.
type liveLane struct {
	fi, gi, lane int
	diverged     bool
}

// repackIfSparse repacks the live faults when they fill at most half of
// the live groups' lanes. A single live group is never repacked: the
// result could not have fewer groups.
func (e *Engine) repackIfSparse() {
	if e.fullEval {
		return
	}
	groups, lanes := 0, 0
	for gi := range e.groups {
		if a := e.groups[gi].alive; a != 0 {
			groups++
			lanes += popcount(a)
		}
	}
	if groups < 2 || 2*lanes > groups*GroupSize {
		return
	}
	e.repack(lanes)
	e.sc.repacked += int64(groups)
}

// repack replaces the groups with ceil(lanes/GroupSize) fresh full
// groups over the live faults: diverged lanes first, then quiet lanes,
// each in construction packing order. Every new group gets its plan from
// the plan builder and sparse state carrying its lanes' diverged
// flip-flop bits; dead lanes and dead groups are left behind.
func (e *Engine) repack(lanes int) {
	if e.rank == nil {
		e.rank = make([]int32, len(e.fl))
		for gi := range e.initGroups {
			for lane, fi := range e.initGroups[gi].fault {
				e.rank[fi] = int32(gi*GroupSize + lane)
			}
		}
		e.pb = newPlanBuilder(e.c)
	}
	live := make([]liveLane, 0, lanes)
	for gi := range e.groups {
		g := &e.groups[gi]
		var diverged uint64
		for _, di := range g.divDFF {
			w, bg := g.state[di], bcast[e.goodState[di]]
			diverged |= (w.CanZero ^ bg.CanZero) | (w.CanOne ^ bg.CanOne)
		}
		for m := g.alive; m != 0; m &= m - 1 {
			lane := trailingZeros(m)
			live = append(live, liveLane{fi: g.fault[lane], gi: gi, lane: lane, diverged: diverged>>uint(lane)&1 != 0})
		}
	}
	slices.SortFunc(live, func(a, b liveLane) int {
		if a.diverged != b.diverged {
			if a.diverged {
				return -1
			}
			return 1
		}
		return int(e.rank[a.fi]) - int(e.rank[b.fi])
	})

	nd := e.c.NumDFFs()
	ngroups := (len(live) + GroupSize - 1) / GroupSize
	faultIdx := make([]int, len(live))
	for i, l := range live {
		faultIdx[i] = l.fi
	}
	state := make([]logic.Word, ngroups*nd)
	groups := make([]group, 0, ngroups)
	for start := 0; start < len(live); start += GroupSize {
		end := min(start+GroupSize, len(live))
		off := len(groups) * nd
		g := group{
			fault: faultIdx[start:end:end],
			alive: fullAlive64(end - start),
			state: state[off : off+nd : off+nd],
			plan:  e.pb.build(e.fl, faultIdx[start:end]),
		}
		for di := range g.state {
			g.state[di] = bcast[e.goodState[di]]
		}
		for lane, l := range live[start:end] {
			if !l.diverged {
				continue
			}
			src := &e.groups[l.gi]
			for _, di := range src.divDFF {
				g.state[di] = moveLane(g.state[di], lane, src.state[di], l.lane)
			}
		}
		for di := range g.state {
			if g.state[di] != bcast[e.goodState[di]] {
				g.divDFF = append(g.divDFF, int32(di))
			}
		}
		groups = append(groups, g)
	}
	e.groups = groups
	e.repacked = true
}

// moveLane returns dst with lane dl replaced by lane sl of src.
func moveLane(dst logic.Word, dl int, src logic.Word, sl int) logic.Word {
	bit := uint64(1) << uint(dl)
	return logic.Word{
		CanZero: dst.CanZero&^bit | (src.CanZero>>uint(sl)&1)<<uint(dl),
		CanOne:  dst.CanOne&^bit | (src.CanOne>>uint(sl)&1)<<uint(dl),
	}
}
