package distnet

import (
	"net"
	"sort"

	"gmreg/internal/obs"
)

// Elastic membership: trainers join by completing the Hello/Welcome
// handshake and leave by saying goodbye, failing a read/write, or missing
// the heartbeat deadline. Every roster change bumps the membership epoch,
// emits a kind:"member" sink event, and re-derives the deterministic shard
// assignment: the live members sorted by slot get shards p, p+R, p+2R, …
// for their position p in that order — a pure function of (membership,
// shard count), so any two coordinators with the same roster assign
// identically, and the fold order (ascending shard index) never depends on
// membership at all.

// member is one connected trainer.
type member struct {
	slot int
	name string
	conn net.Conn
}

// roster tracks live members and the membership epoch. It is owned by the
// coordinator goroutine; the accept loop only feeds it through a channel.
type roster struct {
	members  []*member // ascending slot order
	epoch    int
	nextSlot int
	sink     obs.Sink
	stats    *RunStats
}

func newRoster(sink obs.Sink, stats *RunStats) *roster {
	metrics()
	return &roster{sink: sink, stats: stats}
}

// live returns the members in ascending slot order (the assignment and
// batch-norm-averaging order). The returned slice is the roster's own.
func (r *roster) live() []*member { return r.members }

// add admits a trainer, assigning the next slot and bumping the membership
// epoch.
func (r *roster) add(conn net.Conn, name string) *member {
	m := &member{slot: r.nextSlot, name: name, conn: conn}
	r.nextSlot++
	r.members = append(r.members, m)
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].slot < r.members[j].slot })
	r.bump("join", m, "")
	r.stats.Joins++
	joinsTotal.Inc()
	return m
}

// remove drops a member from the roster (death, timeout, or goodbye) and
// bumps the membership epoch. Removing an already-removed member is a no-op
// so double-reported failures don't double-count.
func (r *roster) remove(m *member, action, reason string) bool {
	for i, x := range r.members {
		if x == m {
			r.members = append(r.members[:i], r.members[i+1:]...)
			m.conn.Close()
			r.bump(action, m, reason)
			r.stats.Deaths++
			deathsTotal.Inc()
			return true
		}
	}
	return false
}

// bump advances the membership epoch and publishes the change.
func (r *roster) bump(action string, m *member, reason string) {
	r.epoch++
	r.stats.MemberEpochs = r.epoch
	memberEpochG.Set(float64(r.epoch))
	membersG.Set(float64(len(r.members)))
	if r.sink != nil {
		r.sink.Emit(obs.Member{
			MemberEpoch: r.epoch,
			Live:        len(r.members),
			Slot:        m.slot,
			Name:        m.name,
			Action:      action,
			Reason:      reason,
		})
	}
}

// assign maps shards [0, shards) over the live members: position p of the
// slot-ordered live list owns shards p, p+R, p+2R, … — the same scatter
// train.Network uses for in-process replicas. Only the shards in pending
// (nil = all) are assigned, which is how a re-issue after a mid-step death
// hands just the missing work to the survivors.
func (r *roster) assign(shards int, pending map[int]bool) map[*member][]int {
	out := make(map[*member][]int, len(r.members))
	R := len(r.members)
	if R == 0 {
		return out
	}
	for p, m := range r.members {
		var own []int
		for s := p; s < shards; s += R {
			if pending == nil || pending[s] {
				own = append(own, s)
			}
		}
		out[m] = own // empty assignment still gets a Step (liveness probe)
	}
	return out
}
