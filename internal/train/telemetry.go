package train

import (
	"sort"
	"time"

	"gmreg/internal/core"
	"gmreg/internal/obs"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
)

// telemetry drives per-epoch event emission for the trainers: one
// obs.Epoch summary plus one obs.GMState snapshot per adaptive regularizer,
// in sorted group order so JSONL streams are reproducible. It also converts
// the process-wide arena/pool counters into per-epoch deltas.
//
// Emission only reads training state (and copies the mixture slices), so a
// run with a sink is bit-identical to a run without one. A telemetry built
// from a nil sink is itself nil, and every method on a nil receiver is a
// no-op — trainers call unconditionally.
type telemetry struct {
	sink     obs.Sink
	replicas int
	arena    tensor.ArenaStats
	pool     tensor.PoolStats
	fold     time.Duration
}

// newTelemetry wires a per-epoch emitter for a trainer with the given
// data-parallel width (≤ 1 = sequential, reported as 0). A nil sink
// returns nil.
func newTelemetry(sink obs.Sink, replicas int) *telemetry {
	if sink == nil {
		return nil
	}
	if replicas <= 1 {
		replicas = 0
	}
	return &telemetry{
		sink:     sink,
		replicas: replicas,
		arena:    tensor.DefaultArena.Stats(),
		pool:     tensor.Pool().Stats(),
	}
}

// AddFold accumulates gradient-fold (all-reduce) time into the current
// epoch's total.
func (t *telemetry) AddFold(d time.Duration) {
	if t == nil {
		return
	}
	t.fold += d
}

// Epoch emits the epoch summary and one mixture snapshot per GM
// regularizer, then resets the per-epoch deltas.
func (t *telemetry) Epoch(epoch int, loss, lr float64, elapsed time.Duration, regs map[string]reg.Regularizer) {
	if t == nil {
		return
	}
	arena, pool := tensor.DefaultArena.Stats(), tensor.Pool().Stats()
	t.sink.Emit(obs.Epoch{
		Epoch:       epoch,
		Loss:        loss,
		LR:          lr,
		ElapsedSec:  elapsed.Seconds(),
		Replicas:    t.replicas,
		FoldSec:     t.fold.Seconds(),
		ArenaGets:   arena.Gets - t.arena.Gets,
		ArenaMisses: arena.Misses - t.arena.Misses,
		PoolJobs:    pool.Jobs - t.pool.Jobs,
		PoolChunks:  pool.Chunks - t.pool.Chunks,
	})
	t.arena, t.pool, t.fold = arena, pool, 0

	names := make([]string, 0, len(regs))
	for name := range regs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p, ok := regs[name].(core.Prior)
		if !ok || !p.Stateful() {
			// Fixed baselines (and stateless degenerate priors like SLOPE)
			// learn nothing; they have no mixture snapshot, as before the
			// Prior refactor.
			continue
		}
		e, m := p.Steps()
		pi, lambda := p.Mixture()
		// The default GM family emits no family tag, keeping its event
		// stream byte-identical to pre-Prior-interface runs.
		family := p.Family()
		if family == core.FamilyGM {
			family = ""
		}
		t.sink.Emit(obs.GMState{
			Group:      name,
			Family:     family,
			Epoch:      epoch,
			K:          len(lambda),
			Pi:         pi,
			Lambda:     lambda,
			ESteps:     e,
			MSteps:     m,
			Iterations: p.Iterations(),
			SkipRatio:  p.SkipRatio(),
		})
	}
}
