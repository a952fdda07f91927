package distnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/nn"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// Config configures the coordinator side of a distributed training job.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:7600", or ":0" to let
	// the kernel pick a port — read the bound address via OnListen).
	Addr string
	// Spec declares the architecture; it is shipped to every trainer in the
	// Welcome frame so all processes build the identical network.
	Spec models.Spec
	// MinTrainers is how many trainers must join before the first step (≥ 1).
	// It is also the job's data-parallel width: when SGD.ShardSize is 0 it
	// defaults to ceil(BatchSize/MinTrainers), as for in-process replicas —
	// pin ShardSize explicitly to make runs bit-identical across trainer
	// counts and equal to the sequential trainer at the same ShardSize.
	MinTrainers int
	// SGD is the optimizer configuration, exactly as for train.Network
	// (SGD.Replicas is ignored: the trainers are the replicas).
	SGD train.SGDConfig
	// HeartbeatTimeout bounds how long the coordinator waits for a trainer's
	// reply to a Step before declaring it dead. Default 30s.
	HeartbeatTimeout time.Duration
	// HandshakeTimeout bounds the Hello read after an accept. Default 5s.
	HandshakeTimeout time.Duration
	// JoinWait bounds how long the coordinator waits for trainers: for the
	// initial MinTrainers quorum, and for a replacement when every trainer
	// has died mid-run. Default 30s.
	JoinWait time.Duration
	// SnapshotDir, when set, makes every membership-change snapshot durable:
	// the captured train.State is written there as member-<epoch>.gmckpt.
	// These are forensic/recovery artifacts, distinct from the periodic
	// ckpt-*.gmckpt files (train.LatestCheckpoint ignores them).
	SnapshotDir string
	// Stats, when non-nil, is filled with per-run traffic and membership
	// counters while the job runs.
	Stats *RunStats
	// OnListen, when non-nil, is called with the bound listen address before
	// the coordinator starts accepting — how tests (and ":0" users) learn
	// the port.
	OnListen func(net.Addr)
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("distnet: empty listen address")
	}
	if c.MinTrainers < 1 {
		return fmt.Errorf("distnet: need at least 1 trainer, got %d", c.MinTrainers)
	}
	if c.SGD.BarzilaiBorwein {
		return fmt.Errorf("distnet: Barzilai–Borwein steps are not supported distributed")
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	return c.SGD.Validate()
}

// joinReq is a completed handshake handed from the accept loop to the
// coordinator loop, which owns the roster.
type joinReq struct {
	conn net.Conn
	name string
}

// coordinator is the TCP member set of train.NetworkOver: the roster of
// trainer processes plus the per-run state its steps thread through.
type coordinator struct {
	cfg   Config
	ros   *roster
	stats *RunStats
	joins chan joinReq
	bns   []*nn.BatchNorm // the authoritative network's
	seq   int64           // global steps issued; trainers echo it in Grads
}

// Coordinate runs the coordinator side of multi-process synchronous
// data-parallel SGD: it listens on cfg.Addr, waits for the MinTrainers
// quorum, runs train.NetworkOver with the trainer roster as its members
// (see Step), and tells the trainers when the job is done.
//
// The shard partition is fixed by SGD.ShardSize, trainers compute with the
// coordinator's kernel numerics (the Welcome frame pins them), and the
// fold order never depends on which trainer computed a shard — so an
// R-trainer run is bit-identical to train.Network with R in-process
// replicas at the same ShardSize (ghost-batch-norm statistics included, at
// fixed membership), and to the sequential run in learned weights, across
// joins, leaves and deaths.
//
// net must be built from cfg.Spec (same architecture the trainers build).
// The result's Net is the authoritative network (the one passed in).
func Coordinate(netw *nn.Network, trainSet *data.ImageSet, cfg Config, factory reg.Factory) (*train.NetworkResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 30 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.JoinWait <= 0 {
		cfg.JoinWait = 30 * time.Second
	}
	stats := cfg.Stats
	if stats == nil {
		stats = &RunStats{}
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("distnet: listen: %w", err)
	}
	defer ln.Close()
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr())
	}

	c := &coordinator{
		cfg:   cfg,
		ros:   newRoster(cfg.SGD.Sink, stats),
		stats: stats,
		joins: make(chan joinReq, 64),
		bns:   netw.BatchNorms(),
	}
	acceptDone := make(chan struct{})
	go c.acceptLoop(ln, acceptDone)
	defer func() {
		ln.Close()
		<-acceptDone
		for _, m := range c.ros.live() {
			m.conn.Close()
		}
		// Drain handshakes that raced the shutdown.
		for {
			select {
			case j := <-c.joins:
				j.conn.Close()
			default:
				return
			}
		}
	}()

	// Quorum: wait for MinTrainers before the first step.
	deadline := time.NewTimer(cfg.JoinWait)
	defer deadline.Stop()
	for len(c.ros.live()) < cfg.MinTrainers {
		select {
		case j := <-c.joins:
			c.admit(j)
		case <-deadline.C:
			return nil, fmt.Errorf("distnet: timed out waiting for %d trainers (%d joined)",
				cfg.MinTrainers, len(c.ros.live()))
		}
	}

	res, err := train.NetworkOver(netw, trainSet, cfg.SGD, factory, c)
	if err != nil {
		return nil, err
	}
	// Graceful shutdown: tell every trainer the job is done.
	for _, m := range c.ros.live() {
		c.send(m, FrameDone, Done{Epochs: len(res.History.EpochLoss)})
	}
	return res, nil
}

// acceptLoop accepts trainer connections and completes the Hello half of
// the handshake; admitted connections go to the coordinator loop, which
// owns the roster and writes the Welcome.
func (c *coordinator) acceptLoop(ln net.Listener, done chan<- struct{}) {
	var wg sync.WaitGroup
	defer func() {
		wg.Wait() // handshakes are deadline-bounded, so this is too
		close(done)
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn.SetReadDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
			t, payload, nr, err := ReadFrame(conn)
			c.count(nr, 0)
			var hello Hello
			if err != nil || t != FrameHello || decodePayload(payload, &hello) != nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			select {
			case c.joins <- joinReq{conn: conn, name: hello.Name}:
			default:
				conn.Close() // join queue full: trainer will retry
			}
		}()
	}
}

// admit adds a handshaken trainer to the roster and sends its Welcome.
func (c *coordinator) admit(j joinReq) {
	m := c.ros.add(j.conn, j.name)
	w := Welcome{
		Slot:           m.slot,
		Spec:           c.cfg.Spec,
		PartitionGrain: tensor.PartitionGrain(),
	}
	if err := c.send(m, FrameWelcome, w); err != nil {
		c.ros.remove(m, "death", fmt.Sprintf("welcome: %v", err))
	}
}

// admitPending drains queued joins without blocking.
func (c *coordinator) admitPending() {
	for {
		select {
		case j := <-c.joins:
			c.admit(j)
		default:
			return
		}
	}
}

// Width is the job's data-parallel width: the shard size defaults from the
// quorum, not from whoever happens to be live.
func (c *coordinator) Width() int { return c.cfg.MinTrainers }

// Step drives one global step to completion: admit trainers that joined
// since the last step, scatter the pending shards over the live
// membership, collect shard gradients in ascending slot order, and on any
// membership change snapshot the training state, re-partition the
// still-pending shards over the survivors, and retry until every shard of
// the step is in the bank. Weights are identical across retries within a
// step and shard gradients are pure functions of (weights, shard data), so
// the retried work is byte-equal to what the dead trainer would have
// produced.
func (c *coordinator) Step(s *train.Step) error {
	c.admitPending()
	c.seq++
	seq := c.seq
	n := s.X.Shape[0]
	params := make([][]float64, len(s.Params))
	for i, p := range s.Params {
		params[i] = p.W
	}
	bnStats := make([][]float64, 0, 2*len(c.bns))
	for _, bn := range c.bns {
		mean, variance := bn.Stats()
		bnStats = append(bnStats, mean, variance)
	}

	pending := make(map[int]bool, s.Shards)
	for sh := 0; sh < s.Shards; sh++ {
		pending[sh] = true
	}
	// statsBySlot keeps the batch-norm running statistics from replies that
	// carried at least one shard gradient — the ghost-batch-norm average is
	// taken over exactly those members, ascending slot, as over the
	// in-process replicas that computed shards.
	statsBySlot := map[int][][]float64{}

	attempt := 0
	for len(pending) > 0 {
		if attempt > 0 {
			c.stats.StepRedos++
			stepRedos.Inc()
		}
		attempt++
		live := c.ros.live()
		if len(live) == 0 {
			if err := c.waitForJoin(); err != nil {
				return fmt.Errorf("distnet: step %d: %w", seq, err)
			}
			live = c.ros.live()
		}
		asg := c.ros.assign(s.Shards, pending)
		// Scatter. A send failure removes the member; survivors still get
		// their Step and the collect pass below narrows pending, so the next
		// attempt only re-issues what is genuinely missing.
		sent := make([]*member, 0, len(live))
		var lost bool
		for _, m := range live {
			step := Step{
				Seq:         seq,
				Epoch:       s.Epoch,
				MemberEpoch: c.ros.epoch,
				N:           n,
				Params:      params,
				Stats:       bnStats,
				Shards:      buildShards(asg[m], s.ShardSize, n, s.X, s.Y),
			}
			if err := c.send(m, FrameStep, step); err != nil {
				c.lost(m, "death", fmt.Sprintf("step write: %v", err), s.Capture)
				lost = true
				continue
			}
			sent = append(sent, m)
		}
		// Collect, ascending slot order.
		for _, m := range sent {
			grads, err := c.readGrads(m, seq)
			if err != nil {
				action := "death"
				if err == errGoodbye {
					action = "leave"
				}
				c.lost(m, action, err.Error(), s.Capture)
				lost = true
				continue
			}
			if err := checkGrads(grads, s.Bank().ShardLen(), c.bns); err != nil {
				return fmt.Errorf("distnet: step %d from %q: %w", seq, m.name, err)
			}
			for _, sg := range grads.Shards {
				if !pending[sg.Index] {
					continue // duplicate after a retry race; first fold wins
				}
				if err := s.Bank().LoadShard(sg.Index, sg.Grad); err != nil {
					return fmt.Errorf("distnet: step %d from %q: %w", seq, m.name, err)
				}
				s.Losses[sg.Index] = sg.Loss
				delete(pending, sg.Index)
			}
			if len(grads.Shards) > 0 {
				statsBySlot[m.slot] = grads.Stats
			}
		}
		if !lost && len(pending) > 0 {
			return fmt.Errorf("distnet: step %d left %d shards unassigned", seq, len(pending))
		}
	}

	foldSeconds.Observe(s.Fold().Seconds())
	if len(c.bns) > 0 {
		slots := make([]int, 0, len(statsBySlot))
		for slot := range statsBySlot {
			slots = append(slots, slot)
		}
		sort.Ints(slots)
		members := make([][][]float64, len(slots))
		for i, slot := range slots {
			members[i] = statsBySlot[slot]
		}
		train.AverageStats(c.bns, members)
	}
	return nil
}

// ErrBadGrads marks a trainer's Grads frame whose contents do not fit the
// job: a shard gradient or batch-norm statistics slice of the wrong
// length, or a non-finite gradient, loss or statistic. The coordinator
// rejects such a frame where it is decoded, before any of it reaches the
// fold or the authoritative statistics.
var ErrBadGrads = errors.New("distnet: malformed grads frame")

// checkGrads validates a decoded Grads frame against the bank's shard
// layout and the authoritative batch-norm channel counts.
func checkGrads(g *Grads, shardLen int, bns []*nn.BatchNorm) error {
	for _, sg := range g.Shards {
		if len(sg.Grad) != shardLen {
			return fmt.Errorf("%w: shard %d gradient has %d values, want %d",
				ErrBadGrads, sg.Index, len(sg.Grad), shardLen)
		}
		if !allFinite(sg.Loss) || !allFinite(sg.Grad...) {
			return fmt.Errorf("%w: shard %d carries a non-finite gradient or loss", ErrBadGrads, sg.Index)
		}
	}
	if len(g.Shards) == 0 || len(bns) == 0 {
		return nil
	}
	if len(g.Stats) != 2*len(bns) {
		return fmt.Errorf("%w: stats carry %d slices, want %d", ErrBadGrads, len(g.Stats), 2*len(bns))
	}
	for i, st := range g.Stats {
		mean, _ := bns[i/2].Stats()
		if len(st) != len(mean) {
			return fmt.Errorf("%w: stats slice %d has %d values, batch-norm %q has %d channels",
				ErrBadGrads, i, len(st), bns[i/2].Name(), len(mean))
		}
		if !allFinite(st...) {
			return fmt.Errorf("%w: stats slice %d is non-finite", ErrBadGrads, i)
		}
	}
	return nil
}

func allFinite(xs ...float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// buildShards materializes the Shard payloads for one member's assignment.
func buildShards(own []int, ss, n int, x *tensor.Tensor, y []int) []Shard {
	out := make([]Shard, 0, len(own))
	for _, s := range own {
		lo := s * ss
		hi := lo + ss
		if hi > n {
			hi = n
		}
		view := x.Rows(lo, hi)
		out = append(out, Shard{Index: s, Shape: view.Shape, X: view.Data, Y: y[lo:hi]})
	}
	return out
}

// readGrads reads one member's reply to a Step under the heartbeat
// deadline, tolerating interleaved Pong frames and treating Bye as a
// graceful leave (reported as an error so the caller re-partitions).
func (c *coordinator) readGrads(m *member, seq int64) (*Grads, error) {
	for {
		m.conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		t, payload, nr, err := ReadFrame(m.conn)
		c.count(nr, 0)
		if nr > 0 {
			framesIn.Inc()
			c.stats.FramesIn++
		}
		if err != nil {
			return nil, fmt.Errorf("awaiting grads: %v", err)
		}
		switch t {
		case FramePong:
			continue
		case FrameBye:
			return nil, errGoodbye
		case FrameGrads:
			var g Grads
			if err := decodePayload(payload, &g); err != nil {
				return nil, err
			}
			if g.Seq != seq {
				// Stale reply from before a retry; keep reading.
				continue
			}
			return &g, nil
		default:
			return nil, fmt.Errorf("unexpected %s frame awaiting grads", t)
		}
	}
}

// errGoodbye marks a trainer that sent Bye — a graceful leave, removed like
// a death but recorded with its own membership action.
var errGoodbye = fmt.Errorf("goodbye")

// lost removes a member after a failure or goodbye and snapshots the
// training state — in memory always (the capture is what re-partitioning
// resumes from, conceptually), and durably under SnapshotDir when
// configured.
func (c *coordinator) lost(m *member, action, reason string, capture func() *train.State) {
	if !c.ros.remove(m, action, reason) {
		return
	}
	st := capture()
	c.stats.Snapshots++
	snapshotTotal.Inc()
	if c.cfg.SnapshotDir != "" {
		path := filepath.Join(c.cfg.SnapshotDir, fmt.Sprintf("member-%06d%s", c.ros.epoch, train.CkptSuffix))
		st.WriteFile(path) // best-effort forensic artifact
	}
}

// waitForJoin blocks until a trainer joins (bounded by JoinWait) — the
// zero-survivors path after every trainer died mid-step.
func (c *coordinator) waitForJoin() error {
	t := time.NewTimer(c.cfg.JoinWait)
	defer t.Stop()
	select {
	case j := <-c.joins:
		c.admit(j)
		c.admitPending()
		return nil
	case <-t.C:
		return fmt.Errorf("all trainers lost; no replacement joined within %s", c.cfg.JoinWait)
	}
}

// send frames v to m, feeding the traffic metrics. A nil v sends an empty
// payload (Ping and Pong carry none).
func (c *coordinator) send(m *member, t FrameType, v any) error {
	var payload []byte
	if v != nil {
		var err error
		if payload, err = encodePayload(v); err != nil {
			return err
		}
	}
	nw, err := WriteFrame(m.conn, t, payload)
	c.count(0, nw)
	if nw > 0 {
		framesOut.Inc()
		c.stats.FramesOut++
	}
	return err
}

// count feeds the byte counters (coordinator point of view). Atomic
// because handshake goroutines count their Hello reads concurrently with
// the step loop.
func (c *coordinator) count(in, out int) {
	if in > 0 {
		bytesIn.Add(uint64(in))
		atomic.AddInt64(&c.stats.BytesIn, int64(in))
	}
	if out > 0 {
		bytesOut.Add(uint64(out))
		atomic.AddInt64(&c.stats.BytesOut, int64(out))
	}
}
