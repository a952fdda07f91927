package distnet

import (
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"gmreg/internal/nn"
	"gmreg/internal/tensor"
)

// TrainerConfig configures one trainer process.
type TrainerConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Name labels this trainer in the coordinator's membership events;
	// defaults to "host:pid".
	Name string
	// DialTimeout bounds how long the trainer keeps retrying the initial
	// dial (the coordinator may not be up yet). Default 30s.
	DialTimeout time.Duration
	// IdleTimeout bounds how long the trainer waits for the next frame
	// before giving up on the coordinator. Default 5m.
	IdleTimeout time.Duration
	// Reconnect is how many times a broken coordinator connection is
	// redialed (fresh Hello, new slot) before RunTrainer returns the error.
	// 0 disables reconnection.
	Reconnect int
	// LeaveAfterSteps, when > 0, makes the trainer reply to that many Step
	// frames, send a goodbye, and return nil — a graceful mid-job leave the
	// coordinator re-partitions around.
	LeaveAfterSteps int
	// DieAfterSteps, when > 0, makes the trainer SIGKILL its own process
	// upon receiving its Nth Step frame, before replying — the harshest
	// mid-step death, used by the fault-injection tests and the CI smoke
	// job. The coordinator must detect it and re-partition.
	DieAfterSteps int
}

// RunTrainer runs one trainer process: dial the coordinator, handshake,
// then serve Step frames — rebuild the weights it sends, compute each
// assigned shard's pre-scaled gradient with the exact kernel numerics the
// Welcome frame pinned, and reply. Returns nil when the coordinator says
// the job is done, or the first unrecoverable error.
func RunTrainer(cfg TrainerConfig) error {
	metrics()
	if cfg.Addr == "" {
		return fmt.Errorf("distnet: empty coordinator address")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	t := &trainer{cfg: cfg}
	for {
		err := t.serve()
		if err == nil {
			return nil
		}
		if t.tries >= cfg.Reconnect {
			return err
		}
		t.tries++
		reconnects.Inc()
	}
}

// trainer is one connection's worth of state. A reconnect rebuilds all of
// it from the fresh Welcome (the coordinator assigns a new slot).
type trainer struct {
	cfg   TrainerConfig
	tries int
	steps int // Step frames received across all connections (die trigger)

	net     *nn.Network
	params  []*nn.Param
	bns     []*nn.BatchNorm
	gradLen int // flattened per-shard gradient length (GradBank layout)
}

// serve runs one dial → handshake → step-loop lifetime.
func (t *trainer) serve() error {
	conn, err := t.dial()
	if err != nil {
		return err
	}
	defer conn.Close()

	if err := t.send(conn, FrameHello, Hello{Name: t.cfg.Name}); err != nil {
		return fmt.Errorf("distnet: hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout))
	ft, payload, err := t.recv(conn)
	if err != nil {
		return fmt.Errorf("distnet: awaiting welcome: %w", err)
	}
	if ft != FrameWelcome {
		return fmt.Errorf("distnet: expected welcome, got %s", ft)
	}
	var w Welcome
	if err := decodePayload(payload, &w); err != nil {
		return err
	}
	// Pin the coordinator's numerics fingerprint before building the net:
	// the chunk partition of deterministic reductions is a pure function of
	// these two tunables, so matching them makes this process's shard
	// gradients byte-equal to the coordinator's own computation.
	tensor.SetPartitionGrain(w.PartitionGrain)
	tensor.SetSerialCutoff(w.SerialCutoff)
	if err := w.Spec.Validate(); err != nil {
		return fmt.Errorf("distnet: welcome spec: %w", err)
	}
	t.net, err = w.Spec.Build()
	if err != nil {
		return fmt.Errorf("distnet: building %s: %w", w.Spec.Family, err)
	}
	t.params = t.net.Params()
	t.bns = t.net.BatchNorms()
	t.gradLen = 0
	for _, p := range t.params {
		t.gradLen += len(p.W)
	}

	for {
		conn.SetReadDeadline(time.Now().Add(t.cfg.IdleTimeout))
		ft, payload, err := t.recv(conn)
		if err != nil {
			return fmt.Errorf("distnet: awaiting step: %w", err)
		}
		switch ft {
		case FramePing:
			if err := t.send(conn, FramePong, nil); err != nil {
				return err
			}
		case FrameDone:
			return nil
		case FrameStep:
			var step Step
			if err := decodePayload(payload, &step); err != nil {
				return err
			}
			t.steps++
			if t.cfg.DieAfterSteps > 0 && t.steps >= t.cfg.DieAfterSteps {
				die() // fault injection: vanish without a goodbye
			}
			reply, err := t.step(&step)
			if err != nil {
				return err
			}
			if err := t.send(conn, FrameGrads, reply); err != nil {
				return err
			}
			if t.cfg.LeaveAfterSteps > 0 && t.steps >= t.cfg.LeaveAfterSteps {
				t.send(conn, FrameBye, nil) // graceful leave
				return nil
			}
		default:
			return fmt.Errorf("distnet: unexpected %s frame", ft)
		}
	}
}

// step computes one Step's shard gradients: adopt the authoritative weights
// and batch-norm statistics, then run forward/backward over each assigned
// shard in ascending index order with the global 1/n pre-scaling.
func (t *trainer) step(step *Step) (*Grads, error) {
	if len(step.Params) != len(t.params) {
		return nil, fmt.Errorf("distnet: step carries %d parameter groups, net has %d",
			len(step.Params), len(t.params))
	}
	for i, p := range t.params {
		if len(step.Params[i]) != len(p.W) {
			return nil, fmt.Errorf("distnet: group %q has %d weights, step carries %d",
				p.Name, len(p.W), len(step.Params[i]))
		}
		copy(p.W, step.Params[i])
	}
	if len(step.Stats) != 2*len(t.bns) {
		return nil, fmt.Errorf("distnet: step carries %d stat slices, net has %d batch-norm layers",
			len(step.Stats), len(t.bns))
	}
	for i, bn := range t.bns {
		mean, variance := bn.Stats()
		if len(step.Stats[2*i]) != len(mean) || len(step.Stats[2*i+1]) != len(variance) {
			return nil, fmt.Errorf("distnet: batch-norm %d stats length mismatch", i)
		}
		copy(mean, step.Stats[2*i])
		copy(variance, step.Stats[2*i+1])
	}

	shards := append([]Shard(nil), step.Shards...)
	sort.Slice(shards, func(i, j int) bool { return shards[i].Index < shards[j].Index })
	reply := &Grads{Seq: step.Seq, Shards: make([]ShardGrad, 0, len(shards))}
	for _, sh := range shards {
		want := 1
		for _, d := range sh.Shape {
			want *= d
		}
		if len(sh.Shape) == 0 || want != len(sh.X) || sh.Shape[0] != len(sh.Y) {
			return nil, fmt.Errorf("distnet: shard %d shape %v does not match %d values / %d labels",
				sh.Index, sh.Shape, len(sh.X), len(sh.Y))
		}
		x := tensor.FromSlice(sh.X, sh.Shape...)
		logits := t.net.Forward(x, true)
		loss, dl := nn.SoftmaxCrossEntropyScaled(logits, sh.Y, step.N)
		t.net.ZeroGrads()
		t.net.Backward(dl)
		grad := make([]float64, 0, t.gradLen)
		for _, p := range t.params {
			grad = append(grad, p.Grad...)
		}
		reply.Shards = append(reply.Shards, ShardGrad{Index: sh.Index, Grad: grad, Loss: loss})
	}
	if len(shards) > 0 && len(t.bns) > 0 {
		reply.Stats = make([][]float64, 0, 2*len(t.bns))
		for _, bn := range t.bns {
			mean, variance := bn.Stats()
			reply.Stats = append(reply.Stats,
				append([]float64(nil), mean...),
				append([]float64(nil), variance...))
		}
	}
	return reply, nil
}

// die terminates the process with SIGKILL — no deferred cleanup, no
// goodbye frame; indistinguishable from an external kill -9.
func die() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		p.Kill()
	}
	select {} // Kill can be asynchronous; never proceed past here
}

// dial connects to the coordinator, retrying (it may not be listening yet)
// until DialTimeout.
func (t *trainer) dial() (net.Conn, error) {
	deadline := time.Now().Add(t.cfg.DialTimeout)
	for {
		conn, err := net.DialTimeout("tcp", t.cfg.Addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("distnet: dialing %s: %w", t.cfg.Addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// send frames v to the coordinator, feeding the traffic metrics. A nil v
// sends an empty payload (Pong and Bye carry none).
func (t *trainer) send(conn net.Conn, ft FrameType, v any) error {
	var payload []byte
	if v != nil {
		var err error
		if payload, err = encodePayload(v); err != nil {
			return err
		}
	}
	n, err := WriteFrame(conn, ft, payload)
	if n > 0 {
		bytesOut.Add(uint64(n))
		framesOut.Inc()
	}
	return err
}

// recv reads one frame from the coordinator, feeding the traffic metrics.
func (t *trainer) recv(conn net.Conn) (FrameType, []byte, error) {
	ft, payload, n, err := ReadFrame(conn)
	if n > 0 {
		bytesIn.Add(uint64(n))
		framesIn.Inc()
	}
	return ft, payload, err
}
