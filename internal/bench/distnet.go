package bench

import (
	"fmt"
	"io"
	"net"
	"sync"

	"gmreg/internal/data"
	"gmreg/internal/distnet"
	"gmreg/internal/models"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// The distnet experiment measures multi-process distributed training
// (internal/distnet) on an Alex-shaped workload: a coordinator plus R
// trainers exchanging gradients over loopback TCP, swept over trainer
// counts with a pinned ShardSize so every row performs the identical
// floating-point work. The final-loss column must agree exactly across all
// rows AND with the sequential train.Network baseline — the sweep doubles
// as the bit-identity check of DESIGN.md §13. Per-row traffic counters
// show the wire cost of shipping weights out and gradients back each step.
// Trainers here are goroutines in this process (real TCP, shared CPUs), so
// speedup reads as for dataparallel: bounded by effective GOMAXPROCS.

// DistnetCase is one trainer-count measurement.
type DistnetCase struct {
	Trainers     int     `json:"trainers"`
	EpochSeconds float64 `json:"epoch_seconds"`
	Speedup      float64 `json:"speedup"`
	Efficiency   float64 `json:"efficiency"`
	FinalLoss    float64 `json:"final_loss"`
	BytesIn      int64   `json:"bytes_in"`
	BytesOut     int64   `json:"bytes_out"`
	FramesIn     int64   `json:"frames_in"`
	FramesOut    int64   `json:"frames_out"`
}

// DistnetReport is the full sweep written to BENCH_distnet.json.
type DistnetReport struct {
	Header
	TrainN    int `json:"train_n"`
	ImageSize int `json:"image_size"`
	Batch     int `json:"batch"`
	ShardSize int `json:"shard_size"`
	Epochs    int `json:"epochs"`
	// SequentialLoss is the train.Network baseline every distributed row
	// must reproduce exactly.
	SequentialLoss  float64       `json:"sequential_loss"`
	SequentialEpoch float64       `json:"sequential_epoch_seconds"`
	Cases           []DistnetCase `json:"cases"`
}

// DistnetJSONPath is where the experiment writes its JSON report.
const DistnetJSONPath = "BENCH_distnet.json"

// RunDistnet sweeps coordinator + R trainer processes (as goroutines over
// loopback TCP) against the sequential baseline and prints the scaling and
// traffic table.
func RunDistnet(w io.Writer, s Scale) (*DistnetReport, error) {
	trainN, size, epochs, batch := 192, 16, 2, 64
	if s.Label == "full" {
		trainN, size, epochs, batch = 1024, 32, 3, 64
	}
	spec := data.DefaultCIFAR(trainN, 1)
	spec.Size = size
	trainSet, _ := data.GenerateCIFAR(spec, s.Seed)
	mspec := models.Spec{Family: "alex", InC: spec.Channels, Size: size}

	rep := &DistnetReport{
		Header:    captureHeader(),
		TrainN:    trainN,
		ImageSize: size,
		Batch:     batch,
		// Pinned shard size: every trainer count folds the same 8-shard
		// partition, so all rows must report the identical final loss.
		ShardSize: batch / 8,
		Epochs:    epochs,
	}
	sgd := train.SGDConfig{
		LearningRate: 0.001,
		Momentum:     0.9,
		Epochs:       epochs,
		BatchSize:    batch,
		Seed:         s.Seed,
		ShardSize:    rep.ShardSize,
	}

	seqNet := models.AlexCIFAR10(spec.Channels, size, tensor.NewRNG(s.Seed))
	seqRes, err := train.Network(seqNet, trainSet, sgd, gmDeepFactory(s, nil))
	if err != nil {
		return nil, err
	}
	rep.SequentialLoss = seqRes.History.FinalLoss()
	rep.SequentialEpoch = seqRes.History.TotalTime().Seconds() / float64(epochs)

	for _, trainers := range []int{1, 2, 4} {
		netw := models.AlexCIFAR10(spec.Channels, size, tensor.NewRNG(s.Seed))
		stats := &distnet.RunStats{}
		addrCh := make(chan string, 1)
		cfg := distnet.Config{
			Addr:        "127.0.0.1:0",
			Spec:        mspec,
			MinTrainers: trainers,
			SGD:         sgd,
			Stats:       stats,
			OnListen:    func(a net.Addr) { addrCh <- a.String() },
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			addr := <-addrCh
			var tg sync.WaitGroup
			for i := 0; i < trainers; i++ {
				tg.Add(1)
				go func(i int) {
					defer tg.Done()
					distnet.RunTrainer(distnet.TrainerConfig{
						Addr: addr,
						Name: fmt.Sprintf("bench-%d", i),
					})
				}(i)
			}
			tg.Wait()
		}()
		res, err := distnet.Coordinate(netw, trainSet, cfg, gmDeepFactory(s, nil))
		if err != nil {
			return nil, fmt.Errorf("bench: distnet trainers=%d: %w", trainers, err)
		}
		wg.Wait()
		h := res.History
		loss := h.FinalLoss()
		if loss != rep.SequentialLoss {
			return nil, fmt.Errorf("bench: trainers=%d diverged from sequential: final loss %v, want %v",
				trainers, loss, rep.SequentialLoss)
		}
		rep.Cases = append(rep.Cases, DistnetCase{
			Trainers:     trainers,
			EpochSeconds: h.TotalTime().Seconds() / float64(len(h.EpochTime)),
			FinalLoss:    loss,
			BytesIn:      stats.BytesIn,
			BytesOut:     stats.BytesOut,
			FramesIn:     stats.FramesIn,
			FramesOut:    stats.FramesOut,
		})
	}

	base := rep.Cases[0].EpochSeconds
	for i := range rep.Cases {
		c := &rep.Cases[i]
		if c.EpochSeconds > 0 {
			c.Speedup = base / c.EpochSeconds
		}
		c.Efficiency = c.Speedup / float64(c.Trainers)
	}

	env := rep.Env
	sectionHeader(w, "Multi-process distributed training over loopback TCP (pinned shard partition)")
	fmt.Fprintf(w, "train=%d size=%d batch=%d shard=%d epochs=%d gomaxprocs=%d num_cpu=%d partition_grain=%d\n",
		trainN, size, batch, rep.ShardSize, epochs, env.GOMAXPROCS, env.NumCPU, env.PartitionGrain)
	fmt.Fprintf(w, "sequential baseline: %.3f s/epoch, final loss %.6f (all rows must match it exactly)\n",
		rep.SequentialEpoch, rep.SequentialLoss)
	env.warnScaling(w)
	t := newTable("trainers", "epoch s", "speedup", "efficiency", "final loss", "MiB in", "MiB out")
	for _, c := range rep.Cases {
		t.addRowf("%d|%.3f|%.2f|%.2f|%.6f|%.1f|%.1f",
			c.Trainers, c.EpochSeconds, c.Speedup, c.Efficiency, c.FinalLoss,
			float64(c.BytesIn)/(1<<20), float64(c.BytesOut)/(1<<20))
	}
	t.write(w)
	return rep, nil
}
