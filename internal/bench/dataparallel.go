package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// The dataparallel experiment measures train.Network's in-process replicas
// on an Alex-shaped workload, sweeping replica count × prefetch with a
// pinned ShardSize so
// every configuration performs the identical floating-point work — the
// final-loss column must therefore agree exactly across all rows, turning
// the sweep into a determinism check as well as a scaling curve. Speedup
// is against the R=1/no-prefetch baseline; efficiency is speedup/R.
// Results land in BENCH_dataparallel.json. Note that speedup is bounded by
// the recorded effective GOMAXPROCS: on a single-core host all replicas
// share one CPU and the sweep degenerates to measuring overhead.

// DataParallelCase is one (replicas, prefetch) measurement.
type DataParallelCase struct {
	Replicas     int     `json:"replicas"`
	Prefetch     bool    `json:"prefetch"`
	EpochSeconds float64 `json:"epoch_seconds"`
	Speedup      float64 `json:"speedup"`
	Efficiency   float64 `json:"efficiency"`
	FinalLoss    float64 `json:"final_loss"`
}

// DataParallelReport is the full sweep written to BENCH_dataparallel.json.
type DataParallelReport struct {
	Env Env `json:"env"`
	// ScalingValid records whether the speedup column measures real
	// parallelism: false when effective GOMAXPROCS (min of GOMAXPROCS and
	// NumCPU) is < 2, where every replica shares one CPU and the numbers
	// only measure fan-out overhead; ScalingNote says why. Readers must not
	// quote the speedup/efficiency columns of an invalid run as scaling
	// results.
	ScalingValid bool               `json:"scaling_valid"`
	ScalingNote  string             `json:"scaling_note,omitempty"`
	TrainN       int                `json:"train_n"`
	ImageSize    int                `json:"image_size"`
	Batch        int                `json:"batch"`
	ShardSize    int                `json:"shard_size"`
	Epochs       int                `json:"epochs"`
	Cases        []DataParallelCase `json:"cases"`
}

// DataParallelJSONPath is where the experiment writes its JSON report.
const DataParallelJSONPath = "BENCH_dataparallel.json"

// RunDataParallel sweeps replica count × prefetch over data-parallel
// Alex-shaped training and prints the scaling table.
func RunDataParallel(w io.Writer, s Scale) (*DataParallelReport, error) {
	trainN, size, epochs, batch := 192, 16, 2, 64
	if s.Label == "full" {
		trainN, size, epochs, batch = 1024, 32, 3, 64
	}
	spec := data.DefaultCIFAR(trainN, 1)
	spec.Size = size
	trainSet, _ := data.GenerateCIFAR(spec, s.Seed)

	env := CaptureEnv()
	rep := &DataParallelReport{
		Env:          env,
		ScalingValid: env.ScalingInvalidReason() == "",
		ScalingNote:  env.ScalingInvalidReason(),
		TrainN:       trainN,
		ImageSize:    size,
		Batch:        batch,
		// Pinned shard size: every replica count folds the same 8-shard
		// partition, so all rows must report the identical final loss.
		ShardSize: batch / 8,
		Epochs:    epochs,
	}

	for _, replicas := range []int{1, 2, 4, 8} {
		for _, prefetch := range []bool{false, true} {
			cfg := train.SGDConfig{
				LearningRate: 0.001,
				Momentum:     0.9,
				Epochs:       epochs,
				BatchSize:    batch,
				Seed:         s.Seed,
				ShardSize:    rep.ShardSize,
				Replicas:     replicas,
				Prefetch:     prefetch,
			}
			net := models.AlexCIFAR10(spec.Channels, size, tensor.NewRNG(s.Seed))
			res, err := train.Network(net, trainSet, cfg, gmDeepFactory(s, nil))
			if err != nil {
				return nil, err
			}
			h := res.History
			rep.Cases = append(rep.Cases, DataParallelCase{
				Replicas:     replicas,
				Prefetch:     prefetch,
				EpochSeconds: h.TotalTime().Seconds() / float64(len(h.EpochTime)),
				FinalLoss:    h.FinalLoss(),
			})
		}
	}

	base := rep.Cases[0].EpochSeconds
	for i := range rep.Cases {
		c := &rep.Cases[i]
		if c.EpochSeconds > 0 {
			c.Speedup = base / c.EpochSeconds
		}
		c.Efficiency = c.Speedup / float64(c.Replicas)
		if c.FinalLoss != rep.Cases[0].FinalLoss {
			return nil, fmt.Errorf("bench: replicas=%d prefetch=%v diverged: final loss %v, want %v",
				c.Replicas, c.Prefetch, c.FinalLoss, rep.Cases[0].FinalLoss)
		}
	}

	sectionHeader(w, "Data-parallel Alex-shaped training (pinned shard partition)")
	fmt.Fprintf(w, "train=%d size=%d batch=%d shard=%d epochs=%d gomaxprocs=%d num_cpu=%d partition_grain=%d\n",
		trainN, size, batch, rep.ShardSize, epochs, env.GOMAXPROCS, env.NumCPU, env.PartitionGrain)
	env.warnScaling(w)
	t := newTable("replicas", "prefetch", "epoch s", "speedup", "efficiency", "final loss")
	for _, c := range rep.Cases {
		t.addRowf("%d|%v|%.3f|%.2f|%.2f|%.6f",
			c.Replicas, c.Prefetch, c.EpochSeconds, c.Speedup, c.Efficiency, c.FinalLoss)
	}
	t.write(w)
	return rep, nil
}

// WriteDataParallelJSON writes the report as indented JSON.
func WriteDataParallelJSON(path string, rep *DataParallelReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
