package gmreg_test

import (
	"encoding/json"
	"math"
	"testing"

	"gmreg"
	"gmreg/internal/clean"
	"gmreg/internal/cohort"
	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/epic"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// TestGeminiPipelineEndToEnd runs the whole Fig. 1 flow with assertions at
// every stage: clean → encode → summarize → cohort → GM-regularized training
// → versioned snapshot → restore.
func TestGeminiPipelineEndToEnd(t *testing.T) {
	spec := data.UCISpecByNameMust("hepatitis")
	raw := data.GenerateUCI(spec, 11)
	// Inject problems the cleaner must catch.
	raw.Cat = append(raw.Cat, append([]int(nil), raw.Cat[0]...))
	raw.Cont = append(raw.Cont, append([]float64(nil), raw.Cont[0]...))
	raw.Y = append(raw.Y, raw.Y[0])
	raw.Cont[3][0] = 1e9

	cleaned, rep, err := clean.Clean(raw, clean.Policy{
		DropDuplicates: true,
		Ranges:         []clean.RangeRule{{Column: 0, Lo: -8, Hi: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicatesDropped != 1 || rep.RangeViolations != 1 {
		t.Fatalf("cleaner missed injected problems: %+v", rep)
	}

	rows := make([]int, cleaned.NumSamples())
	for i := range rows {
		rows[i] = i
	}
	enc := data.FitEncoder(cleaned, rows)
	task := enc.Encode("hepatitis", cleaned)
	if task.NumFeatures() != spec.EncodedFeatures() {
		t.Fatalf("encoded width %d, want %d", task.NumFeatures(), spec.EncodedFeatures())
	}

	sums, err := epic.Summarize(task.X, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != task.NumFeatures() {
		t.Fatalf("summaries for %d of %d columns", len(sums), task.NumFeatures())
	}
	for j, s := range sums {
		if s.Count != task.NumSamples() {
			t.Fatalf("column %d summarized %d rows, want %d", j, s.Count, task.NumSamples())
		}
	}

	outcome := make([]float64, len(task.Y))
	var posRate float64
	for i, y := range task.Y {
		outcome[i] = float64(y)
		posRate += outcome[i]
	}
	posRate /= float64(len(task.Y))
	cols := make([]string, task.NumFeatures())
	for i := range cols {
		cols[i] = "f"
	}
	cols[0] = "f0"
	tbl, err := cohort.NewTable(cols, task.X, outcome)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := tbl.Select(nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cres.Segments[0].MeanOutcome-posRate) > 1e-12 {
		t.Fatalf("cohort aggregate %v, want the base rate %v",
			cres.Segments[0].MeanOutcome, posRate)
	}

	rng := tensor.NewRNG(3)
	trainRows, testRows := data.StratifiedSplit(task.Y, 0.8, rng)
	fit, err := train.LogReg(task, trainRows, train.SGDConfig{
		LearningRate: 0.1, Momentum: 0.9, Epochs: 40, BatchSize: 32, Seed: 5,
	}, gmreg.New())
	if err != nil {
		t.Fatal(err)
	}
	acc := fit.Model.Accuracy(task.X, task.Y, testRows)
	if acc < 0.7 {
		t.Fatalf("pipeline model accuracy %v, want ≥ 0.7", acc)
	}

	g := fit.Regularizer.(*core.GM)
	db := store.New()
	blob, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("gm", blob); err != nil {
		t.Fatal(err)
	}
	back, _, err := db.Get("gm")
	if err != nil {
		t.Fatal(err)
	}
	restored := &core.GM{}
	if err := json.Unmarshal(back, restored); err != nil {
		t.Fatal(err)
	}
	if restored.K() != g.K() || restored.M() != g.M() {
		t.Fatal("snapshot round trip through the store changed the mixture")
	}
}

// TestFacadeAllRegularizersOnDistributedTrainer checks every public factory
// through train.LogReg, the one logistic trainer (synchronous data-parallel
// SGD is the same minibatch update, DESIGN.md §8).
func TestFacadeAllRegularizersOnDistributedTrainer(t *testing.T) {
	task, err := data.LoadUCI("climate-model", 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, task.NumSamples())
	for i := range rows {
		rows[i] = i
	}
	factories := []gmreg.Factory{
		gmreg.NoReg(),
		gmreg.L1(0.5),
		gmreg.L2(0.5),
		gmreg.ElasticNet(0.5, 0.5),
		gmreg.Huber(0.5, 0.1),
		gmreg.New(gmreg.WithConfig(func(c *gmreg.Config) { c.Gamma = 0.002 })),
	}
	for _, f := range factories {
		res, err := train.LogReg(task, rows,
			train.SGDConfig{LearningRate: 0.1, Momentum: 0.9, Epochs: 10, BatchSize: 32, Seed: 2}, f)
		if err != nil {
			t.Fatalf("%s: %v", res.Regularizer.Name(), err)
		}
		if acc := res.Model.Accuracy(task.X, task.Y, rows); acc < 0.7 {
			t.Errorf("%s: train accuracy %v suspiciously low", res.Regularizer.Name(), acc)
		}
	}
}
