// GEMINI pipeline: the paper's Fig. 1 end-to-end healthcare analytics flow,
// miniature edition. Raw (dirty) hospital data is cleaned (DICE role),
// preprocessed, explored with cohort queries (CohAna role), used to train a
// GM-regularized readmission model with minibatch SGD (SINGA role, with the
// GM Reg tool applied once per global step at the update, where the paper's
// red box plugs it into the parameter server), and the model is checkpointed
// with its learned regularizer, as one value, into an immutable versioned
// store (Forkbase role).
//
// Run with: go run ./examples/gemini
package main

import (
	"fmt"

	"gmreg/internal/clean"
	"gmreg/internal/cohort"
	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/epic"
	"gmreg/internal/models"
	"gmreg/internal/reg"
	"gmreg/internal/serve"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

func main() {
	// ── Stage 0: raw data arrives (with injected quality problems). ──────
	spec := data.UCISpecByNameMust("horse-colic")
	raw := data.GenerateUCI(spec, 42)
	dirty := injectDirt(raw)
	fmt.Printf("raw data: %d rows\n", dirty.NumSamples())

	// ── Stage 1: DICE — rule-based cleaning. ─────────────────────────────
	cleaned, report, err := clean.Clean(dirty, clean.Policy{
		DropDuplicates:           true,
		EnforceCategoricalDomain: true,
		Ranges:                   []clean.RangeRule{{Column: 0, Lo: -6, Hi: 6}},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(report)

	// ── Stage 2: preprocessing (one-hot, imputation, standardization). ───
	rows := make([]int, cleaned.NumSamples())
	for i := range rows {
		rows[i] = i
	}
	enc := data.FitEncoder(cleaned, rows)
	task := enc.Encode("horse-colic", cleaned)
	fmt.Printf("encoded: %d × %d features\n", task.NumSamples(), task.NumFeatures())

	// ── Stage 2½: epiC — parallel aggregation / summarization. ───────────
	summaries, err := epic.Summarize(task.X, 0)
	if err != nil {
		panic(err)
	}
	var sparse int
	for _, s := range summaries {
		if s.Zeros > task.NumSamples()/2 {
			sparse++
		}
	}
	fmt.Printf("summarized %d columns in parallel: %d are sparse; f0 profile: %s\n",
		len(summaries), sparse, summaries[0])

	// ── Stage 3: CohAna — cohort exploration before modelling. ───────────
	cols := make([]string, task.NumFeatures())
	for i := range cols {
		cols[i] = fmt.Sprintf("f%d", i)
	}
	outcome := make([]float64, len(task.Y))
	for i, y := range task.Y {
		outcome[i] = float64(y)
	}
	tbl, err := cohort.NewTable(cols, task.X, outcome)
	if err != nil {
		panic(err)
	}
	// Segment on the first continuous feature (after the one-hot block).
	segCol := cols[task.NumFeatures()-spec.ContFeatures]
	res, err := tbl.Select(nil).SegmentBy(segCol, 4).Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncohort analysis over %s (%d cases):\n", segCol, res.CohortSize)
	for _, s := range res.Segments {
		fmt.Printf("  %-22s n=%3d  outcome rate %.2f ± %.2f\n",
			s.Label, s.Count, s.MeanOutcome, s.StdOutcome)
	}

	// ── Stage 4: SINGA — minibatch SGD with GM Reg at the server update.
	rng := tensor.NewRNG(7)
	trainRows, testRows := data.StratifiedSplit(task.Y, 0.8, rng)
	cfg := train.SGDConfig{
		LearningRate: 0.1,
		Momentum:     0.9,
		Epochs:       80,
		BatchSize:    32,
		Seed:         9,
	}
	fit, err := train.LogReg(task, trainRows, cfg, func(m int, initStd float64) reg.Regularizer {
		return core.MustNewGM(m, core.DefaultConfig(initStd))
	})
	if err != nil {
		panic(err)
	}
	g := fit.Regularizer.(*core.GM)
	fmt.Printf("\ntrained in %.2fs\n", fit.History.TotalTime().Seconds())
	fmt.Printf("test accuracy: %.3f\n", fit.Model.Accuracy(task.X, task.Y, testRows))
	fmt.Printf("learned regularizer: %s\n", g)

	// ── Stage 5: Forkbase — version the model with its regularizer. ─────
	db := store.New()
	ckpt, err := serve.NewCheckpoint(models.Spec{Family: "logreg", In: task.NumFeatures()},
		models.LogRegNetwork(fit.Model), []train.RegState{{Name: "weights", GM: g.Snapshot()}}, nil)
	if err != nil {
		panic(err)
	}
	v1, err := serve.PutCheckpoint(db, "models/readmission", ckpt)
	if err != nil {
		panic(err)
	}
	// A what-if branch: fork, retrain a variant, keep both histories.
	if err := db.Fork("models/readmission", "models/readmission-experiment"); err != nil {
		panic(err)
	}
	keys, versions, blobs := db.Stats()
	fmt.Printf("\nstore: %d keys, %d versions, %d blobs (checkpoint %s…, seq %d)\n",
		keys, versions, blobs, v1.Hash[:12], v1.Seq)

	// Round trip: the stored checkpoint restores to a working regularizer.
	blob, _, _ := db.Get("models/readmission-experiment")
	back, err := serve.UnmarshalCheckpoint(blob)
	if err != nil {
		panic(err)
	}
	restored, err := core.FromSnapshot(back.Regs[0].GM)
	if err != nil {
		panic(err)
	}
	fmt.Printf("restored from store: %s (density at 0: %.3f)\n",
		restored, restored.Density(0))
}

// injectDirt adds duplicates, a domain violation and a range violation so
// the cleaning stage has work to do.
func injectDirt(raw *data.RawTable) *data.RawTable {
	raw.Cat = append(raw.Cat, append([]int(nil), raw.Cat[0]...))
	raw.Cont = append(raw.Cont, append([]float64(nil), raw.Cont[0]...))
	raw.Y = append(raw.Y, raw.Y[0]) // exact duplicate of row 0
	raw.Cat[1][0] = 99              // impossible category
	raw.Cont[2][0] = 1e6            // absurd measurement
	return raw
}
