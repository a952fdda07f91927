// Package data provides the datasets of the paper's evaluation as
// deterministic synthetic generators plus the real preprocessing pipeline
// (one-hot encoding, missing-value handling, standardization, stratified
// splitting, image augmentation).
//
// The paper's raw data is not redistributable (a proprietary hospital
// dataset) or external (UCI, CIFAR-10); this package substitutes generators
// that reproduce the published characteristics that drive the experiments —
// sample counts, encoded feature counts, feature types (Table II), the
// predictive-vs-noisy feature split of the hospital dataset, and the
// small-n/large-p noise regime in which regularization choices matter. See
// DESIGN.md §2 for the substitution rationale.
package data

import (
	"fmt"
	"math"

	"gmreg/internal/tensor"
)

// Task is a fully preprocessed tabular binary-classification dataset.
type Task struct {
	// Name identifies the dataset, e.g. "horse-colic".
	Name string
	// X holds one encoded feature row per sample.
	X [][]float64
	// Y holds 0/1 labels.
	Y []int
}

// NumFeatures returns the encoded feature count (the paper's "# Features").
func (t *Task) NumFeatures() int {
	if len(t.X) == 0 {
		return 0
	}
	return len(t.X[0])
}

// NumSamples returns the sample count.
func (t *Task) NumSamples() int { return len(t.X) }

// RawTable is an unencoded tabular dataset: categorical columns with small
// cardinalities (value -1 = missing) and continuous columns (NaN = missing).
type RawTable struct {
	// Cat[i][j] is the j-th categorical value of sample i, or -1 if missing.
	Cat [][]int
	// Cards[j] is the number of real categories of categorical feature j
	// (missing is encoded as an extra class when HasMissingCat is set).
	Cards []int
	// HasMissingCat records whether any categorical value is missing, in
	// which case every categorical feature gets one extra "missing" class
	// so the encoded width is stable across splits.
	HasMissingCat bool
	// Cont[i][j] is the j-th continuous value of sample i (NaN = missing).
	Cont [][]float64
	// Y holds the 0/1 labels.
	Y []int
}

// NumSamples returns the row count.
func (r *RawTable) NumSamples() int { return len(r.Y) }

// Encoder is the fitted preprocessing pipeline of §V-A: one-hot encoding for
// categorical features (missing values become a separate class), mean
// imputation and zero-mean/unit-variance standardization for continuous
// features. Statistics are fitted on the training rows only and then applied
// to any row, so no test information leaks into training.
type Encoder struct {
	cards         []int
	missingCat    bool
	contMean      []float64
	contStd       []float64
	encodedWidth  int
	catWidth      int
	perCatOffsets []int
}

// FitEncoder learns the preprocessing statistics from the given training
// rows of raw.
func FitEncoder(raw *RawTable, trainRows []int) *Encoder {
	e := &Encoder{
		cards:      append([]int(nil), raw.Cards...),
		missingCat: raw.HasMissingCat,
	}
	e.perCatOffsets = make([]int, len(e.cards))
	off := 0
	for j, c := range e.cards {
		e.perCatOffsets[j] = off
		off += c
		if e.missingCat {
			off++
		}
	}
	e.catWidth = off
	nCont := 0
	if len(raw.Cont) > 0 {
		nCont = len(raw.Cont[0])
	}
	e.contMean = make([]float64, nCont)
	e.contStd = make([]float64, nCont)
	for j := 0; j < nCont; j++ {
		var sum, sq float64
		var n int
		for _, i := range trainRows {
			v := raw.Cont[i][j]
			if math.IsNaN(v) {
				continue
			}
			sum += v
			sq += v * v
			n++
		}
		if n == 0 {
			e.contMean[j] = 0
			e.contStd[j] = 1
			continue
		}
		mean := sum / float64(n)
		variance := sq/float64(n) - mean*mean
		if variance <= 1e-12 {
			variance = 1
		}
		e.contMean[j] = mean
		e.contStd[j] = math.Sqrt(variance)
	}
	e.encodedWidth = e.catWidth + nCont
	return e
}

// Width returns the encoded feature count.
func (e *Encoder) Width() int { return e.encodedWidth }

// EncodeRow transforms one raw row into its dense encoded representation.
func (e *Encoder) EncodeRow(raw *RawTable, i int) []float64 {
	x := make([]float64, e.encodedWidth)
	for j, c := range e.cards {
		v := -1
		if len(raw.Cat) > 0 {
			v = raw.Cat[i][j]
		}
		off := e.perCatOffsets[j]
		switch {
		case v >= 0 && v < c:
			x[off+v] = 1
		case e.missingCat:
			x[off+c] = 1 // the dedicated missing class
		default:
			panic(fmt.Sprintf("data: categorical value %d out of range for feature %d (card %d, no missing class)", v, j, c))
		}
	}
	for j := range e.contMean {
		v := raw.Cont[i][j]
		if math.IsNaN(v) {
			v = e.contMean[j] // mean imputation
		}
		x[e.catWidth+j] = (v - e.contMean[j]) / e.contStd[j]
	}
	return x
}

// Encode transforms the whole table into a Task using the fitted statistics.
func (e *Encoder) Encode(name string, raw *RawTable) *Task {
	n := raw.NumSamples()
	t := &Task{Name: name, X: make([][]float64, n), Y: append([]int(nil), raw.Y...)}
	for i := 0; i < n; i++ {
		t.X[i] = e.EncodeRow(raw, i)
	}
	return t
}

// drawLabel thresholds the true logit and flips the result with the given
// probability. The flip probability is therefore the exact irreducible error
// of the task (Bayes accuracy = 1 − flip), which lets each generator target
// its dataset's published accuracy level directly.
func drawLabel(logit, flip float64, rng *tensor.RNG) int {
	y := 0
	if logit > 0 {
		y = 1
	}
	if rng.Float64() < flip {
		y = 1 - y
	}
	return y
}
