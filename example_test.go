package gmreg_test

import (
	"fmt"

	"gmreg"
)

// The tool's minimal contract: build one GM per parameter group, call Grad
// once per SGD iteration, add the result to your data gradient. Here the
// "training" is pure prior descent on a two-scale parameter vector, which is
// enough for the mixture to discover the two scales.
func ExampleNewGM() {
	const m = 1000
	w := make([]float64, m)
	for i := range w {
		if i%10 == 0 {
			w[i] = 0.8 // few large parameters
		} else {
			w[i] = 0.01 // many near-zero parameters
		}
	}
	cfg := gmreg.DefaultConfig(0.1)
	g, err := gmreg.NewGM(m, cfg)
	if err != nil {
		panic(err)
	}
	// Offline fit on a static vector (the interleaved form is g.Grad).
	g.Fit(w, 100, 1e-9)
	fmt.Printf("components: %d\n", g.K())
	pi := g.Pi()
	fmt.Printf("mass split: %.1f%% / %.1f%%\n", 100*pi[0], 100*pi[1])
	// Output:
	// components: 2
	// mass split: 13.1% / 86.9%
}

// New wires one adaptive regularizer per layer with a shared recipe;
// WithConfig picks γ from the paper's grid or changes the lazy-update
// schedule.
func ExampleNew() {
	factory := gmreg.New(gmreg.WithConfig(func(c *gmreg.Config) {
		c.Gamma = 0.002
		c.WarmupEpochs, c.RegInterval, c.GMInterval = 2, 50, 50
	}))
	r := factory(89440, 0.1) // e.g. Alex-CIFAR-10's flattened weights
	fmt.Println(r.Name())
	// Output:
	// GM Reg
}
