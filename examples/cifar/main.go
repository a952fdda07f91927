// CIFAR: per-layer adaptive regularization of a convolutional network — the
// deep-learning half of the paper's evaluation (§V-B).
//
// Every layer of the Alex-CIFAR-10 model gets its own Gaussian Mixture,
// all sharing one automatic hyper-parameter recipe; the layers end up with
// different learned strengths (Table IV's message). The run compares no
// regularization, fixed L2 and adaptive GM on a held-out split of the
// synthetic CIFAR substitute.
//
// Run with: go run ./examples/cifar (about a minute on a laptop)
package main

import (
	"fmt"
	"sort"

	"gmreg"
	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

func main() {
	spec := data.DefaultCIFAR(400, 200)
	spec.Size = 16 // quarter-resolution for example speed; 32 = paper geometry
	trainSet, testSet := data.GenerateCIFAR(spec, 11)
	fmt.Printf("synthetic CIFAR: %d train / %d test, %d×%d×%d, %d classes\n\n",
		trainSet.N, testSet.N, trainSet.C, trainSet.H, trainSet.W, trainSet.Classes)

	cfg := train.SGDConfig{
		LearningRate: 0.01,
		Momentum:     0.9, // the paper's setting
		Epochs:       8,
		BatchSize:    25,
		Seed:         5,
	}

	run := func(name string, factory gmreg.Factory) *train.NetworkResult {
		rng := tensor.NewRNG(2)
		net := models.AlexCIFAR10(3, spec.Size, rng)
		res, err := train.Network(net, trainSet, cfg, factory)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-24s test accuracy %.3f (train loss %.3f, %.1fs)\n",
			name, train.EvalNetwork(net, testSet, 64),
			res.History.FinalLoss(), res.History.TotalTime().Seconds())
		return res
	}

	run("no regularization", gmreg.NoReg())
	run("L2 Reg (β=10)", gmreg.L2(10))
	gmRes := run("GM Reg (adaptive)", gmreg.New(gmreg.WithConfig(func(c *gmreg.Config) { c.Gamma = 0.02 })))

	fmt.Println("\nlearned per-layer mixtures (Table IV's structure):")
	var names []string
	for n := range gmRes.Regs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := gmRes.Regs[n].(*core.GM)
		fmt.Printf("  %-14s π = %s  λ = %s\n", n, short(g.Pi()), short(g.Lambda()))
	}
	fmt.Println("\neach layer learned its own strength from one shared recipe —")
	fmt.Println("no per-layer tuning, which is the tool's point.")
}

func short(xs []float64) string {
	out := "["
	for i, v := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3g", v)
	}
	return out + "]"
}
