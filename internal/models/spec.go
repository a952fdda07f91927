package models

import (
	"fmt"

	"gmreg/internal/nn"
	"gmreg/internal/tensor"
)

// Spec declaratively describes one of the repo's model architectures, so a
// serving checkpoint (internal/serve) can rebuild the network at load time
// and validate request shapes without shipping code. The zero value is
// invalid; Family selects which of the other fields apply.
type Spec struct {
	// Family is the architecture: "alex" | "resnet" | "mlp" | "logreg".
	Family string
	// InC and Size describe the square image input of the conv families
	// (alex, resnet), both 10-way classifiers.
	InC, Size int
	// In is the flat feature count of the tabular families (mlp, logreg).
	In int
	// Hidden is the mlp hidden width.
	Hidden int
	// Classes is the mlp output arity; alex/resnet are fixed at 10 and
	// logreg at 2.
	Classes int
}

// Validate checks the spec is well-formed for its family.
func (s Spec) Validate() error {
	switch s.Family {
	case "alex":
		if s.InC <= 0 || s.Size <= 0 || s.Size%8 != 0 {
			return fmt.Errorf("models: alex spec needs InC > 0 and Size divisible by 8, got InC=%d Size=%d", s.InC, s.Size)
		}
	case "resnet":
		if s.InC <= 0 || s.Size <= 0 || s.Size%4 != 0 {
			return fmt.Errorf("models: resnet spec needs InC > 0 and Size divisible by 4, got InC=%d Size=%d", s.InC, s.Size)
		}
	case "mlp":
		if s.In <= 0 || s.Hidden <= 0 || s.Classes <= 1 {
			return fmt.Errorf("models: mlp spec needs In, Hidden > 0 and Classes > 1, got In=%d Hidden=%d Classes=%d", s.In, s.Hidden, s.Classes)
		}
	case "logreg":
		if s.In <= 0 {
			return fmt.Errorf("models: logreg spec needs In > 0, got %d", s.In)
		}
	default:
		return fmt.Errorf("models: unknown model family %q", s.Family)
	}
	return nil
}

// Build constructs the architecture. Weights are deterministically
// initialized but meaningless; callers load trained values with
// nn.LoadWeights.
func (s Spec) Build() (*nn.Network, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(1)
	switch s.Family {
	case "alex":
		return AlexCIFAR10(s.InC, s.Size, rng), nil
	case "resnet":
		return ResNet20(s.InC, s.Size, rng), nil
	case "mlp":
		return MLP(s.In, s.Hidden, s.Classes, rng), nil
	default: // "logreg"; Validate rejected everything else
		return nn.NewNetwork(nn.NewDense("logreg", s.In, 2, 0.1, rng)), nil
	}
}

// InputShape returns the network input shape for a batch of n samples.
func (s Spec) InputShape(n int) []int {
	switch s.Family {
	case "alex", "resnet":
		return []int{n, s.InC, s.Size, s.Size}
	default:
		return []int{n, s.In}
	}
}

// NumFeatures returns the flat per-sample feature count a predict request
// must supply.
func (s Spec) NumFeatures() int {
	switch s.Family {
	case "alex", "resnet":
		return s.InC * s.Size * s.Size
	default:
		return s.In
	}
}

// NumClasses returns the classifier's output arity.
func (s Spec) NumClasses() int {
	switch s.Family {
	case "alex", "resnet":
		return 10
	case "logreg":
		return 2
	default:
		return s.Classes
	}
}

// LogRegNetwork converts a trained binary LogisticRegression into an exactly
// equivalent two-class softmax network: logits (0, w·x+b), so the class-1
// softmax probability equals σ(w·x+b) and argmax matches Predict. This lets
// the serving stack treat every model family as an nn.Network.
func LogRegNetwork(l *LogisticRegression) *nn.Network {
	spec := Spec{Family: "logreg", In: len(l.W)}
	net, err := spec.Build()
	if err != nil {
		panic(err) // len(l.W) > 0 by construction
	}
	ps := net.Params()
	weight, bias := ps[0], ps[1]
	in := len(l.W)
	// Dense weights are out×in row-major: row 0 (class 0) stays zero, row 1
	// (class 1) carries the logistic weights.
	for i := range weight.W[:in] {
		weight.W[i] = 0
	}
	copy(weight.W[in:], l.W)
	bias.W[0], bias.W[1] = 0, l.B
	return net
}

// LogRegFromNetwork is the inverse of LogRegNetwork: it reads the logistic
// weights (row 1 of the 2×In dense matrix) and the intercept (bias[1]) back
// out of a logreg-family network. The returned model owns its weights.
func LogRegFromNetwork(net *nn.Network) (*LogisticRegression, error) {
	ps := net.Params()
	if len(ps) != 2 || len(ps[0].W) == 0 || len(ps[0].W)%2 != 0 || len(ps[1].W) != 2 {
		return nil, fmt.Errorf("models: network is not a two-class logistic regression")
	}
	in := len(ps[0].W) / 2
	return &LogisticRegression{W: append([]float64(nil), ps[0].W[in:]...), B: ps[1].W[1]}, nil
}
