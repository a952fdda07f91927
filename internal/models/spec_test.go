package models

import (
	"math"
	"testing"

	"gmreg/internal/tensor"
)

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{Family: "alex", InC: 3, Size: 16},
		{Family: "resnet", InC: 3, Size: 32},
		{Family: "mlp", In: 10, Hidden: 8, Classes: 3},
		{Family: "logreg", In: 5},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", s, err)
		}
		if _, err := s.Build(); err != nil {
			t.Errorf("%+v: Build failed: %v", s, err)
		}
	}
	bad := []Spec{
		{Family: "nope"},
		{Family: "alex", InC: 3, Size: 20}, // not divisible by 8
		{Family: "mlp", In: 10, Hidden: 8, Classes: 1},
		{Family: "logreg"},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", s)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("%+v: expected Build error", s)
		}
	}
}

func TestSpecShapes(t *testing.T) {
	s := Spec{Family: "alex", InC: 3, Size: 16}
	if got := s.InputShape(4); len(got) != 4 || got[0] != 4 || got[1] != 3 || got[2] != 16 || got[3] != 16 {
		t.Fatalf("alex InputShape = %v", got)
	}
	if s.NumFeatures() != 3*16*16 || s.NumClasses() != 10 {
		t.Fatalf("alex features/classes = %d/%d", s.NumFeatures(), s.NumClasses())
	}
	m := Spec{Family: "mlp", In: 7, Hidden: 4, Classes: 3}
	if got := m.InputShape(2); len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("mlp InputShape = %v", got)
	}
	if m.NumFeatures() != 7 || m.NumClasses() != 3 {
		t.Fatalf("mlp features/classes = %d/%d", m.NumFeatures(), m.NumClasses())
	}
	if (Spec{Family: "logreg", In: 5}).NumClasses() != 2 {
		t.Fatal("logreg classes != 2")
	}
}

// LogRegNetwork must reproduce the logistic model exactly: softmax over the
// (0, w·x+b) logits equals (1−σ, σ) and argmax equals Predict.
func TestLogRegNetworkEquivalence(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewLogisticRegression(6, 0.5, rng)
	l.B = -0.3
	net := LogRegNetwork(l)

	x := tensor.New(8, 6)
	rng.FillNormal(x.Data, 0, 2)
	out := net.Forward(x, false)
	for i := 0; i < 8; i++ {
		xi := x.Data[i*6 : (i+1)*6]
		z0, z1 := out.Data[i*2], out.Data[i*2+1]
		if z0 != 0 {
			t.Fatalf("sample %d: class-0 logit %v, want 0", i, z0)
		}
		wantZ := l.Logit(xi)
		if math.Abs(z1-wantZ) > 1e-12 {
			t.Fatalf("sample %d: logit %v, want %v", i, z1, wantZ)
		}
		p := math.Exp(z1) / (1 + math.Exp(z1))
		if math.Abs(p-l.PredictProb(xi)) > 1e-12 {
			t.Fatalf("sample %d: prob %v, want %v", i, p, l.PredictProb(xi))
		}
		label := 0
		if z1 > z0 {
			label = 1
		}
		if label != l.Predict(xi) {
			t.Fatalf("sample %d: label %d, want %d", i, label, l.Predict(xi))
		}
	}

	// LogRegFromNetwork inverts the mapping bit for bit.
	back, err := LogRegFromNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	if back.B != l.B || len(back.W) != len(l.W) {
		t.Fatalf("inverse gave %d weights, bias %v; want %d, %v", len(back.W), back.B, len(l.W), l.B)
	}
	for i := range l.W {
		if math.Float64bits(back.W[i]) != math.Float64bits(l.W[i]) {
			t.Fatalf("weight %d: inverse %v, want %v", i, back.W[i], l.W[i])
		}
	}
	mlp, err := Spec{Family: "mlp", In: 6, Hidden: 4, Classes: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LogRegFromNetwork(mlp); err == nil {
		t.Fatal("LogRegFromNetwork accepted an MLP")
	}
}
