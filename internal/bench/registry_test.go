package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{
		"ablation-gamma", "ablation-grid", "ablation-hpo", "ablation-k", "ablation-merge", "ablation-priors",
		"dataparallel", "distnet", "fig3", "fig4", "fig5", "fig6", "fig7", "hotpath",
		"serveload", "table4", "table5", "table6", "table7", "table8",
	}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestAllIDsAreRegistered(t *testing.T) {
	for _, id := range AllIDs() {
		if _, ok := registry[id]; !ok {
			t.Errorf("AllIDs contains unregistered %q", id)
		}
	}
	for _, id := range AblationIDs() {
		if !strings.HasPrefix(id, "ablation-") {
			t.Errorf("ablation id %q lacks prefix", id)
		}
	}
}

func TestRunByIDUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := RunByID("nope", &buf, microScale(), Options{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunByIDDispatches(t *testing.T) {
	var buf bytes.Buffer
	// A cheap experiment end-to-end through the registry.
	err := RunByID("fig6", &buf, microScale(), Options{Model: ModelAlex})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Fatalf("dispatch produced %q", buf.String())
	}
	// Dataset filter reaches Table VII.
	buf.Reset()
	if err := RunByID("table7", &buf, microScale(), Options{Datasets: []string{"climate-model"}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "climate-model") || strings.Contains(out, "horse-colic") {
		t.Fatal("dataset filter not honoured through the registry")
	}
}

// The scaling-sensitive reports share one top-level header: env,
// scaling_valid and (when invalid) scaling_note.
func TestReportsShareHeader(t *testing.T) {
	h := captureHeader()
	h.ScalingValid, h.ScalingNote = false, "one CPU"
	for _, rep := range []any{
		&HotpathReport{Header: h}, &DataParallelReport{Header: h},
		&DistnetReport{Header: h}, &ServeLoadReport{Header: h},
	} {
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Fatal(err)
		}
		if string(top["scaling_valid"]) != "false" || string(top["scaling_note"]) != `"one CPU"` || top["env"] == nil {
			t.Errorf("%T header keys: env=%s scaling_valid=%s scaling_note=%s", rep, top["env"], top["scaling_valid"], top["scaling_note"])
		}
	}
}
