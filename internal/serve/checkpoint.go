// Package serve is the inference-serving subsystem: it turns the repo's
// training-only reproduction into the train→store→serve pipeline of the
// paper's GEMINI stack (Fig. 1), where models and their learned GM
// regularizer snapshots live versioned in the Forkbase-style substrate
// (internal/store) and are served to applications.
//
// Three layers:
//
//   - Checkpoint: the versioned serving artifact — an architecture spec
//     (models.Spec), an nn.SaveWeights blob, and the learned GM snapshot.
//   - Registry: resolves store keys to decoded Checkpoints, follows new
//     versions as they land (or pins one), and hot-swaps atomically.
//   - Predictor: a replica pool plus micro-batching queue that coalesces
//     concurrent predict requests into single Forward passes, with bounded
//     admission and graceful drain.
//
// cmd/gmreg-serve wires the three behind an HTTP JSON API.
package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"gmreg/internal/models"
	"gmreg/internal/nn"
	"gmreg/internal/store"
)

// Checkpoint is one serving artifact: everything needed to rebuild and run a
// trained model. It is stored as a single versioned value in internal/store,
// so the blob — weights *and* the learned regularizer that produced them —
// rolls forward and back as a unit.
type Checkpoint struct {
	// Spec rebuilds the architecture (models.Spec.Build).
	Spec models.Spec
	// Weights is the nn.SaveWeights blob (parameters plus batch-norm
	// running statistics).
	Weights []byte
	// GM is the learned GM regularizer snapshot as JSON — a single
	// core.GM object for tabular models, a name→snapshot object for
	// networks — or nil when trained without the GM tool.
	GM []byte
	// Meta carries free-form provenance: dataset, seed, accuracy, ….
	Meta map[string]string
}

// NewCheckpoint captures net's current weights under the given spec. gm and
// meta may be nil.
func NewCheckpoint(spec models.Spec, net *nn.Network, gm []byte, meta map[string]string) (*Checkpoint, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := nn.SaveWeights(&buf, net); err != nil {
		return nil, err
	}
	return &Checkpoint{Spec: spec, Weights: buf.Bytes(), GM: gm, Meta: meta}, nil
}

// Marshal encodes the checkpoint for storage.
func (c *Checkpoint) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("serve: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalCheckpoint decodes a stored checkpoint and validates its spec, so
// a non-checkpoint blob under a store key is rejected at registry load, not
// at request time.
func UnmarshalCheckpoint(b []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&c); err != nil {
		return nil, fmt.Errorf("serve: decoding checkpoint: %w", err)
	}
	if err := c.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("serve: checkpoint spec: %w", err)
	}
	if len(c.Weights) == 0 {
		return nil, fmt.Errorf("serve: checkpoint has no weights")
	}
	return &c, nil
}

// Build rebuilds the network and loads the checkpointed weights into it.
// Each call returns an independent replica.
func (c *Checkpoint) Build() (*nn.Network, error) {
	net, err := c.Spec.Build()
	if err != nil {
		return nil, err
	}
	if err := nn.LoadWeights(bytes.NewReader(c.Weights), net); err != nil {
		return nil, err
	}
	return net, nil
}

// PutCheckpoint marshals the checkpoint and appends it as a new version of
// key, returning the version the registry will pick up.
func PutCheckpoint(st *store.Store, key string, c *Checkpoint) (store.Version, error) {
	b, err := c.Marshal()
	if err != nil {
		return store.Version{}, err
	}
	return st.Put(key, b)
}

// PublishCheckpoint appends c as a new version of key in the store snapshot
// file at path, creating the file if it is missing, and rewrites the file
// atomically and durably (store.SaveFile), so a watching server picks the
// version up whole or not at all.
func PublishCheckpoint(path, key string, c *Checkpoint) (store.Version, error) {
	st, err := store.LoadOrNew(path)
	if err != nil {
		return store.Version{}, err
	}
	v, err := PutCheckpoint(st, key, c)
	if err != nil {
		return store.Version{}, err
	}
	if err := store.SaveFile(path, st); err != nil {
		return store.Version{}, err
	}
	return v, nil
}
