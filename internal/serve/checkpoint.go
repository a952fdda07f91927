// Package serve is the inference-serving subsystem: it turns the repo's
// training-only reproduction into the train→store→serve pipeline of the
// paper's GEMINI stack (Fig. 1), where models and their learned GM
// regularizer snapshots live versioned in the Forkbase-style substrate
// (internal/store) and are served to applications.
//
// Three layers:
//
//   - Checkpoint: the versioned serving artifact — an architecture spec
//     (models.Spec), the trainer's ordered weight and batch-norm records,
//     and the learned GM snapshots, in the same train.GroupState /
//     StatState / RegState records a training-state checkpoint holds.
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
	"io"
	"sort"

	"gmreg/internal/models"
	"gmreg/internal/nn"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// init fixes the checkpoint tree's gob type ids, which every encoded
// checkpoint embeds, as internal/train does for State: equal models then
// encode to equal bytes in any process, whatever it gob-encoded first.
func init() {
	gob.NewEncoder(io.Discard).Encode(&Checkpoint{})
}

// Checkpoint is one serving artifact: everything needed to rebuild and run a
// trained model. It is stored as a single versioned value in internal/store,
// so the blob — weights *and* the learned regularizer that produced them —
// rolls forward and back as a unit. Every field is an ordered slice, so equal
// models encode to equal bytes and the store's content hash names the model.
type Checkpoint struct {
	// Spec rebuilds the architecture (models.Spec.Build).
	Spec models.Spec
	// Groups are the parameter groups in network order (Vel is nil); Stats
	// the batch-norm running statistics in layer order (train.LoadWeights).
	Groups []train.GroupState
	Stats  []train.StatState
	// Regs holds the learned GM snapshot of each GM-regularized group,
	// sorted by name, or is nil when trained without the GM.
	Regs []train.RegState
	// Meta carries free-form provenance (dataset, seed, …), sorted by key.
	Meta []MetaEntry
}

// MetaEntry is one key/value pair of Checkpoint.Meta.
type MetaEntry struct {
	Key, Value string
}

// NewCheckpoint captures net's current weights under the given spec. regs
// and meta may be nil.
func NewCheckpoint(spec models.Spec, net *nn.Network, regs []train.RegState, meta map[string]string) (*Checkpoint, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Checkpoint{Spec: spec, Regs: regs}
	c.Groups, c.Stats = train.CaptureWeights(net)
	for k, v := range meta {
		c.Meta = append(c.Meta, MetaEntry{k, v})
	}
	sort.Slice(c.Meta, func(i, j int) bool { return c.Meta[i].Key < c.Meta[j].Key })
	return c, nil
}

// Marshal encodes the checkpoint for storage.
func (c *Checkpoint) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("serve: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalCheckpoint decodes a stored checkpoint and validates its spec and
// values, so a non-checkpoint blob or a model with a NaN or ±Inf weight or
// statistic under a store key is rejected at registry load, not at request
// time.
func UnmarshalCheckpoint(b []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&c); err != nil {
		return nil, fmt.Errorf("serve: decoding checkpoint: %w", err)
	}
	if err := c.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("serve: checkpoint spec: %w", err)
	}
	if len(c.Groups) == 0 {
		return nil, fmt.Errorf("serve: checkpoint has no weights")
	}
	for _, g := range c.Groups {
		if !tensor.AllFinite(g.W...) {
			return nil, fmt.Errorf("serve: checkpoint group %q has a non-finite weight", g.Name)
		}
	}
	for _, s := range c.Stats {
		if !tensor.AllFinite(s.Mean...) || !tensor.AllFinite(s.Var...) {
			return nil, fmt.Errorf("serve: checkpoint batch-norm %q has a non-finite statistic", s.Name)
		}
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
	if err := train.LoadWeights(net, c.Groups, c.Stats); err != nil {
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
