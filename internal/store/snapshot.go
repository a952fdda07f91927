package store

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// snapshot is the gob on-wire image of a Store: the content-addressed blob
// set and each key's ordered version hashes. It is how a training process
// exports checkpoints for gmreg-serve to load — the file-backed stand-in for
// Forkbase's shared storage service.
type snapshot struct {
	Blobs     map[string][]byte
	Histories map[string][]string
}

// WriteSnapshot serializes the full store to w. The store stays usable for
// concurrent readers/writers; the snapshot is consistent as of the call.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return gob.NewEncoder(w).Encode(snapshot{Blobs: s.blobs, Histories: s.histories})
}

// ReadSnapshot rebuilds a store from a WriteSnapshot stream. Every blob is
// re-hashed and every history entry checked against the blob set, so a
// truncated or tampered snapshot is rejected rather than served.
func ReadSnapshot(r io.Reader) (*Store, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	s := New()
	for h, b := range snap.Blobs {
		if hashOf(b) != h {
			return nil, fmt.Errorf("store: snapshot blob %.12s… fails content-hash check", h)
		}
		s.blobs[h] = b
	}
	for key, hist := range snap.Histories {
		if key == "" || len(hist) == 0 {
			return nil, fmt.Errorf("store: snapshot has empty key or history")
		}
		for _, h := range hist {
			if _, ok := s.blobs[h]; !ok {
				return nil, fmt.Errorf("store: snapshot history of %q references missing blob %.12s…", key, h)
			}
		}
		s.histories[key] = hist
	}
	return s, nil
}

// fileSync and dirSync are the fsync calls WriteFileAtomic issues, as
// injectable hooks so tests can observe that the durability path really
// runs (and simulate its failures) without instrumenting the kernel.
var (
	fileSync = func(f *os.File) error { return f.Sync() }
	dirSync  = func(f *os.File) error { return f.Sync() }
)

// WriteFileAtomic streams write into a temp file in path's directory and
// renames it over path, so concurrent readers (a polling gmreg-serve, a
// resume loading the latest training checkpoint) only ever observe either
// the old complete file or the new complete file — never a partial write.
// The temp file is fsynced before the rename and the parent directory
// after it, so the completed write also survives power loss: without the
// directory fsync, a crash can durably keep the data blocks yet lose the
// directory entry, resurrecting the old file (or nothing) on reboot.
// This is the one durability primitive every snapshot in the repository goes
// through: the serving store (SaveFile) and the training-state checkpoints
// (train.State.WriteFile).
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := fileSync(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return dirSync(d)
}

// SaveFile writes the store snapshot to path atomically (temp file + rename
// in the destination directory), so a concurrently polling gmreg-serve never
// observes a half-written snapshot.
func SaveFile(path string, s *Store) error {
	return WriteFileAtomic(path, s.WriteSnapshot)
}

// LoadFile reads a snapshot written by SaveFile.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("store: loading %s: %w", path, err)
	}
	return s, nil
}

// LoadOrNew is LoadFile, except a missing file yields an empty store — the
// convenience serve.PublishCheckpoint uses to create or append to a
// checkpoint store in one call.
func LoadOrNew(path string) (*Store, error) {
	s, err := LoadFile(path)
	if os.IsNotExist(err) {
		return New(), nil
	}
	return s, err
}
