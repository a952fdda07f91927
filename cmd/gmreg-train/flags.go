package main

import (
	"fmt"
	"os"
	"strings"

	"gmreg/internal/core"
	"gmreg/internal/train"
)

// runFlags is the subset of the flag surface whose combinations can
// contradict each other. checkFlagConflicts validates it up front so the
// user gets one clear line at startup instead of a config-echo error deep
// inside the trainer (or a silently ignored flag).
type runFlags struct {
	Coordinator string // -coordinator listen address ("" = off)
	Join        string // -join coordinator address ("" = off)
	Trainers    int    // -trainers quorum
	Workers     int    // -workers in-process replicas
	Shard       int    // -shard micro-shard size (0 = defaulted)
	Batch       int    // -batch minibatch size
	Dataset     string // -dataset
	Model       string // -model
	CSV         string // -csv path ("" = off)
	Resume      string // -resume path ("" = off)
	Save        string // -save store key ("" = off)
	Reg         string // -reg regularizer name
	Prior       string // -prior family ("" = follow -reg)
	StorePath   string // -store file (informative reference + -save)

	// ResumeState is the loaded -resume checkpoint when one was given (nil
	// in trainer mode, where the state is never loaded).
	ResumeState *train.State
}

// parsePrior splits a -prior value into family and (for informative) the
// reference checkpoint's store key.
func parsePrior(v string) (family, key string, err error) {
	family, key, informative := strings.Cut(v, ":")
	switch family {
	case "gm", "laplace", "student-t", "slope":
		if informative {
			return "", "", fmt.Errorf("-prior %s takes no :argument", family)
		}
		return family, "", nil
	case "informative":
		if !informative || key == "" {
			return "", "", fmt.Errorf("-prior informative needs a reference checkpoint: -prior informative:<store-key>")
		}
		return family, key, nil
	default:
		return "", "", fmt.Errorf("unknown prior family %q: use gm|laplace|student-t|slope|informative:<ckpt-key>", family)
	}
}

// selectedFamily resolves the run's prior family from -prior (canonical) or
// -reg (legacy): the family tag for adaptive choices, "" for stateless ones
// (slope and the fixed baselines), matching what State.PriorFamily reports
// for the checkpoints such a run writes.
func selectedFamily(f runFlags) string {
	if f.Prior != "" {
		fam, _, err := parsePrior(f.Prior)
		if err != nil {
			return ""
		}
		if fam == "slope" {
			return ""
		}
		return fam
	}
	if f.Reg == "" || f.Reg == "gm" {
		return core.FamilyGM
	}
	return ""
}

// checkFlagConflicts rejects contradictory flag combinations with a one-line
// error. It runs after flag parsing and (outside trainer mode) after the
// -resume checkpoint has been loaded, so the shard-geometry echo can be
// compared before any training machinery is built.
func checkFlagConflicts(f runFlags) error {
	if f.Coordinator != "" && f.Join != "" {
		return fmt.Errorf("-coordinator and -join are mutually exclusive: a process is either the coordinator or a trainer")
	}
	if f.Prior != "" {
		if f.Reg != "" && f.Reg != "gm" {
			return fmt.Errorf("-prior and -reg are two spellings of the same choice: use -prior %s alone", f.Prior)
		}
		fam, _, err := parsePrior(f.Prior)
		if err != nil {
			return err
		}
		if fam == "informative" {
			if f.StorePath == "" {
				return fmt.Errorf("-prior informative:<key> needs -store to name the reference checkpoint's store file")
			}
			if _, err := os.Stat(f.StorePath); err != nil {
				return fmt.Errorf("-prior informative:<key> needs a readable store: %v", err)
			}
		}
	}
	if f.Join != "" {
		switch {
		case f.Resume != "":
			return fmt.Errorf("-join cannot use -resume: training state lives on the coordinator (resume there)")
		case f.Save != "":
			return fmt.Errorf("-join cannot use -save: the coordinator holds the authoritative model (save there)")
		case f.Workers > 1:
			return fmt.Errorf("-join cannot use -workers: a trainer's work assignment comes from the coordinator")
		}
		return nil
	}
	if f.Coordinator != "" {
		switch {
		case f.Trainers < 1:
			return fmt.Errorf("-coordinator needs -trainers >= 1, got %d", f.Trainers)
		case f.Workers > 1:
			return fmt.Errorf("-workers (in-process replicas) and -coordinator (multi-process trainers) are mutually exclusive; use -trainers")
		case f.CSV != "":
			return fmt.Errorf("-coordinator does not support -csv: distributed training covers -dataset cifar and tabular datasets with -model mlp")
		case f.Dataset != "cifar" && f.Model != "mlp":
			return fmt.Errorf("-coordinator needs a network model: use -dataset cifar, or -model mlp for a tabular dataset")
		}
	}
	if f.Resume != "" && f.ResumeState != nil {
		want, got := selectedFamily(f), f.ResumeState.PriorFamily()
		if want != got {
			return fmt.Errorf("-resume checkpoint was trained with prior family %q but this run selects %q; rerun with the checkpoint's prior",
				priorLabel(got), priorLabel(want))
		}
	}
	if f.Resume != "" && f.ResumeState != nil && f.ResumeState.Kind == train.KindNetwork {
		eff := effectiveShard(f)
		if f.ResumeState.ShardSize != eff {
			return fmt.Errorf("-resume checkpoint was written with effective shard size %d, but -shard %d -workers %d -trainers %d -batch %d gives %d; rerun with -shard %d",
				f.ResumeState.ShardSize, f.Shard, f.Workers, f.Trainers, f.Batch, eff, f.ResumeState.ShardSize)
		}
	}
	return nil
}

// priorLabel renders "" (no adaptive state: fixed baselines, slope) readably
// in the resume-mismatch error.
func priorLabel(f string) string {
	if f == "" {
		return "fixed"
	}
	return f
}

// effectiveShard is train.ShardSize over the run's data-parallel width: the
// -trainers quorum for the coordinator, else the -workers replica count.
// (The trainer clamps the batch to the dataset size first; tiny datasets
// should pin -shard.)
func effectiveShard(f runFlags) int {
	width := max(1, f.Workers)
	if f.Coordinator != "" {
		width = f.Trainers
	}
	return train.ShardSize(f.Shard, f.Batch, width)
}
