package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch; Parent indexes the enclosing span (-1 for a root).
// Spans of one /predict request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends, so recording costs a clock read and an append.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Parent: parent, Req: req,
	})
	return len(t.spans) - 1
}

// open starts a span whose end is set later by close.
func (t *tracer) open(name string, start time.Time, parent int) int {
	return t.add(name, start, start, parent, 0)
}

func (t *tracer) close(i int, end time.Time) {
	t.mu.Lock()
	t.spans[i].End = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// ledger is the per-name self time of a trace: each span's duration minus
// the part of it its children cover. The self times add up to wall, the
// summed duration of the root spans.
type ledger struct {
	self  map[string]time.Duration
	count map[string]int
	wall  time.Duration
}

// ledger checks that every span lies inside its parent and that no two
// children of one parent overlap — the conditions under which self times
// partition the wall time — and returns the self times.
func (t *tracer) ledger() (ledger, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := ledger{self: map[string]time.Duration{}, count: map[string]int{}}
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			return l, fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			l.wall += time.Duration(s.End - s.Start)
			continue
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return l, fmt.Errorf("span %d (%s) lies outside its parent %s", i, s.Name, p.Name)
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered := int64(0)
		for j, k := range kids {
			if j > 0 && t.spans[k].Start < t.spans[kids[j-1]].End {
				return l, fmt.Errorf("spans %s and %s under %s overlap", t.spans[kids[j-1]].Name, t.spans[k].Name, s.Name)
			}
			covered += t.spans[k].End - t.spans[k].Start
		}
		l.self[s.Name] += time.Duration(s.End - s.Start - covered)
		l.count[s.Name]++
	}
	return l, nil
}

// reconcile checks the traced wall time against one the workload measured
// around the same calls without the tracer. They may differ only by the
// clock reads between the two, well under 1%.
func (l ledger) reconcile(measured time.Duration) error {
	diff := l.wall - measured
	if diff < 0 {
		diff = -diff
	}
	if diff > measured/100+time.Millisecond {
		return fmt.Errorf("traced wall time %v differs from measured %v", l.wall, measured)
	}
	return nil
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
