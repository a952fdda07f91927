package data

import (
	"fmt"
	"sync"

	"gmreg/internal/tensor"
)

// The input pipeline factors the trainers' batch assembly — shuffle the row
// order each epoch, then gather (and optionally augment) contiguous batches
// — into one deterministic sequence that can be produced either inline on
// the training goroutine or ahead of time by a prefetch goroutine. Both
// modes consume a single seeded RNG in exactly the order the original
// train.Network loop did (one shuffle per epoch, then three augmentation
// draws per image), so for a given seed the batch stream is bit-identical
// no matter who assembles it or how far ahead it runs.

// StreamConfig configures the deterministic minibatch sequence over an
// ImageSet.
type StreamConfig struct {
	// Batch is the global minibatch size (clamped to the set size).
	Batch int
	// Epochs bounds the sequence: Epochs passes over the data.
	Epochs int
	// Seed seeds the shuffle/augmentation RNG.
	Seed uint64
	// Augment applies Augment to every gathered image.
	Augment bool
	// Prefetch assembles batches one step ahead on a background goroutine,
	// overlapping gather/augmentation with compute.
	Prefetch bool
	// SkipBatches fast-forwards the sequence past batches already consumed
	// by an earlier (checkpointed) run before the first Next call: the
	// stream replays the skipped shuffles and augmentation draws through the
	// exact production code path, so the batches that follow are
	// bit-identical to positions SkipBatches, SkipBatches+1, … of a fresh
	// stream. Resume-from-checkpoint sets this to completedEpochs×nBatches.
	SkipBatches int
}

// Batches is the minibatch source the trainers consume. Next returns the
// next batch in the deterministic sequence, or (nil, nil) once Epochs
// passes have been produced. The returned tensor and label slice live in a
// recycled slot: they are valid until the following Next call, which is
// long enough for a full forward/backward (layers cache the input only
// until their next Forward). Close releases the prefetch goroutine; it is
// required on early exit and harmless otherwise.
type Batches interface {
	Next() (*tensor.Tensor, []int)
	Close()
}

// NewBatches builds the batch source for cfg, prefetched or inline.
func NewBatches(set *ImageSet, cfg StreamConfig) Batches {
	s := newStream(set, cfg)
	if cfg.Prefetch {
		return newPrefetcher(s)
	}
	return s
}

// slot is one recycled batch buffer.
type slot struct {
	x []float64
	y []int
}

// Stream produces the batch sequence inline, double-buffered so the batch
// handed out stays untouched while the next one is gathered.
type Stream struct {
	set      *ImageSet
	cfg      StreamConfig
	rng      *tensor.RNG
	rows     []int
	nBatches int
	produced int
	total    int
	slots    [2]slot
	last     int
}

func newStream(set *ImageSet, cfg StreamConfig) *Stream {
	if set.N == 0 || cfg.Batch < 1 || cfg.Epochs < 0 {
		panic(fmt.Sprintf("data: invalid stream over %d rows (batch %d, epochs %d)",
			set.N, cfg.Batch, cfg.Epochs))
	}
	if cfg.Batch > set.N {
		cfg.Batch = set.N
	}
	s := &Stream{
		set:      set,
		cfg:      cfg,
		rng:      tensor.NewRNG(cfg.Seed),
		rows:     make([]int, set.N),
		nBatches: (set.N + cfg.Batch - 1) / cfg.Batch,
		last:     -1,
	}
	s.total = cfg.Epochs * s.nBatches
	for i := range s.rows {
		s.rows[i] = i
	}
	sz := set.C * set.H * set.W
	for i := range s.slots {
		s.slots[i] = slot{x: make([]float64, cfg.Batch*sz), y: make([]int, cfg.Batch)}
	}
	if cfg.SkipBatches < 0 || cfg.SkipBatches > s.total {
		panic(fmt.Sprintf("data: cannot skip %d of %d batches", cfg.SkipBatches, s.total))
	}
	// Replay the skipped prefix through fill itself (into slot 0, discarded)
	// so every RNG draw — shuffles and augmentation alike — is consumed in
	// exactly the order a fresh stream would have consumed it. This runs
	// before any prefetch goroutine exists, so the skip is single-threaded.
	for i := 0; i < cfg.SkipBatches; i++ {
		if _, _, ok := s.fill(0); !ok {
			break
		}
	}
	return s
}

// fill gathers the next batch of the sequence into slot si. ok is false
// once the sequence is exhausted.
func (s *Stream) fill(si int) (x *tensor.Tensor, y []int, ok bool) {
	if s.produced >= s.total {
		return nil, nil, false
	}
	b := s.produced % s.nBatches
	if b == 0 {
		s.rng.ShuffleInts(s.rows)
	}
	lo, hi := b*s.cfg.Batch, (b+1)*s.cfg.Batch
	if hi > len(s.rows) {
		hi = len(s.rows)
	}
	sl := &s.slots[si]
	if s.cfg.Augment {
		x, y = s.set.AugmentBatchInto(sl.x, sl.y, s.rows[lo:hi], s.rng)
	} else {
		x, y = s.set.BatchInto(sl.x, sl.y, s.rows[lo:hi])
	}
	s.produced++
	return x, y, true
}

// Next implements Batches by alternating the two slots.
func (s *Stream) Next() (*tensor.Tensor, []int) {
	si := (s.last + 1) & 1
	x, y, ok := s.fill(si)
	if !ok {
		return nil, nil
	}
	s.last = si
	return x, y
}

// Close implements Batches; the inline stream holds no resources.
func (s *Stream) Close() {}

// prefetched is one assembled batch in flight from producer to consumer.
type prefetched struct {
	slot int
	x    *tensor.Tensor
	y    []int
	ok   bool
}

// Prefetcher runs a Stream's fill loop on a background goroutine, one
// batch ahead of the consumer. Slots cycle through a free list: the
// producer only reuses a slot after the consumer has traded it back in,
// so the batch returned by Next is never written concurrently.
type Prefetcher struct {
	ready chan prefetched
	free  chan int
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	prev  int
	eof   bool
}

func newPrefetcher(s *Stream) *Prefetcher {
	return NewPrefetcherFunc(len(s.slots), s.fill)
}

// NewPrefetcherFunc is the generalized prefetcher: fill(si) assembles the
// next batch of an arbitrary sequence into slot si (one of nSlots recycled
// buffers the caller owns) and reports ok=false once the sequence ends. The
// producer goroutine only reuses a slot after the consumer has traded it back
// in via Next, so a returned batch is never written concurrently — the same
// contract the image-stream prefetcher was built on. The online trainer uses
// this to assemble stream minibatches (file tail, socket) ahead of the SGD
// step. fill may block (e.g. waiting on a socket); Close does not interrupt a
// blocked fill, so stream fills must honor their own cancellation.
func NewPrefetcherFunc(nSlots int, fill func(si int) (*tensor.Tensor, []int, bool)) *Prefetcher {
	if nSlots < 1 {
		panic(fmt.Sprintf("data: prefetcher needs at least 1 slot, got %d", nSlots))
	}
	p := &Prefetcher{
		ready: make(chan prefetched, nSlots),
		free:  make(chan int, nSlots),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		prev:  -1,
	}
	for i := 0; i < nSlots; i++ {
		p.free <- i
	}
	go func() {
		defer close(p.done)
		for {
			var si int
			select {
			case si = <-p.free:
			case <-p.stop:
				return
			}
			x, y, ok := fill(si)
			select {
			case p.ready <- prefetched{slot: si, x: x, y: y, ok: ok}:
			case <-p.stop:
				return
			}
			if !ok {
				return
			}
		}
	}()
	return p
}

// Next implements Batches: recycle the previously returned slot, then hand
// out the next prefetched batch.
func (p *Prefetcher) Next() (*tensor.Tensor, []int) {
	if p.eof {
		return nil, nil
	}
	if p.prev >= 0 {
		p.free <- p.prev
		p.prev = -1
	}
	it := <-p.ready
	if !it.ok {
		p.eof = true
		return nil, nil
	}
	p.prev = it.slot
	return it.x, it.y
}

// Close stops the producer goroutine and waits for it to exit.
func (p *Prefetcher) Close() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}
