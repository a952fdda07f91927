// Package online closes the loop the serving infrastructure implies: a
// trainer that consumes an unbounded sample stream (file tail or socket),
// runs online EM over the GM prior state (core.OnlineGM — decayed sufficient
// statistics through the shared Algorithm 2 lazy schedule), publishes a
// serving checkpoint to the versioned store every N steps so a watching
// gmreg-serve picks it up live, and uses the learned mixture itself as a
// drift detector. DESIGN.md §16 describes the pieces.
package online

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sample is one labeled stream record: encoded features plus a 0/1 label.
type Sample struct {
	Features []float64
	Label    int
}

// Source is an unbounded sample stream. Next blocks until a sample is
// available, the stream ends (io.EOF), or ctx is done (ctx.Err()). Sources
// are single-consumer: Next must not be called concurrently. Close releases
// the underlying resource and unblocks a waiting Next.
type Source interface {
	Next(ctx context.Context) (Sample, error)
	Close() error
}

// ParseSample decodes one wire line: comma-separated features with the
// integer label last, e.g. "0.12,-1.5,3.0,1".
func ParseSample(line string) (Sample, error) {
	line = strings.TrimSpace(line)
	fields := strings.Split(line, ",")
	if len(fields) < 2 {
		return Sample{}, fmt.Errorf("online: sample line needs at least one feature and a label: %q", line)
	}
	label, err := strconv.Atoi(strings.TrimSpace(fields[len(fields)-1]))
	if err != nil || (label != 0 && label != 1) {
		return Sample{}, fmt.Errorf("online: bad label in %q", line)
	}
	feat := make([]float64, len(fields)-1)
	for i, f := range fields[:len(fields)-1] {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return Sample{}, fmt.Errorf("online: bad feature %d in %q: %w", i, line, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Sample{}, fmt.Errorf("online: non-finite feature %d in %q", i, line)
		}
		feat[i] = v
	}
	return Sample{Features: feat, Label: label}, nil
}

// AppendSample encodes s as a wire line (ParseSample's inverse) and appends
// it, newline-terminated, to dst.
func AppendSample(dst []byte, s Sample) []byte {
	for _, f := range s.Features {
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		dst = append(dst, ',')
	}
	dst = strconv.AppendInt(dst, int64(s.Label), 10)
	return append(dst, '\n')
}

// FileTail streams samples appended to a growing file, like `tail -f`. It
// keeps a byte cursor over complete lines only, so a partially written tail
// is left for the next poll; when the file shrinks or is replaced
// (truncation, log rotation) the cursor resets to the start of the new
// content and streaming resumes. The cursor is replayable: Cursor after any
// Next is the offset of the first unconsumed byte, and TailFileAt resumes
// from it.
type FileTail struct {
	path string
	poll time.Duration

	mu      sync.Mutex
	off     int64
	pending []Sample
	closed  chan struct{}
	once    sync.Once
}

// TailFile tails path from the beginning, polling for growth every poll
// (default 50ms). The file does not need to exist yet.
func TailFile(path string, poll time.Duration) *FileTail {
	return TailFileAt(path, 0, poll)
}

// TailFileAt resumes a tail from a byte cursor previously read with Cursor.
func TailFileAt(path string, cursor int64, poll time.Duration) *FileTail {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	if cursor < 0 {
		cursor = 0
	}
	return &FileTail{path: path, poll: poll, off: cursor, closed: make(chan struct{})}
}

// Cursor returns the byte offset of the first unconsumed line. It is only
// meaningful between Next calls (single-consumer contract).
func (t *FileTail) Cursor() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.off
}

// Next implements Source.
func (t *FileTail) Next(ctx context.Context) (Sample, error) {
	for {
		t.mu.Lock()
		if len(t.pending) > 0 {
			s := t.pending[0]
			t.pending = t.pending[1:]
			t.mu.Unlock()
			return s, nil
		}
		t.mu.Unlock()
		if err := t.refill(); err != nil {
			return Sample{}, err
		}
		t.mu.Lock()
		n := len(t.pending)
		t.mu.Unlock()
		if n > 0 {
			continue
		}
		select {
		case <-ctx.Done():
			return Sample{}, ctx.Err()
		case <-t.closed:
			return Sample{}, io.EOF
		case <-time.After(t.poll):
		}
	}
}

// refill reads every complete line past the cursor into pending. The file is
// reopened on each poll so a rotated (replaced) file is picked up; a file
// smaller than the cursor means truncation or rotation, and the cursor
// resets to 0 so the new content streams from its start.
func (t *FileTail) refill() error {
	f, err := os.Open(t.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // not created yet (or mid-rotation); poll again
		}
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if fi.Size() < t.off {
		t.off = 0
	}
	if fi.Size() == t.off {
		return nil
	}
	if _, err := f.Seek(t.off, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			// Incomplete final line: leave it (and the cursor) for the
			// writer to finish.
			return nil
		}
		t.off += int64(len(line))
		if strings.TrimSpace(line) == "" {
			continue
		}
		s, perr := ParseSample(line)
		if perr != nil {
			return perr
		}
		t.pending = append(t.pending, s)
	}
}

// Close implements Source, unblocking a polling Next with io.EOF.
func (t *FileTail) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// SocketSource streams samples from a TCP listener: one producer connection
// at a time, newline-delimited ParseSample lines. A dropped producer (EOF,
// reset, bad line) does not end the stream — the source closes the dead
// connection and re-accepts, so a restarted producer resumes feeding the
// same trainer. Close shuts the listener and ends the stream.
type SocketSource struct {
	ln net.Listener

	mu       sync.Mutex
	conn     net.Conn
	rd       *bufio.Reader
	carry    string // partial line consumed before a read deadline fired
	accepted int

	closed chan struct{}
	once   sync.Once
}

// ListenSocket listens on addr (e.g. "127.0.0.1:0") for sample producers.
func ListenSocket(addr string) (*SocketSource, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("online: listening on %s: %w", addr, err)
	}
	return &SocketSource{ln: ln, closed: make(chan struct{})}, nil
}

// Addr returns the bound listen address.
func (s *SocketSource) Addr() string { return s.ln.Addr().String() }

// Reconnects counts producer connections accepted after the first — the
// dropped-producer recovery the tests assert.
func (s *SocketSource) Reconnects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.accepted <= 1 {
		return 0
	}
	return s.accepted - 1
}

// Next implements Source.
func (s *SocketSource) Next(ctx context.Context) (Sample, error) {
	for {
		select {
		case <-ctx.Done():
			return Sample{}, ctx.Err()
		case <-s.closed:
			return Sample{}, io.EOF
		default:
		}
		if err := s.ensureConn(ctx); err != nil {
			return Sample{}, err
		}
		s.mu.Lock()
		conn, rd := s.conn, s.rd
		s.mu.Unlock()
		// Bound each read so ctx cancellation and Close are honored even
		// while a live producer is idle.
		conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		line, err := rd.ReadString('\n')
		if err != nil {
			if isTimeout(err) {
				// bufio consumed whatever arrived before the deadline;
				// carry the partial line into the next read.
				s.mu.Lock()
				s.carry += line
				s.mu.Unlock()
				continue
			}
			// Producer dropped (EOF, reset): discard the connection (and
			// any partial line) and re-accept.
			s.dropConn(conn)
			continue
		}
		s.mu.Lock()
		line, s.carry = s.carry+line, ""
		s.mu.Unlock()
		if strings.TrimSpace(line) == "" {
			continue
		}
		sample, perr := ParseSample(line)
		if perr != nil {
			s.dropConn(conn)
			continue
		}
		return sample, nil
	}
}

// ensureConn accepts a producer if none is connected. Accept is bounded by a
// deadline so ctx cancellation and Close are honored while waiting.
func (s *SocketSource) ensureConn(ctx context.Context) error {
	s.mu.Lock()
	have := s.conn != nil
	s.mu.Unlock()
	if have {
		return nil
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.closed:
			return io.EOF
		default:
		}
		if d, ok := s.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Now().Add(250 * time.Millisecond))
		}
		conn, err := s.ln.Accept()
		if err != nil {
			if isTimeout(err) {
				continue
			}
			select {
			case <-s.closed:
				return io.EOF
			default:
				return fmt.Errorf("online: accept: %w", err)
			}
		}
		s.mu.Lock()
		s.accepted++
		s.conn, s.rd = conn, bufio.NewReader(conn)
		s.mu.Unlock()
		return nil
	}
}

// dropConn closes a dead producer connection and forgets it so the next
// Next re-accepts.
func (s *SocketSource) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	if s.conn == conn {
		s.conn, s.rd, s.carry = nil, nil, ""
	}
	s.mu.Unlock()
}

// Close implements Source: the listener and any live producer connection are
// closed and a waiting Next returns io.EOF.
func (s *SocketSource) Close() error {
	s.once.Do(func() { close(s.closed) })
	err := s.ln.Close()
	s.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
		s.conn, s.rd = nil, nil
	}
	s.mu.Unlock()
	return err
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
