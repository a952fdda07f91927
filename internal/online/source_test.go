package online

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseSampleRoundTrip(t *testing.T) {
	in := Sample{Features: []float64{0.125, -3.5, 42}, Label: 1}
	line := AppendSample(nil, in)
	out, err := ParseSample(string(line))
	if err != nil {
		t.Fatalf("ParseSample: %v", err)
	}
	if out.Label != in.Label || len(out.Features) != len(in.Features) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	for i := range in.Features {
		if out.Features[i] != in.Features[i] {
			t.Fatalf("feature %d: got %v want %v", i, out.Features[i], in.Features[i])
		}
	}
}

func TestParseSampleRejectsBadInput(t *testing.T) {
	for _, line := range []string{"", "1", "0.5,2", "a,b,1", "0.5,0.2,1.5",
		"NaN,1", "0.5,nan,0", "Inf,1", "0.5,-Inf,0", "+inf,1", "1e400,0"} {
		if _, err := ParseSample(line); err == nil {
			t.Errorf("ParseSample(%q) accepted bad input", line)
		}
	}
}

// FuzzParseSample: whatever ParseSample accepts has only finite features and
// survives an AppendSample → ParseSample round trip bit for bit.
func FuzzParseSample(f *testing.F) {
	for _, seed := range []string{"0.12,-1.5,3.0,1", "1,0", " -0 , 1e-300 ,1\n",
		"NaN,1", "0.5,+Inf,0", "1e400,1", "a,b,1", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		s, err := ParseSample(line)
		if err != nil {
			return
		}
		for i, v := range s.Features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite feature %d (%v) from %q", i, v, line)
			}
		}
		back, err := ParseSample(string(AppendSample(nil, s)))
		if err != nil {
			t.Fatalf("re-parsing the encoding of %q: %v", line, err)
		}
		if back.Label != s.Label || len(back.Features) != len(s.Features) {
			t.Fatalf("round trip of %q: %+v vs %+v", line, back, s)
		}
		for i := range s.Features {
			if math.Float64bits(back.Features[i]) != math.Float64bits(s.Features[i]) {
				t.Fatalf("round trip of %q: feature %d %v vs %v", line, i, back.Features[i], s.Features[i])
			}
		}
	})
}

// appendLines appends encoded samples to path (creating it if needed).
func appendLines(t *testing.T, path string, samples ...Sample) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, s := range samples {
		buf = AppendSample(buf, s)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustNext(t *testing.T, src Source) Sample {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s, err := src.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return s
}

func TestFileTailStreamsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.csv")
	tail := TailFile(path, time.Millisecond)
	defer tail.Close()

	appendLines(t, path, Sample{Features: []float64{1}, Label: 0})
	if s := mustNext(t, tail); s.Features[0] != 1 {
		t.Fatalf("got %+v", s)
	}
	// A partially written line must not be consumed until its newline lands.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "2,")
	f.Sync()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	if _, err := tail.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partial line was consumed early: %v", err)
	}
	cancel()
	fmt.Fprintf(f, "1\n")
	f.Close()
	if s := mustNext(t, tail); s.Features[0] != 2 || s.Label != 1 {
		t.Fatalf("got %+v", s)
	}
}

func TestFileTailResumesFromCursor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.csv")
	appendLines(t, path,
		Sample{Features: []float64{1}, Label: 0},
		Sample{Features: []float64{2}, Label: 1},
		Sample{Features: []float64{3}, Label: 0})

	tail := TailFile(path, time.Millisecond)
	if s := mustNext(t, tail); s.Features[0] != 1 {
		t.Fatalf("got %+v", s)
	}
	// The cursor only advances past lines refill has consumed, so drain the
	// pending buffer before snapshotting it.
	if s := mustNext(t, tail); s.Features[0] != 2 {
		t.Fatalf("got %+v", s)
	}
	if s := mustNext(t, tail); s.Features[0] != 3 {
		t.Fatalf("got %+v", s)
	}
	cur := tail.Cursor()
	tail.Close()
	if cur == 0 {
		t.Fatal("cursor did not advance")
	}

	appendLines(t, path, Sample{Features: []float64{4}, Label: 1})
	resumed := TailFileAt(path, cur, time.Millisecond)
	defer resumed.Close()
	if s := mustNext(t, resumed); s.Features[0] != 4 {
		t.Fatalf("resume replayed or skipped: got %+v", s)
	}
}

func TestFileTailRecoversFromTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.csv")
	tail := TailFile(path, time.Millisecond)
	defer tail.Close()

	appendLines(t, path,
		Sample{Features: []float64{1}, Label: 0},
		Sample{Features: []float64{2}, Label: 1})
	if s := mustNext(t, tail); s.Features[0] != 1 {
		t.Fatalf("got %+v", s)
	}
	if s := mustNext(t, tail); s.Features[0] != 2 {
		t.Fatalf("got %+v", s)
	}

	// Truncate (the writer restarted its log) and write fresh content: the
	// cursor must reset to the new file's start, not wait for the file to
	// regrow past the old offset.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	appendLines(t, path, Sample{Features: []float64{10}, Label: 1})
	if s := mustNext(t, tail); s.Features[0] != 10 {
		t.Fatalf("after truncation got %+v", s)
	}
}

func TestFileTailRecoversFromRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.csv")
	tail := TailFile(path, time.Millisecond)
	defer tail.Close()

	appendLines(t, path,
		Sample{Features: []float64{1}, Label: 0},
		Sample{Features: []float64{2}, Label: 1})
	if s := mustNext(t, tail); s.Features[0] != 1 {
		t.Fatalf("got %+v", s)
	}
	if s := mustNext(t, tail); s.Features[0] != 2 {
		t.Fatalf("got %+v", s)
	}

	// Rotate: rename the old file away and start a fresh one at path.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	appendLines(t, path, Sample{Features: []float64{20}, Label: 0})
	if s := mustNext(t, tail); s.Features[0] != 20 {
		t.Fatalf("after rotation got %+v", s)
	}
}

func TestFileTailCloseUnblocksNext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.csv")
	tail := TailFile(path, time.Millisecond)
	errc := make(chan error, 1)
	go func() {
		_, err := tail.Next(context.Background())
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tail.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("want io.EOF, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock on Close")
	}
}

// produce dials the socket source and writes samples, returning the closed
// connection's error if any write failed.
func produce(t *testing.T, addr string, samples ...Sample) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf []byte
	for _, s := range samples {
		buf = AppendSample(buf, s)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

func TestSocketSourceStreams(t *testing.T) {
	src, err := ListenSocket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	produce(t, src.Addr(),
		Sample{Features: []float64{1, 2}, Label: 0},
		Sample{Features: []float64{3, 4}, Label: 1})
	if s := mustNext(t, src); s.Features[0] != 1 || s.Label != 0 {
		t.Fatalf("got %+v", s)
	}
	if s := mustNext(t, src); s.Features[1] != 4 || s.Label != 1 {
		t.Fatalf("got %+v", s)
	}
}

func TestSocketSourceSurvivesDroppedProducer(t *testing.T) {
	src, err := ListenSocket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// First producer sends one sample, then drops mid-line (a partial write
	// with no newline) and disconnects.
	conn, err := net.Dial("tcp", src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("1,0\n5,")); err != nil {
		t.Fatal(err)
	}
	if s := mustNext(t, src); s.Features[0] != 1 {
		t.Fatalf("got %+v", s)
	}
	conn.Close()

	// A restarted producer must be re-accepted and feed the same consumer;
	// the dead producer's partial "5," must not contaminate its first line.
	type nextResult struct {
		s   Sample
		err error
	}
	done := make(chan nextResult, 1)
	go func() {
		s, err := src.Next(context.Background())
		done <- nextResult{s, err}
	}()
	time.Sleep(20 * time.Millisecond)
	produce(t, src.Addr(), Sample{Features: []float64{7}, Label: 1})
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Next after reconnect: %v", r.err)
		}
		if r.s.Features[0] != 7 || r.s.Label != 1 {
			t.Fatalf("after reconnect got %+v", r.s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("source did not recover from dropped producer")
	}
	if src.Reconnects() < 1 {
		t.Fatalf("Reconnects() = %d, want >= 1", src.Reconnects())
	}
}

func TestSocketSourceCloseUnblocksNext(t *testing.T) {
	src, err := ListenSocket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := src.Next(context.Background())
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	src.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("want io.EOF, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock on Close")
	}
}
